"""Byte-pair-encoding subword tokenizer trained from raw text.

Vocabulary layout is fixed: ids 0..4 are the special tokens, then the base
alphabet (the distinct non-whitespace characters of the training corpus,
sorted by codepoint, plus a single space token when the corpus contains any
whitespace), then one token per learned merge in merge order. Ids are
contiguous.

Whitespace never participates in merges. Any run of whitespace between two
chunks is encoded as one space token, so ``decode(encode(text))`` recovers
the text up to casing and whitespace canonicalization (see ``normalize``).
Characters outside the alphabet encode to the unknown token and decode to
its marker string.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from .data import check_format_version, read_json, write_json

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = {PAD_TOKEN: 0, UNK_TOKEN: 1, CLS_TOKEN: 2, SEP_TOKEN: 3, MASK_TOKEN: 4}
PAD_ID, UNK_ID, CLS_ID, SEP_ID, MASK_ID = range(5)
NUM_SPECIALS = 5
SPACE = " "

FORMAT_VERSION = 1


# optional whitespace, then a run of alphanumerics or one other character;
# [^\W_] is exactly str.isalnum and \s exactly str.isspace
_CHUNK = re.compile(r"(\s*)([^\W_]+|\S)")


def pre_tokenize(text: str) -> list[tuple[str, bool]]:
    """Split text into chunks tagged with whether whitespace preceded them.

    A chunk is a maximal run of alphanumeric characters or a single other
    non-whitespace character, so punctuation stands alone. The first chunk
    is never tagged, which drops leading whitespace.
    """
    return [(m[2], bool(m[1]) and i > 0) for i, m in enumerate(_CHUNK.finditer(text))]


@dataclass
class Encoding:
    """Fixed-length id sequence: [CLS] body [SEP] then padding."""

    ids: list[int]
    attention_mask: list[int]


def frame(body: list[int], max_length: int) -> Encoding:
    """[CLS] body [SEP] padded to max_length; the body must leave room."""
    ids = [CLS_ID] + body + [SEP_ID]
    pad = max_length - len(ids)
    return Encoding(ids + [PAD_ID] * pad, [1] * len(ids) + [0] * pad)


def _apply_merges(symbols: tuple[str, ...], merges: list[tuple[str, str]]) -> tuple[str, ...]:
    """Apply every merge in table order, each with a left-to-right scan."""
    for left, right in merges:
        if left not in symbols:
            continue
        out: list[str] = []
        i = 0
        while i < len(symbols):
            if i + 1 < len(symbols) and symbols[i] == left and symbols[i + 1] == right:
                out.append(left + right)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = tuple(out)
    return symbols


class TokenizerModel:
    """Trained tokenizer: vocab, ordered merge table, casing flag.

    Instances are immutable apart from an internal chunk-to-ids memo, so
    encode and decode are safe to share across threads.
    """

    def __init__(self, vocab: dict[str, int], merges: list[tuple[str, str]], lowercase: bool = True):
        self.vocab = dict(vocab)
        self.merges = [tuple(m) for m in merges]
        self.lowercase = bool(lowercase)
        self._validate()
        self._id_to_token = [None] * len(self.vocab)
        for tok, idx in self.vocab.items():
            self._id_to_token[idx] = tok
        self._alphabet = {t for t in self.vocab if len(t) == 1}
        self._cache: dict[str, list[int]] = {}

    def _validate(self) -> None:
        for tok, idx in SPECIAL_TOKENS.items():
            if self.vocab.get(tok) != idx:
                raise ValueError(f"special token {tok!r} must have id {idx}")
        ids = sorted(self.vocab.values())
        if ids != list(range(len(self.vocab))):
            raise ValueError("vocab ids must be unique and contiguous from 0")
        # every merge must reference tokens formable at its point in the table
        formed = {t for t in self.vocab if len(t) == 1}
        for k, pair in enumerate(self.merges):
            if len(pair) != 2:
                raise ValueError(f"merge {k} must be a (left, right) pair, got {pair!r}")
            left, right = pair
            if left in SPECIAL_TOKENS or right in SPECIAL_TOKENS:
                raise ValueError(f"merge {k} ({left!r}, {right!r}) references a special token")
            if SPACE in (left, right):
                raise ValueError(f"merge {k} references the space token")
            if left not in formed or right not in formed:
                raise ValueError(f"merge {k} ({left!r}, {right!r}) references a token not yet formed")
            merged = left + right
            if merged not in self.vocab:
                raise ValueError(f"merge {k} produces {merged!r} which is not in the vocab")
            formed.add(merged)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    def token_for_id(self, idx: int) -> str:
        if not 0 <= idx < len(self._id_to_token):
            raise ValueError(f"id {idx} out of range for vocab of size {self.vocab_size}")
        return self._id_to_token[idx]

    def normalize(self, text: str) -> str:
        """Casing plus whitespace canonicalization applied by encode."""
        if self.lowercase:
            text = text.lower()
        parts: list[str] = []
        for chunk, preceded in pre_tokenize(text):
            if preceded:
                parts.append(SPACE)
            parts.append(chunk)
        return "".join(parts)

    def _chunk_ids(self, chunk: str) -> list[int]:
        cached = self._cache.get(chunk)
        if cached is not None:
            return cached
        symbols = tuple(c if c in self._alphabet else UNK_TOKEN for c in chunk)
        symbols = _apply_merges(symbols, self.merges)
        ids = [self.vocab[s] for s in symbols]
        self._cache[chunk] = ids
        return ids

    def encode_body(self, text: str) -> list[int]:
        """Token ids for the text alone: no specials, no truncation, no pad."""
        if self.lowercase:
            text = text.lower()
        has_space = SPACE in self.vocab
        space_id = self.vocab.get(SPACE)
        out: list[int] = []
        for chunk, preceded in pre_tokenize(text):
            if preceded and has_space:
                out.append(space_id)
            out.extend(self._chunk_ids(chunk))
        return out

    def encode(self, text: str, max_length: int) -> Encoding:
        """Fixed-length encoding: [CLS] body [SEP], truncated then padded."""
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2 to fit [CLS] and [SEP], got {max_length}")
        return frame(self.encode_body(text)[: max_length - 2], max_length)

    def decode(self, ids) -> str:
        """Concatenate token strings, dropping structural specials.

        [UNK] stays visible as its marker string; [PAD], [CLS], [SEP] and
        [MASK] are dropped.
        """
        out: list[str] = []
        for idx in ids:
            idx = int(idx)
            tok = self.token_for_id(idx)
            if idx in (PAD_ID, CLS_ID, SEP_ID, MASK_ID):
                continue
            out.append(tok)
        return "".join(out)

    def to_json_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "vocab": self.vocab,
            "merges": [f"{left} {right}" for left, right in self.merges],
            "specials": dict(SPECIAL_TOKENS),
            "casing": self.lowercase,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TokenizerModel":
        check_format_version(doc, FORMAT_VERSION)
        for key in ("vocab", "merges", "specials", "casing"):
            if key not in doc:
                raise ValueError(f"tokenizer file missing key {key!r}")
        if dict(doc["specials"]) != SPECIAL_TOKENS:
            raise ValueError("tokenizer file specials table does not match the fixed special ids")
        merges = []
        for k, row in enumerate(doc["merges"]):
            parts = row.split(" ")
            if len(parts) != 2 or not parts[0] or not parts[1]:
                raise ValueError(f"merge row {k} must be 'left right', got {row!r}")
            merges.append((parts[0], parts[1]))
        vocab = {str(t): int(i) for t, i in doc["vocab"].items()}
        return cls(vocab, merges, bool(doc["casing"]))

    def save(self, path: str) -> None:
        write_json(path, self.to_json_dict())

    @classmethod
    def load(cls, path: str) -> "TokenizerModel":
        return read_json(path, cls.from_json_dict)


def train_bpe(corpus, vocab_size: int, lowercase: bool = True) -> TokenizerModel:
    """Learn a BPE vocab of exactly vocab_size tokens (or fewer if merges run out).

    Greedy: repeatedly merge the most frequent adjacent pair, ties broken by
    the lexicographically smallest (left, right). Stops early when no pair
    occurs at least twice. Pairs whose concatenation collides with an
    existing token string are skipped to keep token strings unique.

    The pair statistics are kept across merges (Sennrich et al.,
    arXiv:1508.07909) rather than recounted: a pair -> count table, a
    pair -> word-indices index and a lazy max-heap of (-count, pair). A
    merge rewrites only the words that hold the chosen pair, subtracts their
    old pair counts, adds the new ones and pushes each pair whose count
    changed. Heap entries whose count went stale are skipped when popped;
    pairs that collide are dropped for good, because the vocab only grows.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus is empty")
    if lowercase:
        corpus = [text.lower() for text in corpus]

    # chunks never span whitespace, and str.split's whitespace is \s, so each
    # distinct word is chunked once and its chunks counted once per occurrence
    words = Counter(word for text in corpus for word in text.split())
    chunks: Counter = Counter()
    for word, count in words.items():
        for _, chunk in _CHUNK.findall(word):
            chunks[chunk] += count
    if not chunks:
        raise ValueError("corpus contains no tokenizable characters")

    alphabet = sorted(set("".join(chunks)))
    if any(c.isspace() for text in corpus for c in text):
        alphabet.append(SPACE)
        alphabet.sort()
    floor = NUM_SPECIALS + len(alphabet)
    if vocab_size < floor:
        raise ValueError(
            f"vocab_size {vocab_size} is below the minimum {floor} "
            f"({NUM_SPECIALS} specials + {len(alphabet)} alphabet characters)"
        )

    vocab = dict(SPECIAL_TOKENS)
    for ch in alphabet:
        vocab[ch] = len(vocab)
    merges = _learn_merges(chunks, vocab, vocab_size)
    return TokenizerModel(vocab, merges, lowercase)


def _learn_merges(chunks: dict[str, int], vocab: dict[str, int],
                  vocab_size: int) -> list[tuple[str, str]]:
    """The merges ``train_bpe`` learns from each chunk's count, each added
    to ``vocab`` with the next id until it holds ``vocab_size`` tokens."""
    symbols = [tuple(chunk) for chunk in chunks]
    freqs = list(chunks.values())
    counts: dict[tuple[str, str], int] = defaultdict(int)
    index: dict[tuple[str, str], set[int]] = defaultdict(set)
    for w, word in enumerate(symbols):
        for pair in zip(word, word[1:]):
            counts[pair] += freqs[w]
            index[pair].add(w)
    # only pairs occurring at least twice can be merged, and a pair's count
    # is pushed again whenever it changes
    heap = [(-c, pair) for pair, c in counts.items() if c >= 2]
    heapq.heapify(heap)

    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        while heap:
            neg_count, best = heapq.heappop(heap)
            if counts.get(best) == -neg_count and best[0] + best[1] not in vocab:
                break
        else:
            break
        merges.append(best)
        vocab[best[0] + best[1]] = len(vocab)
        delta: dict[tuple[str, str], int] = defaultdict(int)
        for w in index.pop(best):
            old = symbols[w]
            new = _apply_merges(old, [best])
            if new == old:  # the index keeps words that lost the pair
                continue
            symbols[w] = new
            freq = freqs[w]
            for pair in zip(old, old[1:]):
                delta[pair] -= freq
            for pair in zip(new, new[1:]):
                delta[pair] += freq
                index[pair].add(w)
        for pair, d in delta.items():
            if not d:
                continue
            c = counts[pair] + d
            if c:
                counts[pair] = c
            else:
                del counts[pair]
                index.pop(pair, None)
            if c >= 2:
                heapq.heappush(heap, (-c, pair))
    return merges
