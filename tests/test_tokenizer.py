"""BPE tokenizer: training order, encode/decode, serialization."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanobert import datagen
from nanobert.tokenizer import (
    CLS_ID,
    MASK_ID,
    NUM_SPECIALS,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    UNK_TOKEN,
    SPACE,
    TokenizerModel,
    _apply_merges,
    _learn_merges,
    pre_tokenize,
    train_bpe,
)

TOY_CORPUS = ["low", "low", "lower"]


def brute_force_pair_counts(corpus):
    """Independent pair counter: chars only, weighted by word occurrences."""
    counts = Counter()
    for text in corpus:
        for word in text.lower().split():
            for a, b in zip(word, word[1:]):
                counts[(a, b)] += 1
    return counts


def count_pairs(words: dict[tuple[str, ...], int]) -> Counter:
    """Occurrence count of each adjacent symbol pair, weighted by word frequency."""
    counts: Counter = Counter()
    for word, freq in words.items():
        for pair in zip(word, word[1:]):
            counts[pair] += freq
    return counts


def _reference_merges(words: dict[tuple[str, ...], int], vocab: dict[str, int],
                      vocab_size: int) -> list[tuple[str, str]]:
    """The oracle for the merge loop: every merge recounts every pair of
    every word and then rewrites every word."""
    merges: list[tuple[str, str]] = []
    while len(vocab) < vocab_size:
        counts = count_pairs(words)
        best = None
        best_count = 1
        for pair, c in counts.items():
            if c < 2 or (pair[0] + pair[1]) in vocab:
                continue
            if c > best_count or (c == best_count and (best is None or pair < best)):
                best, best_count = pair, c
        if best is None:
            break
        merges.append(best)
        vocab[best[0] + best[1]] = len(vocab)
        merged_words: dict[tuple[str, ...], int] = {}
        for word, freq in words.items():
            new = _apply_merges(word, [best])
            merged_words[new] = merged_words.get(new, 0) + freq
        words = merged_words
    return merges


def _reference_train_bpe(corpus, vocab_size: int, lowercase: bool = True) -> TokenizerModel:
    """The oracle for ``train_bpe``, with the merges of ``_reference_merges``."""
    corpus = list(corpus)
    if not corpus:
        raise ValueError("corpus is empty")
    if lowercase:
        corpus = [text.lower() for text in corpus]

    words: dict[tuple[str, ...], int] = {}
    chars: set[str] = set()
    has_space = False
    for text in corpus:
        if not has_space and any(c.isspace() for c in text):
            has_space = True
        for chunk, _ in pre_tokenize(text):
            word = tuple(chunk)
            words[word] = words.get(word, 0) + 1
            chars.update(word)
    if not words:
        raise ValueError("corpus contains no tokenizable characters")

    alphabet = sorted(chars)
    if has_space:
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
    merges = _reference_merges(words, vocab, vocab_size)
    return TokenizerModel(vocab, merges, lowercase)


def _trained(train, corpus, vocab_size, lowercase):
    """``train``'s tokenizer as a JSON document, or the message it refused with."""
    try:
        return train(corpus, vocab_size, lowercase).to_json_dict()
    except ValueError as exc:
        return str(exc)


# short words over two to four letters (one of them upper case), often
# repeated, so pair counts tie and merges run out before the vocab is full
_SMALL_CORPORA = st.lists(
    st.sampled_from(["ab", "abc", "abcd", "aB"]).flatmap(
        lambda letters: st.lists(st.text(letters + " ", max_size=12), min_size=1, max_size=6)),
    min_size=1, max_size=3).map(lambda parts: [text for part in parts for text in part])

# every kind of whitespace str.split and \s agree on, beside underscores,
# digits, punctuation and upper case (one that lowercases to two characters)
_SPACED_CORPORA = st.lists(
    st.text(st.sampled_from(list("aAb1_.-\u0130") + [" ", "\t", "\n", "\x1c", "\u2028", "\xa0"]),
            max_size=24),
    min_size=1, max_size=5)


class TestTraining:
    def test_toy_corpus_pair_counts(self):
        expected = brute_force_pair_counts(TOY_CORPUS)
        assert expected == {("l", "o"): 3, ("o", "w"): 3, ("w", "e"): 1, ("e", "r"): 1}
        words = {("l", "o", "w"): 2, ("l", "o", "w", "e", "r"): 1}
        assert count_pairs(words) == expected

    @settings(max_examples=300, deadline=None)
    @given(_SMALL_CORPORA, st.integers(5, 40), st.booleans())
    def test_matches_the_full_recount(self, corpus, vocab_size, lowercase):
        assert (_trained(train_bpe, corpus, vocab_size, lowercase)
                == _trained(_reference_train_bpe, corpus, vocab_size, lowercase))

    @settings(max_examples=200, deadline=None)
    @given(_SPACED_CORPORA, st.integers(5, 40), st.booleans())
    def test_matches_the_full_recount_across_whitespace_kinds(self, corpus, vocab_size, lowercase):
        """``train_bpe`` chunks each distinct whitespace-split word once."""
        assert (_trained(train_bpe, corpus, vocab_size, lowercase)
                == _trained(_reference_train_bpe, corpus, vocab_size, lowercase))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text("abc", min_size=1, max_size=8), min_size=1, max_size=12),
           st.lists(st.text("abc", min_size=2, max_size=4), max_size=6), st.integers(0, 30))
    def test_merge_loop_matches_the_full_recount(self, chunks, taken, extra):
        """Tokens already in the vocab make pairs collide, which chunks
        drawn by ``train_bpe`` alone were not seen to do."""
        vocab = {token: i for i, token in enumerate(dict.fromkeys(sorted("abc") + taken))}
        size = len(vocab) + extra
        expected = dict(vocab)
        merges = _reference_merges(Counter(tuple(c) for c in chunks), expected, size)
        assert _learn_merges(Counter(chunks), vocab, size) == merges
        assert vocab == expected

    @pytest.mark.parametrize("seed, vocab_size", [(7, 200), (401, 400), (1234, 1000)])
    def test_matches_the_full_recount_on_generated_corpora(self, seed, vocab_size):
        corpus = [datagen.pretrain_corpus(seed=seed, target_chars=20_000)]
        assert (train_bpe(corpus, vocab_size).to_json_dict()
                == _reference_train_bpe(corpus, vocab_size).to_json_dict())

    def test_first_merge_breaks_tie_lexicographically(self):
        # ("l","o") and ("o","w") both occur 3 times; the smaller pair wins
        tok = train_bpe(TOY_CORPUS, vocab_size=11)
        assert tok.merges[0] == ("l", "o")
        assert len(tok.merges) == 1

    def test_vocab_layout_specials_then_alphabet_then_merges(self):
        tok = train_bpe(TOY_CORPUS, vocab_size=11)
        assert {t: i for t, i in tok.vocab.items() if i < NUM_SPECIALS} == SPECIAL_TOKENS
        assert [tok.token_for_id(i) for i in range(5, 11)] == ["e", "l", "o", "r", "w", "lo"]

    def test_merge_stops_below_count_two(self):
        # after "lo" and "low" every remaining pair occurs once
        tok = train_bpe(TOY_CORPUS, vocab_size=50)
        assert tok.merges == [("l", "o"), ("lo", "w")]
        assert tok.vocab_size == 12

    def test_exact_vocab_size_reached(self):
        tok = train_bpe(TOY_CORPUS, vocab_size=12)
        assert tok.vocab_size == 12

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError, match="empty"):
            train_bpe([], vocab_size=10)

    def test_rejects_vocab_size_below_floor(self):
        with pytest.raises(ValueError, match="below the minimum"):
            train_bpe(TOY_CORPUS, vocab_size=9)

    def test_casing_folds_before_training(self):
        tok = train_bpe(["LOW", "Low", "lower"], vocab_size=11)
        assert tok.merges[0] == ("l", "o")

    def test_training_is_deterministic(self):
        a = train_bpe(["the cat sat on the mat", "the cat"], vocab_size=40)
        b = train_bpe(["the cat sat on the mat", "the cat"], vocab_size=40)
        assert a.to_json_dict() == b.to_json_dict()


class TestEncode:
    def setup_method(self):
        self.tok = train_bpe(TOY_CORPUS, vocab_size=11)

    def test_known_segmentation(self):
        # alphabet ids: e=5 l=6 o=7 r=8 w=9, merge lo=10; corpus has no
        # whitespace so no space token exists and none is emitted
        enc = self.tok.encode("low lower", max_length=8)
        assert enc.ids == [CLS_ID, 10, 9, 10, 9, 5, 8, SEP_ID]
        assert enc.attention_mask == [1] * 8

    def test_truncation_keeps_cls_and_sep(self):
        enc = self.tok.encode("low lower", max_length=4)
        assert enc.ids == [CLS_ID, 10, 9, SEP_ID]
        assert enc.attention_mask == [1, 1, 1, 1]

    def test_padding_and_mask(self):
        enc = self.tok.encode("low", max_length=6)
        assert enc.ids == [CLS_ID, 10, 9, SEP_ID, PAD_ID, PAD_ID]
        assert enc.attention_mask == [1, 1, 1, 1, 0, 0]

    def test_empty_text(self):
        enc = self.tok.encode("", max_length=4)
        assert enc.ids == [CLS_ID, SEP_ID, PAD_ID, PAD_ID]
        assert self.tok.decode(enc.ids) == ""

    def test_unknown_character_maps_to_unk(self):
        enc = self.tok.encode("lox", max_length=6)
        assert UNK_ID in enc.ids
        assert self.tok.decode(enc.ids) == "lo" + UNK_TOKEN

    def test_max_length_below_two_rejected(self):
        with pytest.raises(ValueError, match="max_length"):
            self.tok.encode("low", max_length=1)

    def test_merge_table_segments_long_word_into_two_units(self):
        # a merge table built by hand so that applying it in order carves
        # "psychology" into exactly "psych" + "ology"
        chars = sorted("psychology")  # c g h l o p s y (o,y repeat)
        vocab = dict(SPECIAL_TOKENS)
        for ch in sorted(set(chars)):
            vocab[ch] = len(vocab)
        merges = [
            ("p", "s"), ("ps", "y"), ("psy", "c"), ("psyc", "h"),
            ("o", "l"), ("ol", "o"), ("olo", "g"), ("olog", "y"),
        ]
        for left, right in merges:
            vocab[left + right] = len(vocab)
        tok = TokenizerModel(vocab, merges, lowercase=True)
        enc = tok.encode("psychology", max_length=6)
        body = [tok.token_for_id(i) for i in enc.ids[1:3]]
        assert body == ["psych", "ology"]
        assert enc.ids[3] == SEP_ID


class TestDecode:
    def test_roundtrip_recovers_normalized_text(self):
        corpus = ["The cat sat on the mat.", "A dog, a cat!", "mats and dogs"]
        tok = train_bpe(corpus, vocab_size=60)
        for text in ["The CAT sat", "a dog,  a   mat!", " dogs and cats. "]:
            enc = tok.encode(text, max_length=40)
            assert tok.decode(enc.ids) == tok.normalize(text)

    def test_normalize_collapses_whitespace_and_case(self):
        tok = train_bpe(["a b"], vocab_size=8)
        assert tok.normalize("  A \t b\nc ") == "a b c"

    def test_out_of_range_id_rejected(self):
        tok = train_bpe(TOY_CORPUS, vocab_size=11)
        with pytest.raises(ValueError, match="out of range"):
            tok.decode([CLS_ID, 11, SEP_ID])

    def test_mask_token_dropped(self):
        tok = train_bpe(TOY_CORPUS, vocab_size=11)
        assert tok.decode([CLS_ID, 10, MASK_ID, 9, SEP_ID]) == "low"


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(alphabet="abcdef ,.!", max_size=60),
    max_length=st.integers(min_value=2, max_value=24),
)
def test_encoding_shape_invariants(text, max_length):
    tok = train_bpe(["abc def ab fed ,.!", "ace bdf"], vocab_size=30)
    enc = tok.encode(text, max_length=max_length)
    assert len(enc.ids) == len(enc.attention_mask) == max_length
    # mask is 0 exactly on pads, pads form a suffix
    for i, m in zip(enc.ids, enc.attention_mask):
        assert (m == 0) == (i == PAD_ID)
    content = [i for i in enc.ids if i != PAD_ID]
    assert content[0] == CLS_ID and content[-1] == SEP_ID
    assert enc.ids[len(content):] == [PAD_ID] * (max_length - len(content))


class TestSerialization:
    def make(self):
        return train_bpe(["the cat sat on the mat", "a cat, a mat"], vocab_size=40)

    def test_roundtrip_identical_behaviour(self, tmp_path):
        tok = self.make()
        path = tmp_path / "tok.json"
        tok.save(str(path))
        loaded = TokenizerModel.load(str(path))
        assert loaded.to_json_dict() == tok.to_json_dict()
        assert loaded.encode("the mat sat", 16).ids == tok.encode("the mat sat", 16).ids

    def test_file_schema(self, tmp_path):
        tok = self.make()
        path = tmp_path / "tok.json"
        tok.save(str(path))
        doc = json.loads(path.read_text())
        assert set(doc) >= {"vocab", "merges", "specials", "casing"}
        assert doc["specials"] == {"[PAD]": 0, "[UNK]": 1, "[CLS]": 2, "[SEP]": 3, "[MASK]": 4}
        assert all(len(row.split(" ")) == 2 for row in doc["merges"])

    @pytest.mark.parametrize(
        "mutate,message",
        [
            (lambda d: d["specials"].update({"[PAD]": 9}), "specials"),
            (lambda d: d["vocab"].update({"zz": 99}), "contiguous"),
            (lambda d: d["merges"].append("qq zz"), "not yet formed"),
            (lambda d: d["merges"].insert(0, "onlyone"), "left right"),
            (lambda d: d.pop("casing"), "missing key"),
        ],
    )
    def test_load_rejects_invalid_files(self, tmp_path, mutate, message):
        tok = self.make()
        doc = tok.to_json_dict()
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            TokenizerModel.load(str(path))

    def test_merge_referencing_special_rejected(self):
        vocab = dict(SPECIAL_TOKENS)
        vocab.update({"a": 5, "b": 6, "[PAD]a": 7})
        with pytest.raises(ValueError, match="special"):
            TokenizerModel(vocab, [("[PAD]", "a")])


def test_pre_tokenize_splits_words_and_punctuation():
    got = pre_tokenize("hello, wor9ld  x")
    assert got == [("hello", False), (",", False), ("wor9ld", True), ("x", True)]
    assert pre_tokenize("  lead") == [("lead", False)]
    assert pre_tokenize("") == []


@pytest.mark.parametrize("text, chunks", [
    ("snake_case x", [("snake", False), ("_", False), ("case", False), ("x", True)]),
    ("__init__", [("_", False), ("_", False), ("init", False), ("_", False), ("_", False)]),
    ("a\u00a0b", [("a", False), ("b", True)]),  # no-break space
    ("a\u3000b", [("a", False), ("b", True)]),  # ideographic space
    ("a\u200bb", [("a", False), ("\u200b", False), ("b", False)]),  # zero-width space
    ("x\u0663\u0664 y", [("x\u0663\u0664", False), ("y", True)]),  # Arabic-Indic digits
    ("x\u00b2+1", [("x\u00b2", False), ("+", False), ("1", False)]),  # superscript two
    ("cafe\u0301 ok", [("cafe", False), ("\u0301", False), ("ok", True)]),  # combining acute
    ("中文。好", [("中文", False), ("。", False), ("好", False)]),
    ("  hi there \n", [("hi", False), ("there", True)]),
    (" \t ", []),
])
def test_pre_tokenize_chunks(text, chunks):
    assert pre_tokenize(text) == chunks
