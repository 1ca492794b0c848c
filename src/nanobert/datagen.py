"""Synthetic corpora and labeled datasets for end-to-end runs.

Everything here is generated from the package RNG, so a seed pins every
byte. Three task datasets share one word universe with the pretraining
corpus, keeping the tokenizer free of unknown tokens downstream:

* a 15-topic classification set drawn from topic keyword pools,
* a regression set whose real-valued label follows a known
  linear-plus-noise rule of the text's worry/calm word balance,
* an order-probe set where the label depends only on whether "alpha"
  precedes "beta", never on which words appear; bag-of-words models have
  no signal by construction.
"""

from __future__ import annotations

import argparse
import csv
import os

from .rng import Rng

FILLER_WORDS = [
    "time", "year", "people", "way", "day", "thing", "world", "life", "hand",
    "part", "child", "eye", "woman", "place", "work", "week", "case", "point",
    "company", "number", "group", "problem", "fact", "house", "night", "water",
    "room", "mother", "area", "money", "story", "month", "book", "word", "side",
    "kind", "head", "home", "friend", "hour", "power", "game", "line", "city",
    "name", "team", "minute", "idea", "body", "back", "parent", "face", "level",
    "office", "door", "road", "plan", "note", "river", "light",
]

TOPIC_KEYWORDS = {
    "astronomy": ["telescope", "planet", "orbit", "galaxy", "comet", "stellar", "lunar", "cosmic"],
    "cooking": ["recipe", "oven", "simmer", "flavor", "butter", "spice", "roast", "dough"],
    "gardening": ["soil", "seed", "bloom", "prune", "compost", "petal", "weeding", "harvest"],
    "chess": ["knight", "gambit", "checkmate", "pawn", "castling", "opening", "endgame", "bishop"],
    "sailing": ["harbor", "mast", "tide", "anchor", "crew", "breeze", "hull", "voyage"],
    "painting": ["canvas", "brush", "pigment", "easel", "portrait", "palette", "sketch", "mural"],
    "running": ["marathon", "sprint", "pace", "stride", "trail", "jogger", "race", "finish"],
    "music": ["melody", "chord", "rhythm", "violin", "tempo", "concert", "tune", "drum"],
    "weather": ["storm", "forecast", "humidity", "thunder", "drizzle", "frost", "cloud", "wind"],
    "finance": ["budget", "invest", "profit", "market", "dividend", "ledger", "loan", "audit"],
    "medicine": ["clinic", "dosage", "symptom", "remedy", "nurse", "therapy", "diagnosis", "patient"],
    "architecture": ["facade", "blueprint", "archway", "beam", "masonry", "dome", "column", "atrium"],
    "photography": ["shutter", "lens", "exposure", "focus", "aperture", "tripod", "film", "zoom"],
    "fishing": ["rod", "bait", "reel", "hook", "stream", "catching", "lure", "angler"],
    "cycling": ["pedal", "saddle", "helmet", "gears", "sprocket", "tour", "spoke", "descent"],
}

WORRY_WORDS = ["worried", "anxious", "nervous", "tense", "afraid",
               "uneasy", "restless", "dread", "panic", "fearful"]
CALM_WORDS = ["calm", "relaxed", "steady", "peaceful", "settled",
              "untroubled", "quiet", "serene", "assured", "rested"]
MARKER_A = "alpha"
MARKER_B = "beta"


def full_vocabulary() -> list[str]:
    """Every word any generator can emit, in a fixed order."""
    words = list(FILLER_WORDS)
    for topic in TOPIC_KEYWORDS.values():
        words.extend(topic)
    words.extend(WORRY_WORDS)
    words.extend(CALM_WORDS)
    words.extend([MARKER_A, MARKER_B])
    return words


def _pick(rng: Rng, pool: list[str]) -> str:
    return pool[rng.integers(len(pool))]


def pretrain_corpus(seed: int = 11, target_chars: int = 100_000) -> str:
    """Sentences a small masked-language model can make real progress on.

    Two sentence families:

    * topic cycles (70%): one topic's keywords repeated in a fixed cyclic
      order from a random starting point. Any visible window word pins the
      topic; the cycle then makes each masked word nearly deterministic,
      so the reachable loss floor is low.
    * successor chains (30%): drawn from the whole vocabulary, each word
      followed by a fixed permutation successor with probability 0.85.
      These keep every word, not just keywords, in distribution. Chain
      positions are swapped for a marker word 8% of the time so the two
      markers are frequent enough to earn whole-word tokenizer merges.

    A coverage pass guarantees every vocabulary word appears at least once.
    """
    rng = Rng(seed).spawn("corpus")
    vocab = full_vocabulary()
    succ_perm = rng.permutation(len(vocab))
    successor = {vocab[i]: vocab[int(succ_perm[i])] for i in range(len(vocab))}
    topics = list(TOPIC_KEYWORDS.values())

    sentences = []
    # coverage pass: chains seeded at every vocabulary word
    for start in range(0, len(vocab), 6):
        sentences.append(" ".join(vocab[start : start + 6]) + ".")
    total = sum(len(s) + 1 for s in sentences)
    while total < target_chars:
        length = 8 + rng.integers(7)
        if rng.random() < 0.7:
            keywords = topics[rng.integers(len(topics))]
            offset = rng.integers(len(keywords))
            words = [keywords[(offset + i) % len(keywords)] for i in range(length)]
        else:
            word = _pick(rng, vocab)
            words = [word]
            for _ in range(length - 1):
                if rng.random() < 0.85:
                    word = successor[word]
                else:
                    word = _pick(rng, vocab)
                r = rng.random()
                words.append(MARKER_A if r < 0.04 else MARKER_B if r < 0.08 else word)
        sentence = " ".join(words) + "."
        sentences.append(sentence)
        total += len(sentence) + 1
    return " ".join(sentences)


def topic_dataset(n_rows: int = 1500, seed: int = 11) -> tuple[list[str], list[str]]:
    """Keyword-heavy sentences labeled with their topic name."""
    rng = Rng(seed).spawn("topics")
    names = list(TOPIC_KEYWORDS)
    texts, labels = [], []
    for i in range(n_rows):
        topic = names[i % len(names)]
        keywords = TOPIC_KEYWORDS[topic]
        length = 9 + rng.integers(6)
        words = []
        for _ in range(length):
            if rng.random() < 0.6:
                words.append(_pick(rng, keywords))
            else:
                words.append(_pick(rng, FILLER_WORDS))
        texts.append(" ".join(words))
        labels.append(topic)
    # spawn once read only the first 8 bytes of a key; "topic-sh" keeps the
    # stream "topic-shuffle" gave, so the bundled datasets stay unchanged
    order = Rng(seed).spawn("topic-sh").permutation(n_rows)
    return [texts[i] for i in order], [labels[i] for i in order]


def anxiety_dataset(n_rows: int = 2500, seed: int = 11) -> tuple[list[str], list[float]]:
    """Texts whose label is a clipped linear function of the worry share.

    With w worry words and c calm words, the label is
    1 + 8 * w / (w + c) plus Gaussian noise (sd 0.35), clipped to [1, 9].
    """
    rng = Rng(seed).spawn("anxiety")
    texts, labels = [], []
    for _ in range(n_rows):
        u = rng.random()
        length = 12 + rng.integers(7)
        words, n_worry, n_calm = [], 0, 0
        for _ in range(length):
            r = rng.random()
            if r < 0.55 * u:
                words.append(_pick(rng, WORRY_WORDS))
                n_worry += 1
            elif r < 0.55:
                words.append(_pick(rng, CALM_WORDS))
                n_calm += 1
            else:
                words.append(_pick(rng, FILLER_WORDS))
        share = n_worry / (n_worry + n_calm) if (n_worry + n_calm) else 0.5
        label = 1.0 + 8.0 * share + rng.normal() * 0.35
        labels.append(float(min(9.0, max(1.0, label))))
        texts.append(" ".join(words))
    return texts, labels


def order_dataset(n_rows: int, seed: int = 11) -> tuple[list[str], list[str]]:
    """Filler sentences containing both markers; the label is their order.

    Which filler words appear is independent of the label, so any
    order-blind featurization carries no class signal.
    """
    rng = Rng(seed).spawn("order")
    texts, labels = [], []
    for i in range(n_rows):
        length = 5 + rng.integers(3)
        words = [_pick(rng, FILLER_WORDS) for _ in range(length)]
        first = rng.integers(length)
        second = rng.integers(length)
        while second == first:
            second = rng.integers(length)
        lo, hi = min(first, second), max(first, second)
        alpha_first = i % 2 == 0
        words[lo] = MARKER_A if alpha_first else MARKER_B
        words[hi] = MARKER_B if alpha_first else MARKER_A
        texts.append(" ".join(words))
        labels.append("alpha_first" if alpha_first else "beta_first")
    order = Rng(seed).spawn("order-sh").permutation(n_rows)  # see topic_dataset
    return [texts[i] for i in order], [labels[i] for i in order]


def write_csv(path: str, texts: list[str], labels, text_column: str = "text",
              label_column: str = "label") -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow([text_column, label_column])
        for text, label in zip(texts, labels):
            writer.writerow([text, label])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m nanobert.datagen",
        description="Write the bundled synthetic datasets and pretraining corpus.",
    )
    parser.add_argument("--output-dir", required=True)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--corpus-chars", type=int, default=100_000)
    args = parser.parse_args(argv)

    out = args.output_dir
    os.makedirs(out, exist_ok=True)

    corpus = pretrain_corpus(seed=args.seed, target_chars=args.corpus_chars)
    with open(os.path.join(out, "corpus.txt"), "w", encoding="utf-8") as f:
        f.write(corpus + "\n")

    texts, labels = topic_dataset(seed=args.seed)
    write_csv(os.path.join(out, "topics.csv"), texts, labels)

    texts, scores = anxiety_dataset(seed=args.seed)
    write_csv(os.path.join(out, "anxiety.csv"), texts,
              [f"{s:.3f}" for s in scores], label_column="anxiety")

    for name, rows, offset in (("order_train", 500, 0), ("order_dev", 60, 1), ("order_test", 200, 2)):
        texts, labels = order_dataset(rows, seed=args.seed + offset)
        write_csv(os.path.join(out, f"{name}.csv"), texts, labels)

    print(f"wrote corpus.txt ({len(corpus)} chars), topics.csv, anxiety.csv, "
          f"order_train.csv, order_dev.csv, order_test.csv to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
