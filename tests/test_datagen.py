"""Bundled synthetic data: vocabulary hygiene, label rules, determinism,
and the pinned bytes of the set-up every run starts from."""

import hashlib
import json

import numpy as np
import pytest

from nanobert import datagen
from nanobert.data import load_csv
from nanobert.tokenizer import train_bpe


class TestVocabulary:
    def test_no_word_serves_two_roles(self):
        words = datagen.full_vocabulary()
        assert len(words) == len(set(words))

    def test_single_chunk_words(self):
        # everything must survive whitespace pre-tokenization as one chunk
        assert all(" " not in w and w == w.lower() for w in datagen.full_vocabulary())


class TestPretrainCorpus:
    def test_reaches_target_size_and_covers_vocab(self):
        corpus = datagen.pretrain_corpus(seed=3, target_chars=20_000)
        assert len(corpus) >= 20_000
        present = set(corpus.replace(".", " ").split())
        assert present == set(datagen.full_vocabulary())

    def test_deterministic(self):
        a = datagen.pretrain_corpus(seed=4, target_chars=5_000)
        b = datagen.pretrain_corpus(seed=4, target_chars=5_000)
        assert a == b
        assert a != datagen.pretrain_corpus(seed=5, target_chars=5_000)


class TestTopicDataset:
    def test_balanced_and_on_vocabulary(self):
        texts, labels = datagen.topic_dataset(n_rows=150, seed=3)
        assert len(texts) == 150
        for name in datagen.TOPIC_KEYWORDS:
            assert labels.count(name) == 10
        allowed = set(datagen.FILLER_WORDS)
        for pool in datagen.TOPIC_KEYWORDS.values():
            allowed.update(pool)
        assert all(set(t.split()) <= allowed for t in texts)

    def test_keywords_dominate_their_topic(self):
        texts, labels = datagen.topic_dataset(n_rows=600, seed=3)
        hits, total = 0, 0
        for text, label in zip(texts, labels):
            words = text.split()
            hits += sum(w in datagen.TOPIC_KEYWORDS[label] for w in words)
            total += len(words)
        assert 0.5 <= hits / total <= 0.7


class TestAnxietyDataset:
    def test_labels_follow_worry_share_rule(self):
        texts, labels = datagen.anxiety_dataset(n_rows=400, seed=3)
        worry, calm = set(datagen.WORRY_WORDS), set(datagen.CALM_WORDS)
        gaps = []
        for text, label in zip(texts, labels):
            assert 1.0 <= label <= 9.0
            w = sum(word in worry for word in text.split())
            c = sum(word in calm for word in text.split())
            share = w / (w + c) if (w + c) else 0.5
            gaps.append(abs(label - (1.0 + 8.0 * share)))
        # only clipped Gaussian noise (sd 0.35) separates label from rule
        assert max(gaps) < 2.0
        assert float(np.mean(gaps)) < 0.5

    def test_labels_span_the_scale(self):
        _, labels = datagen.anxiety_dataset(n_rows=400, seed=3)
        assert min(labels) < 2.0 and max(labels) > 8.0


class TestOrderDataset:
    def test_label_is_marker_order(self):
        texts, labels = datagen.order_dataset(200, seed=3)
        for text, label in zip(texts, labels):
            words = text.split()
            assert words.count("alpha") == 1 and words.count("beta") == 1
            expected = "alpha_first" if words.index("alpha") < words.index("beta") else "beta_first"
            assert label == expected
        assert labels.count("alpha_first") == 100

    def test_fillers_carry_no_label_signal(self):
        # same filler pool for both classes, markers excluded
        texts, labels = datagen.order_dataset(300, seed=3)
        fillers = set(datagen.FILLER_WORDS)
        for text in texts:
            assert set(text.split()) - {"alpha", "beta"} <= fillers


class TestMain:
    def test_writes_all_artifacts(self, tmp_path):
        rc = datagen.main(["--output-dir", str(tmp_path), "--seed", "3",
                           "--corpus-chars", "2000"])
        assert rc == 0
        for name in ("corpus.txt", "topics.csv", "anxiety.csv",
                     "order_train.csv", "order_dev.csv", "order_test.csv"):
            assert (tmp_path / name).exists()

        topics = load_csv(str(tmp_path / "topics.csv"), "text", "label")
        assert topics.num_classes == 15
        anxiety = load_csv(str(tmp_path / "anxiety.csv"), "text", "anxiety", label_kind="real")
        assert all(1.0 <= v <= 9.0 for v in anxiety.labels)
        order = load_csv(str(tmp_path / "order_train.csv"), "text", "label")
        assert order.num_classes == 2


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestSetupBytes:
    """sha256 of the corpus, tokenizers and datasets at the sizes the
    benchmark's set-up draws, so a change to a generator, the ``Rng`` stream
    or BPE training that moves any of their bytes fails here. Tokenizers are
    hashed as key-sorted JSON, datasets as the JSON of their (texts, labels)
    pair, whose floats keep every bit."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return datagen.pretrain_corpus(seed=7, target_chars=100_000)

    def test_pretrain_corpus(self, corpus):
        assert _sha256(corpus) == "83f58ddb59a55ce6902bc41cf6f899fc5cc25fcdb8f89a44fdc553dbf9acfd2b"

    @pytest.mark.parametrize("vocab_size, digest", [
        (200, "81f20b5f0dd6cf37041f067499d0f0045986d01aa1416635c495651eacd0633f"),
        (400, "ea0a420eb0186f539b29609a30d715b6c1c2a1dcd6be6589b07ca83e3b9516d1"),
    ])
    def test_tokenizer(self, corpus, vocab_size, digest):
        doc = train_bpe([corpus], vocab_size).to_json_dict()
        assert _sha256(json.dumps(doc, sort_keys=True)) == digest

    @pytest.mark.parametrize("make, rows, digest", [
        (datagen.topic_dataset, 156, "bb338c39fe9035f4a013d8f001024f73f56fc1c8d965105926a00898cc1934d5"),
        (datagen.anxiety_dataset, 64, "39b9651f9d31995aed188deaa7c3178c97a2f4989e9ecdb6f0cc20e50e0702e0"),
        (datagen.order_dataset, 60, "617e027c9e8b339e6d0d1440306f825257820d18e21f964d3a69c0b46960ef4f"),
    ])
    def test_dataset(self, make, rows, digest):
        assert _sha256(json.dumps(make(rows, 7))) == digest
