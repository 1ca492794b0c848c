"""CSV loading, seeded splits with stratification, batching, file writing
and reading."""

import argparse
import ast
import glob
import json
import os
import random
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import REPLICA_COUNTS, class_dataset
import nanobert
from nanobert import cli
from nanobert.baselines import TextBaseline, fit_text_baseline
from nanobert.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from nanobert.data import (
    BUCKET_BATCHES,
    LabeledDataset,
    batch_indices,
    load_csv,
    read_json,
    reading,
    split,
    write_csv,
    write_json,
    write_lines,
)
from nanobert.finetune import HeadConfig
from nanobert.model import ModelConfig, init_params
from nanobert.optim import TrainingConfig
from nanobert.rng import Rng
from nanobert.tokenizer import TokenizerModel, train_bpe


MODEL_FIELDS = dict(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16, vocab_size=12,
                    max_positions=6)
REQUIRED_FIELDS = {ModelConfig: MODEL_FIELDS, TrainingConfig: {}, HeadConfig: {"num_labels": 2}}


class TestFieldTypes:
    """Each config dataclass holds values of its fields' annotated types."""

    @pytest.mark.parametrize("make, field, value, message", [
        (ModelConfig, "num_layers", True, "num_layers must be int, got True"),
        (ModelConfig, "max_positions", 6.0, "max_positions must be int, got 6.0"),
        (ModelConfig, "dropout", "0.1", "dropout must be float, got '0.1'"),
        (TrainingConfig, "num_train_epochs", 1.5, "num_train_epochs must be int, got 1.5"),
        (TrainingConfig, "seed", False, "seed must be int, got False"),
        (TrainingConfig, "metric_for_best_model", None,
         "metric_for_best_model must be str, got None"),
        (HeadConfig, "num_labels", 2.0, "num_labels must be int, got 2.0"),
    ])
    def test_wrong_type_named(self, make, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(**{**REQUIRED_FIELDS[make], field: value})

    def test_ints_pass_for_floats_and_numpy_scalars_pass(self):
        assert ModelConfig(**MODEL_FIELDS, dropout=0).dropout == 0
        assert TrainingConfig(learning_rate=1, num_train_epochs=np.int64(2)).learning_rate == 1
        assert HeadConfig(np.int32(3)).num_labels == 3


class TestLabeledDataset:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="texts but"):
            LabeledDataset(["a"], [0, 1], "class")

    def test_bad_label_kind_rejected(self):
        with pytest.raises(ValueError, match="label_kind"):
            LabeledDataset(["a"], [0], "ordinal")

    def test_class_labels_must_be_ints(self):
        with pytest.raises(ValueError, match="non-negative ints"):
            LabeledDataset(["a"], [0.5], "class")

    def test_num_classes(self):
        ds = LabeledDataset(["a", "b", "c"], [0, 2, 1], "class")
        assert ds.num_classes == 3

    def test_subset_preserves_names(self):
        ds = class_dataset([2, 2])
        sub = ds.subset([0, 3])
        assert sub.texts == ["sample 0 0", "sample 1 1"]
        assert sub.label_names == ds.label_names


class TestLoadCsv:
    def write(self, tmp_path, content, name="data.csv"):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        return str(path)

    def test_class_mapping_by_first_appearance(self, tmp_path):
        path = self.write(tmp_path, 'text,label\n"hello",cat\n"bye",dog\n"hi again",cat\n')
        ds = load_csv(path, "text", "label", "class")
        assert ds.labels == [0, 1, 0]
        assert ds.label_names == ["cat", "dog"]

    def test_quoted_multiline_field(self, tmp_path):
        path = self.write(tmp_path, 'text,label\n"line one\nline two",cat\n')
        ds = load_csv(path, "text", "label", "class")
        assert ds.texts == ["line one\nline two"]

    def test_real_labels_parsed(self, tmp_path):
        path = self.write(tmp_path, "text,score\na,1.5\nb,9\n")
        ds = load_csv(path, "text", "score", "real")
        assert ds.labels == [1.5, 9.0]
        assert ds.label_names is None

    def test_real_parse_failure_names_line(self, tmp_path):
        path = self.write(tmp_path, "text,score\na,1.5\nb,often\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path, "text", "score", "real")

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_real_label_names_line(self, tmp_path, raw):
        path = self.write(tmp_path, f"text,score\na,1.5\nb,{raw}\n")
        with pytest.raises(ValueError, match=f"{path}: line 3: real label '{raw}' is not finite"):
            load_csv(path, "text", "score", "real")

    def test_line_number_counts_blank_lines_and_quoted_newlines(self, tmp_path):
        path = self.write(tmp_path, 'text,score\n\n"a\nb",1.5\nc,nan\n')
        with pytest.raises(ValueError, match=f"{path}: line 5: real label 'nan' is not finite"):
            load_csv(path, "text", "score", "real")

    @pytest.mark.parametrize("label_kind, column", [("class", "label"), ("real", "score")])
    def test_short_row_names_its_physical_line(self, tmp_path, label_kind, column):
        path = self.write(tmp_path, f'text,{column}\n\n"a\nb",1\nshort row\nc,2\n')
        with pytest.raises(ValueError, match=f"^{path}: line 5: no '{column}' field$"):
            load_csv(path, "text", column, label_kind)

    @pytest.mark.parametrize("frozen", [None, ["a", "b"]])
    def test_empty_class_label_names_its_line(self, tmp_path, frozen):
        path = self.write(tmp_path, "text,label\nx,a\ny,  \nz,b\n")
        with pytest.raises(ValueError, match=f"^{path}: line 3: empty class label$"):
            load_csv(path, "text", "label", "class", label_names=frozen)

    def test_missing_column_named(self, tmp_path):
        path = self.write(tmp_path, "text,label\na,b\n")
        with pytest.raises(ValueError, match="'body'"):
            load_csv(path, "body", "label", "class")

    def test_empty_text_skipped_and_logged(self, tmp_path, caplog):
        path = self.write(tmp_path, 'text,label\n"",cat\n"  ",dog\nok,cat\n')
        with caplog.at_level("WARNING"):
            ds = load_csv(path, "text", "label", "class")
        assert len(ds) == 1
        assert "skipped 2 rows" in caplog.text

    def test_frozen_mapping_rejects_new_label(self, tmp_path):
        path = self.write(tmp_path, "text,label\na,cat\nb,fox\n")
        with pytest.raises(ValueError, match="'fox' not in the provided mapping"):
            load_csv(path, "text", "label", "class", label_names=["cat", "dog"])

    def test_frozen_mapping_keeps_ids(self, tmp_path):
        path = self.write(tmp_path, "text,label\na,dog\nb,cat\n")
        ds = load_csv(path, "text", "label", "class", label_names=["cat", "dog"])
        assert ds.labels == [1, 0]


class TestSplitSizes:
    def test_fifteen_class_anchor(self):
        # fractions round half up: 9795 * 0.25 = 2448.75 -> 2449 test;
        # dev is an absolute count from the 7346 remainder
        ds = class_dataset(REPLICA_COUNTS)
        train, dev, test = split(ds, test_size=0.25, dev_size=1225, seed=11, stratify=True)
        assert (len(train), len(dev), len(test)) == (6121, 1225, 2449)

    def test_fifteen_class_anchor_proportions_within_one(self):
        ds = class_dataset(REPLICA_COUNTS)
        train, dev, test = split(ds, test_size=0.25, dev_size=1225, seed=11, stratify=True)
        for part, size in ((train, 6121), (dev, 1225), (test, 2449)):
            got = np.bincount(part.label_array(), minlength=15)
            for c, n_c in enumerate(REPLICA_COUNTS):
                ideal = size * n_c / 9795
                assert abs(got[c] - ideal) <= 1.0, (c, got[c], ideal)

    def test_count_then_fraction_anchor(self):
        # test is a count; dev fraction applies to the 2000 that remain
        ds = class_dataset([1250, 750, 500])
        train, dev, test = split(ds, test_size=500, dev_size=0.1, seed=3, stratify=True)
        assert (len(train), len(dev), len(test)) == (1800, 200, 500)

    def test_partition_is_exact(self):
        ds = class_dataset([30, 20, 10])
        train, dev, test = split(ds, test_size=0.25, dev_size=0.2, seed=5, stratify=True)
        seen = train.texts + dev.texts + test.texts
        assert sorted(seen) == sorted(ds.texts)
        assert len(set(seen)) == len(ds)

    def test_two_class_half_split(self):
        ds = LabeledDataset(["a1", "a2", "b1", "b2"], [0, 0, 1, 1], "class")
        _, _, test = split(ds, test_size=0.5, dev_size=0, seed=1, stratify=True)
        assert sorted(test.labels) == [0, 1]


class TestSplitBehaviour:
    def test_deterministic_per_seed(self):
        ds = class_dataset([40, 30, 20])
        a = split(ds, 0.25, 0.1, seed=7, stratify=True)
        b = split(ds, 0.25, 0.1, seed=7, stratify=True)
        assert all(x.texts == y.texts for x, y in zip(a, b))
        c = split(ds, 0.25, 0.1, seed=8, stratify=True)
        assert any(x.texts != y.texts for x, y in zip(a, c))

    def test_unstratified_also_partitions(self):
        ds = class_dataset([25, 25])
        train, dev, test = split(ds, 10, 5, seed=2, stratify=False)
        assert (len(train), len(dev), len(test)) == (35, 5, 10)
        assert sorted(train.texts + dev.texts + test.texts) == sorted(ds.texts)

    @pytest.mark.parametrize("stratify", [False, True])
    @pytest.mark.parametrize("test_size, dev_size, sizes", [
        (20, 0, (0, 0, 20)),
        (0, 20, (0, 20, 0)),
        (5, 15, (0, 15, 5)),
    ], ids=["test-takes-all", "dev-takes-all", "dev-takes-the-rest"])
    def test_a_draw_may_take_every_remaining_row(self, stratify, test_size, dev_size, sizes):
        ds = class_dataset([12, 8])
        parts = split(ds, test_size, dev_size, seed=3, stratify=stratify)
        assert tuple(len(p) for p in parts) == sizes
        assert sorted(t for p in parts for t in p.texts) == sorted(ds.texts)

    def test_oversized_request_rejected(self):
        ds = class_dataset([10, 10])
        with pytest.raises(ValueError, match="exceeds dataset size"):
            split(ds, 15, 10, seed=0)

    def test_fraction_of_one_ambiguous(self):
        ds = class_dataset([10, 10])
        with pytest.raises(ValueError, match="ambiguous"):
            split(ds, 1.0, 2, seed=0)

    def test_stratify_needs_class_labels(self):
        ds = LabeledDataset(["a", "b", "c"], [1.0, 2.0, 3.0], "real")
        with pytest.raises(ValueError, match="requires class labels"):
            split(ds, 1, 1, seed=0, stratify=True)

    def test_tiny_class_rejected_when_stratifying(self):
        ds = LabeledDataset(["a", "b", "c", "d"], [0, 0, 0, 1], "class")
        with pytest.raises(ValueError, match="smaller"):
            split(ds, 1, 1, seed=0, stratify=True)


class TestBatching:
    def test_covers_everything_once(self):
        blocks = batch_indices(10, 4)
        assert [b.tolist() for b in blocks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_shuffle_seeded_and_epoch_varying(self):
        a = batch_indices(20, 8, Rng(5).spawn("batch", 0))
        b = batch_indices(20, 8, Rng(5).spawn("batch", 0))
        c = batch_indices(20, 8, Rng(5).spawn("batch", 1))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))
        assert sorted(np.concatenate(a).tolist()) == list(range(20))

    def test_plan_without_lengths_is_frozen(self):
        # taken before batch_indices learned lengths=; pretraining's batches
        # and every seeded run without length bucketing depend on it
        assert [b.tolist() for b in batch_indices(23, 4, Rng(5).spawn("batch", 2))] == [
            [15, 20, 14, 3], [21, 12, 8, 10], [2, 9, 6, 17], [7, 4, 1, 13], [18, 16, 0, 22],
            [11, 19, 5]]
        assert [b.tolist() for b in batch_indices(10, 3)] == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lengths=st.lists(st.integers(1, 6), max_size=70), batch_size=st.integers(1, 5),
           shuffle=st.booleans(), seed=st.integers(0, 3), epoch=st.integers(0, 3))
    def test_length_buckets(self, lengths, batch_size, shuffle, seed, epoch):
        n = len(lengths)
        lengths = np.array(lengths)

        def stream():  # a fresh one per plan: a stream advances as it draws
            return Rng(seed).spawn("batch", epoch) if shuffle else None

        plan = batch_indices(n, batch_size, stream(), lengths=lengths)
        again = batch_indices(n, batch_size, stream(), lengths=lengths)
        assert all(np.array_equal(a, b) for a, b in zip(plan, again)) and len(plan) == len(again)
        empty = [np.arange(0)]
        assert sorted(np.concatenate(empty + plan).tolist()) == list(range(n))
        assert all(np.all(np.diff(lengths[b]) >= 0) for b in plan)
        # the plan is the unbucketed order with each window stable-sorted by
        # length and cut; shuffling then reorders the blocks
        order = np.concatenate(empty + batch_indices(n, batch_size, stream()))
        window = BUCKET_BATCHES * batch_size
        expected = []
        for i in range(0, n, window):
            part = order[i : i + window]
            part = part[np.argsort(lengths[part], kind="stable")]
            expected += [part[j : j + batch_size].tolist() for j in range(0, len(part), batch_size)]
        got = [b.tolist() for b in plan]
        if shuffle:
            assert sorted(got) == sorted(expected)
        else:
            assert got == expected

    def test_lengths_must_cover_every_row(self):
        with pytest.raises(ValueError, match="3 lengths for 4 rows"):
            batch_indices(4, 2, lengths=[1, 2, 3])

    def test_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            batch_indices(5, 0)

    @pytest.mark.parametrize("batch_size", [True, 1.5, 2.0, "2", None])
    def test_batch_size_that_is_not_an_int(self, batch_size):
        with pytest.raises(ValueError, match=f"batch_size must be an int, got {batch_size!r}"):
            batch_indices(5, batch_size)


def _failing_rows():
    yield "first"
    yield "second"
    raise RuntimeError("row 3")


def _mutations(blob: bytes, count: int, seed: int = 7):
    """``count`` seeded corruptions of ``blob``: one byte rewritten, one bit
    flipped, or the file cut short."""
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(blob)
        pos = rng.randrange(len(data))
        op = rng.randrange(3)
        if op == 0:
            data[pos] = rng.randrange(256)
        elif op == 1:
            data[pos] ^= 1 << rng.randrange(8)
        else:
            del data[pos:]
        yield bytes(data)


def _save_tokenizer(path):
    train_bpe(["the cat sat on the mat", "a cat, a mat"], vocab_size=40).save(path)


def _save_naive_bayes(path):
    texts = ["red green blue", "cat dog bird", "blue red", "dog cat", "green", "bird"]
    fit_text_baseline("naive_bayes", LabeledDataset(texts, [0, 1, 0, 1, 0, 1], "class",
                                                    ["colors", "animals"])).save(path)


def _save_config(path):
    write_json(path, {"command": "pretrain", "version": "0.1.0", "seed": 3,
                      "data": {"corpus": "corpus.txt"}, "tokenizer": {"vocab_size": 64},
                      "model": {"num_layers": 1, "hidden_size": 16, "dropout": 0.0},
                      "training": {"num_train_epochs": 1, "per_device_train_batch_size": 8}})


def _save_checkpoint(path):
    """A tiny classifier, its label names and its tokenizer sibling."""
    tok = train_bpe(["the cat sat on the mat", "a cat, a mat"], vocab_size=40)
    cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                      vocab_size=tok.vocab_size, max_positions=6, dropout=0.0)
    save_checkpoint(Checkpoint(cfg, init_params(cfg, Rng(5), num_labels=2), tok,
                               ["animals", "colors"]), path)


def _resolve_pretrain_config(path):
    """``nanobert pretrain --config path --output-dir run``'s config."""
    return cli.resolve_config("pretrain", argparse.Namespace(config=path, set=None,
                                                             output_dir="run", seed=None))


def _number_paths(node, path=()):
    """The key path of every number in a parsed JSON document."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _number_paths(value, (*path, key))


def _raw(literal: str) -> str:
    """A value ``_rewrite_document`` writes as the bare ``literal``."""
    return f"<raw {literal}>"


def _rewrite_document(path: str, edit, load) -> None:
    """Rewrite the JSON document at ``path`` (the header, for a checkpoint)
    as ``edit`` leaves it, dumped with NaN and Infinity allowed and each
    ``_raw`` value written bare."""
    with open(path, "rb") as f:
        blob = f.read()
    framed = load is load_checkpoint
    start, end = (8, 8 + struct.unpack("<Q", blob[:8])[0]) if framed else (0, len(blob))
    doc = json.loads(blob[start:end])
    edit(doc)
    raw = re.sub(r'"<raw (\S+)>"', r"\1", json.dumps(doc)).encode("utf-8")
    with open(path, "wb") as f:
        f.write((struct.pack("<Q", len(raw)) if framed else b"") + raw + blob[end:])


def _set_number(doc, value, seed: int) -> None:
    """Set one number of ``doc``, picked by ``seed``, to ``value``."""
    *keys, last = random.Random(seed).choice(list(_number_paths(doc)))
    for key in keys:
        doc = doc[key]
    doc[last] = value


def _set_body_entry(path: str, value, seed: int) -> str:
    """Set one entry of the checkpoint body at ``path``, picked by ``seed``,
    to ``value``; the name of the parameter that holds it."""
    params = load_checkpoint(path).params
    ends = np.cumsum([p.size for p in params.values()])
    index = random.Random(seed).randrange(int(ends[-1]))
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    at = len(blob) - 8 * (int(ends[-1]) - index)
    blob[at : at + 8] = struct.pack("<d", value)
    with open(path, "wb") as f:
        f.write(blob)
    return list(params)[int(np.searchsorted(ends, index, side="right"))]


def _package_modules():
    """(file name, syntax tree) of each module of the package."""
    package = os.path.dirname(nanobert.__file__)
    for module in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(module, encoding="utf-8") as f:
            yield os.path.basename(module), ast.parse(f.read())


ARTIFACTS = pytest.mark.parametrize("save, load", [
    (_save_tokenizer, TokenizerModel.load),
    (_save_naive_bayes, TextBaseline.load),
    (_save_config, _resolve_pretrain_config),
    (_save_checkpoint, load_checkpoint),
], ids=["tokenizer", "naive_bayes", "config", "checkpoint"])


class TestFiles:
    def test_json_format(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"b": "caf\u00e9", "a": [np.float64(1.5), float("nan")]})
        assert path.read_bytes() == '{\n  "a": [\n    1.5,\n    null\n  ],\n  "b": "caf\u00e9"\n}\n'.encode()
        assert read_json(str(path)) == {"a": [1.5, None], "b": "caf\u00e9"}

    @pytest.mark.parametrize("write", [
        write_lines,
        lambda path, rows: write_csv(path, ["a", "b", "c"], rows),
    ])
    def test_rows_that_raise_leave_no_file(self, tmp_path, write):
        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="row 3"):
            write(str(path), _failing_rows())
        assert os.listdir(tmp_path) == []

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), ["a, b", "c"], [1, "x"], label_column="y")
        assert path.read_bytes() == b'text,y\r\n"a, b",1\r\nc,x\r\n'

    @pytest.mark.parametrize("parse, exc", [(None, json.JSONDecodeError),
                                            (lambda doc: doc[5], IndexError),
                                            (lambda doc: doc["key"], TypeError),
                                            (lambda doc: doc.items(), AttributeError)])
    def test_read_errors_name_the_file(self, tmp_path, parse, exc):
        path = tmp_path / "doc.json"
        path.write_text("[1, 2" if parse is None else "[1, 2]")
        with pytest.raises(ValueError) as info:
            read_json(str(path), parse)
        assert str(path) in str(info.value)
        assert isinstance(info.value.__cause__, exc)

    @ARTIFACTS
    def test_corrupt_files_load_or_name_themselves(self, tmp_path, save, load):
        path = str(tmp_path / "artifact.json")
        save(path)
        with open(path, "rb") as f:
            blob = f.read()
        load(path)
        refused = 0
        for corrupt in _mutations(blob, 200):
            with open(path, "wb") as f:
                f.write(corrupt)
            try:
                load(path)
            except ValueError as exc:
                assert path in str(exc)
                refused += 1
        assert refused > 0

    @ARTIFACTS
    @pytest.mark.parametrize("value, literal", [
        (float("nan"), "NaN"), (float("inf"), "Infinity"), (float("-inf"), "-Infinity"),
        pytest.param(_raw("1e999"), "1e999", id="1e999"),
        pytest.param(_raw("-1e999"), "-1e999", id="-1e999"),
    ])
    def test_non_finite_literals_refused_by_file(self, tmp_path, save, load, value, literal):
        """Every writer writes strict JSON, so a NaN or Infinity literal,
        or a number too large for a float, in a file is corruption,
        wherever it stands."""
        path = str(tmp_path / "artifact.json")
        save(path)
        _rewrite_document(path, lambda doc: _set_number(doc, value, seed=7), load)
        number = "a finite JSON number" if isinstance(value, str) else "a JSON number"
        with pytest.raises(ValueError, match=f"^{path}: {re.escape(literal)} is not {number}$"):
            load(path)

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    @pytest.mark.parametrize("name", ["class_log_prior", "feature_log_prob"])
    def test_non_finite_baseline_arrays_refused_by_file(self, tmp_path, name, literal):
        """A fitted array can take a non-finite value only through an
        out-of-range number, which strict JSON refuses."""
        path = str(tmp_path / "baseline_model.json")
        _save_naive_bayes(path)

        def edit(doc):
            array = doc["model"][name]
            if isinstance(array[-1], list):
                array = array[-1]
            array[-1] = _raw(literal)
        _rewrite_document(path, edit, TextBaseline.load)
        with pytest.raises(ValueError, match=f"^{path}: {literal} is not a finite JSON number$"):
            TextBaseline.load(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_non_finite_parameters_refused_by_file(self, tmp_path, value, seed):
        """The checkpoint rule holds every parameter finite, so a NaN or an
        infinity in a body is refused by file and by parameter."""
        path = str(tmp_path / "model.ckpt")
        _save_checkpoint(path)
        name = _set_body_entry(path, value, seed)
        with pytest.raises(ValueError,
                           match=f"^{path}: parameter {name} holds a non-finite value$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("save, load", [
        (_save_tokenizer, TokenizerModel.load),
        (_save_naive_bayes, TextBaseline.load),
        (_save_checkpoint, load_checkpoint),
    ], ids=["tokenizer", "naive_bayes", "checkpoint"])
    @pytest.mark.parametrize("version", [99, None])
    def test_format_version_checked_by_file(self, tmp_path, save, load, version):
        path = str(tmp_path / "artifact.json")
        save(path)
        _rewrite_document(path, (lambda doc: doc.pop("format_version")) if version is None
                          else (lambda doc: doc.update(format_version=version)), load)
        with pytest.raises(ValueError, match=f"^{path}: unsupported format version {version}$"):
            load(path)

    @pytest.mark.parametrize("mode, content", [("r", "a\r\nb"), ("rb", b"a\r\nb")])
    def test_reading_keeps_newlines(self, tmp_path, mode, content):
        path = tmp_path / "doc.txt"
        path.write_bytes(b"a\r\nb")
        with reading(str(path), mode) as f:
            assert f.read() == content

    def test_reading_names_the_file_once(self, tmp_path):
        path = tmp_path / "doc.txt"
        path.write_bytes(b"caf\xe9")
        with pytest.raises(ValueError, match=f"^{path}: 'utf-8' codec can't decode") as info:
            with reading(str(path)) as f:
                f.read()
        assert isinstance(info.value.__cause__, UnicodeDecodeError)
        assert str(info.value).count(str(path)) == 1

    def test_only_data_calls_open(self):
        """Every file is written through ``replacing`` and read through
        ``reading``, so the rules for both live in ``nanobert.data``."""
        callers = [f"{name}:{node.lineno}" for name, tree in _package_modules()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "open"]
        assert [c for c in callers if not c.startswith("data.py:")] == []
        assert callers  # the walk does see data.py's own calls

    def test_only_checkpoint_calls_the_checkpoint_rule(self):
        """Parameter shapes and label names are checked by the ``Checkpoint``
        type alone, so no caller keeps a copy of the rule of its own."""
        callers = {name for name, tree in _package_modules() for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and getattr(node.func, "id", getattr(node.func, "attr", None))
                   in ("checked_shapes", "checked_label_names")}
        assert callers == {"checkpoint.py"}

    def test_only_data_spells_the_task_names(self):
        """A head's task is read off its width by ``checkpoint.task_of_width``
        alone, so no module but the one defining the names spells one."""
        spellers = {name for name, tree in _package_modules() for node in ast.walk(tree)
                    if isinstance(node, ast.Constant)
                    and node.value in ("classification", "regression")}
        assert spellers == {"data.py"}

    def test_only_data_imports_csv(self):
        """CSV files are read through ``read_csv`` and written through
        ``write_csv``, so one set of row rules covers every CSV."""
        importers = [name for name, tree in _package_modules() for node in ast.walk(tree)
                     if (isinstance(node, ast.Import)
                         and any(alias.name == "csv" for alias in node.names))
                     or (isinstance(node, ast.ImportFrom) and node.module == "csv")]
        assert importers == ["data.py"]
