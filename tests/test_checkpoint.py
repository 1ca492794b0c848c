"""Checkpoint format: bit-exact roundtrip, determinism, corruption rejection."""

import hashlib
import json
import math
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nanobert.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from nanobert.model import ModelConfig, init_params, param_shapes, views
from nanobert.rng import Rng
from nanobert.tokenizer import TokenizerModel, train_bpe


def make_checkpoint(num_labels=None, with_tokenizer=False):
    cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                      vocab_size=12, max_positions=6, dropout=0.0)
    tok = train_bpe(["low", "low", "lower"], vocab_size=12) if with_tokenizer else None
    return Checkpoint(
        model_config=cfg,
        params=init_params(cfg, Rng(5), num_labels=num_labels),
        tokenizer=tok,
        label_names=["a", "b", "c"] if num_labels == 3 else None,
    )


TOKENIZER = train_bpe(["low", "low", "lower"], vocab_size=12)


@st.composite
def checkpoints(draw):
    """A checkpoint that can be made: 1-2 layers, no head, a regressor or a
    K-class head, label names or none, a tokenizer or none, and any finite
    parameter values."""
    tokenizer = draw(st.sampled_from([None, TOKENIZER]))
    num_heads = draw(st.integers(1, 2))
    cfg = ModelConfig(num_layers=draw(st.integers(1, 2)),
                      hidden_size=num_heads * draw(st.integers(1, 3)), num_heads=num_heads,
                      ffn_size=draw(st.integers(1, 5)),
                      vocab_size=tokenizer.vocab_size if tokenizer else draw(st.integers(1, 12)),
                      max_positions=draw(st.integers(1, 6)), dropout=draw(st.floats(0.0, 0.5)))
    num_labels = draw(st.none() | st.integers(1, 4))
    names = None
    if num_labels and num_labels > 1:
        names = draw(st.none() | st.lists(st.text(max_size=4), min_size=num_labels,
                                          max_size=num_labels, unique=True))
    shapes = param_shapes(cfg, num_labels)
    vector = draw(arrays(np.float64, sum(math.prod(s) for s in shapes.values()),
                         elements=st.floats(allow_nan=False, allow_infinity=False)))
    return Checkpoint(cfg, views(vector, shapes), tokenizer, names)


class TestRoundtrip:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ckpt=checkpoints())
    def test_every_checkpoint_that_can_be_made_loads_back_bit_for_bit(self, ckpt):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.ckpt")
            save_checkpoint(ckpt, path)
            loaded = load_checkpoint(path)
        assert loaded.model_config == ckpt.model_config
        assert list(loaded.params) == sorted(ckpt.params)
        for name, p in ckpt.params.items():
            assert loaded.params[name].shape == p.shape
            assert loaded.params[name].tobytes() == p.tobytes(), name
        assert loaded.label_names == ckpt.label_names
        assert (loaded.tokenizer and loaded.tokenizer.to_json_dict()) == (
            ckpt.tokenizer and ckpt.tokenizer.to_json_dict())

    def test_bit_exact(self, tmp_path):
        ckpt = make_checkpoint(num_labels=3)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.model_config == ckpt.model_config
        assert set(loaded.params) == set(ckpt.params)
        for name in ckpt.params:
            assert np.array_equal(loaded.params[name], ckpt.params[name]), name
            assert loaded.params[name].dtype == np.float64
        assert loaded.label_names == ["a", "b", "c"]

    def test_loaded_parameters_are_views_of_one_vector(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(make_checkpoint(num_labels=3), path)
        params = load_checkpoint(path).params
        assert list(params) == sorted(params)
        vector = params["tok_emb"].base
        assert all(p.base is vector for p in params.values())
        assert vector.size == sum(p.size for p in params.values())

    def test_golden_bytes(self, tmp_path):
        # exactly representable values, so the bytes do not depend on libm
        cfg = ModelConfig(num_layers=2, hidden_size=8, num_heads=2, ffn_size=16,
                          vocab_size=12, max_positions=6, dropout=0.1)
        params, start = {}, 0
        for name, shape in param_shapes(cfg, 3).items():
            params[name] = (np.arange(start, start + math.prod(shape)) / 8).reshape(shape)
            start += params[name].size
        tok = train_bpe(["low", "low", "lower"], vocab_size=12)
        path = tmp_path / "model.ckpt"
        save_checkpoint(Checkpoint(cfg, params, tokenizer=tok, label_names=["a", "b", "c"]),
                        str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "bbeb2d5bea35b1b8d8892dfd70f24383cb7d99a7f72c99220d6af2a687fa304c")

    def test_save_is_deterministic(self, tmp_path):
        ckpt = make_checkpoint()
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(ckpt, p1)
        save_checkpoint(ckpt, p2)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_tokenizer_travels_as_sibling(self, tmp_path):
        ckpt = make_checkpoint(with_tokenizer=True)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        assert (tmp_path / "model.ckpt.tokenizer.json").exists()
        loaded = load_checkpoint(path)
        assert loaded.tokenizer is not None
        assert loaded.tokenizer.vocab == ckpt.tokenizer.vocab

    def test_no_temp_file_left(self, tmp_path):
        save_checkpoint(make_checkpoint(), str(tmp_path / "model.ckpt"))
        assert not list(tmp_path.glob("*.tmp"))

    def test_crash_before_rename_leaves_tokenizer_not_checkpoint(self, tmp_path, monkeypatch):
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".ckpt"):
                raise OSError("crash before the checkpoint rename")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        ckpt = make_checkpoint(with_tokenizer=True)
        path = tmp_path / "model.ckpt"
        with pytest.raises(OSError, match="crash"):
            save_checkpoint(ckpt, str(path))
        assert not path.exists()
        assert not (tmp_path / "model.ckpt.tmp").exists()
        sibling = TokenizerModel.load(str(tmp_path / "model.ckpt.tokenizer.json"))
        assert sibling.vocab == ckpt.tokenizer.vocab


# (head columns, label names that do not fit them); None: no head
BAD_LABEL_NAMES = pytest.mark.parametrize("num_labels, names", [
    (3, ["a", "b"]),
    (3, ["a", "b", "b"]),
    (3, ["a", "b", 3]),
    (3, "abc"),
    (3, []),
    (1, ["a"]),
    (None, ["a", "b"]),
    (None, []),
])


def _set_entries(value, *names):
    def edit(params, ckpt):
        for name in names:
            params[name] = params[name].copy()
            params[name].flat[3] = value
    return edit


def _other_tokenizer(params, ckpt):
    ckpt.tokenizer = train_bpe(["low", "low", "lower"], vocab_size=11)


ZERO_COLUMNS = (r"head\.w's column count must be 1 \(a regressor\) or >= 2 "
                r"\(a classifier\), got 0")


# an edit of a checkpoint's params dict, or of the checkpoint itself, that
# breaks the checkpoint rule, and the rule's refusal, for make_checkpoint's
# 12-token model without a head
BREAKS = pytest.mark.parametrize("edit, message", [
    pytest.param(lambda params, ckpt: params.pop("mlm_bias"),
                 r"parameter names do not match the model configuration "
                 r"\(missing \['mlm_bias'\], unexpected \[\]\)", id="missing"),
    pytest.param(lambda params, ckpt: params.update(zz=np.zeros(2)),
                 r"parameter names do not match the model configuration "
                 r"\(missing \[\], unexpected \['zz'\]\)", id="extra"),
    pytest.param(lambda params, ckpt: params.update(pos_emb=np.zeros((5, 8))),
                 r"pos_emb has shape \(5, 8\), expected \(6, 8\)", id="misshapen"),
    pytest.param(lambda params, ckpt: params.update({"head.w": np.zeros((8, 0)),
                                                     "head.b": np.zeros(0)}),
                 ZERO_COLUMNS, id="zero-column-head"),
    pytest.param(_other_tokenizer, "model vocab_size 12 does not match tokenizer vocab of 11",
                 id="tokenizer"),
    pytest.param(_set_entries(np.nan, "layers.0.ffn.w1"),
                 r"parameter layers\.0\.ffn\.w1 holds a non-finite value", id="nan"),
    pytest.param(_set_entries(np.inf, "mlm_bias"),
                 "parameter mlm_bias holds a non-finite value", id="inf"),
    pytest.param(_set_entries(-np.inf, "tok_emb", "pos_emb"),
                 "parameter pos_emb holds a non-finite value", id="-inf-first-named"),
])


class TestRejection:
    def write_good(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(make_checkpoint(), path)
        return path

    def rewrite_header(self, path, key, edit):
        """Replace the header's ``key`` (its name-to-shape table, ``params``)
        with ``edit`` of its value."""
        blob = open(path, "rb").read()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8 : 8 + hlen])
        header[key] = edit(header[key])
        raw = json.dumps(header).encode("utf-8")
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", len(raw)) + raw + blob[8 + hlen :])

    def test_truncated_body(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(ValueError, match=r"truncated body: \d+ of \d+ bytes"):
            load_checkpoint(path)

    def test_unsorted_names_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(path, "params", lambda table: table[::-1])
        with pytest.raises(ValueError, match=f"^{path}: .*sorted order"):
            load_checkpoint(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(path, "params", lambda table: [table[0], *table])
        with pytest.raises(ValueError, match=f"^{path}: .*unique"):
            load_checkpoint(path)

    def test_huge_shape_rejected_before_reading_the_body(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(
            path, "params", lambda table: [[n, [10**12] if n == "mlm_bias" else s] for n, s in table])
        with pytest.raises(ValueError,
                           match=r"mlm_bias has shape \(1000000000000,\), expected \(12,\)"):
            load_checkpoint(path)

    def test_huge_header_length_named(self, tmp_path):
        """A corrupt length asks for no more memory than the file holds."""
        path = self.write_good(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", 2**62) + blob[8:])
        with pytest.raises(ValueError, match=f"^{path}: truncated header$"):
            load_checkpoint(path)

    def test_zero_heads_named(self, tmp_path):
        """Sizes are checked before they divide, so no ZeroDivisionError escapes."""
        path = self.write_good(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob.replace(b'"num_heads": 2', b'"num_heads": 0', 1))
        with pytest.raises(ValueError, match=f"^{path}: all size fields must be positive"):
            load_checkpoint(path)

    def test_zero_column_head_named(self, tmp_path):
        """A head no task has is refused by the file, before any command scores it."""
        path = self.write_good(tmp_path)
        self.rewrite_header(path, "params",
                            lambda table: sorted([*table, ["head.b", [0]], ["head.w", [8, 0]]]))
        with pytest.raises(ValueError, match=f"^{path}: {ZERO_COLUMNS}$"):
            load_checkpoint(path)

    @BAD_LABEL_NAMES
    def test_label_names_must_fit_the_head(self, tmp_path, num_labels, names):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(make_checkpoint(num_labels=num_labels), path)
        self.rewrite_header(path, "label_names", lambda _: names)
        with pytest.raises(ValueError, match=f"^{path}: label_names must be None"):
            load_checkpoint(path)

    @BAD_LABEL_NAMES
    def test_save_refuses_label_names_that_do_not_fit(self, tmp_path, num_labels, names):
        """What save writes, load reads: the same rule refuses the names
        first, and nothing is written."""
        ckpt = make_checkpoint(num_labels=num_labels, with_tokenizer=True)
        ckpt.label_names = names
        path = str(tmp_path / "model.ckpt")
        with pytest.raises(ValueError, match=f"^{path}: label_names must be None"):
            save_checkpoint(ckpt, path)
        assert os.listdir(tmp_path) == []

    def test_trailing_bytes(self, tmp_path):
        path = self.write_good(tmp_path)
        with open(path, "ab") as f:
            f.write(b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)

    def test_wrong_version(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = open(path, "rb").read()
        (hlen,) = struct.unpack("<Q", blob[:8])
        header = blob[8 : 8 + hlen].replace(b'"format_version": 1', b'"format_version": 9')
        with open(path, "wb") as f:
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            f.write(blob[8 + hlen :])
        with pytest.raises(ValueError, match="format version"):
            load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(path, "params", lambda table: [e for e in table if e[0] != "mlm_bias"])
        with pytest.raises(ValueError,
                           match=rf"^{path}: .*\(missing \['mlm_bias'\], unexpected \[\]\)$"):
            load_checkpoint(path)

    def test_extra_parameter_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(path, "params", lambda table: [*table, ["zz", [2]]])
        with pytest.raises(ValueError,
                           match=rf"^{path}: .*\(missing \[\], unexpected \['zz'\]\)$"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        path = self.write_good(tmp_path)
        self.rewrite_header(
            path, "params", lambda table: [[n, [5, 8] if n == "pos_emb" else s] for n, s in table])
        with pytest.raises(ValueError,
                           match=rf"^{path}: pos_emb has shape \(5, 8\), expected \(6, 8\)$"):
            load_checkpoint(path)

    @BREAKS
    def test_save_refuses_what_load_refuses(self, tmp_path, edit, message):
        """The checkpoint rule runs again on save, since the dict may have
        changed after the checkpoint was made; nothing is written."""
        ckpt = make_checkpoint(with_tokenizer=True)
        edit(ckpt.params, ckpt)
        path = str(tmp_path / "model.ckpt")
        with pytest.raises(ValueError, match=f"^{path}: {message}$"):
            save_checkpoint(ckpt, path)
        assert os.listdir(tmp_path) == []

    def test_missing_tokenizer_named_in_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(with_tokenizer=True), str(path))
        sibling = tmp_path / "model.ckpt.tokenizer.json"
        sibling.unlink()
        with pytest.raises(ValueError, match=f"tokenizer .* missing: {sibling}"):
            load_checkpoint(str(path))

    def test_tokenizer_vocab_differs_from_model(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(with_tokenizer=True), str(path))  # a 12-token model
        sibling = tmp_path / "model.ckpt.tokenizer.json"
        train_bpe(["low", "low", "lower"], vocab_size=11).save(str(sibling))
        with pytest.raises(ValueError, match=f"^{path}: model vocab_size 12 does not match "
                                             f"tokenizer vocab of 11$"):
            load_checkpoint(str(path))


@pytest.mark.parametrize("names", [["a", "accuracy", "c"], ["weighted avg", "b", "zero_division"]])
def test_label_name_equal_to_a_report_key_refused(names):
    ckpt = make_checkpoint(num_labels=3)
    clash = next(name for name in names if name in ("accuracy", "weighted avg", "zero_division"))
    with pytest.raises(ValueError, match=f"^class name '{clash}' is a key of the "
                                         f"classification report$"):
        Checkpoint(ckpt.model_config, ckpt.params, label_names=names)


@BREAKS
def test_construction_refuses_what_load_refuses(edit, message):
    ckpt = make_checkpoint(with_tokenizer=True)
    params = dict(ckpt.params)
    edit(params, ckpt)
    with pytest.raises(ValueError, match=f"^{message}$"):
        Checkpoint(ckpt.model_config, params, ckpt.tokenizer, ckpt.label_names)
