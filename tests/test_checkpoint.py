"""Checkpoint format: bit-exact roundtrip, determinism, corruption rejection."""

import struct

import numpy as np
import pytest

from nanobert.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from nanobert.model import ModelConfig, init_params
from nanobert.rng import Rng
from nanobert.tokenizer import train_bpe


def make_checkpoint(num_labels=None, with_tokenizer=False):
    cfg = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                      vocab_size=12, max_positions=6, dropout=0.0)
    tok = train_bpe(["low", "low", "lower"], vocab_size=11) if with_tokenizer else None
    return Checkpoint(
        model_config=cfg,
        params=init_params(cfg, Rng(5), num_labels=num_labels),
        tokenizer=tok,
        label_names=["a", "b", "c"] if num_labels == 3 else None,
    )


class TestRoundtrip:
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


class TestRejection:
    def write_good(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(make_checkpoint(), path)
        return path

    def test_truncated_body(self, tmp_path):
        path = self.write_good(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(ValueError, match="truncated body"):
            load_checkpoint(path)

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
        ckpt = make_checkpoint()
        del ckpt.params["mlm_bias"]
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        with pytest.raises(ValueError, match="missing"):
            load_checkpoint(path)

    def test_wrong_shape_rejected(self, tmp_path):
        ckpt = make_checkpoint()
        ckpt.params["mlm_bias"] = np.zeros(5)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(ckpt, path)
        with pytest.raises(ValueError, match="expected"):
            load_checkpoint(path)

    def test_missing_tokenizer_named_in_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(make_checkpoint(with_tokenizer=True), str(path))
        sibling = tmp_path / "model.ckpt.tokenizer.json"
        sibling.unlink()
        with pytest.raises(ValueError, match=f"tokenizer .* missing: {sibling}"):
            load_checkpoint(str(path))


def test_copy_is_deep_for_params():
    ckpt = make_checkpoint()
    dup = ckpt.copy()
    dup.params["mlm_bias"][0] = 123.0
    assert ckpt.params["mlm_bias"][0] != 123.0
