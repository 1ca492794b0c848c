"""Masking statistics, corpus chunking, tied-projection gradients, and the
pretraining loop."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from helpers import generic_params, tiny_config
from nanobert.checkpoint import load_checkpoint
from nanobert.model import init_params, param_shapes
from nanobert import pretrain
from nanobert.numerics import grad_check
from nanobert.optim import TrainingConfig, select_best_epoch
from nanobert.pretrain import (
    IGNORE_LABEL,
    MaskedBatch,
    chunk_corpus,
    mask_tokens,
    mlm_loss,
    mlm_loss_and_grads,
    run_pretraining,
)
from nanobert.rng import Rng
from nanobert.tokenizer import CLS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, train_bpe

VOCAB = 50


def eligible_batch(rows=64, cols=32, seed=0):
    """ids >= NUM_SPECIALS everywhere, a [CLS]/[SEP] frame, padded tails."""
    rng = Rng(seed)
    ids = NUM_SPECIALS + np.asarray(rng.integers(VOCAB - NUM_SPECIALS, (rows, cols)))
    mask = np.ones((rows, cols), dtype=np.int64)
    ids[:, 0] = CLS_ID
    ids[:, -3] = SEP_ID
    ids[:, -2:] = PAD_ID
    mask[:, -2:] = 0
    return ids, mask


class TestMaskTokens:
    def test_specials_and_pads_never_selected(self):
        ids, mask = eligible_batch()
        out = mask_tokens(ids, mask, 0.9, Rng(1), vocab_size=VOCAB)
        protected = (ids < NUM_SPECIALS) | (mask == 0)
        assert np.all(out.labels[protected] == IGNORE_LABEL)
        assert np.array_equal(out.input_ids[protected], ids[protected])

    def test_labels_hold_original_ids(self):
        ids, mask = eligible_batch()
        out = mask_tokens(ids, mask, 0.5, Rng(2), vocab_size=VOCAB)
        sel = out.labels != IGNORE_LABEL
        assert np.array_equal(out.labels[sel], ids[sel])
        untouched = ~sel
        assert np.array_equal(out.input_ids[untouched], ids[untouched])

    def test_selection_rate_near_mask_prob(self):
        # ~130k eligible positions; binomial sd of the rate is ~1e-3
        ids, mask = eligible_batch(rows=2048, cols=66, seed=3)
        out = mask_tokens(ids, mask, 0.15, Rng(4), vocab_size=VOCAB)
        eligible = int(np.sum((ids >= NUM_SPECIALS) & (mask == 1)))
        rate = out.num_labeled / eligible
        assert 0.14 <= rate <= 0.16

    def test_replacement_split_is_80_10_10(self):
        ids, mask = eligible_batch(rows=2048, cols=66, seed=5)
        out = mask_tokens(ids, mask, 0.15, Rng(6), vocab_size=VOCAB)
        sel = out.labels != IGNORE_LABEL
        n = int(sel.sum())
        masked = int(np.sum(sel & (out.input_ids == MASK_ID)))
        kept = int(np.sum(sel & (out.input_ids == ids)))
        changed = n - masked - kept
        # a random draw can land on the original id, shifting ~1/vocab of
        # the random bucket into "kept"
        assert abs(masked / n - 0.80) < 0.02
        assert abs(kept / n - 0.10) < 0.02
        assert abs(changed / n - 0.10) < 0.02

    def test_outcome_independent_of_other_ids(self):
        # same rng, same eligibility pattern, different ids: the selected
        # positions and their treatment must match position-for-position
        ids_a, mask = eligible_batch(seed=7)
        ids_b = ids_a.copy()
        body = (ids_a >= NUM_SPECIALS) & (mask == 1)
        ids_b[body] = NUM_SPECIALS + (ids_b[body] - NUM_SPECIALS + 11) % (VOCAB - NUM_SPECIALS)
        out_a = mask_tokens(ids_a, mask, 0.15, Rng(8), vocab_size=VOCAB)
        out_b = mask_tokens(ids_b, mask, 0.15, Rng(8), vocab_size=VOCAB)
        sel_a = out_a.labels != IGNORE_LABEL
        sel_b = out_b.labels != IGNORE_LABEL
        assert np.array_equal(sel_a, sel_b)
        assert np.array_equal(out_a.input_ids == MASK_ID, out_b.input_ids == MASK_ID)

    def test_deterministic_for_equal_seed(self):
        ids, mask = eligible_batch(seed=9)
        a = mask_tokens(ids, mask, 0.15, Rng(10), vocab_size=VOCAB)
        b = mask_tokens(ids, mask, 0.15, Rng(10), vocab_size=VOCAB)
        assert np.array_equal(a.input_ids, b.input_ids)
        assert np.array_equal(a.labels, b.labels)

    def test_mask_prob_zero_selects_nothing(self):
        ids, mask = eligible_batch(seed=11)
        out = mask_tokens(ids, mask, 0.0, Rng(12), vocab_size=VOCAB)
        assert out.num_labeled == 0
        assert np.array_equal(out.input_ids, ids)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            mask_tokens(np.ones((2, 4), dtype=np.int64), np.ones((2, 5), dtype=np.int64),
                        0.15, Rng(0), vocab_size=VOCAB)


@pytest.fixture(scope="module")
def toy_tokenizer():
    corpus = ["the cat sat on the mat", "the dog sat on the log",
              "a cat and a dog met", "mats and logs and cats"] * 4
    return train_bpe(corpus, vocab_size=40)


class TestChunkCorpus:
    def test_windows_cover_stream_without_overlap(self, toy_tokenizer):
        text = "the cat sat on the mat and the dog sat on the log"
        stream = toy_tokenizer.encode_body(text)
        ids, masks = chunk_corpus(toy_tokenizer, text, max_length=8)
        assert ids.shape == masks.shape
        assert ids.shape[0] == math.ceil(len(stream) / 6)
        rebuilt = []
        for row, mask in zip(ids, masks):
            assert row[0] == CLS_ID
            body = row[mask == 1][1:-1]  # strip [CLS]/[SEP]
            assert row[mask == 1][-1] == SEP_ID
            assert np.all(row[mask == 0] == PAD_ID)
            rebuilt.extend(body.tolist())
        assert rebuilt == stream

    def test_full_chunks_have_no_padding(self, toy_tokenizer):
        text = "the cat sat on the mat " * 20
        ids, masks = chunk_corpus(toy_tokenizer, text, max_length=10)
        assert np.all(masks[:-1] == 1)

    def test_short_corpus_rejected(self, toy_tokenizer):
        with pytest.raises(ValueError, match="shorter than one"):
            chunk_corpus(toy_tokenizer, "cat", max_length=64)

    def test_tiny_max_length_rejected(self, toy_tokenizer):
        with pytest.raises(ValueError, match="max_length"):
            chunk_corpus(toy_tokenizer, "the cat", max_length=2)


def labeled_toy_batch(cfg, seed=31):
    rng = Rng(seed)
    rows, cols = 3, 6
    ids = NUM_SPECIALS + np.asarray(
        rng.integers(cfg.vocab_size - NUM_SPECIALS, (rows, cols)))
    ids[:, 0] = CLS_ID
    mask = np.ones((rows, cols), dtype=np.int64)
    mask[2, 4:] = 0
    ids[2, 4:] = PAD_ID
    return mask_tokens(ids, mask, 0.4, Rng(seed + 1), vocab_size=cfg.vocab_size)


class TestMlmLoss:
    def test_unlabeled_batch_gives_zero_loss_and_no_grads(self):
        cfg = tiny_config()
        params = init_params(cfg, Rng(0))
        ids = np.full((2, 4), CLS_ID, dtype=np.int64)
        batch = MaskedBatch(ids, np.full((2, 4), IGNORE_LABEL), np.ones((2, 4), dtype=np.int64))
        assert mlm_loss(cfg, params, batch) == 0.0
        assert mlm_loss_and_grads(cfg, params, batch) is None

    def test_untrained_loss_near_log_vocab(self):
        # random init spreads probability almost uniformly over the vocab
        cfg = tiny_config(vocab_size=64, max_positions=32)
        params = init_params(cfg, Rng(1))
        ids = NUM_SPECIALS + np.asarray(Rng(2).integers(64 - NUM_SPECIALS, (8, 32)))
        mask = np.ones((8, 32), dtype=np.int64)
        batch = mask_tokens(ids, mask, 0.15, Rng(3), vocab_size=64)
        loss = mlm_loss(cfg, params, batch)
        assert abs(loss - math.log(64)) < 0.1 * math.log(64)

    def test_loss_matches_grads_path(self):
        cfg = tiny_config()
        params = generic_params(cfg, Rng(4), scale=0.2)
        batch = labeled_toy_batch(cfg)
        loss, grads = mlm_loss_and_grads(cfg, params, batch)
        assert loss == pytest.approx(mlm_loss(cfg, params, batch))
        assert set(grads) == set(param_shapes(cfg))

    def test_gradients_match_finite_differences(self):
        cfg = tiny_config(num_layers=2)
        params = generic_params(cfg, Rng(5))
        batch = labeled_toy_batch(cfg, seed=32)
        assert batch.num_labeled > 0
        coord_rng = Rng(6)
        for name in param_shapes(cfg):
            if name.endswith("attn.bk"):
                # softmax is invariant to a shift shared by every key, so
                # this bias has an identically zero gradient; fd would
                # compare rounding noise against rounding noise
                _, grads = mlm_loss_and_grads(cfg, params, batch)
                assert np.max(np.abs(grads[name])) < 1e-12
                continue

            def f(theta, name=name):
                trial = dict(params)
                trial[name] = theta
                loss, grads = mlm_loss_and_grads(cfg, trial, batch)
                return loss, grads[name]

            report = grad_check(f, params[name], name, n_coords=6, rng=coord_rng)
            assert report.passed, f"{name}: {report.max_rel_error:.2e}"

    def test_tied_embedding_gets_projection_gradient(self):
        # zeroing the encoder's contribution isolates the output projection:
        # rows for ids never seen in input can still receive gradient
        # through the logits when h_masked is nonzero
        cfg = tiny_config()
        params = generic_params(cfg, Rng(7), scale=0.2)
        batch = labeled_toy_batch(cfg, seed=33)
        _, grads = mlm_loss_and_grads(cfg, params, batch)
        used = set(np.unique(batch.input_ids.ravel()).tolist())
        unused = [i for i in range(cfg.vocab_size) if i not in used]
        assert unused, "toy batch should not exhaust the vocabulary"
        # softmax gives every vocab row a nonzero probability, so the
        # projection gradient touches unused rows too
        assert np.any(np.abs(grads["tok_emb"][unused]) > 0)


class TestRunPretraining:
    def small_setup(self, vocab_size=48):
        corpus_rng = Rng(100)
        words = ["cat", "dog", "mat", "log", "sat", "ran", "the", "a", "on", "met"]
        parts = [words[int(corpus_rng.integers(len(words)))] for _ in range(900)]
        corpus = " ".join(parts)
        tok = train_bpe([corpus], vocab_size=vocab_size)
        cfg = tiny_config(vocab_size=tok.vocab_size, max_positions=16, dropout=0.0)
        train = TrainingConfig(num_train_epochs=3, train_batch_size=8, eval_batch_size=16,
                               learning_rate=3e-3, logging_steps=1, seed=11, max_length=16)
        return corpus, tok, cfg, train

    def test_zero_epochs_returns_untrained_model(self):
        corpus, tok, cfg, train = self.small_setup()
        result = run_pretraining(replace(train, num_train_epochs=0), corpus, tok, cfg)
        assert result.best_epoch == 0
        assert len(result.dev_losses) == 1
        assert result.loss_log == []
        expected = init_params(cfg, Rng(train.seed).spawn("init"))
        assert all(np.array_equal(result.checkpoint.params[k], expected[k]) for k in expected)

    def test_initial_dev_loss_near_log_vocab(self):
        corpus, tok, cfg, train = self.small_setup()
        result = run_pretraining(replace(train, num_train_epochs=0), corpus, tok, cfg)
        assert abs(result.dev_losses[0] - math.log(tok.vocab_size)) < 0.1 * math.log(tok.vocab_size)

    def test_training_reduces_dev_loss(self):
        corpus, tok, cfg, train = self.small_setup()
        result = run_pretraining(train, corpus, tok, cfg)
        assert min(result.dev_losses[1:]) < result.dev_losses[0]
        assert result.best_epoch >= 1
        assert result.dev_losses[result.best_epoch] == min(result.dev_losses)

    def test_best_epoch_is_the_selected_one(self):
        corpus, tok, cfg, train = self.small_setup()
        result = run_pretraining(train, corpus, tok, cfg)
        assert len(result.dev_losses) >= 3  # the initial model and two epochs
        assert result.best_epoch == select_best_epoch(result.dev_losses, greater_is_better=False)

    def test_artifacts_written(self, tmp_path):
        corpus, tok, cfg, train = self.small_setup()
        out = tmp_path / "run"
        result = run_pretraining(train, corpus, tok, cfg, output_dir=str(out))
        assert (out / "best.ckpt").exists()
        assert (out / "best.ckpt.tokenizer.json").exists()
        for epoch in range(1, len(result.dev_losses)):
            assert (out / "checkpoints" / f"epoch-{epoch:04d}.ckpt").exists()

        log_lines = (out / "loss_log.tsv").read_text().splitlines()
        assert log_lines[0] == "step\tepoch\tloss"
        assert len(log_lines) - 1 == len(result.loss_log)
        dev_lines = (out / "dev_losses.tsv").read_text().splitlines()
        assert dev_lines[0] == "epoch\tdev_loss"
        assert len(dev_lines) - 1 == len(result.dev_losses)

        loaded = load_checkpoint(str(out / "best.ckpt"))
        assert loaded.model_config.to_dict() == cfg.to_dict()
        best = result.checkpoint.params
        assert all(np.array_equal(loaded.params[k], best[k]) for k in best)

    def test_best_checkpoint_is_the_best_epochs_not_the_last(self, tmp_path):
        # at this rate dev loss bottoms out at epoch 3, and patience stops
        # the run two epochs later: the best snapshot must not follow the
        # parameters that training went on to change
        corpus, tok, cfg, train = self.small_setup()
        out = tmp_path / "run"
        result = run_pretraining(replace(train, num_train_epochs=5, learning_rate=0.03),
                                 corpus, tok, cfg, output_dir=str(out))
        last = len(result.dev_losses) - 1
        assert 1 <= result.best_epoch < last
        best = load_checkpoint(str(out / "best.ckpt")).params
        at_best = load_checkpoint(str(out / "checkpoints" / f"epoch-{result.best_epoch:04d}.ckpt"))
        at_last = load_checkpoint(str(out / "checkpoints" / f"epoch-{last:04d}.ckpt"))
        assert all(np.array_equal(best[k], at_best.params[k]) for k in at_best.params)
        assert all(np.array_equal(result.checkpoint.params[k], best[k]) for k in best)
        assert not np.array_equal(best["tok_emb"], at_last.params["tok_emb"])

    def test_deterministic_across_runs(self, tmp_path):
        corpus, tok, cfg, train = self.small_setup()
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_pretraining(train, corpus, tok, cfg, output_dir=str(out_a))
        run_pretraining(train, corpus, tok, cfg, output_dir=str(out_b))
        assert (out_a / "best.ckpt").read_bytes() == (out_b / "best.ckpt").read_bytes()
        assert (out_a / "loss_log.tsv").read_text() == (out_b / "loss_log.tsv").read_text()

    def test_early_stopping_without_progress(self):
        # a step size of ~0 freezes the model, so dev loss never improves
        # and patience runs out after exactly `patience` epochs
        corpus, tok, cfg, train = self.small_setup()
        stuck = replace(train, num_train_epochs=10, learning_rate=1e-12)
        result = run_pretraining(stuck, corpus, tok, cfg, patience=2)
        assert result.stopped_early
        assert len(result.dev_losses) == 3  # init + two stale epochs

    @pytest.mark.parametrize("setting, message", [
        ({"patience": 0}, "patience must be >= 1, got 0"),
        ({"patience": -3}, "patience must be >= 1, got -3"),
        ({"dev_fraction": -1.0}, r"dev_fraction must be in \(0, 1\), got -1.0"),
        ({"dev_fraction": 0.0}, r"dev_fraction must be in \(0, 1\), got 0.0"),
        ({"dev_fraction": 1.0}, r"dev_fraction must be in \(0, 1\), got 1.0"),
    ])
    def test_out_of_range_setting_named(self, tmp_path, setting, message):
        corpus, tok, cfg, train = self.small_setup()
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_pretraining(train, corpus, tok, cfg, output_dir=str(tmp_path / "run"), **setting)
        assert not (tmp_path / "run").exists()

    def test_max_length_beyond_the_position_table_refused_before_any_work(self, tmp_path,
                                                                          monkeypatch):
        corpus, tok, cfg, train = self.small_setup()  # 16 positions

        def no_work(*args, **kwargs):
            raise AssertionError("the corpus was chunked")

        monkeypatch.setattr(pretrain, "chunk_corpus", no_work)
        with pytest.raises(ValueError, match="^training.max_length 17 exceeds "
                                             "model.max_positions 16$"):
            run_pretraining(replace(train, max_length=17), corpus, tok, cfg,
                            output_dir=str(tmp_path / "run"))
        assert not (tmp_path / "run").exists()

    def test_zero_epochs_write_no_checkpoints_directory(self, tmp_path):
        corpus, tok, cfg, train = self.small_setup()
        out = tmp_path / "run"
        run_pretraining(replace(train, num_train_epochs=0), corpus, tok, cfg,
                        output_dir=str(out))
        assert (out / "best.ckpt").exists() and not (out / "checkpoints").exists()

    def test_vocab_mismatch_rejected(self):
        corpus, tok, cfg, train = self.small_setup()
        bad = tiny_config(vocab_size=tok.vocab_size + 1, max_positions=16)
        with pytest.raises(ValueError, match="does not match"):
            run_pretraining(train, corpus, tok, bad)

    def test_overflowing_forward_names_epoch_and_step(self, tmp_path):
        # each update moves the weights by ~1e40, so within a few steps a
        # forward pass overflows inside softmax, before any loss is formed;
        # no epoch ended, so no checkpoint and no directory was written
        corpus, tok, cfg, train = self.small_setup()
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=r"diverged at epoch 1, step \d+: softmax") as info:
            run_pretraining(replace(train, learning_rate=1e40), corpus, tok, cfg,
                            output_dir=str(tmp_path / "run"))
        assert "NaN or Inf" in str(info.value.__cause__)
        assert not (tmp_path / "run").exists()
