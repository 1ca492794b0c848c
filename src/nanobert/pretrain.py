"""Masked-language-model pretraining on a plain-text corpus.

The corpus is tokenized once into a flat id stream, cut into fixed-length
chunks wrapped in [CLS]/[SEP], and a held-out slice of chunks serves as the
dev set. Each training batch re-masks its tokens with a stream keyed by
(seed, epoch, step); dev chunks keep one fixed masking so epoch losses are
comparable.

The output projection is tied to the token embedding: logits at a masked
position are H @ tok_emb^T + mlm_bias, computed only where labels exist.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint, save_checkpoint
from .model import (
    ModelConfig,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    init_params,
)
from .optim import (
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    warmup_learning_rate,
)
from .rng import Rng
from .tokenizer import CLS_ID, MASK_ID, NUM_SPECIALS, PAD_ID, SEP_ID, TokenizerModel

IGNORE_LABEL = -1


@dataclass
class MaskedBatch:
    """Corrupted inputs plus recovery targets; -1 marks unlabeled positions."""

    input_ids: np.ndarray
    labels: np.ndarray
    attention_mask: np.ndarray

    @property
    def num_labeled(self) -> int:
        return int(np.sum(self.labels != IGNORE_LABEL))


def mask_tokens(
    ids: np.ndarray,
    attention_mask: np.ndarray,
    mask_prob: float,
    rng: Rng,
    *,
    vocab_size: int,
    mask_token_ratio: float = 0.8,
    random_token_ratio: float = 0.1,
) -> MaskedBatch:
    """BERT-style corruption: select eligible positions with prob mask_prob,
    then replace 80% with [MASK], 10% with a random id, 10% unchanged.

    Special tokens (ids below the first vocabulary id) are never selected.
    Random draws cover every position regardless of eligibility, so the
    outcome at one position never depends on the ids elsewhere.
    """
    ids = np.atleast_2d(np.asarray(ids, dtype=np.int64))
    attention_mask = np.atleast_2d(np.asarray(attention_mask, dtype=np.int64))
    if ids.shape != attention_mask.shape:
        raise ValueError(f"ids {ids.shape} and attention_mask {attention_mask.shape} differ")
    if not 0.0 <= mask_prob < 1.0:
        raise ValueError(f"mask_prob must be in [0, 1), got {mask_prob}")

    r_select = rng.random(ids.shape)
    r_replace = rng.random(ids.shape)
    random_ids = rng.integers(vocab_size, ids.shape)

    eligible = (ids >= NUM_SPECIALS) & (attention_mask == 1)
    selected = eligible & (r_select < mask_prob)

    labels = np.where(selected, ids, IGNORE_LABEL)
    input_ids = ids.copy()
    use_mask = selected & (r_replace < mask_token_ratio)
    use_random = selected & (r_replace >= mask_token_ratio) & (
        r_replace < mask_token_ratio + random_token_ratio
    )
    input_ids[use_mask] = MASK_ID
    input_ids[use_random] = random_ids[use_random]
    return MaskedBatch(input_ids=input_ids, labels=labels, attention_mask=attention_mask)


def chunk_corpus(tokenizer: TokenizerModel, text: str, max_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Cut the corpus token stream into [CLS] ... [SEP] chunks of max_length.

    Windows do not overlap; the final short window is padded. A corpus
    shorter than one full window is an error.
    """
    stream = tokenizer.encode_body(text)
    window = max_length - 2
    if window < 1:
        raise ValueError(f"max_length must be >= 3 for chunking, got {max_length}")
    if len(stream) < window:
        raise ValueError(
            f"corpus yields {len(stream)} tokens, shorter than one {window}-token chunk"
        )
    ids_rows, mask_rows = [], []
    for start in range(0, len(stream), window):
        body = stream[start : start + window]
        row = [CLS_ID] + body + [SEP_ID]
        mask = [1] * len(row)
        pad = max_length - len(row)
        ids_rows.append(row + [PAD_ID] * pad)
        mask_rows.append(mask + [0] * pad)
    return np.asarray(ids_rows, dtype=np.int64), np.asarray(mask_rows, dtype=np.int64)


def _mlm_head(params: dict, batch: MaskedBatch, h: np.ndarray):
    """Labeled positions, their hidden states, targets and tied-projection
    logits; None when nothing is labeled."""
    rows, cols = np.nonzero(batch.labels != IGNORE_LABEL)
    if rows.size == 0:
        return None
    h_masked = h[rows, cols]
    logits = h_masked @ params["tok_emb"].T + params["mlm_bias"]
    return rows, cols, h_masked, batch.labels[rows, cols], logits


def mlm_loss(config: ModelConfig, params: dict, batch: MaskedBatch) -> float:
    """Mean cross-entropy over labeled positions; 0.0 when none are labeled."""
    h = encoder_forward(config, params, batch.input_ids, batch.attention_mask)
    out = _mlm_head(params, batch, h)
    if out is None:
        return 0.0
    _, _, _, targets, logits = out
    loss, _ = nn.softmax_cross_entropy(logits, targets)
    return loss


def mlm_loss_and_grads(config: ModelConfig, params: dict, batch: MaskedBatch,
                       dropout_rng: Rng | None = None):
    """Loss plus gradients for every parameter; None when nothing is labeled.

    The tied embedding receives two contributions: the output-projection
    gradient at labeled positions and the usual lookup scatter.
    """
    h, cache = encoder_forward_with_cache(
        config, params, batch.input_ids, batch.attention_mask, dropout_rng=dropout_rng
    )
    out = _mlm_head(params, batch, h)
    if out is None:
        return None
    rows, cols, h_masked, targets, logits = out
    loss, d_logits = nn.softmax_cross_entropy(logits, targets)
    d_h = np.zeros_like(h)
    d_h[rows, cols] = d_logits @ params["tok_emb"]
    grads = encoder_backward(config, params, cache, d_h)
    grads["tok_emb"] = grads["tok_emb"] + d_logits.T @ h_masked
    grads["mlm_bias"] = d_logits.sum(axis=0)
    return loss, grads


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    dev_losses: list[float]  # index 0 is the untrained model
    loss_log: list[dict]
    best_epoch: int  # 0 means the initial parameters were never beaten
    stopped_early: bool = False


def _dev_loss(config: ModelConfig, params: dict, dev_batches: list[MaskedBatch]) -> float:
    total, count = 0.0, 0
    for b in dev_batches:
        m = b.num_labeled
        if m == 0:
            continue
        total += mlm_loss(config, params, b) * m
        count += m
    if count == 0:
        raise ValueError("dev set has no labeled positions")
    return total / count


def run_pretraining(
    config: TrainingConfig,
    corpus: str,
    tokenizer: TokenizerModel,
    model_config: ModelConfig,
    output_dir: str | None = None,
    dev_fraction: float = 0.1,
    patience: int = 2,
    min_delta: float = 1e-3,
) -> PretrainResult:
    """Pretrain from random init, keeping the epoch with the best dev loss.

    Stops early when dev loss has not improved on its best by more than
    ``min_delta`` for ``patience`` consecutive epochs.
    """
    if model_config.vocab_size != tokenizer.vocab_size:
        raise ValueError(
            f"model vocab_size {model_config.vocab_size} does not match "
            f"tokenizer vocab of {tokenizer.vocab_size}"
        )
    ids, masks = chunk_corpus(tokenizer, corpus, config.max_length)
    n_chunks = ids.shape[0]
    root = Rng(config.seed)
    dev_n = max(1, int(round(dev_fraction * n_chunks)))
    if dev_n >= n_chunks:
        raise ValueError(f"dev slice of {dev_n} chunks leaves no training chunks")
    perm = root.spawn("devsplit").permutation(n_chunks)
    dev_idx, train_idx = perm[:dev_n], perm[dev_n:]

    mask_kwargs = dict(
        vocab_size=tokenizer.vocab_size,
        mask_token_ratio=config.mask_token_ratio,
        random_token_ratio=config.random_token_ratio,
    )
    dev_rng = root.spawn("devmask")
    dev_batches = [
        mask_tokens(ids[dev_idx[s : s + config.eval_batch_size]],
                    masks[dev_idx[s : s + config.eval_batch_size]],
                    config.mask_prob, dev_rng, **mask_kwargs)
        for s in range(0, len(dev_idx), config.eval_batch_size)
    ]

    params = init_params(model_config, root.spawn("init"))
    optimizer = AdamW(config.learning_rate, weight_decay=config.weight_decay)

    dev_losses = [_dev_loss(model_config, params, dev_batches)]
    best_loss = dev_losses[0]
    best_params = {k: v.copy() for k, v in params.items()}
    best_epoch = 0
    loss_log: list[dict] = []
    stopped_early = False
    stop_ref = dev_losses[0]
    stale = 0
    global_step = 0

    ckpt_dir = None
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        ckpt_dir = os.path.join(output_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)

    for epoch in range(1, config.num_train_epochs + 1):
        order = train_idx[root.spawn("shuffle", epoch).permutation(len(train_idx))]
        for step_in_epoch, start in enumerate(range(0, len(order), config.train_batch_size)):
            sel = order[start : start + config.train_batch_size]
            batch = mask_tokens(
                ids[sel], masks[sel], config.mask_prob,
                root.spawn("mask", epoch, step_in_epoch), **mask_kwargs
            )
            dropout_rng = None
            if model_config.dropout > 0.0:
                dropout_rng = root.spawn("dropout", epoch, step_in_epoch)
            with naming_step(epoch, step_in_epoch + 1):
                result = mlm_loss_and_grads(model_config, params, batch, dropout_rng)
            global_step += 1
            if result is None:
                continue  # nothing was masked; no signal, no update
            loss, grads = result
            grad_norm = clip_global_norm(grads, config.max_grad_norm)
            check_step_finite(loss, grad_norm, epoch, step_in_epoch + 1)
            lr = warmup_learning_rate(config.learning_rate, optimizer.t, config.warmup_steps)
            optimizer.step(params, grads, lr)
            if global_step % config.logging_steps == 0:
                loss_log.append({"step": global_step, "epoch": epoch, "loss": loss})

        with naming_step(epoch, step_in_epoch + 1):  # scores the parameters the last step left
            dev = _dev_loss(model_config, params, dev_batches)
        dev_losses.append(dev)
        if dev < best_loss:
            best_loss = dev
            best_params = {k: v.copy() for k, v in params.items()}
            best_epoch = epoch
        if ckpt_dir:
            epoch_ckpt = Checkpoint(model_config, params, tokenizer=tokenizer)
            save_checkpoint(epoch_ckpt, os.path.join(ckpt_dir, f"epoch-{epoch:04d}.ckpt"))
        if dev < stop_ref - min_delta:
            stop_ref = dev
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                stopped_early = True
                break

    best = Checkpoint(model_config, best_params, tokenizer=tokenizer)
    if output_dir:
        save_checkpoint(best, os.path.join(output_dir, "best.ckpt"))
        _write_loss_log(os.path.join(output_dir, "loss_log.tsv"), loss_log)
        _write_dev_losses(os.path.join(output_dir, "dev_losses.tsv"), dev_losses)
    return PretrainResult(
        checkpoint=best,
        dev_losses=dev_losses,
        loss_log=loss_log,
        best_epoch=best_epoch,
        stopped_early=stopped_early,
    )


def _write_loss_log(path: str, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("step\tepoch\tloss\n")
        for row in rows:
            f.write(f"{row['step']}\t{row['epoch']}\t{row['loss']:.6f}\n")


def _write_dev_losses(path: str, losses: list[float]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("epoch\tdev_loss\n")
        for epoch, loss in enumerate(losses):
            f.write(f"{epoch}\t{loss:.6f}\n")
