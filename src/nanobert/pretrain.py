"""Masked-language-model pretraining on a plain-text corpus.

The corpus is tokenized once into a flat id stream, cut into fixed-length
chunks wrapped in [CLS]/[SEP], and a held-out slice of chunks serves as the
dev set. Each training batch re-masks its tokens with a stream keyed by
(seed, epoch, step); dev chunks keep one fixed masking so epoch losses are
comparable.

The output projection is tied to the token embedding: logits at a masked
position are H @ tok_emb^T + mlm_bias, computed only where labels exist.
The encoder's last layer runs only at those positions as well.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .checkpoint import Checkpoint, save_checkpoint
from .data import batch_indices, check_type, write_lines
from .model import (
    ModelConfig,
    encoder_backward,
    encoder_forward,
    encoder_forward_with_cache,
    flatten,
    init_params,
    views,
)
from .optim import (
    AdamW,
    TrainingConfig,
    check_step_finite,
    clip_global_norm,
    naming_step,
    select_best_epoch,
)
from .rng import Rng
from .tokenizer import MASK_ID, NUM_SPECIALS, TokenizerModel, frame

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
    rows = [frame(stream[start : start + window], max_length)
            for start in range(0, len(stream), window)]
    return (np.asarray([r.ids for r in rows], dtype=np.int64),
            np.asarray([r.attention_mask for r in rows], dtype=np.int64))


def _labeled_positions(batch: MaskedBatch):
    """Where the loss reads the encoder: each row's labeled positions in
    order, padded with 0 to the longest row's count, [B, Q]; the (row, slot)
    of every labeled position, row by row; and their targets. None when
    nothing is labeled. The padding names [CLS], which masking never
    selects; the loss reads no pad slot."""
    labeled = batch.labels != IGNORE_LABEL
    rows, cols = np.nonzero(labeled)
    if rows.size == 0:
        return None
    slots = np.cumsum(labeled, axis=1)[rows, cols] - 1
    positions = np.zeros((labeled.shape[0], int(slots.max()) + 1), dtype=np.int64)
    positions[rows, slots] = cols
    return positions, (rows, slots), batch.labels[rows, cols]


def _mlm_head(params: dict, h: np.ndarray, slots: tuple):
    """Hidden states at the labeled ``slots`` of ``h`` ([B, Q, N]) and their
    tied-projection logits."""
    h_masked = h[slots]
    logits = h_masked @ params["tok_emb"].T
    logits += params["mlm_bias"]
    return h_masked, logits


def mlm_loss(config: ModelConfig, params: dict, batch: MaskedBatch) -> float:
    """Mean cross-entropy over labeled positions; 0.0 when none are labeled."""
    where = _labeled_positions(batch)
    if where is None:
        return 0.0
    positions, slots, targets = where
    h = encoder_forward(config, params, batch.input_ids, batch.attention_mask,
                        positions=positions)
    _, logits = _mlm_head(params, h, slots)
    loss, _ = nn.softmax_cross_entropy(logits, targets)
    return loss


def mlm_loss_and_grads(config: ModelConfig, params: dict, batch: MaskedBatch,
                       dropout_rng: Rng | None = None, grads: dict | None = None,
                       cache: dict | None = None):
    """Loss plus gradients for every parameter; None when nothing is labeled.

    Gradients are written into the arrays of ``grads`` when given, and the
    forward reuses the buffers of an earlier step's ``cache`` when given.
    The tied embedding receives two contributions: the output-projection
    gradient at labeled positions and the usual lookup scatter.
    """
    where = _labeled_positions(batch)
    if where is None:
        return None
    positions, slots, targets = where
    h, cache = encoder_forward_with_cache(
        config, params, batch.input_ids, batch.attention_mask, dropout_rng=dropout_rng,
        cache=cache, positions=positions
    )
    h_masked, logits = _mlm_head(params, h, slots)
    loss, d_logits = nn.softmax_cross_entropy(logits, targets)
    d_h = np.zeros_like(h)
    d_h[slots] = d_logits @ params["tok_emb"]
    grads = encoder_backward(config, params, cache, d_h, grads)
    grads["tok_emb"] += d_logits.T @ h_masked
    grads["mlm_bias"] = np.sum(d_logits, axis=0, out=grads.get("mlm_bias"))
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
    check_type("dev_fraction", dev_fraction, "float")
    check_type("patience", patience, "int")
    check_type("min_delta", min_delta, "float")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    if min_delta < 0:
        raise ValueError(f"min_delta must be >= 0, got {min_delta}")
    if not 0 < dev_fraction < 1:
        raise ValueError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    if config.max_length > model_config.max_positions:
        raise ValueError(f"training.max_length {config.max_length} exceeds "
                         f"model.max_positions {model_config.max_positions}")
    root = Rng(config.seed)
    vector, params = flatten(init_params(model_config, root.spawn("init")))
    model = Checkpoint(model_config, params, tokenizer=tokenizer)  # refuses another vocab size
    ids, masks = chunk_corpus(tokenizer, corpus, config.max_length)
    n_chunks = ids.shape[0]
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
        mask_tokens(ids[dev_idx[b]], masks[dev_idx[b]], config.mask_prob, dev_rng, **mask_kwargs)
        for b in batch_indices(dev_n, config.eval_batch_size)
    ]

    grad_vector = np.zeros_like(vector)
    grad_views = views(grad_vector, params)
    optimizer = AdamW(params, config.learning_rate, config.weight_decay, config.warmup_steps)

    dev_losses = [_dev_loss(model_config, params, dev_batches)]
    best_vector = vector.copy()
    best_epoch = 0
    loss_log: list[dict] = []
    stopped_early = False
    stop_ref = dev_losses[0]
    stale = 0
    global_step = 0

    for epoch in range(1, config.num_train_epochs + 1):
        blocks = batch_indices(len(train_idx), config.train_batch_size,
                               root.spawn("shuffle", epoch))
        workspace: dict = {}  # the epoch's activation buffers, reused by every step
        for step_in_epoch, block in enumerate(blocks):
            sel = train_idx[block]
            batch = mask_tokens(
                ids[sel], masks[sel], config.mask_prob,
                root.spawn("mask", epoch, step_in_epoch), **mask_kwargs
            )
            global_step += 1
            with naming_step(epoch, step_in_epoch + 1):
                result = mlm_loss_and_grads(model_config, params, batch,
                                            root.spawn("dropout", epoch, step_in_epoch),
                                            grad_views, workspace)
                if result is None:
                    continue  # nothing was masked; no signal, no update
                loss = result[0]
                check_step_finite(loss, clip_global_norm(grad_vector, config.max_grad_norm))
                optimizer.step(vector, grad_vector)
            if global_step % config.logging_steps == 0:
                loss_log.append({"step": global_step, "epoch": epoch, "loss": loss})
        del workspace  # the dev pass below scores without the step buffers beside it

        with naming_step(epoch, step_in_epoch + 1):  # scores the parameters the last step left
            dev = _dev_loss(model_config, params, dev_batches)
        dev_losses.append(dev)
        if select_best_epoch(dev_losses, greater_is_better=False) == epoch:
            best_vector = vector.copy()
            best_epoch = epoch
        if output_dir:  # made with its first checkpoint: a run failing before it leaves none
            ckpt_dir = os.path.join(output_dir, "checkpoints")
            os.makedirs(ckpt_dir, exist_ok=True)
            save_checkpoint(model, os.path.join(ckpt_dir, f"epoch-{epoch:04d}.ckpt"))
        if dev < stop_ref - min_delta:
            stop_ref = dev
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                stopped_early = True
                break

    best = Checkpoint(model_config, views(best_vector, params), tokenizer=tokenizer)
    if output_dir:
        os.makedirs(output_dir, exist_ok=True)
        save_checkpoint(best, os.path.join(output_dir, "best.ckpt"))
        write_lines(os.path.join(output_dir, "loss_log.tsv"), ["step\tepoch\tloss", *(
            f"{r['step']}\t{r['epoch']}\t{r['loss']:.6f}" for r in loss_log)])
        write_lines(os.path.join(output_dir, "dev_losses.tsv"), ["epoch\tdev_loss", *(
            f"{epoch}\t{loss:.6f}" for epoch, loss in enumerate(dev_losses))])
    return PretrainResult(
        checkpoint=best,
        dev_losses=dev_losses,
        loss_log=loss_log,
        best_epoch=best_epoch,
        stopped_early=stopped_early,
    )
