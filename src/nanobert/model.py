"""Post-norm transformer encoder over token ids.

One forward body, ``encoder_forward``, serves scoring and training. It
records the intermediates ``encoder_backward`` needs only into a cache the
caller passes in, so scoring holds one layer's buffers at a time;
``encoder_forward_with_cache`` is the training entry that supplies the
cache. Gradients are assembled by hand from the primitive backward
functions in ``numerics``; there is no tape.

Padding is excluded from attention with a large negative additive bias on
pad keys (kept finite so backward never sees NaN), which makes outputs at
non-pad positions bit-identical under any change to pad-position ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics as nn
from .rng import Rng

ATTENTION_MASK_BIAS = -1e30
INIT_SCALE = 0.02


@dataclass
class ModelConfig:
    num_layers: int
    hidden_size: int
    num_heads: int
    ffn_size: int
    vocab_size: int
    max_positions: int
    dropout: float = 0.1

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if min(self.hidden_size, self.num_heads, self.ffn_size, self.vocab_size, self.max_positions) < 1:
            raise ValueError("all size fields must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "hidden_size": self.hidden_size,
            "num_heads": self.num_heads,
            "ffn_size": self.ffn_size,
            "vocab_size": self.vocab_size,
            "max_positions": self.max_positions,
            "dropout": self.dropout,
        }


def param_shapes(config: ModelConfig, num_labels: int | None = None) -> dict[str, tuple[int, ...]]:
    """Parameter name to shape table, in canonical construction order."""
    n, f = config.hidden_size, config.ffn_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, n),
        "pos_emb": (config.max_positions, n),
    }
    for i in range(config.num_layers):
        p = f"layers.{i}."
        for w in ("wq", "wk", "wv", "wo"):
            shapes[p + f"attn.{w}"] = (n, n)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[p + f"attn.{b}"] = (n,)
        shapes[p + "ln1.gamma"] = (n,)
        shapes[p + "ln1.beta"] = (n,)
        shapes[p + "ffn.w1"] = (n, f)
        shapes[p + "ffn.b1"] = (f,)
        shapes[p + "ffn.w2"] = (f, n)
        shapes[p + "ffn.b2"] = (n,)
        shapes[p + "ln2.gamma"] = (n,)
        shapes[p + "ln2.beta"] = (n,)
    shapes["mlm_bias"] = (config.vocab_size,)
    if num_labels is not None:
        shapes["head.w"] = (n, num_labels)
        shapes["head.b"] = (num_labels,)
    return shapes


def init_params(config: ModelConfig, rng: Rng, num_labels: int | None = None) -> dict[str, np.ndarray]:
    """Gaussian(0, 0.02) matrices and embeddings, zero biases, unit LN gains.

    Draw order follows param_shapes, so a given seed fixes every weight.
    """
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config, num_labels).items():
        if name.endswith(".gamma"):
            params[name] = np.ones(shape)
        elif len(shape) == 1:
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(shape, scale=INIT_SCALE)
    return params


def embed(params: dict[str, np.ndarray], ids: np.ndarray) -> np.ndarray:
    """Token embedding plus learned position embedding, [B, T] -> [B, T, N]."""
    ids = np.asarray(ids)
    t = ids.shape[-1]
    max_positions = params["pos_emb"].shape[0]
    if t > max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {max_positions}")
    tok = nn.embedding_lookup(params["tok_emb"], ids)
    return tok + params["pos_emb"][:t]


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, t, n = x.shape
    return x.reshape(b, t, num_heads, n // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    b, a, t, hd = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, t, a * hd)


def _sum_leading(d: np.ndarray) -> np.ndarray:
    return d.reshape(-1, d.shape[-1]).sum(axis=0)


def _dropout_mask(rng: Rng, shape, p: float) -> np.ndarray:
    # inverted dropout: scale kept units by 1/(1-p) so eval needs no rescale
    return np.multiply(rng.random(shape) >= p, 1.0 / (1.0 - p))


def _attention_forward(lp: dict, x: np.ndarray, key_bias: np.ndarray, num_heads: int,
                       dropout: float, rng: Rng | None) -> tuple[np.ndarray, dict]:
    q = _split_heads(x @ lp["attn.wq"] + lp["attn.bq"], num_heads)
    k = _split_heads(x @ lp["attn.wk"] + lp["attn.bk"], num_heads)
    v = _split_heads(x @ lp["attn.wv"] + lp["attn.bv"], num_heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale + key_bias
    probs = nn.softmax(scores, axis=-1)
    if rng is not None and dropout > 0.0:
        pmask = _dropout_mask(rng, probs.shape, dropout)
        probs_used = probs * pmask
    else:
        pmask = None
        probs_used = probs
    ctx = _merge_heads(np.matmul(probs_used, v))
    out = ctx @ lp["attn.wo"] + lp["attn.bo"]
    cache = {"x": x, "q": q, "k": k, "v": v, "scale": scale, "probs": probs,
             "pmask": pmask, "probs_used": probs_used, "ctx": ctx}
    return out, cache


def _attention_backward(lp: dict, cache: dict, d_out: np.ndarray,
                        grads: dict, prefix: str) -> np.ndarray:
    x, q, k, v = cache["x"], cache["q"], cache["k"], cache["v"]
    num_heads = q.shape[1]
    d_ctx_m, d_wo = nn.matmul_backward(d_out, cache["ctx"], lp["attn.wo"])
    grads[prefix + "attn.wo"] = d_wo
    grads[prefix + "attn.bo"] = _sum_leading(d_out)
    d_ctx = _split_heads(d_ctx_m, num_heads)
    d_probs_used, d_v = nn.matmul_backward(d_ctx, cache["probs_used"], v)
    if cache["pmask"] is not None:
        d_probs = d_probs_used * cache["pmask"]
    else:
        d_probs = d_probs_used
    d_scores = nn.softmax_backward(d_probs, cache["probs"]) * cache["scale"]
    d_q = np.matmul(d_scores, k)
    d_k = np.matmul(np.swapaxes(d_scores, -1, -2), q)
    d_x = np.zeros_like(x)
    for name, d_h in (("q", d_q), ("k", d_k), ("v", d_v)):
        d_merged = _merge_heads(d_h)
        d_x_part, d_w = nn.matmul_backward(d_merged, x, lp[f"attn.w{name}"])
        grads[prefix + f"attn.w{name}"] = d_w
        grads[prefix + f"attn.b{name}"] = _sum_leading(d_merged)
        d_x += d_x_part
    return d_x


def _layer_params(params: dict, i: int) -> dict:
    p = f"layers.{i}."
    return {key[len(p):]: val for key, val in params.items() if key.startswith(p)}


def encoder_forward(config: ModelConfig, params: dict[str, np.ndarray],
                    ids: np.ndarray, attention_mask: np.ndarray,
                    dropout_rng: Rng | None = None, cache: dict | None = None) -> np.ndarray:
    """[B, T] ids -> [B, T, N] hidden states.

    Dropout fires only when a rng is supplied. Intermediates for
    ``encoder_backward`` are recorded only into a ``cache`` dict passed in;
    without one, each layer's buffers are freed as the next layer runs.
    """
    ids = np.asarray(ids)
    mask = np.asarray(attention_mask, dtype=np.float64)
    if ids.shape != mask.shape or ids.ndim != 2:
        raise ValueError(f"ids {ids.shape} and attention_mask {mask.shape} must both be [B, T]")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("a sequence with every position masked has no attendable key")
    p = config.dropout if dropout_rng is not None else 0.0
    key_bias = (1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS

    x = embed(params, ids)
    emb_mask = None
    if p > 0.0:
        emb_mask = _dropout_mask(dropout_rng, x.shape, p)
        x = x * emb_mask
    if cache is not None:
        cache.update(ids=ids, key_bias=key_bias, emb_mask=emb_mask, layers=[])

    for i in range(config.num_layers):
        lp = _layer_params(params, i)
        attn_out, attn_cache = _attention_forward(lp, x, key_bias, config.num_heads, p, dropout_rng)
        amask1 = None
        if p > 0.0:
            amask1 = _dropout_mask(dropout_rng, attn_out.shape, p)
            attn_out = attn_out * amask1
        r1 = x + attn_out
        h1 = nn.layer_norm(r1, lp["ln1.gamma"], lp["ln1.beta"])
        u = h1 @ lp["ffn.w1"] + lp["ffn.b1"]
        g = nn.gelu(u)
        f_out = g @ lp["ffn.w2"] + lp["ffn.b2"]
        amask2 = None
        if p > 0.0:
            amask2 = _dropout_mask(dropout_rng, f_out.shape, p)
            f_out = f_out * amask2
        r2 = h1 + f_out
        x = nn.layer_norm(r2, lp["ln2.gamma"], lp["ln2.beta"])
        if cache is not None:
            cache["layers"].append({"attn": attn_cache, "amask1": amask1, "amask2": amask2,
                                    "r1": r1, "h1": h1, "u": u, "g": g, "r2": r2})
    return x


def encoder_forward_with_cache(
    config: ModelConfig,
    params: dict[str, np.ndarray],
    ids: np.ndarray,
    attention_mask: np.ndarray,
    dropout_rng: Rng | None = None,
) -> tuple[np.ndarray, dict]:
    """Training forward pass: hidden states plus the cache ``encoder_backward`` reads."""
    cache: dict = {}
    h = encoder_forward(config, params, ids, attention_mask, dropout_rng, cache)
    return h, cache


def encoder_backward(config: ModelConfig, params: dict[str, np.ndarray],
                     cache: dict, d_h: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of every encoder parameter given d loss / d output."""
    grads: dict[str, np.ndarray] = {}
    d_x = d_h
    for i in reversed(range(config.num_layers)):
        lp = _layer_params(params, i)
        lc = cache["layers"][i]
        prefix = f"layers.{i}."

        d_r2, d_g2, d_b2 = nn.layer_norm_backward(d_x, lc["r2"], lp["ln2.gamma"])
        grads[prefix + "ln2.gamma"] = d_g2
        grads[prefix + "ln2.beta"] = d_b2

        d_f = d_r2 if lc["amask2"] is None else d_r2 * lc["amask2"]
        d_g, d_w2 = nn.matmul_backward(d_f, lc["g"], lp["ffn.w2"])
        grads[prefix + "ffn.w2"] = d_w2
        grads[prefix + "ffn.b2"] = _sum_leading(d_f)
        d_u = nn.gelu_backward(d_g, lc["u"])
        d_h1, d_w1 = nn.matmul_backward(d_u, lc["h1"], lp["ffn.w1"])
        grads[prefix + "ffn.w1"] = d_w1
        grads[prefix + "ffn.b1"] = _sum_leading(d_u)
        d_h1 = d_h1 + d_r2

        d_r1, d_g1, d_b1 = nn.layer_norm_backward(d_h1, lc["r1"], lp["ln1.gamma"])
        grads[prefix + "ln1.gamma"] = d_g1
        grads[prefix + "ln1.beta"] = d_b1

        d_attn = d_r1 if lc["amask1"] is None else d_r1 * lc["amask1"]
        d_x = d_r1 + _attention_backward(lp, lc["attn"], d_attn, grads, prefix)

    if cache["emb_mask"] is not None:
        d_x = d_x * cache["emb_mask"]
    ids = cache["ids"]
    grads["tok_emb"] = nn.embedding_lookup_backward(d_x, ids, params["tok_emb"].shape[0])
    d_pos = np.zeros_like(params["pos_emb"])
    d_pos[: ids.shape[1]] = d_x.sum(axis=0)
    grads["pos_emb"] = d_pos
    return grads


def self_attention(config: ModelConfig, params: dict[str, np.ndarray], layer: int,
                   h: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """One attention sublayer on a single [T, N] sequence, dropout off.

    Exposed for inspection and direct testing; the encoder uses the batched
    internal path.
    """
    h = np.asarray(h, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if h.ndim != 2 or mask.shape != (h.shape[0],):
        raise ValueError(f"expected h [T, N] and mask [T], got {h.shape} and {mask.shape}")
    if mask.sum() == 0:
        raise ValueError("a sequence with every position masked has no attendable key")
    if not 0 <= layer < config.num_layers:
        raise ValueError(f"layer {layer} out of range for {config.num_layers} layers")
    lp = _layer_params(params, layer)
    key_bias = (1.0 - mask)[None, None, None, :] * ATTENTION_MASK_BIAS
    out, _ = _attention_forward(lp, h[None], key_bias, config.num_heads, dropout=0.0, rng=None)
    return out[0]


def pool_first_token(h: np.ndarray) -> np.ndarray:
    """Sequence representation: hidden state of the leading [CLS] position."""
    if h.ndim != 3:
        raise ValueError(f"expected [B, T, N], got shape {h.shape}")
    return h[:, 0, :]
