"""Post-norm transformer encoder over token ids.

One forward body, ``encoder_forward``, serves scoring and training, one
layer at a time through ``_layer_forward``. Scoring keeps no cache: each
layer's intermediates are freed when the layer returns, so a scoring pass
holds one layer's activations, never two. Training passes a cache dict,
which doubles as the step's workspace: every tensor ``encoder_backward``
reads is written with ``out=`` into a prefix view of a flat buffer kept in
that dict, and a buffer grows only when a step's (B, T) needs more. A
training loop passes the same dict to every step of an epoch and drops it
before the epoch's dev pass, so scoring never runs beside it. Dropout masks
are kept as bool, and the dropped-out attention probabilities are rebuilt
in backward with the forward's own operations instead of being cached.
Gradients are assembled by hand from the primitive backward functions in
``numerics`` and written into the arrays of a gradient dict, such as views
of a training loop's gradient vector; there is no tape.

Padding is excluded from attention with a large negative additive bias on
pad keys (kept finite so backward never sees NaN), which makes outputs at
non-pad positions bit-identical under any change to pad-position ids.
Finetuning and scoring cut each batch to its longest real row with
``trim_padding`` before the forward pass, so pad-position outputs past that
width are never computed. Batches are made of rows of similar length, so
little padding is left to cut around: finetuning draws its training batches
from length-sorted windows of each epoch's shuffle
(``data.batch_indices(lengths=)``), and ``scoring_batches`` takes the rows
in order of length and hands back their input positions. BLAS blocking and
summation order depend on T and on a row's batch, so outputs differ from a
pass over the full padded width by about 1e-15.

The losses read the final hidden states at few positions: the task heads
at [CLS] (position 0), the MLM loss at the masked tokens. A caller names
them with ``positions`` ([B, Q]), and the last layer then runs its query
side only there: it gathers those rows of its input, takes keys and values
from every position, and computes the Q projection, the [B, A, Q, T]
attention rows, the output projection, both residuals and LayerNorms and
the FFN on [B, Q, N]. Its dropout masks are drawn at those shapes. The
backward scatters the query side's input gradient (Q projection plus
residual) back with ``np.add.at``, so a position may be named twice, and a
slot no loss reads (padding to a row's Q) carries exact zeros. Without
``positions`` every layer runs at every position, as mean pooling needs.
The pruned pass gives the same loss and gradients up to rounding.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nn
from .data import batch_indices, check_field_types
from .rng import Rng

ATTENTION_MASK_BIAS = -1e30
INIT_SCALE = 0.02
# every encoder layer's parameters, after its "layers.<i>." prefix, in construction order
LAYER_SUFFIXES = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "attn.bq", "attn.bk", "attn.bv",
                  "attn.bo", "ln1.gamma", "ln1.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
                  "ln2.gamma", "ln2.beta")


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
        check_field_types(self)
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if min(self.hidden_size, self.num_heads, self.ffn_size, self.vocab_size, self.max_positions) < 1:
            raise ValueError("all size fields must be positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_heads

    def to_dict(self) -> dict:
        return asdict(self)


def param_shapes(config: ModelConfig, num_labels: int | None = None) -> dict[str, tuple[int, ...]]:
    """Parameter name to shape table, in canonical construction order."""
    n, f = config.hidden_size, config.ffn_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, n),
        "pos_emb": (config.max_positions, n),
    }
    layer = [(n, n)] * 4 + [(n,)] * 6 + [(n, f), (f,), (f, n), (n,), (n,), (n,)]
    for i in range(config.num_layers):
        shapes.update((f"layers.{i}.{s}", shape) for s, shape in zip(LAYER_SUFFIXES, layer))
    shapes["mlm_bias"] = (config.vocab_size,)
    if num_labels is not None:
        shapes["head.w"] = (n, num_labels)
        shapes["head.b"] = (num_labels,)
    return shapes


def flatten(tensors: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A new float64 vector holding ``tensors`` in sorted-name order, and
    named views into it shaped like them: the one parameter layout, of the
    training vectors and, as little-endian bytes, of a checkpoint's body."""
    vector = np.concatenate([np.ravel(tensors[n]) for n in sorted(tensors)], dtype=np.float64)
    return vector, views(vector, tensors)


def views(vector: np.ndarray, layout: dict) -> dict[str, np.ndarray]:
    """Named views into ``vector`` in ``flatten``'s layout; ``layout`` maps
    each name to its tensor or to its shape."""
    out, start = {}, 0
    for name in sorted(layout):
        shape = tuple(getattr(layout[name], "shape", layout[name]))
        out[name] = vector[start : start + math.prod(shape)].reshape(shape)
        start += out[name].size
    return out


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


def embed(params: dict[str, np.ndarray], ids: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Token embedding plus learned position embedding, [B, T] -> [B, T, N],
    written to ``out`` when given."""
    ids = np.asarray(ids)
    t = ids.shape[-1]
    max_positions = params["pos_emb"].shape[0]
    if t > max_positions:
        raise ValueError(f"sequence length {t} exceeds max_positions {max_positions}")
    tok = nn.embedding_lookup(params["tok_emb"], ids)
    return np.add(tok, params["pos_emb"][:t], out=out)


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, t, n = x.shape
    return x.reshape(b, t, num_heads, n // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    b, a, t, hd = x.shape
    if out is None:
        return x.transpose(0, 2, 1, 3).reshape(b, t, a * hd)
    np.copyto(out.reshape(b, t, a, hd), x.transpose(0, 2, 1, 3))
    return out


def _sum_leading(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.sum(d.reshape(-1, d.shape[-1]), axis=0, out=out)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _slot(ws: dict | None, key: str, shape: tuple, dtype=np.float64) -> np.ndarray | None:
    """Where the forward writes a tensor the backward reads: a ``shape`` view
    of the start of the workspace buffer ``key``, which grows to the largest
    shape asked of it; None (numpy makes a fresh array) when scoring."""
    if ws is None:
        return None
    size = math.prod(shape)
    buf = ws.get(key)
    if buf is None or buf.size < size:
        buf = ws[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _keep_mask(shape: tuple, rng: Rng | None, p: float, ws: dict | None, key: str):
    """Bool mask of the units inverted dropout keeps at rate p, or None with
    nothing drawn when p is 0."""
    if p == 0.0:
        return None
    return rng.random(shape, at_least=p, out=_slot(ws, key, shape, bool))


def _kept(x: np.ndarray, keep: np.ndarray | None, p: float,
          out: np.ndarray | None = None) -> np.ndarray:
    """``x`` with the dropped units zeroed and the kept ones scaled by
    1/(1-p); ``x`` itself when nothing is dropped. Multiplying by the bool
    mask and then by the scale rounds exactly like multiplying by their
    float product, signed zeros included."""
    if keep is None:
        return x
    y = np.multiply(x, keep, out=out)
    y *= 1.0 / (1.0 - p)
    return y


def _attention_forward(lp: dict, x: np.ndarray, xq: np.ndarray, key_bias: np.ndarray,
                       num_heads: int, p: float, rng: Rng | None,
                       ws: dict | None) -> tuple[np.ndarray, dict | None]:
    """Queries from ``xq`` ([B, Q, N]; ``x`` itself on the full path), keys
    and values from every position of ``x``."""
    q = _split_heads(_affine(xq, lp["attn.wq"], lp["attn.bq"], _slot(ws, "q", xq.shape)), num_heads)
    k = _split_heads(_affine(x, lp["attn.wk"], lp["attn.bk"], _slot(ws, "k", x.shape)), num_heads)
    v = _split_heads(_affine(x, lp["attn.wv"], lp["attn.bv"], _slot(ws, "v", x.shape)), num_heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    b, a, nq, _ = q.shape
    scores = np.matmul(q, np.swapaxes(k, -1, -2), out=_slot(ws, "probs", (b, a, nq, x.shape[1])))
    scores *= scale
    scores += key_bias
    probs = nn.softmax(scores, out=scores)
    pmask = _keep_mask(probs.shape, rng, p, ws, "pmask")
    ctx = _merge_heads(np.matmul(_kept(probs, pmask, p), v), _slot(ws, "ctx", xq.shape))
    out = _affine(ctx, lp["attn.wo"], lp["attn.bo"])
    if ws is None:
        return out, None
    return out, {"x": x, "xq": xq, "q": q, "k": k, "v": v, "scale": scale, "probs": probs,
                 "pmask": pmask, "ctx": ctx}


def _attention_backward(lp: dict, cache: dict, d_out: np.ndarray, p: float,
                        grads: dict) -> tuple[np.ndarray, np.ndarray]:
    """d loss / d ``x`` through the keys and values and d loss / d ``xq``
    through the queries; one array when ``xq`` is ``x``, where the three
    parts add up in the order q, k, v."""
    x, xq, q, k, v = cache["x"], cache["xq"], cache["q"], cache["k"], cache["v"]
    num_heads = q.shape[1]
    d_ctx_m, _ = nn.matmul_backward(d_out, cache["ctx"], lp["attn.wo"], out=grads["attn.wo"])
    _sum_leading(d_out, grads["attn.bo"])
    d_ctx = _split_heads(d_ctx_m, num_heads)
    # the dropped-out probabilities are rebuilt with the forward's operations
    d_probs, d_v = nn.matmul_backward(d_ctx, _kept(cache["probs"], cache["pmask"], p), v)
    _kept(d_probs, cache["pmask"], p, out=d_probs)
    d_scores = nn.softmax_backward(d_probs, cache["probs"], out=d_probs)
    d_scores *= cache["scale"]
    d_q = np.matmul(d_scores, k)
    d_k = np.matmul(np.swapaxes(d_scores, -1, -2), q)
    d_x = np.zeros_like(x)
    d_xq = d_x if xq is x else np.zeros_like(xq)
    for name, d_h, inp, d_inp in (("q", d_q, xq, d_xq), ("k", d_k, x, d_x), ("v", d_v, x, d_x)):
        d_merged = _merge_heads(d_h)
        d_x_part, _ = nn.matmul_backward(d_merged, inp, lp[f"attn.w{name}"],
                                         out=grads[f"attn.w{name}"])
        _sum_leading(d_merged, grads[f"attn.b{name}"])
        d_inp += d_x_part
    return d_x, d_xq


def _ffn_forward(lp: dict, x: np.ndarray, p: float, rng: Rng | None,
                 ws: dict | None) -> tuple[np.ndarray, dict | None]:
    u = _affine(x, lp["ffn.w1"], lp["ffn.b1"], _slot(ws, "u", x.shape[:-1] + lp["ffn.b1"].shape))
    g = nn.gelu(u, out=_slot(ws, "g", u.shape))
    out = _affine(g, lp["ffn.w2"], lp["ffn.b2"])
    keep = _keep_mask(out.shape, rng, p, ws, "keep2")
    _kept(out, keep, p, out=out)
    return out, (None if ws is None else {"u": u, "g": g, "amask2": keep})


def _ffn_backward(lp: dict, lc: dict, d_out: np.ndarray, p: float, grads: dict) -> np.ndarray:
    d_f = _kept(d_out, lc["amask2"], p)
    d_g, _ = nn.matmul_backward(d_f, lc["g"], lp["ffn.w2"], out=grads["ffn.w2"])
    _sum_leading(d_f, grads["ffn.b2"])
    d_u = nn.gelu_backward(d_g, lc["u"])
    d_x, _ = nn.matmul_backward(d_u, lc["h1"], lp["ffn.w1"], out=grads["ffn.w1"])
    _sum_leading(d_u, grads["ffn.b1"])
    return d_x


def _layer_forward(lp: dict, x: np.ndarray, key_bias: np.ndarray, num_heads: int, p: float,
                   rng: Rng | None, ws: dict | None, out: np.ndarray | None,
                   positions: np.ndarray | None = None) -> tuple[np.ndarray, dict | None]:
    """One post-norm layer, its output written to ``out`` when given.

    With ``positions`` ([B, Q]) the layer's output is computed at those
    positions of each row only, [B, Q, N]; keys and values still come from
    every position. With a workspace ``ws`` (training), every tensor the
    backward reads is written into it and comes back as the layer's cache.
    Scoring passes None, so each sublayer's intermediates are freed when it
    returns.
    """
    xq, flat = x, None
    if positions is not None:
        b, t, n = x.shape
        flat = (positions + t * np.arange(b)[:, None]).ravel()
        xq = np.take(x.reshape(b * t, n), flat, axis=0,
                     out=_slot(ws, "xq", (flat.size, n))).reshape(b, -1, n)
    attn_out, attn_cache = _attention_forward(lp, x, xq, key_bias, num_heads, p, rng, ws)
    keep1 = _keep_mask(attn_out.shape, rng, p, ws, "keep1")
    _kept(attn_out, keep1, p, out=attn_out)
    r1 = np.add(xq, attn_out, out=_slot(ws, "r1", xq.shape))
    h1 = nn.layer_norm(r1, lp["ln1.gamma"], lp["ln1.beta"], out=_slot(ws, "h1", xq.shape))
    f_out, ffn_cache = _ffn_forward(lp, h1, p, rng, ws)
    r2 = np.add(h1, f_out, out=_slot(ws, "r2", xq.shape))
    y = nn.layer_norm(r2, lp["ln2.gamma"], lp["ln2.beta"], out=out)
    if ws is None:
        return y, None
    return y, {"attn": attn_cache, "flat": flat, "amask1": keep1, "r1": r1, "h1": h1, "r2": r2,
               **ffn_cache}


def _layer_backward(lp: dict, lc: dict, d_y: np.ndarray, p: float, grads: dict) -> np.ndarray:
    """d loss / d layer input given d loss / d output ``d_y``; the layer's
    parameter gradients are written into the arrays of ``grads``, keyed like
    ``lp``."""
    d_r2, _, _ = nn.layer_norm_backward(d_y, lc["r2"], lp["ln2.gamma"],
                                        out=(grads["ln2.gamma"], grads["ln2.beta"]))
    d_h1 = _ffn_backward(lp, lc, d_r2, p, grads)
    d_h1 += d_r2
    d_r1, _, _ = nn.layer_norm_backward(d_h1, lc["r1"], lp["ln1.gamma"],
                                        out=(grads["ln1.gamma"], grads["ln1.beta"]))
    d_x, d_xq = _attention_backward(lp, lc["attn"], _kept(d_r1, lc["amask1"], p), p, grads)
    d_xq += d_r1
    if lc["flat"] is not None:
        # positions may repeat: every query slot adds its gradient at its
        # position, and a slot no loss reads adds exact zeros
        np.add.at(d_x.reshape(-1, d_x.shape[-1]), lc["flat"], d_xq.reshape(-1, d_xq.shape[-1]))
    return d_x


def _layer_params(params: dict, i: int) -> dict:
    return {s: params[f"layers.{i}.{s}"] for s in LAYER_SUFFIXES}


def trim_padding(ids: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch cut to its longest real row: trailing columns that are
    padding in every row are dropped; interior pad columns stay."""
    real = masks.any(axis=0)
    width = real.size - int(np.argmax(real[::-1]))  # full width when no column is real
    return ids[:, :width], masks[:, :width]


def scoring_batches(ids: np.ndarray, masks: np.ndarray, batch_size: int):
    """Batches of at most ``batch_size`` rows taken in order of real length
    (a stable sort), each cut by ``trim_padding``: yields the rows' input
    positions with the cut ids and masks, so a caller writes each batch's
    outputs back into input order."""
    order = np.argsort(np.count_nonzero(masks, axis=1), kind="stable")
    for block in batch_indices(len(order), batch_size):
        sel = order[block]
        yield (sel, *trim_padding(ids[sel], masks[sel]))


def _checked_positions(positions, shape: tuple[int, int]) -> np.ndarray:
    """``positions`` as an int [B, Q] array, Q >= 1, of values in [0, T)."""
    positions = np.asarray(positions)
    b, t = shape
    if positions.dtype.kind not in "iu" or positions.ndim != 2 or positions.shape[0] != b \
            or positions.shape[1] < 1:
        raise ValueError(f"positions must be an int [B, Q] array with B = {b} and Q >= 1, "
                         f"got {positions.dtype} {positions.shape}")
    bad = (positions < 0) | (positions >= t)
    if bad.any():
        raise ValueError(f"position {positions[bad][0]} is outside [0, {t})")
    return positions.astype(np.int64, copy=False)


def encoder_forward(config: ModelConfig, params: dict[str, np.ndarray],
                    ids: np.ndarray, attention_mask: np.ndarray,
                    dropout_rng: Rng | None = None, cache: dict | None = None,
                    positions: np.ndarray | None = None) -> np.ndarray:
    """[B, T] ids -> [B, T, N] hidden states, or [B, Q, N] at ``positions``.

    ``positions`` ([B, Q] ints in [0, T), repeats allowed) names the
    positions of each row whose final states the caller reads; the last
    layer then runs only there (see the module docstring). Dropout fires
    only when a rng is supplied. Without a ``cache`` dict the
    pass scores: it holds one layer's intermediates at a time. With one, it
    records what ``encoder_backward`` reads: per layer the layer input,
    q/k/v, the attention probabilities and context, both residual sums, the
    LayerNorm output, the FFN pre-activation and GELU output, and the
    dropout masks as bool. Those tensors are views of the flat buffers the
    dict keeps under ``"buffers"``; a dict from an earlier step is reused,
    growing a buffer only when this (B, T) needs more, so the cached views
    of that step are overwritten. The returned hidden states are a fresh
    array.
    """
    ids = np.asarray(ids)
    mask = np.asarray(attention_mask, dtype=np.float64)
    if ids.shape != mask.shape or ids.ndim != 2:
        raise ValueError(f"ids {ids.shape} and attention_mask {mask.shape} must both be [B, T]")
    if (mask.sum(axis=1) == 0).any():
        raise ValueError("a sequence with every position masked has no attendable key")
    if positions is not None:
        positions = _checked_positions(positions, ids.shape)
    p = config.dropout if dropout_rng is not None else 0.0
    key_bias = (1.0 - mask)[:, None, None, :] * ATTENTION_MASK_BIAS
    buffers = None
    if cache is not None:
        buffers = cache.get("buffers", {})
        cache.clear()  # drops the last step's views before any buffer grows
    workspaces = [None if buffers is None else buffers.setdefault(f"layers.{i}", {})
                  for i in range(config.num_layers)]

    x = embed(params, ids, out=_slot(workspaces[0], "x", ids.shape + (config.hidden_size,)))
    emb_mask = _keep_mask(x.shape, dropout_rng, p, buffers, "emb_mask")
    _kept(x, emb_mask, p, out=x)
    layers = []
    last = config.num_layers - 1
    for i, ws in enumerate(workspaces):
        out = None if i == last else _slot(workspaces[i + 1], "x", x.shape)
        x, layer_cache = _layer_forward(_layer_params(params, i), x, key_bias, config.num_heads,
                                        p, dropout_rng, ws, out,
                                        positions if i == last else None)
        layers.append(layer_cache)
    if cache is not None:
        cache.update(buffers=buffers, ids=ids, dropout=p, emb_mask=emb_mask, layers=layers)
    return x


def encoder_forward_with_cache(
    config: ModelConfig,
    params: dict[str, np.ndarray],
    ids: np.ndarray,
    attention_mask: np.ndarray,
    dropout_rng: Rng | None = None,
    cache: dict | None = None,
    positions: np.ndarray | None = None,
) -> tuple[np.ndarray, dict]:
    """Training forward pass: hidden states (at ``positions`` when given)
    plus the cache ``encoder_backward`` reads. Passing the cache of an
    earlier step reuses its buffers."""
    cache = {} if cache is None else cache
    h = encoder_forward(config, params, ids, attention_mask, dropout_rng, cache, positions)
    return h, cache


def encoder_backward(config: ModelConfig, params: dict[str, np.ndarray], cache: dict,
                     d_h: np.ndarray, grads: dict | None = None) -> dict[str, np.ndarray]:
    """Gradients of every encoder parameter given d loss / d output ``d_h``
    (shaped like the forward's output: [B, Q, N] when it took positions),
    written into the arrays of ``grads`` when given (a new dict of them
    otherwise)."""
    if grads is None:
        grads = {name: np.empty(shape) for name, shape in param_shapes(config).items()
                 if name != "mlm_bias"}
    p = cache["dropout"]
    d_x = d_h
    for i in reversed(range(config.num_layers)):
        d_x = _layer_backward(_layer_params(params, i), cache["layers"][i], d_x, p,
                              _layer_params(grads, i))
    _kept(d_x, cache["emb_mask"], p, out=d_x)
    ids = cache["ids"]
    nn.embedding_lookup_backward(d_x, ids, params["tok_emb"].shape[0], out=grads["tok_emb"])
    d_pos = grads["pos_emb"]
    d_pos[ids.shape[1]:] = 0.0
    np.sum(d_x, axis=0, out=d_pos[: ids.shape[1]])
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
    out, _ = _attention_forward(lp, h[None], h[None], key_bias, config.num_heads, 0.0, None, None)
    return out[0]


def pool_first_token(h: np.ndarray) -> np.ndarray:
    """Sequence representation: hidden state of the leading [CLS] position."""
    if h.ndim != 3:
        raise ValueError(f"expected [B, T, N], got shape {h.shape}")
    return h[:, 0, :]
