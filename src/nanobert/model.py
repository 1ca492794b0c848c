"""Post-norm transformer encoder over token ids.

One forward body, ``encoder_forward``, serves scoring and training, one
layer at a time through ``_layer_forward``, and every tensor it makes is
written with ``out=`` into a prefix view of a flat buffer in a workspace
dict (``_slot``); a buffer grows only when a pass needs more.

Scoring keeps no cache and runs in bounded memory. It takes the batch in
groups of whole rows, at most ``GROUP_POSITIONS`` positions each, and
writes each group's final states into one output array. All groups and
layers share one scoring workspace, and each layer writes its output over
its input, so a scoring pass holds one row group of one layer, however
many rows and layers there are.

Training passes a cache dict, which doubles as the step's workspace: a dict
per layer holds every tensor ``encoder_backward`` reads, and one more,
``"step"``, holds the forward's transients and every backward temporary.
The step buffers are shared by all layers, and tensors whose lifetimes
never overlap share a buffer too (``"wide"``, for instance, holds in turn
the FFN's d pre-activation, LayerNorm backward scratch and the merged
d q/k/v), so a step after the first of an epoch allocates nothing large. A
training loop passes the same dict to every step of an epoch and drops it
before the epoch's dev pass, so scoring never runs beside it. Dropout masks
are kept as bool, and the dropped-out attention probabilities are rebuilt
in backward with the forward's own operations instead of being cached.
Gradients are assembled by hand from the primitive backward functions in
``numerics`` and written into the arrays of a gradient dict, such as views
of a training loop's gradient vector; there is no tape.

Padding is excluded from attention with a large negative additive bias on
pad keys (kept finite so backward never sees NaN), which makes outputs at
non-pad positions bit-identical under any change to pad-position ids. A
row's mask is a prefix of ones, so encoded texts carry ids and lengths
only; finetuning and scoring cut each batch to its longest row and build
its mask (``cut_batch``), so pad-position outputs past that width are
never computed. Batches hold rows of similar length: finetuning draws its
training batches from length-sorted windows of each epoch's shuffle
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

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nn
from .data import batch_indices, check_field_types
from .rng import Rng

ATTENTION_MASK_BIAS = -1e30
INIT_SCALE = 0.02
# positions per row group of a scoring pass: whole rows, one row at least
GROUP_POSITIONS = 1024
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
    tok = nn.embedding_lookup(params["tok_emb"], ids, out=out)
    tok += params["pos_emb"][:t]
    return tok


def _split_heads(x: np.ndarray, num_heads: int) -> np.ndarray:
    b, t, n = x.shape
    return x.reshape(b, t, num_heads, n // num_heads).transpose(0, 2, 1, 3)


def _merge_heads(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    b, a, t, hd = x.shape
    np.copyto(out.reshape(b, t, a, hd), x.transpose(0, 2, 1, 3))
    return out


def _sum_leading(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.sum(d.reshape(-1, d.shape[-1]), axis=0, out=out)


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    y = np.matmul(x, w, out=out)
    y += b
    return y


def _slot(ws: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """A ``shape`` view of the start of the workspace buffer ``key``, which
    grows to the largest shape asked of it."""
    size = math.prod(shape)
    buf = ws.get(key)
    if buf is None or buf.size < size:
        buf = ws[key] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


# A forward names each tensor it writes by its role. Training writes what
# the backward reads to the layer's workspace under its role, and these
# transients to the step buffers shared by all layers:
_STEP_BUFFERS = {"kept_probs": "square", "heads": "d_ctx", "attn_out": "d_tmp",
                 "f_out": "d_tmp"}
# Scoring writes every tensor to the one scoring workspace, where these
# roles take the buffer of a tensor that is dead by the time they are
# written (the layer's output then takes "x"):
_SCORING_BUFFERS = {"heads": "q", "ctx": "k", "attn_out": "v", "r1": "x", "h1": "q",
                    "g": "u", "f_out": "k", "r2": "k"}
# The backward writes to the step buffers by name; each holds in turn
# tensors that are never live together:
#   "square" [B, A, Q, T]: dropped-out probabilities, then d probs; LayerNorm
#            backward scratch; each projection's d input
#   "wide"   [B, Q, F]: d FFN pre-activation; LayerNorm backward scratch;
#            each projection's merged d heads
#   "d_tmp"  [B, Q, N]: d FFN output, d h1, d attention output, then d v
#   "d_ctx"  d context, then d q
#   "d_res"  d r2, then d r1
#   "d_k", "d_x" (d layer input), "d_xq" (d query-side input)


def _forward_slots(ws: dict | None, tmp: dict):
    """``slot(role, shape, dtype=float64)``: where a forward writes the
    tensor ``role``; ``ws`` is the layer's training workspace, or None when
    scoring, and ``tmp`` the step or scoring workspace."""
    def slot(role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        if ws is None:
            return _slot(tmp, _SCORING_BUFFERS.get(role, role), shape, dtype)
        if role in _STEP_BUFFERS:
            return _slot(tmp, _STEP_BUFFERS[role], shape, dtype)
        return _slot(ws, role, shape, dtype)

    return slot


def _keep_mask(shape: tuple, rng: Rng | None, p: float, slot, role: str):
    """Bool mask of the units inverted dropout keeps at rate p, or None with
    nothing drawn when p is 0."""
    if p == 0.0:
        return None
    return rng.random(shape, at_least=p, out=slot(role, shape, bool))


def _kept(x: np.ndarray, keep: np.ndarray | None, p: float, out: np.ndarray) -> np.ndarray:
    """``x`` with the dropped units zeroed and the kept ones scaled by
    1/(1-p), written to ``out`` (which may be ``x``); ``x`` itself when
    nothing is dropped. Multiplying by the bool mask and then by the scale
    rounds exactly like multiplying by their float product, signed zeros
    included."""
    if keep is None:
        return x
    y = np.multiply(x, keep, out=out)
    y *= 1.0 / (1.0 - p)
    return y


def _kept_into(x: np.ndarray, keep: np.ndarray | None, p: float, slot, role: str) -> np.ndarray:
    """``_kept`` written to ``slot(role)``; ``x`` itself, with no buffer
    taken, when nothing is dropped."""
    return x if keep is None else _kept(x, keep, p, out=slot(role, x.shape))


def _attention_forward(lp: dict, x: np.ndarray, xq: np.ndarray, key_bias: np.ndarray,
                       num_heads: int, p: float, rng: Rng | None, slot,
                       training: bool) -> tuple[np.ndarray, dict | None]:
    """Queries from ``xq`` ([B, Q, N]; ``x`` itself on the full path), keys
    and values from every position of ``x``."""
    q = _split_heads(_affine(xq, lp["attn.wq"], lp["attn.bq"], slot("q", xq.shape)), num_heads)
    k = _split_heads(_affine(x, lp["attn.wk"], lp["attn.bk"], slot("k", x.shape)), num_heads)
    v = _split_heads(_affine(x, lp["attn.wv"], lp["attn.bv"], slot("v", x.shape)), num_heads)
    scale = 1.0 / math.sqrt(q.shape[-1])
    b, a, nq, _ = q.shape
    scores = np.matmul(q, np.swapaxes(k, -1, -2), out=slot("probs", (b, a, nq, x.shape[1])))
    scores *= scale
    scores += key_bias
    probs = nn.softmax(scores, out=scores)
    pmask = _keep_mask(probs.shape, rng, p, slot, "pmask")
    heads = np.matmul(_kept_into(probs, pmask, p, slot, "kept_probs"), v,
                      out=slot("heads", q.shape))
    ctx = _merge_heads(heads, slot("ctx", xq.shape))
    out = _affine(ctx, lp["attn.wo"], lp["attn.bo"], slot("attn_out", xq.shape))
    if not training:
        return out, None
    return out, {"x": x, "xq": xq, "q": q, "k": k, "v": v, "scale": scale, "probs": probs,
                 "pmask": pmask, "ctx": ctx}


def _attention_backward(lp: dict, cache: dict, d_out: np.ndarray, p: float, grads: dict,
                        slot) -> tuple[np.ndarray, np.ndarray]:
    """d loss / d ``x`` through the keys and values and d loss / d ``xq``
    through the queries; one array when ``xq`` is ``x``, where the three
    parts add up in the order q, k, v."""
    x, xq, q, k, v = cache["x"], cache["xq"], cache["q"], cache["k"], cache["v"]
    num_heads = q.shape[1]
    d_ctx_m, _ = nn.matmul_backward(d_out, cache["ctx"], lp["attn.wo"],
                                    out=(slot("d_ctx", d_out.shape), grads["attn.wo"]))
    _sum_leading(d_out, grads["attn.bo"])
    d_ctx = _split_heads(d_ctx_m, num_heads)
    # the dropped-out probabilities are rebuilt with the forward's
    # operations; d probs is written over them once d v is taken
    kept = _kept_into(cache["probs"], cache["pmask"], p, slot, "square")
    d_probs, d_v = nn.matmul_backward(d_ctx, kept, v, out=(slot("square", kept.shape),
                                                           slot("d_tmp", v.shape)))
    _kept(d_probs, cache["pmask"], p, out=d_probs)
    d_scores = nn.softmax_backward(d_probs, cache["probs"], out=d_probs)
    d_scores *= cache["scale"]
    d_q = np.matmul(d_scores, k, out=slot("d_ctx", q.shape))
    d_k = np.matmul(np.swapaxes(d_scores, -1, -2), q, out=slot("d_k", k.shape))
    d_x = slot("d_x", x.shape)
    d_x.fill(0.0)
    d_xq = d_x
    if xq is not x:
        d_xq = slot("d_xq", xq.shape)
        d_xq.fill(0.0)
    for name, d_h, inp, d_inp in (("q", d_q, xq, d_xq), ("k", d_k, x, d_x), ("v", d_v, x, d_x)):
        d_merged = _merge_heads(d_h, slot("wide", inp.shape))
        d_x_part, _ = nn.matmul_backward(d_merged, inp, lp[f"attn.w{name}"],
                                         out=(slot("square", inp.shape), grads[f"attn.w{name}"]))
        _sum_leading(d_merged, grads[f"attn.b{name}"])
        d_inp += d_x_part
    return d_x, d_xq


def _ffn_forward(lp: dict, x: np.ndarray, p: float, rng: Rng | None, slot,
                 training: bool) -> tuple[np.ndarray, dict | None]:
    u = _affine(x, lp["ffn.w1"], lp["ffn.b1"], slot("u", x.shape[:-1] + lp["ffn.b1"].shape))
    g = nn.gelu(u, out=slot("g", u.shape))
    out = _affine(g, lp["ffn.w2"], lp["ffn.b2"], slot("f_out", x.shape))
    keep = _keep_mask(out.shape, rng, p, slot, "keep2")
    _kept(out, keep, p, out=out)
    return out, ({"u": u, "g": g, "amask2": keep} if training else None)


def _ffn_backward(lp: dict, lc: dict, d_out: np.ndarray, p: float, grads: dict,
                  slot) -> np.ndarray:
    d_f = _kept_into(d_out, lc["amask2"], p, slot, "d_tmp")
    d_g, _ = nn.matmul_backward(d_f, lc["g"], lp["ffn.w2"],
                                out=(slot("wide", lc["u"].shape), grads["ffn.w2"]))
    _sum_leading(d_f, grads["ffn.b2"])
    d_u = nn.gelu_backward(d_g, lc["u"], out=d_g)
    d_x, _ = nn.matmul_backward(d_u, lc["h1"], lp["ffn.w1"],
                                out=(slot("d_tmp", lc["h1"].shape), grads["ffn.w1"]))
    _sum_leading(d_u, grads["ffn.b1"])
    return d_x


def _layer_forward(lp: dict, x: np.ndarray, key_bias: np.ndarray, num_heads: int, p: float,
                   rng: Rng | None, ws: dict | None, tmp: dict, out: np.ndarray | None,
                   positions: np.ndarray | None = None) -> tuple[np.ndarray, dict | None]:
    """One post-norm layer, its output written to ``out`` when given.

    With ``positions`` ([B, Q]) the layer's output is computed at those
    positions of each row only, [B, Q, N]; keys and values still come from
    every position. With a workspace ``ws`` (training), every tensor the
    backward reads is written into it and comes back as the layer's cache.
    Scoring passes None, and every tensor goes to ``tmp``, where the next
    layer writes over it (see ``_forward_slots``).
    """
    slot = _forward_slots(ws, tmp)
    xq, flat = x, None
    if positions is not None:
        b, t, n = x.shape
        flat = (positions + t * np.arange(b)[:, None]).ravel()
        # the positions are checked, so mode="clip" never clips; it spares
        # the copy that np.take makes of ``out`` under mode="raise"
        xq = np.take(x.reshape(b * t, n), flat, axis=0, mode="clip",
                     out=slot("xq", (flat.size, n))).reshape(b, -1, n)
    training = ws is not None
    attn_out, attn_cache = _attention_forward(lp, x, xq, key_bias, num_heads, p, rng, slot,
                                              training)
    keep1 = _keep_mask(attn_out.shape, rng, p, slot, "keep1")
    _kept(attn_out, keep1, p, out=attn_out)
    r1 = np.add(xq, attn_out, out=slot("r1", xq.shape))
    h1 = nn.layer_norm(r1, lp["ln1.gamma"], lp["ln1.beta"], out=slot("h1", xq.shape))
    f_out, ffn_cache = _ffn_forward(lp, h1, p, rng, slot, training)
    r2 = np.add(h1, f_out, out=slot("r2", xq.shape))
    y = nn.layer_norm(r2, lp["ln2.gamma"], lp["ln2.beta"], out=out)
    if not training:
        return y, None
    return y, {"attn": attn_cache, "flat": flat, "amask1": keep1, "r1": r1, "h1": h1, "r2": r2,
               **ffn_cache}


def _layer_backward(lp: dict, lc: dict, d_y: np.ndarray, p: float, grads: dict,
                    slot) -> np.ndarray:
    """d loss / d layer input given d loss / d output ``d_y``; the layer's
    parameter gradients are written into the arrays of ``grads``, keyed like
    ``lp``. The result is the step buffer ``"d_x"``."""
    # LayerNorm backward works in two step buffers that hold nothing live then
    shape = d_y.shape
    scratch = slot("wide", shape), slot("square", shape)
    d_r2, _, _ = nn.layer_norm_backward(d_y, lc["r2"], lp["ln2.gamma"], scratch=scratch, out=(
        slot("d_res", shape), grads["ln2.gamma"], grads["ln2.beta"]))
    d_h1 = _ffn_backward(lp, lc, d_r2, p, grads, slot)
    d_h1 += d_r2
    scratch = slot("wide", shape), slot("square", shape)
    d_r1, _, _ = nn.layer_norm_backward(d_h1, lc["r1"], lp["ln1.gamma"], scratch=scratch, out=(
        slot("d_res", shape), grads["ln1.gamma"], grads["ln1.beta"]))
    d_attn = _kept_into(d_r1, lc["amask1"], p, slot, "d_tmp")
    d_x, d_xq = _attention_backward(lp, lc["attn"], d_attn, p, grads, slot)
    d_xq += d_r1
    if lc["flat"] is not None:
        # positions may repeat: every query slot adds its gradient at its
        # position, and a slot no loss reads adds exact zeros
        np.add.at(d_x.reshape(-1, d_x.shape[-1]), lc["flat"], d_xq.reshape(-1, d_xq.shape[-1]))
    return d_x


def _layer_params(params: dict, i: int) -> dict:
    return {s: params[f"layers.{i}.{s}"] for s in LAYER_SUFFIXES}


def cut_batch(ids: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch cut to its longest row, and its [b, w] attention mask: the
    first ``lengths[i]`` positions of row i are real, the rest padding."""
    width = int(lengths.max())
    return ids[:, :width], np.arange(width) < lengths[:, None]


def scoring_batches(ids: np.ndarray, lengths: np.ndarray, batch_size: int):
    """Batches of at most ``batch_size`` rows taken in order of real length
    (a stable sort), each cut by ``cut_batch``: yields the rows' input
    positions with the cut ids and mask, so a caller writes each batch's
    outputs back into input order."""
    order = np.argsort(lengths, kind="stable")
    for block in batch_indices(len(order), batch_size):
        sel = order[block]
        yield (sel, *cut_batch(ids[sel], lengths[sel]))


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
    only when a rng is supplied. Without a ``cache`` dict the pass scores,
    in groups of at most ``GROUP_POSITIONS`` positions (one group when
    dropout fires, so that its masks are drawn at the batch's shapes): it
    holds one group's intermediates of one layer at a time. With one, it
    records what ``encoder_backward`` reads: per layer the layer input,
    q/k/v, the attention probabilities and context, both residual sums, the
    LayerNorm output, the FFN pre-activation and GELU output, and the
    dropout masks as bool. Those tensors are views of the flat buffers the
    dict keeps under ``"buffers"``, beside the step buffers the backward
    works in; a dict from an earlier step is reused, growing a buffer only
    when this (B, T) needs more, so the cached views of that step are
    overwritten. The returned hidden states are a fresh array.
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
    if cache is not None:
        buffers = cache.get("buffers", {})
        cache.clear()  # drops the last step's views before any buffer grows
        workspaces = [buffers.setdefault(f"layers.{i}", {}) for i in range(config.num_layers)]
        h, emb_mask, layers = _encode(config, params, ids, key_bias, p, dropout_rng, workspaces,
                                      buffers.setdefault("step", {}), None, positions)
        cache.update(buffers=buffers, ids=ids, dropout=p, emb_mask=emb_mask, layers=layers)
        return h
    b, t = ids.shape
    h = np.empty((b, t if positions is None else positions.shape[1], config.hidden_size))
    tmp: dict = {}  # one scoring workspace for every group and layer
    rows = b if p > 0.0 else max(1, GROUP_POSITIONS // t)
    for start in range(0, b, rows):
        part = slice(start, start + rows)
        _encode(config, params, ids[part], key_bias[part], p, dropout_rng,
                [None] * config.num_layers, tmp, h[part],
                None if positions is None else positions[part])
    return h


def _encode(config: ModelConfig, params: dict, ids: np.ndarray, key_bias: np.ndarray, p: float,
            rng: Rng | None, workspaces: list, tmp: dict, out: np.ndarray | None,
            positions: np.ndarray | None) -> tuple[np.ndarray, np.ndarray | None, list]:
    """The embedding and the layer stack on ``ids``: the final hidden states
    (written to ``out`` when given), the embedding dropout mask and the
    layers' caches. ``workspaces`` holds one dict per layer for what the
    backward reads, or None per layer when scoring; ``tmp`` is the shared
    step or scoring workspace. When scoring, each layer writes its output
    over its input, which it no longer reads by then."""
    first = _forward_slots(workspaces[0], tmp)
    x = embed(params, ids, out=first("x", ids.shape + (config.hidden_size,)))
    emb_mask = _keep_mask(x.shape, rng, p, first, "emb_mask")
    _kept(x, emb_mask, p, out=x)
    layers = []
    last = config.num_layers - 1
    for i, ws in enumerate(workspaces):
        layer_out = out if i == last else _forward_slots(workspaces[i + 1], tmp)("x", x.shape)
        x, layer_cache = _layer_forward(_layer_params(params, i), x, key_bias, config.num_heads,
                                        p, rng, ws, tmp, layer_out,
                                        positions if i == last else None)
        layers.append(layer_cache)
    return x, emb_mask, layers


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
    slot = functools.partial(_slot, cache["buffers"]["step"])
    d_x = d_h
    for i in reversed(range(config.num_layers)):
        d_x = _layer_backward(_layer_params(params, i), cache["layers"][i], d_x, p,
                              _layer_params(grads, i), slot)
    _kept(d_x, cache["emb_mask"], p, out=d_x)
    ids = cache["ids"]
    nn.embedding_lookup_backward(d_x, ids, params["tok_emb"].shape[0], out=grads["tok_emb"])
    d_pos = grads["pos_emb"]
    d_pos[ids.shape[1]:] = 0.0
    np.sum(d_x, axis=0, out=d_pos[: ids.shape[1]])
    return grads


def pool_first_token(h: np.ndarray) -> np.ndarray:
    """Sequence representation: hidden state of the leading [CLS] position."""
    if h.ndim != 3:
        raise ValueError(f"expected [B, T, N], got shape {h.shape}")
    return h[:, 0, :]
