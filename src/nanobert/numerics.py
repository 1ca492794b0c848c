"""Dense float64 math: neural-net primitives, losses, and their gradients.

Every primitive comes as a forward function plus a hand-derived
``*_backward`` companion; there is no autodiff tape. Backward functions
recompute cheap intermediates from the forward inputs instead of carrying
caches, which keeps each pair self-contained and directly checkable with
``grad_check``.

All arrays are ``numpy.float64``. Non-finite values are a contract
violation and are rejected at the few places they could first appear.

Three idioms keep the elementwise hot path cheap. Integer powers are written
as products (``x * x * x``, not ``x**3``): NumPy sends ``**`` through
``pow``, which is tens of times slower on large arrays. Large elementwise
temporaries are reused in place (``np.exp(e, out=e)``, ``xc /= std``)
instead of allocating a fresh array per operation; the in-place forms
perform the same roundings in the same order, so they give the same bits.
And the chains of GELU, softmax, their backwards and the LayerNorm forward
run block by block (``blocks``): each block of at most ``BLOCK_ENTRIES`` entries, whole
rows for the row-wise functions, goes through the whole chain while it is
in cache, with block-sized scratch. Every entry, and every row's sums, see
the same operations as on the whole array, so blocking moves no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng

LAYER_NORM_EPS = 1e-12
# entries per block of the blocked chains: 256 KiB of float64, well inside L2
BLOCK_ENTRIES = 32768
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def ensure_finite(x, name: str = "tensor") -> None:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or Inf")


def ensure_finite_rows(x: np.ndarray, name: str) -> None:
    """Refuse a 2-D ``x`` that holds NaN or an infinity, naming its first such row."""
    rows = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if rows.size:
        raise ValueError(f"{name} row {rows[0]} holds a non-finite value")


def block_rows(width: int = 1) -> int:
    """Rows of ``width`` entries in one block: as many as fit in
    ``BLOCK_ENTRIES``, one at least."""
    return max(1, BLOCK_ENTRIES // width)


def blocks(rows: int, width: int = 1) -> list[slice]:
    """Slices covering ``range(rows)`` in order, ``block_rows(width)`` rows
    each (the last may be shorter)."""
    step = block_rows(width)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _out(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``out``, held to be C-contiguous so that its flat and row views write
    through to it, or a new array shaped like ``x``."""
    if out is None:
        return np.empty(x.shape)
    if not out.flags.c_contiguous:
        raise ValueError("an out= array must be C-contiguous")
    return out


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis, stabilized by max subtraction, written
    to ``out`` when given (``out=x`` computes it in place). A non-finite
    input is refused block by block, so ``out`` may be partly written."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("softmax of an empty array")
    y = _out(x, out)
    width = x.shape[-1]
    xs, ys = np.ravel(x).reshape(-1, width), y.reshape(-1, width)
    row_stat = np.empty((min(len(xs), block_rows(width)), 1))
    for rows in blocks(len(xs), width):
        xb, e = xs[rows], ys[rows]
        ensure_finite(xb, "softmax input")
        stat = row_stat[: len(xb)]
        np.subtract(xb, np.max(xb, axis=-1, keepdims=True, out=stat), out=e)
        np.exp(e, out=e)
        e /= np.sum(e, axis=-1, keepdims=True, out=stat)
    return y


def log_softmax(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("log_softmax of an empty array")
    ensure_finite(x, "log_softmax input")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    shifted -= np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return shifted


def softmax_backward(d_out: np.ndarray, y: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Gradient through softmax given its output ``y``, written to ``out``
    when given (``out=d_out`` computes it in place)."""
    d = _out(y, out)
    width = y.shape[-1]
    ds, ys, outs = (np.ravel(a).reshape(-1, width) for a in (d_out, y, d))
    step = min(len(ys), block_rows(width))
    prod, inner = np.empty((step, width)), np.empty((step, 1))
    for rows in blocks(len(ys), width):
        db, yb, ob = ds[rows], ys[rows], outs[rows]
        pb, ib = prod[: len(yb)], inner[: len(yb)]
        np.sum(np.multiply(db, yb, out=pb), axis=-1, keepdims=True, out=ib)
        np.subtract(db, ib, out=ob)
        ob *= yb
    return d


def cross_entropy(logits: np.ndarray, target: int) -> float:
    """Negative log-probability of ``target`` under softmax(logits): the
    loss of ``softmax_cross_entropy`` on this one row."""
    return softmax_cross_entropy(*_one_row(logits, target))[0]


def cross_entropy_backward(logits: np.ndarray, target: int) -> np.ndarray:
    """d loss / d logits = softmax(logits) - onehot(target): the gradient of
    ``softmax_cross_entropy`` on this one row."""
    return softmax_cross_entropy(*_one_row(logits, target))[1][0]


def _one_row(logits: np.ndarray, target: int) -> tuple[np.ndarray, np.ndarray]:
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1:
        raise ValueError(f"logits must be 1-D, got shape {logits.shape}")
    if not 0 <= target < logits.shape[0]:
        raise ValueError(f"target {target} out of range for {logits.shape[0]} classes")
    return logits[None], np.array([target])


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over rows and its gradient.

    logits: [n, K], targets: [n] int class ids. Gradient is
    (softmax - onehot) / n, matching the mean reduction.
    """
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    n, k = logits.shape
    if targets.shape != (n,):
        raise ValueError(f"targets shape {targets.shape} does not match {n} rows")
    if n == 0:
        raise ValueError("cross-entropy over zero rows")
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError("target class id out of range")
    logp = log_softmax(logits)
    loss = -float(np.mean(logp[np.arange(n), targets]))
    d = np.exp(logp, out=logp)
    d[np.arange(n), targets] -= 1.0
    d /= n
    return loss, d


def mse(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean squared error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    if pred.size == 0:
        raise ValueError("mse over zero elements")
    return float(np.mean((pred - target) ** 2))


def mse_backward(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return 2.0 * (pred - target) / pred.size


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.matmul(a, b)


def matmul_backward(d_out: np.ndarray, a: np.ndarray, b: np.ndarray,
                    out: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``a @ b`` for the two layouts used by the model, written
    to the pair ``out`` (either may be None) when given.

    Either both operands carry the same leading batch dims, or ``b`` is a
    plain 2-D weight shared across a stacked ``a`` (gradient summed over
    the stack). The gradient of ``b`` is taken first, so ``a``'s may be
    written over ``a`` itself.
    """
    da_out, db_out = (None, None) if out is None else out
    if b.ndim == 2 and a.ndim >= 2:
        db = np.matmul(a.reshape(-1, a.shape[-1]).T, d_out.reshape(-1, d_out.shape[-1]),
                       out=db_out)
        return np.matmul(d_out, b.T, out=da_out), db
    if a.ndim == b.ndim:
        db = np.matmul(np.swapaxes(a, -1, -2), d_out, out=db_out)
        return np.matmul(d_out, np.swapaxes(b, -1, -2), out=da_out), db
    raise ValueError(f"unsupported operand ranks: {a.ndim} and {b.ndim}")


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Normalize the last axis to zero mean and unit variance, then scale and
    shift; written to ``out`` when given (``out=x`` computes it in place)."""
    y = _out(x, out)
    width = x.shape[-1]
    xs, ys = np.ravel(x).reshape(-1, width), y.reshape(-1, width)
    sq = np.empty((min(len(xs), block_rows(width)), width))
    for rows in blocks(len(xs), width):
        xc, std = _center_and_std(xs[rows], ys[rows], sq[: len(xs[rows])])
        xc /= std
        xc *= gamma
        xc += beta
    return y


def _center_and_std(x: np.ndarray, out: np.ndarray,
                    sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x - mean (into ``out``) and sqrt(var + LAYER_NORM_EPS) over the last
    axis; var = mean(xc * xc), the same sums ``np.var`` takes, without
    recomputing the mean, with the squares in the scratch ``sq``. Means here
    are ``np.mean``'s own sum and division, without its Python overhead."""
    xc = np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1], out=out)
    var = np.add.reduce(np.multiply(xc, xc, out=sq), axis=-1, keepdims=True) / x.shape[-1]
    var += LAYER_NORM_EPS
    return xc, np.sqrt(var, out=var)


def layer_norm_backward(
    d_out: np.ndarray, x: np.ndarray, gamma: np.ndarray,
    out: tuple | None = None, scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of layer_norm wrt input, gamma, beta, written to the triple
    ``out`` (any may be None) when given; ``scratch`` is a pair of arrays
    shaped like ``x`` to work in (fresh ones when not given). Not blocked:
    the gamma and beta gradients sum over every row.

    With xhat the normalized input and m the last-axis width:
    dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    """
    dx_out, d_gamma_out, d_beta_out = (None, None, None) if out is None else out
    xhat_buf, prod = (np.empty(x.shape), np.empty(x.shape)) if scratch is None else scratch
    xhat, std = _center_and_std(x, xhat_buf, prod)
    inv_std = np.divide(1.0, std, out=std)
    xhat *= inv_std
    reduce_axes = tuple(range(d_out.ndim - 1))
    np.multiply(d_out, xhat, out=prod)
    d_gamma = np.sum(prod, axis=reduce_axes, out=d_gamma_out)
    d_beta = np.sum(d_out, axis=reduce_axes, out=d_beta_out)
    dx = np.multiply(d_out, gamma, out=dx_out)  # d_xhat, turned into dx in place below
    np.multiply(dx, xhat, out=prod)
    mean_dxhat_xhat = np.add.reduce(prod, axis=-1, keepdims=True) / x.shape[-1]
    dx -= np.add.reduce(dx, axis=-1, keepdims=True) / x.shape[-1]
    xhat *= mean_dxhat_xhat
    dx -= xhat
    dx *= inv_std
    return dx, d_gamma, d_beta


def gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """GELU, tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3))),
    written to ``out`` when given (``out=x`` computes it in place)."""
    x = np.asarray(x, dtype=np.float64)
    y = _out(x, out)
    xs, ys = np.ravel(x), y.reshape(-1)
    t = np.empty(min(xs.size, BLOCK_ENTRIES))
    for part in blocks(xs.size):
        xb = xs[part]
        tb = _gelu_tanh(xb, t[: xb.size])
        tb += 1.0
        tb *= xb
        np.multiply(tb, 0.5, out=ys[part])
    return y


def _gelu_tanh(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c (x + 0.044715 x^3)) in ``out``."""
    t = np.multiply(x, x, out=out)
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def gelu_backward(d_out: np.ndarray, x: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """d_out * gelu'(x), where gelu'(x) = 0.5 (1 + t)
    + 0.5 x (1 - t^2) c (1 + 3 * 0.044715 x^2) and t is the forward tanh;
    written to ``out`` when given (which may be ``d_out`` or ``x``)."""
    x = np.asarray(x, dtype=np.float64)
    d = _out(x, out)
    xs, ds, outs = np.ravel(x), np.ravel(d_out), d.reshape(-1)
    t, local, x2 = np.empty((3, min(xs.size, BLOCK_ENTRIES)))
    for part in blocks(xs.size):
        xb = xs[part]
        n = xb.size
        tb = _gelu_tanh(xb, t[:n])
        lb = np.multiply(tb, tb, out=local[:n])
        np.subtract(1.0, lb, out=lb)
        lb *= xb
        lb *= 0.5
        lb *= _GELU_C
        x2b = np.multiply(xb, xb, out=x2[:n])
        x2b *= 3.0 * _GELU_A
        x2b += 1.0
        lb *= x2b
        tb += 1.0
        tb *= 0.5
        lb += tb
        np.multiply(lb, ds[part], out=outs[part])
    return d


def embedding_lookup(table: np.ndarray, ids: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """The rows of ``table`` at ``ids``, written to ``out`` when given."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ValueError(f"embedding id out of range for table of {table.shape[0]} rows")
    # the ids are checked, so mode="clip" never clips; it spares the copy
    # that np.take makes of ``out`` under mode="raise"
    return np.take(table, ids, axis=0, mode="clip", out=out)


def embedding_lookup_backward(d_out: np.ndarray, ids: np.ndarray, num_rows: int,
                              out: np.ndarray | None = None) -> np.ndarray:
    """Scatter-add of output gradients onto the rows that were looked up,
    into ``out`` when given."""
    d_table = np.empty((num_rows, d_out.shape[-1])) if out is None else out
    d_table.fill(0.0)
    np.add.at(d_table, np.asarray(ids).reshape(-1), d_out.reshape(-1, d_out.shape[-1]))
    return d_table


@dataclass
class GradCheckReport:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def grad_check(
    f,
    theta: np.ndarray,
    name: str = "theta",
    h: float = 1e-5,
    tol: float = 1e-4,
    n_coords: int | None = None,
    rng: Rng | None = None,
) -> GradCheckReport:
    """Compare an analytic gradient against central finite differences.

    ``f(theta) -> (loss, grad)`` with grad shaped like theta. Relative error
    per coordinate is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8); the report
    carries the max over the checked coordinates. When ``n_coords`` is given
    and smaller than theta.size a random subset is checked.
    """
    theta = np.asarray(theta, dtype=np.float64)
    loss, grad = f(theta)
    if not math.isfinite(loss):
        raise ValueError("loss is not finite at the evaluation point")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match theta {theta.shape}")
    ensure_finite(grad, "analytic gradient")

    size = theta.size
    if n_coords is None or n_coords >= size:
        coords = np.arange(size)
    else:
        rng = rng or Rng(0)
        coords = np.unique(rng.integers(size, n_coords))

    flat = theta.reshape(-1)
    g_flat = grad.reshape(-1)
    max_rel = 0.0
    for c in coords:
        orig = flat[c]
        flat[c] = orig + h
        lp = f(theta)[0]
        flat[c] = orig - h
        lm = f(theta)[0]
        flat[c] = orig
        g_fd = (lp - lm) / (2.0 * h)
        g_ad = g_flat[c]
        rel = abs(g_ad - g_fd) / max(abs(g_ad), abs(g_fd), 1e-8)
        if rel > max_rel:
            max_rel = rel
    return GradCheckReport(name=name, max_rel_error=max_rel, tolerance=tol)
