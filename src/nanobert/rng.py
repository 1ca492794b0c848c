"""Deterministic random numbers shared by every stochastic step in the package.

Data splits, shuffles, weight init, and token masking all draw from SplitMix64
run in counter mode: output ``i`` of a stream with seed ``s`` is
``mix64(s + (i + 1) * GOLDEN)`` where ``mix64`` is the SplitMix64 finalizer.
The generator is a few integer ops, so identical seeds give bit-identical
streams on every platform and NumPy build, which host-language PRNGs do not
guarantee across versions.

Scalar and array draws share that one counter-mode stream. An array draw
runs the finalizer on a uint64 buffer. A scalar draw takes a Python int from
a list of the stream's next raw values, drawn ahead of the counter on that
array path ``AHEAD_BLOCK`` values at a time, so a run of scalar draws pays
NumPy's dispatch once per block instead of once per value. The counter
counts consumed draws only. The listed values are the stream's raw values
at the next positions, so an array draw computes its values from the counter
on and drops the listed ones it covered. So the value at every stream
position is the same whatever mix of scalar and array draws reaches it:
``random()`` returns exactly ``random(1)[0]``, and interleaving the two
changes no value.
"""

from __future__ import annotations

import hashlib
import math
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO_NEG53 = 2.0 ** -53
_INT64_SPAN = 1 << 63  # highs up to this give values that fit int64
# raw draws per block of a ``random(at_least=)`` mask, so that a large mask
# never holds its 16 bytes per entry of uint64 draws and shifts at once
MASK_BLOCK = 65536
# raw values drawn ahead of the counter per refill for scalar draws
AHEAD_BLOCK = 1024


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer applied elementwise to a uint64 array, in place."""
    # uint64 array arithmetic wraps modulo 2**64 without warnings
    t = x >> np.uint64(30)
    x ^= t
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on one Python int in [0, 2**64)."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _shape(size) -> tuple[int, ...]:
    return () if size is None else ((size,) if isinstance(size, int) else tuple(size))


class Rng:
    """Counter-mode SplitMix64 stream with numpy conveniences.

    The stream position advances by the number of raw draws, so the sequence
    of values depends only on the seed and the order of calls.
    """

    def __init__(self, seed: int):
        try:
            self._seed = operator.index(seed) & _MASK64
        except TypeError:
            raise ValueError(f"seed must be int, got {seed!r}") from None
        self._counter = 0  # draws consumed
        # the raw values after the counter, last one first, so pop() is the next
        self._ahead: list[int] = []

    def _raw(self, start: int, n: int) -> np.ndarray:
        """The stream's raw values at positions ``start + 1 .. start + n``."""
        x = np.arange(start + 1, start + n + 1, dtype=np.uint64)
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self._seed)
        return _mix64_inplace(x)

    def _next(self) -> int:
        ahead = self._ahead
        if not ahead:
            ahead.extend(self._raw(self._counter, AHEAD_BLOCK)[::-1].tolist())
        self._counter += 1
        return ahead.pop()

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit values; the listed values they cover leave the list."""
        if n < 0:
            raise ValueError(f"draw count must be >= 0, got {n}")
        x = self._raw(self._counter, n)
        self._counter += n
        del self._ahead[max(0, len(self._ahead) - n):]
        return x

    def random(self, size=None, *, at_least: float | None = None, out=None):
        """Uniform float64 in [0, 1): top 53 bits of a raw draw.

        With ``at_least``, the bool array ``random(size) >= at_least``
        (written to ``out`` when given), tested on the raw integers without
        building the floats, ``MASK_BLOCK`` draws at a time: the same values
        from the same stream position.
        """
        if size is None:
            value = (self._next() >> 11) * _TWO_NEG53
            return value if at_least is None else value >= at_least
        shape = _shape(size)
        if at_least is not None:
            # (raw >> 11) * 2**-53 >= a  <=>  (raw >> 11) >= ceil(a * 2**53), exactly
            top = np.uint64(min(max(math.ceil(at_least * 2.0 ** 53), 0), 1 << 53))
            mask = np.empty(shape, dtype=bool) if out is None else out
            if mask.shape != shape or not mask.flags.c_contiguous:
                raise ValueError(f"out must be a C-contiguous array of shape {shape}")
            flat = mask.reshape(-1)
            for start in range(0, flat.size, MASK_BLOCK):
                part = flat[start : start + MASK_BLOCK]
                np.greater_equal(self.u64(part.size) >> np.uint64(11), top, out=part)
            return mask
        raw = self.u64(math.prod(shape))
        raw >>= np.uint64(11)
        vals = raw.astype(np.float64)
        vals *= _TWO_NEG53
        return vals.reshape(shape)

    def integers(self, high: int, size=None):
        """Uniform ints in [0, high), bias-free via rejection sampling.

        Arrays are int64, or uint64 when ``high`` exceeds 2**63.
        """
        if high <= 0:
            raise ValueError(f"high must be positive, got {high}")
        # largest multiple of high that fits in 64 bits; draws at or above it
        # would skew the modulo, so they are redrawn
        limit = ((1 << 64) // high) * high - 1
        if size is None:
            v = self._next()
            while v > limit:
                v = self._next()
            return v % high
        shape = _shape(size)
        out = self.u64(math.prod(shape))
        limit64 = np.uint64(limit)
        bad = out > limit64
        while bad.any():
            out[bad] = self.u64(int(bad.sum()))
            bad = out > limit64
        out %= np.uint64(high)
        if high <= _INT64_SPAN:
            out = out.astype(np.int64)
        return out.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """Random permutation of range(n): stable argsort of raw 64-bit keys."""
        return np.argsort(self.u64(n), kind="stable")

    def normal(self, size=None, scale: float = 1.0):
        """Standard normals via Box-Muller on pairs of uniforms."""
        shape = _shape(size)
        n = math.prod(shape)
        half = (n + 1) // 2
        # u1 in (0, 1] keeps log finite; u2 in [0, 1)
        u1 = ((self.u64(half) >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_NEG53
        u2 = (self.u64(half) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * math.pi * u2), r * np.sin(2.0 * math.pi * u2)])[:n]
        z = z * scale
        if size is None:
            return float(z[0])
        return z.reshape(shape)

    def spawn(self, *keys) -> "Rng":
        """Child stream keyed by integers or strings, independent of this
        stream's position.

        A string of up to 8 UTF-8 bytes is read as a little-endian integer;
        a longer one is hashed in full, so keys sharing their first 8 bytes
        still give different streams.
        """
        s = self._seed
        for k in keys:
            if isinstance(k, str):
                raw = k.encode("utf-8")
                if len(raw) > 8:
                    raw = hashlib.blake2b(raw, digest_size=8).digest()
                k = int.from_bytes(raw.ljust(8, b"\0"), "little")
            s = _mix64_int(((s + _GOLDEN) & _MASK64) ^ (int(k) & _MASK64))
        return Rng(s)
