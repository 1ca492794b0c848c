"""The SplitMix64 stream: frozen values, and scalar and array draws as one stream."""

import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nanobert import rng as rng_module
from nanobert.rng import AHEAD_BLOCK, MASK_BLOCK, Rng

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

seeds = st.integers(0, MASK64)
# highs past 2**63 reject almost half of all draws, so the redraw loop runs
highs = st.one_of(st.integers(1, 1000), st.integers(1, MASK64),
                  st.integers(2**63 + 1, 2**63 + 2**62))


def reference_mix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def reference_raw(seed: int, start: int, n: int) -> np.ndarray:
    """Draws start+1 .. start+n of a stream, as the textbook NumPy formula."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return reference_mix64(np.uint64(seed) + idx * np.uint64(GOLDEN))


def reference_spawn_seed(seed: int, *keys) -> int:
    s = seed
    for k in keys:
        if isinstance(k, str):
            raw = k.encode("utf-8")
            if len(raw) > 8:  # long keys are hashed in full
                raw = hashlib.blake2b(raw, digest_size=8).digest()
            k = int.from_bytes(raw.ljust(8, b"\0"), "little")
        z = ((s + GOLDEN) & MASK64) ^ (k & MASK64)
        s = int(reference_mix64(np.array([z], dtype=np.uint64))[0])
    return s


# First draws of a few streams, recorded from the NumPy-only implementation
# this package shipped before scalar draws moved to Python ints.
FROZEN = {
    0: dict(
        u64=[16294208416658607535, 7960286522194355700, 487617019471545679],
        random=[0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
        ints=[535, 700, 679, 444],
        ints_max=[-2152535657050944081, 7960286522194355700, 487617019471545679],
        normal=[0.4912978134532265, 1.2748369334833654, 0.08235749363173943],
        spawn=[7938962933857337209, 15999695513772384452, 1173215596951931020],
    ),
    1: dict(
        u64=[10451216379200822465, 13757245211066428519, 17911839290282890590],
        random=[0.5665615751722809, 0.7457817572627011, 0.9710027535867962],
        ints=[465, 519, 590, 235],
        ints_max=[-7995527694508729151, -4689498862643123097, -534904783426661026],
        normal=[1.0483480981738096, -0.719595796005195, -0.19314576314771942],
        spawn=[2365185830388426919, 2748217288011717306, 7147740487129775698],
    ),
    42: dict(
        u64=[13679457532755275413, 2949826092126892291, 5139283748462763858],
        random=[0.7415648787718233, 0.1599103928769201, 0.27860113025513866],
        ints=[413, 291, 858, 764],
        ints_max=[-4767286540954276203, 2949826092126892291, 5139283748462763858],
        normal=[-0.1382191562592689, -1.068184885755271, 0.7608421084500518],
        spawn=[16124578371268800352, 11091498811864720535, 16517620510345625908],
    ),
    MASK64: dict(
        u64=[16490336266968443936, 16834447057089888969, 4048727598324417001],
        random=[0.8939429202831845, 0.9125972035944532, 0.21948196289526756],
        ints=[936, 969, 1, 842],
        ints_max=[-1956407806741107680, -1612297016619662647, 4048727598324417001],
        normal=[0.09024340852575238, -0.38257184953758605, 0.4648471082275357],
        spawn=[5844429991660750055, 3703370420611038912, 225351606179178309],
    ),
}


class TestFrozenValues:
    def test_first_draws(self):
        for seed, want in FROZEN.items():
            assert Rng(seed).u64(3).tolist() == want["u64"]
            assert Rng(seed).random(3).tolist() == want["random"]
            r = Rng(seed)
            assert [r.random() for _ in range(3)] == want["random"]
            assert Rng(seed).integers(1000, 4).tolist() == want["ints"]
            r = Rng(seed)
            assert [r.integers(1000) for _ in range(4)] == want["ints"]
            assert Rng(seed).normal(3).tolist() == want["normal"]
            spawned = [Rng(seed).spawn("dropout", 3, 7), Rng(seed).spawn(-1), Rng(seed).spawn("init")]
            assert [s.u64(1)[0] for s in spawned] == [Rng(v).u64(1)[0] for v in want["spawn"]]

    def test_highs_past_int64_keep_their_bits(self):
        # these highs once came back as wrapped int64; the bits are unchanged,
        # the values are now the unsigned ones in [0, high)
        for seed, want in FROZEN.items():
            out = Rng(seed).integers(MASK64, 3)
            assert out.dtype == np.uint64
            assert out.view(np.int64).tolist() == want["ints_max"]


class TestOneStream:
    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 20))
    @example(seed=MASK64, n=5)
    def test_random_scalar_is_array_element(self, seed, n):
        a, b = Rng(seed), Rng(seed)
        scalars = [a.random() for _ in range(n)]
        assert scalars == [b.random(1)[0] for _ in range(n)]
        assert scalars == Rng(seed).random(n).tolist()
        want = (reference_raw(seed, 0, n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        assert scalars == want.tolist()

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, high=highs, n=st.integers(1, 8))
    @example(seed=MASK64, high=MASK64, n=3)
    @example(seed=0, high=2**63 + 1, n=8)
    def test_integers_scalar_is_array_element(self, seed, high, n):
        a, b = Rng(seed), Rng(seed)
        scalars = [a.integers(high) for _ in range(n)]
        assert scalars == [int(b.integers(high, 1)[0]) for _ in range(n)]
        assert all(type(v) is int and 0 <= v < high for v in scalars)
        # redraws consume the same stream positions on both paths
        assert a.random() == b.random()

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, sizes=st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_interleaved_draws_match_one_array(self, seed, sizes):
        r = Rng(seed)
        got = []
        for k in sizes:
            got.extend([r.random()] if k == 0 else r.random(k).tolist())
        total = sum(max(k, 1) for k in sizes)
        assert got == Rng(seed).random(total).tolist()

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, shape=st.lists(st.integers(0, 6), min_size=1, max_size=3),
           at_least=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 2.0**-53, 1.0])),
           pick=st.integers(0, 200))
    def test_at_least_is_the_float_test(self, seed, shape, at_least, pick):
        floats = Rng(seed).random(shape)
        if floats.size and pick % 2:  # a threshold equal to a drawn value
            at_least = float(floats.flat[pick % floats.size])
        r = Rng(seed)
        keep = r.random(shape, at_least=at_least)
        assert keep.dtype == bool and keep.shape == floats.shape
        assert np.array_equal(keep, floats >= at_least)
        out = np.empty(floats.shape, bool)
        assert Rng(seed).random(shape, at_least=at_least, out=out) is out
        assert np.array_equal(out, keep)
        # the same stream position afterwards
        assert r.random() == Rng(seed).random(floats.size + 1)[-1]

    def test_at_least_in_blocks_is_the_float_test(self):
        # three blocks of draws and a ragged tail, written into ``out``
        shape = (3, MASK_BLOCK + 7)
        floats = Rng(5).random(shape)
        r = Rng(5)
        out = np.empty(shape, bool)
        assert r.random(shape, at_least=0.3, out=out) is out
        assert np.array_equal(out, floats >= 0.3)
        assert r.random() == Rng(5).random(floats.size + 1)[-1]
        with pytest.raises(ValueError, match="C-contiguous array of shape"):
            Rng(5).random(shape, at_least=0.3, out=out.T)

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, n=st.integers(1, 9), skip=st.integers(0, 5))
    @example(seed=MASK64, n=3, skip=0)
    def test_normal_keeps_its_values(self, seed, n, skip):
        r = Rng(seed)
        r.u64(skip)
        half = (n + 1) // 2
        u1 = ((reference_raw(seed, skip, half) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (reference_raw(seed, skip + half, half) >> np.uint64(11)).astype(np.float64) * 2.0**-53
        rad = np.sqrt(-2.0 * np.log(u1))
        want = np.concatenate([rad * np.cos(2.0 * math.pi * u2), rad * np.sin(2.0 * math.pi * u2)])[:n]
        assert r.normal(n).tolist() == want.tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, keys=st.lists(st.one_of(st.integers(-(2**63), MASK64), st.text(max_size=10)),
                                     min_size=1, max_size=3), skip=st.integers(0, 4))
    @example(seed=MASK64, keys=[MASK64, "dropout"], skip=0)
    def test_spawn_keeps_its_values(self, seed, keys, skip):
        r = Rng(seed)
        r.random(skip)  # a child does not depend on the parent's position
        child = r.spawn(*keys)
        assert child.u64(2).tolist() == reference_raw(reference_spawn_seed(seed, *keys), 0, 2).tolist()

    def test_long_keys_differ_past_their_eighth_byte(self):
        a, b = Rng(7).spawn("dropout_attn"), Rng(7).spawn("dropout_ffn")
        assert a.u64(4).tolist() != b.u64(4).tolist()
        # keys of up to 8 bytes keep their little-endian reading
        key = int.from_bytes(b"devsplit", "little")
        assert Rng(7).spawn("devsplit").u64(3).tolist() == Rng(7).spawn(key).u64(3).tolist()


class ReferenceStream:
    """Each draw of ``Rng`` read by stream position through ``reference_raw``."""

    def __init__(self, seed: int):
        self.seed, self.pos = seed, 0

    def take(self, n: int) -> np.ndarray:
        raw = reference_raw(self.seed, self.pos, n)
        self.pos += n
        return raw

    def floats(self, n: int) -> np.ndarray:
        return (self.take(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def integer(self, high: int) -> int:
        limit = ((1 << 64) // high) * high - 1
        v = int(self.take(1)[0])
        while v > limit:
            v = int(self.take(1)[0])
        return v % high

    def integers(self, high: int, n: int) -> list[int]:
        # rejected entries are redrawn together, in order, until none is left
        limit = np.uint64(((1 << 64) // high) * high - 1)
        out = self.take(n)
        bad = out > limit
        while bad.any():
            out[bad] = self.take(int(bad.sum()))
            bad = out > limit
        return (out % np.uint64(high)).tolist()

    def normal(self, n: int) -> list[float]:
        half = (n + 1) // 2
        u1 = ((self.take(half) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = self.floats(half)
        rad = np.sqrt(-2.0 * np.log(u1))
        return np.concatenate([rad * np.cos(2.0 * math.pi * u2),
                               rad * np.sin(2.0 * math.pi * u2)])[:n].tolist()


def check_draw(r: Rng, ref: ReferenceStream, kind: str, n: int, high: int) -> None:
    """One call of ``kind`` (``n`` calls of a scalar kind) on ``r`` against ``ref``."""
    at_least = (high % 1000) / 1000
    if kind == "random":
        assert [r.random() for _ in range(n)] == ref.floats(n).tolist()
    elif kind == "at_least":
        assert [r.random(at_least=at_least) for _ in range(n)] == (ref.floats(n) >= at_least).tolist()
    elif kind == "integers":
        assert [r.integers(high) for _ in range(n)] == [ref.integer(high) for _ in range(n)]
    elif kind == "u64":
        assert r.u64(n).tolist() == ref.take(n).tolist()
    elif kind == "random_array":
        assert r.random(n).tolist() == ref.floats(n).tolist()
    elif kind == "at_least_array":
        assert r.random(n, at_least=at_least).tolist() == (ref.floats(n) >= at_least).tolist()
    elif kind == "integers_array":
        assert r.integers(high, n).tolist() == ref.integers(high, n)
    elif kind == "normal":
        assert r.normal(n).tolist() == ref.normal(n)
    elif kind == "permutation":
        assert r.permutation(n).tolist() == np.argsort(ref.take(n), kind="stable").tolist()
    elif kind == "spawn":  # a child starts its own stream; the parent's position stays
        child, child_ref = r.spawn("draws", high), ReferenceStream(reference_spawn_seed(ref.seed, "draws", high))
        for _ in range(n):
            assert child.random() == child_ref.floats(1)[0]
        assert child.u64(3).tolist() == child_ref.take(3).tolist()
    else:
        raise AssertionError(kind)


_SCALAR_KINDS = ["random", "at_least", "integers"]
_ARRAY_KINDS = ["u64", "random_array", "at_least_array", "integers_array", "normal",
                "permutation", "spawn"]
# runs of scalar draws long enough to pass several blocks, between array draws
_DRAWS = st.lists(st.one_of(st.tuples(st.sampled_from(_SCALAR_KINDS), st.integers(1, 300), highs),
                            st.tuples(st.sampled_from(_ARRAY_KINDS), st.integers(0, 40), highs)),
                  min_size=1, max_size=12)
# longer than a block of every size tried
_LONG = [("random", 1000, 7), ("u64", 5, 1), ("integers", 700, 2**63 + 2**62), ("normal", 3, 1),
         ("at_least", 900, 250), ("integers_array", 30, 2**63 + 1), ("random", 1100, 1),
         ("permutation", 9, 1), ("spawn", 20, 3), ("integers", 5, 1000)]


class TestListedDraws:
    """Scalar draws are served from values listed ahead of the counter."""

    @settings(max_examples=60, deadline=None)
    @given(seed=seeds, draws=_DRAWS, block=st.sampled_from([8, 16, AHEAD_BLOCK]))
    @example(seed=MASK64, draws=_LONG, block=AHEAD_BLOCK)
    @example(seed=0, draws=_LONG, block=8)
    def test_any_interleaving_reads_the_same_positions(self, seed, draws, block):
        r, ref = Rng(seed), ReferenceStream(seed)
        with mock.patch.object(rng_module, "AHEAD_BLOCK", block):
            for kind, n, high in draws:
                check_draw(r, ref, kind, n, high)
        # the next value follows the last one consumed, whatever was listed
        assert r.u64(1).tolist() == ref.take(1).tolist()


class TestSeed:
    def test_integer_types_give_one_stream(self):
        want = Rng(5).u64(3).tolist()
        assert Rng(np.int64(5)).u64(3).tolist() == want
        assert Rng(np.uint8(5)).u64(3).tolist() == want

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3", None])
    def test_non_integer_seed_named(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be int, got {re.escape(repr(seed))}$"):
            Rng(seed)
