"""Seeded noise source: determinism, zero mode, and distribution checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdistinct import ParameterError, RandomSource, child_seed
from dpdistinct.noise import _BLOCK


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a = RandomSource(42)
        b = RandomSource(42)
        assert [a.laplace(1.0) for _ in range(10)] == [
            b.laplace(1.0) for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = RandomSource(1)
        b = RandomSource(2)
        assert a.laplace(1.0) != b.laplace(1.0)

    def test_child_seed_reproducible(self):
        assert child_seed(7, 3) == child_seed(7, 3)
        assert child_seed(7, 3) != child_seed(7, 4)
        assert child_seed(7, 3) != child_seed(8, 3)


class TestZeroMode:
    def test_draws_are_zero(self):
        src = RandomSource(0, "zero")
        assert src.laplace(3.0) == 0.0
        assert src.gaussian(2.0) == 0.0

    def test_calls_counted_draws_not(self):
        src = RandomSource(0, "zero")
        for _ in range(5):
            src.laplace(1.0)
        assert src.laplace_calls == 5
        assert src.laplace_draws == 0

    def test_zero_mode_builds_no_generator(self):
        src = RandomSource(0, "zero")
        src.laplace(1.0)
        src.ahead(3)
        src.gaussian(1.0)
        src.gaussian(2.0)
        assert not {"_rng", "_normal"} & vars(src).keys()

    def test_gaussian_generator_built_at_first_gaussian_draw(self):
        # a Laplace-only source, as every known-K trial and probe sample is,
        # never builds the Gaussian draws' generator
        src = RandomSource(0)
        src.laplace(1.0)
        src.ahead(3)
        src.take(2)
        assert "_normal" not in vars(src)
        src.gaussian(1.0)
        assert "_normal" in vars(src)

    def test_zero_mode_skips_scale_validation(self):
        src = RandomSource(0, "zero")
        assert src.laplace(-1.0) == 0.0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ParameterError):
            RandomSource(0, "off")


class TestValidation:
    def test_nonpositive_laplace_scale(self):
        with pytest.raises(ParameterError):
            RandomSource(0).laplace(0.0)

    def test_nonpositive_gaussian_sigma(self):
        with pytest.raises(ParameterError):
            RandomSource(0).gaussian(-2.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            RandomSource(-1)

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            child_seed(-1, 0)

    def test_base_seed_is_not_masked(self):
        # seeds below 2^64 derive as they always did; larger ones do not wrap
        assert child_seed(5, 3) == 8065153966420768690
        assert child_seed(2**64 - 1, 3) == 11914516797924694533
        assert child_seed(2**64 + 5, 3) != child_seed(5, 3)


class _Uniforms:
    """Generator stub that hands out a fixed sequence of uniforms; it raises
    when asked for more than it holds."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        if size > len(self.values):
            raise IndexError(f"stub asked for {size} of {len(self.values)} uniforms")
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


class TestZeroUniform:
    """random() may return exactly 0.0, which the transform maps to log(0)."""

    def test_scalar_redraws(self):
        src = RandomSource(0)
        src._rng = _Uniforms([0.0, 0.75, 0.25] + [0.5] * _BLOCK)
        assert src.laplace(2.0) == pytest.approx(-2.0 * math.log(2))
        assert src.laplace(2.0) == pytest.approx(2.0 * math.log(2))
        assert src.laplace_draws == 2

    def test_other_draws_are_unchanged(self):
        src = RandomSource(7)
        u = np.random.default_rng(7).random(1000) - 0.5
        scalar = [-math.copysign(math.log(1.0 - 2.0 * abs(v)), v) for v in u.tolist()]
        assert [src.laplace(1.0) for _ in range(1000)] == scalar
        src = RandomSource(7)
        src.ahead(1000)  # read ahead, then taken one scalar draw at a time
        assert [src.laplace(1.0) for _ in range(1000)] == scalar


def _ref_laplace(u: float, b: float) -> float:
    return -b * math.copysign(math.log(1.0 - 2.0 * abs(u - 0.5)), u - 0.5)


def _ref_uniforms(rng: np.random.Generator, n: int) -> list[float]:
    """The next n uniforms of scalar random() calls, 0.0 skipped."""
    out = []
    while len(out) < n:
        r = rng.random()
        if r != 0.0:
            out.append(r)
    return out


def _ref_normals(seed: int) -> np.random.Generator:
    """The raw generator of a source's Gaussian draws."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])


LAPLACE_OPS = st.one_of(
    st.tuples(st.just("laplace"), st.sampled_from([0.5, 1.0, 7.0])),
    # ahead(n), then take(k) with k <= n
    st.tuples(st.just("scan"), st.integers(1, 2 * _BLOCK + 10), st.floats(0.0, 1.0)),
)
OPS = LAPLACE_OPS | st.tuples(st.just("gaussian"), st.sampled_from([0.5, 3.0]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    ops=st.lists(OPS, max_size=12),
    mode=st.sampled_from(["live", "zero"]),
    seed=st.integers(0, 2**32),
)
def test_source_matches_raw_generator(ops, mode, seed):
    """Any mix of scalar, read-ahead and Gaussian draws gives the values and
    counts of one scalar random() per Laplace draw on a raw generator, and
    one standard_normal() per Gaussian draw on another."""
    live = mode == "live"
    src = RandomSource(seed, mode)
    ref, normals = np.random.default_rng(seed), _ref_normals(seed)
    calls = gaussians = 0
    for op in ops:
        if op[0] == "laplace":
            want = _ref_laplace(_ref_uniforms(ref, 1)[0], op[1]) if live else 0.0
            assert src.laplace(op[1]) == want
            calls += 1
        elif op[0] == "gaussian":
            want = op[1] * normals.standard_normal() if live else 0.0
            assert src.gaussian(op[1]) == want
            gaussians += 1
        else:
            _, n, frac = op
            k = int(frac * n)
            unit = src.ahead(n)
            if live:
                state = ref.bit_generator.state
                us = _ref_uniforms(ref, n)
                ref.bit_generator.state = state
                want = [_ref_laplace(u, 1.0) for u in us]
                np.testing.assert_allclose(unit, want, rtol=1e-13)  # np.log's ulps
                # bitwise the numpy transform of the same uniforms, read in one window
                u = np.array(us) - 0.5
                exact = -np.copysign(np.log(1.0 - 2.0 * np.abs(u)), u)
                assert unit.tobytes() == exact.tobytes()
                unit *= 2.0  # a new array: scaling it leaves the buffer as it was
                assert src.ahead(n).tobytes() == exact.tobytes()
                _ref_uniforms(ref, k)
            else:
                assert not unit.any()
            src.take(k)
            calls += k
    live_calls, live_gaussians = (calls, gaussians) if live else (0, 0)
    assert (src.laplace_calls, src.laplace_draws) == (calls, live_calls)
    assert (src.gaussian_calls, src.gaussian_draws) == (gaussians, live_gaussians)
    if live:
        assert src.laplace(1.0) == _ref_laplace(_ref_uniforms(ref, 1)[0], 1.0)
        assert src.gaussian(1.0) == normals.standard_normal()
    else:
        assert not {"_rng", "_normal"} & vars(src).keys()


def _laplace_op(src: RandomSource, op):
    """Run one LAPLACE_OPS entry on src; returns the draws it made or read."""
    if op[0] == "laplace":
        return src.laplace(op[1])
    _, n, frac = op
    unit = src.ahead(n)
    src.take(int(frac * n))
    return unit.tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(ops=st.lists(LAPLACE_OPS, max_size=8), seed=st.integers(0, 2**32))
def test_gaussian_draws_are_independent_of_laplace_draws(ops, seed):
    """Whatever Laplace draws, read-ahead and takes came before, the next
    Gaussian draw is a fresh same-seed source's first; and Gaussian draws
    between the Laplace draws leave those unchanged."""
    fresh = RandomSource(seed)
    want = [fresh.gaussian(2.0) for _ in range(len(ops) + 1)]
    plain, mixed = RandomSource(seed), RandomSource(seed)
    got = [mixed.gaussian(2.0)]
    for op in ops:
        assert _laplace_op(mixed, op) == _laplace_op(plain, op)
        got.append(mixed.gaussian(2.0))
    assert got == want
    assert plain.gaussian(2.0) == want[0]
    assert mixed.laplace(1.0) == plain.laplace(1.0)
    assert (mixed.laplace_calls, mixed.gaussian_calls) == (plain.laplace_calls, len(ops) + 1)


def laplace_draws(seed: int, b: float, n: int) -> np.ndarray:
    """n Lap(b) draws read ahead, as the segment scanner does."""
    return b * RandomSource(seed).ahead(n)


def gaussian_draws(seed: int, sigma: float, n: int) -> np.ndarray:
    src = RandomSource(seed)
    return np.array([src.gaussian(sigma) for _ in range(n)])


class TestDistribution:
    """Monte-Carlo moment and tail checks at fixed seeds, on the samplers the
    mechanisms use."""

    def test_laplace_moments(self):
        b = 2.5
        x = laplace_draws(100, b, 10**6)
        assert abs(x.mean()) < 0.02
        # Var[Lap(b)] = 2 b^2
        assert abs(x.var() / (2 * b * b) - 1) < 0.01

    def test_laplace_tail(self):
        # P(|X| > b * ln(1/beta)) = beta
        b = 1.0
        x = laplace_draws(101, b, 10**6)
        for beta in (0.5, 0.1, 0.01):
            frac = np.mean(np.abs(x) > b * math.log(1 / beta))
            assert abs(frac - beta) < 0.005

    def test_gaussian_moments(self):
        sigma = 3.0
        x = gaussian_draws(102, sigma, 10**6)
        assert abs(x.mean()) < 0.02
        assert abs(x.var() / sigma**2 - 1) < 0.01

    def test_gaussian_tail(self):
        # P(|X| >= sigma * sqrt(2 ln(2/beta))) <= beta
        sigma = 1.0
        x = gaussian_draws(103, sigma, 10**6)
        for beta in (0.5, 0.1, 0.01):
            frac = np.mean(np.abs(x) >= sigma * math.sqrt(2 * math.log(2 / beta)))
            assert frac <= beta

    def test_scalar_path_matches_distribution(self):
        src = RandomSource(104)
        xs = np.array([src.laplace(1.0) for _ in range(20000)])
        assert abs(np.median(xs)) < 0.03
        assert abs(xs.var() / 2 - 1) < 0.05
        assert src.laplace_draws == src.laplace_calls == 20000
