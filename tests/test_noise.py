"""Seeded noise source: determinism, zero mode, and distribution checks."""

import math

import numpy as np
import pytest

from dpdistinct import ParameterError, RandomSource, child_seed
from dpdistinct.noise import LaplaceTape


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

    def test_child_source(self):
        a = RandomSource(5).child(2)
        b = RandomSource(child_seed(5, 2))
        assert a.laplace(1.0) == b.laplace(1.0)


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
    """Generator stub that hands out a fixed sequence of uniforms."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        out, self.values = np.array(self.values[:size]), self.values[size:]
        return out


class TestZeroUniform:
    """random() may return exactly 0.0, which the transform maps to log(0)."""

    def test_scalar_redraws(self):
        src = RandomSource(0)
        src._rng = _Uniforms([0.0, 0.75, 0.25])
        assert src.laplace(2.0) == pytest.approx(-2.0 * math.log(2))
        assert src.laplace(2.0) == pytest.approx(2.0 * math.log(2))
        assert src.laplace_draws == 2

    def test_other_draws_are_unchanged(self):
        src = RandomSource(7)
        u = np.random.default_rng(7).random(1000) - 0.5
        scalar = [-math.copysign(math.log(1.0 - 2.0 * abs(v)), v) for v in u.tolist()]
        assert [src.laplace(1.0) for _ in range(1000)] == scalar
        with LaplaceTape(RandomSource(7)) as tape:
            tape.ahead(1000)
            assert [tape.exact(i, 1.0) for i in range(1000)] == scalar


def laplace_draws(seed: int, b: float, n: int) -> np.ndarray:
    """n Lap(b) draws read ahead through a tape, as the segment scanner does."""
    with LaplaceTape(RandomSource(seed)) as tape:
        return b * tape.ahead(n)


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
