"""Seeded Laplace and Gaussian sampling with a deterministic zero mode.

Every mechanism instance owns one RandomSource.  In ``zero`` mode every draw
returns exactly 0 while the surrounding control flow (threshold comparisons,
draw accounting) is exercised unchanged, which makes exactness tests of the
mechanisms possible.

Laplace draws use the inverse-CDF transform of a single uniform, so each draw
is constant time.  ``laplace_calls`` counts every requested draw regardless of
mode; ``laplace_draws`` counts only live (non-zero-mode) draws.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

LIVE = "live"
ZERO = "zero"


def child_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed, independent of execution order."""
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFFFFFFFFFF, index])
    return int(ss.generate_state(1, np.uint64)[0])


class RandomSource:
    def __init__(self, seed: int, mode: str = LIVE):
        if mode not in (LIVE, ZERO):
            raise ParameterError(f"unknown noise mode {mode!r}")
        self.seed = seed
        self.mode = mode
        self._rng = np.random.default_rng(seed)
        self.laplace_calls = 0
        self.laplace_draws = 0
        self.gaussian_calls = 0
        self.gaussian_draws = 0

    def child(self, index: int) -> "RandomSource":
        return RandomSource(child_seed(self.seed, index), self.mode)

    def laplace(self, b: float) -> float:
        """One Lap(b) sample (0 in zero mode)."""
        self.laplace_calls += 1
        if self.mode == ZERO:
            return 0.0
        if b <= 0:
            raise ParameterError(f"Laplace scale must be positive, got {b}")
        self.laplace_draws += 1
        u = self._rng.random() - 0.5
        return -b * math.copysign(math.log(1.0 - 2.0 * abs(u)), u)

    def gaussian(self, sigma: float) -> float:
        """One N(0, sigma^2) sample (0 in zero mode)."""
        self.gaussian_calls += 1
        if self.mode == ZERO:
            return 0.0
        if sigma <= 0:
            raise ParameterError(f"Gaussian std must be positive, got {sigma}")
        self.gaussian_draws += 1
        return sigma * self._rng.standard_normal()

    # Vectorized variants for Monte-Carlo tests; same transform as the
    # scalar paths but not interchangeable draw-for-draw with them.
    def laplace_vector(self, b: float, size: int) -> np.ndarray:
        if self.mode == ZERO:
            return np.zeros(size)
        if b <= 0:
            raise ParameterError(f"Laplace scale must be positive, got {b}")
        u = self._rng.random(size) - 0.5
        return -b * np.sign(u) * np.log1p(-2.0 * np.abs(u))

    def gaussian_vector(self, sigma: float, size: int) -> np.ndarray:
        if self.mode == ZERO:
            return np.zeros(size)
        if sigma <= 0:
            raise ParameterError(f"Gaussian std must be positive, got {sigma}")
        return sigma * self._rng.standard_normal(size)

