"""Seeded Laplace and Gaussian sampling with a deterministic zero mode.

Every mechanism instance owns one RandomSource, seeded with a non-negative
integer.  In ``zero`` mode every draw returns exactly 0 while the surrounding
control flow (threshold comparisons, draw accounting) is exercised unchanged,
which makes exactness tests of the mechanisms possible.

Laplace draws use the inverse-CDF transform of a uniform in [0, 1), so each
draw is constant time; a uniform of exactly 0, which the transform maps to
infinity, is dropped.  ``laplace_calls`` counts every requested draw
regardless of mode; ``laplace_draws`` counts only live (non-zero-mode) draws.

Every Laplace draw reads one buffer of uniforms, refilled in blocks of at
least ``_BLOCK`` by ``Generator.random(n)``, which yields the same values as
n scalar ``random()`` calls.  The buffer holds the uniforms only.
``laplace(b)``, the one exact Laplace path, transforms the next buffered
uniform with ``math.log``.  ``ahead(n)`` transforms the next n uniforms
with ``np.log`` as it reads them and returns their draws at unit scale, so
``svt.AboveThreshold.scan`` can pick in one numpy pass the few tests that
might fire, and ``take(k)`` consumes k draws.  A Gaussian draw first
rewinds the generator to just after the last uniform taken (the saved
bit-generator state, then ``advance``) and empties the buffer, so every
draw, of either kind, is the one that scalar ``random()`` and
``standard_normal()`` calls in the same order would give.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

LIVE = "live"
ZERO = "zero"


# |log(1 - 2|u|)| <= 52 ln 2 ~ 36.04 for every non-zero uniform of 53 bits
UNIT_BOUND = 37.0

# the fewest uniforms one refill of the buffer draws
_BLOCK = 256


def child_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed, independent of execution order."""
    if base_seed < 0:
        raise ParameterError(f"seed must be >= 0, got {base_seed}")
    ss = np.random.SeedSequence([base_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


class RandomSource:
    """Seeded Laplace and Gaussian draws.  Only 64-bit values are drawn,
    because ``advance`` resets the bit generator's buffered 32-bit half."""

    def __init__(self, seed: int, mode: str = LIVE):
        if mode not in (LIVE, ZERO):
            raise ParameterError(f"unknown noise mode {mode!r}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.mode = mode
        self.laplace_calls = 0
        self.laplace_draws = 0
        self.gaussian_calls = 0
        self.gaussian_draws = 0
        self._live = mode == LIVE
        self._u = np.empty(0)  # buffered uniforms
        self._pos = 0  # index of the next draw in _u
        self._state = None  # bit-generator state before the first buffered block
        self._drawn = 0  # uniforms drawn since _state, zeros included
        self._zeros: list[int] = []  # positions of the zeros among those drawn
        # zero mode never draws and builds no generator; set last, so a zero
        # source's attributes are a prefix of a live one's
        if self._live:
            self._rng = np.random.default_rng(seed)

    def _fill(self, n: int) -> None:
        """Draw blocks of uniforms until n are ahead."""
        while (short := n - (len(self._u) - self._pos)) > 0:
            size = max(short, _BLOCK)
            if self._state is None:
                self._state = self._rng.bit_generator.state
            r = self._rng.random(size)
            if np.count_nonzero(r) < size:
                self._zeros += (np.flatnonzero(r == 0.0) + self._drawn).tolist()
                r = r[r != 0.0]
            self._drawn += size
            if self._pos < len(self._u):
                r = np.concatenate((self._u[self._pos :], r))
            self._u, self._pos = r, 0

    def ahead(self, n: int) -> np.ndarray:
        """The next n Laplace draws at unit scale, as a new array (zeros in
        zero mode).

        ``np.log`` can differ from ``math.log`` by an ulp, so each entry is
        within a few ulps of the unit draw that ``laplace`` makes.
        """
        if not self._live:
            return np.zeros(n)
        self._fill(n)
        u = self._u[self._pos : self._pos + n] - 0.5
        unit = np.log(1.0 - 2.0 * np.abs(u))
        np.copysign(unit, u, out=unit)
        return np.negative(unit, out=unit)

    def take(self, k: int) -> None:
        """Consume the next k Laplace draws."""
        self.laplace_calls += k
        if self._live:
            self.laplace_draws += k
            self._pos += k

    def laplace(self, b: float) -> float:
        """One Lap(b) sample (0 in zero mode)."""
        if not self._live:
            self.laplace_calls += 1
            return 0.0
        if not 0 < b < math.inf:
            raise ParameterError(f"Laplace scale must be positive and finite, got {b}")
        if self._pos == len(self._u):
            self._fill(1)
        u = self._u.item(self._pos) - 0.5  # the inverse CDF of Lap(b)
        value = -b * math.copysign(math.log(1.0 - 2.0 * abs(u)), u)
        self.laplace_calls += 1  # take(1), inlined on the per-draw path
        self.laplace_draws += 1
        self._pos += 1
        return value

    def _rewind(self) -> None:
        """Empty the buffer; the generator resumes after the last uniform taken."""
        used = self._drawn - len(self._zeros) - (len(self._u) - self._pos)  # draws taken
        for z in self._zeros:
            if z >= used:
                break
            used += 1
        if used < self._drawn:
            bg = self._rng.bit_generator
            bg.state = self._state
            bg.advance(used)
        self._u = np.empty(0)
        self._pos = self._drawn = 0
        self._state = None
        self._zeros = []

    def gaussian(self, sigma: float) -> float:
        """One N(0, sigma^2) sample (0 in zero mode)."""
        self.gaussian_calls += 1
        if not self._live:
            return 0.0
        if not 0 < sigma < math.inf:
            raise ParameterError(f"Gaussian std must be positive and finite, got {sigma}")
        if self._state is not None:
            self._rewind()
        self.gaussian_draws += 1
        return sigma * self._rng.standard_normal()
