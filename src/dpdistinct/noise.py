"""Seeded Laplace and Gaussian sampling with a deterministic zero mode.

Every mechanism instance owns one RandomSource, seeded with a non-negative
integer.  In ``zero`` mode every draw returns exactly 0 while the surrounding
control flow (threshold comparisons, draw accounting) is exercised unchanged,
which makes exactness tests of the mechanisms possible.

Laplace draws use the inverse-CDF transform of a uniform in [0, 1), so each
draw is constant time; a uniform of exactly 0, which the transform maps to
infinity, is redrawn.  ``laplace_calls`` counts every requested draw
regardless of mode; ``laplace_draws`` counts only live (non-zero-mode) draws.

The source draws one value at a time.  A ``LaplaceTape`` reads the uniforms
that a run of scalar ``laplace`` calls would use in blocks of
``Generator.random(n)``, which yields the same values as n scalar
``random()`` calls, and applies the same transform with ``np.log``, so a
mechanism can test a whole segment of steps in one numpy pass.  Closing the
tape rewinds the generator to just after the last uniform taken (the saved
bit-generator state, then ``advance``), so the source keeps no buffer and its
next draw, of either kind, is the one the scalar calls would have made.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ParameterError

LIVE = "live"
ZERO = "zero"


# |log(1 - 2|u|)| <= 52 ln 2 ~ 36.04 for every non-zero uniform of 53 bits
UNIT_BOUND = 37.0


def _inverse_cdf(r: float, b: float) -> float:
    """The Lap(b) draw for a uniform r in (0, 1)."""
    u = r - 0.5
    return -b * math.copysign(math.log(1.0 - 2.0 * abs(u)), u)


def child_seed(base_seed: int, index: int) -> int:
    """Deterministic per-trial seed, independent of execution order."""
    if base_seed < 0:
        raise ParameterError(f"seed must be >= 0, got {base_seed}")
    ss = np.random.SeedSequence([base_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


class RandomSource:
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

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The generator, built on first use: zero mode never draws."""
        return np.random.default_rng(self.seed)

    def laplace(self, b: float) -> float:
        """One Lap(b) sample (0 in zero mode)."""
        self.laplace_calls += 1
        if self.mode == ZERO:
            return 0.0
        if not 0 < b < math.inf:
            raise ParameterError(f"Laplace scale must be positive and finite, got {b}")
        self.laplace_draws += 1
        r = self._rng.random()
        while r == 0.0:  # would be log(0); every other uniform is used as drawn
            r = self._rng.random()
        return _inverse_cdf(r, b)

    def gaussian(self, sigma: float) -> float:
        """One N(0, sigma^2) sample (0 in zero mode)."""
        self.gaussian_calls += 1
        if self.mode == ZERO:
            return 0.0
        if not 0 < sigma < math.inf:
            raise ParameterError(f"Gaussian std must be positive and finite, got {sigma}")
        self.gaussian_draws += 1
        return sigma * self._rng.standard_normal()


class LaplaceTape:
    """The Laplace draws of a source, read ahead in the scalar draw order.

    ``ahead(n)`` returns the next n draws at unit scale as one array.  It
    uses ``np.log``, which can differ from ``math.log`` by an ulp, so each
    entry is within a few ulps of the scalar draw; ``exact(i, b)`` is the
    scalar ``laplace(b)`` value of entry i, bit for bit.  ``take(k)``
    consumes k draws and ``laplace(b)`` takes one exact draw.  Uniforms that
    are exactly 0 are dropped, as the scalar redraw does.  ``close`` (or
    leaving the ``with`` block) rewinds the generator to just after the last
    uniform taken and adds the draws taken to the source's counters.  In zero
    mode every draw is 0 and no uniform is drawn.  The source must not be
    drawn from while the tape is open, and must draw only 64-bit values
    (``random``, ``standard_normal``), because ``advance`` resets the bit
    generator's buffered 32-bit half-word.
    """

    def __init__(self, src: RandomSource):
        self._src = src
        self._live = src.mode == LIVE
        self._taken = 0  # draws taken through the tape
        self._pos = 0  # index of the next draw in _u and _unit
        self._u = self._unit = np.empty(0)
        self._state = None  # bit-generator state before the first block
        self._drawn = 0  # uniforms drawn, zeros included
        self._zeros: list[int] = []  # their positions among the uniforms drawn

    def __enter__(self) -> "LaplaceTape":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _fill(self, n: int) -> None:
        """Draw blocks of n uniforms until n draws are ahead."""
        while len(self._u) - self._pos < n:
            bg = self._src._rng.bit_generator
            if self._state is None:
                self._state = bg.state
            r = self._src._rng.random(n)
            if not r.all():
                self._zeros += (np.flatnonzero(r == 0.0) + self._drawn).tolist()
                r = r[r != 0.0]
            self._drawn += n
            u = r - 0.5
            unit = np.log(1.0 - 2.0 * np.abs(u))
            np.copysign(unit, u, out=unit)
            np.negative(unit, out=unit)
            self._u = np.concatenate((self._u[self._pos:], r))
            self._unit = np.concatenate((self._unit[self._pos:], unit))
            self._pos = 0

    def ahead(self, n: int) -> np.ndarray:
        """The next n draws at unit scale (a view; zeros in zero mode)."""
        if not self._live:
            return np.zeros(n)
        self._fill(n)
        return self._unit[self._pos : self._pos + n]

    def exact(self, i: int, b: float) -> float:
        """The scalar Lap(b) value of draw i ahead (after ``ahead(n)``, i < n)."""
        if not self._live:
            return 0.0
        return _inverse_cdf(self._u.item(self._pos + i), b)

    def take(self, k: int) -> None:
        self._taken += k
        self._pos += k

    def laplace(self, b: float) -> float:
        """One Lap(b) draw, as ``RandomSource.laplace`` would make it."""
        if not self._live:
            self.take(1)
            return 0.0
        if not 0 < b < math.inf:
            raise ParameterError(f"Laplace scale must be positive and finite, got {b}")
        self._fill(1)
        value = self.exact(0, b)
        self.take(1)
        return value

    def close(self) -> None:
        src = self._src
        src.laplace_calls += self._taken
        if self._live:
            src.laplace_draws += self._taken
            used = self._taken  # uniforms up to the last one taken, zeros included
            for z in self._zeros:
                if z >= used:
                    break
                used += 1
            if used < self._drawn:
                bg = src._rng.bit_generator
                bg.state = self._state
                bg.advance(used)
