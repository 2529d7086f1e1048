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
might fire, and ``take(k)`` consumes k draws.

The two kinds of draw come from two independent generators, so the draws
of one kind do not depend on how many of the other came before:
- the Laplace draws are those of one scalar ``random()`` per draw on
  ``default_rng(seed)``, skipping exact zeros, whatever was read ahead and
  whatever Gaussians were drawn;
- the Gaussian draws are those of one ``standard_normal()`` per draw on a
  generator seeded with the first child of ``SeedSequence(seed)``, whatever
  Laplace draws came before.
"""

from __future__ import annotations

import functools
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
    """Seeded Laplace and Gaussian draws."""

    def __init__(self, seed: int, mode: str = LIVE):
        if mode not in (LIVE, ZERO):
            raise ParameterError(f"unknown noise mode {mode!r}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        self.seed = seed
        self.mode = mode
        self.laplace_calls = 0
        self.gaussian_calls = 0
        self._live = mode == LIVE
        self._u = np.empty(0)  # buffered uniforms
        self._pos = 0  # index of the next draw in _u
        # zero mode never draws and builds no generator; set last, so a zero
        # source's attributes are a prefix of a live one's
        if self._live:
            self._rng = np.random.default_rng(seed)

    @functools.cached_property
    def _normal(self) -> np.random.Generator:
        """The Gaussian draws' generator, built at the first live Gaussian
        draw, so a source that draws only Laplace noise never builds it."""
        return np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])

    # live draws of each kind: its calls in live mode, none in zero mode
    laplace_draws = property(lambda self: self.laplace_calls if self._live else 0)
    gaussian_draws = property(lambda self: self.gaussian_calls if self._live else 0)

    def _fill(self, n: int) -> None:
        """Draw blocks of uniforms until n are ahead."""
        while (short := n - (len(self._u) - self._pos)) > 0:
            r = self._rng.random(max(short, _BLOCK))
            if not r.all():
                r = r[r != 0.0]
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
        self._pos += 1
        return value

    def gaussian(self, sigma: float) -> float:
        """One N(0, sigma^2) sample (0 in zero mode)."""
        if self._live and not 0 < sigma < math.inf:
            raise ParameterError(f"Gaussian std must be positive and finite, got {sigma}")
        self.gaussian_calls += 1
        if not self._live:
            return 0.0
        return sigma * self._normal.standard_normal()
