"""AboveThreshold: the one sparse-vector state machine.

An instance draws one noisy threshold tau ~ Lap(2/eps); each query then
draws fresh mu ~ Lap(4/eps) and fires when value + mu strictly exceeds
thresh + tau (``fires``).  ``step`` answers YES at most once, the first time
the rule fires, and ABORTED without drawing noise after that; ``scan`` tests
an array of values in one numpy pass, up to the first that fires, and leaves
each test near the threshold to ``fires``.  The known-K mechanism holds one
instance per estimate and feeds it the gap |out - q_t|.  The caller is
responsible for only feeding queries of sensitivity at most 1.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ParameterError
from .noise import UNIT_BOUND, RandomSource


class SvtAnswer(enum.Enum):
    YES = "yes"
    NO = "no"
    ABORTED = "aborted"


class AboveThreshold:
    __slots__ = ("eps", "thresh", "tau", "aborted", "_src")

    def __init__(self, eps: float, thresh: float, src: RandomSource):
        if not 2.0**-1022 < eps < math.inf:  # 4/eps is finite above 2^-1022
            raise ParameterError(f"epsilon and 4/epsilon must be positive and finite, got {eps}")
        self.eps = eps
        self.thresh = thresh
        self._src = src
        self.tau = src.laplace(2.0 / eps)
        self.aborted = False

    def fires(self, value: float) -> bool:
        """Draw mu ~ Lap(4/eps); True, and aborted, when value + mu > thresh + tau."""
        if value + self._src.laplace(4.0 / self.eps) > self.thresh + self.tau:
            self.aborted = True
            return True
        return False

    def step(self, q_value: float) -> SvtAnswer:
        if self.aborted:
            return SvtAnswer.ABORTED
        return SvtAnswer.YES if self.fires(q_value) else SvtAnswer.NO

    def scan(self, values: np.ndarray) -> int | None:
        """``fires`` on each of the float64 ``values`` in turn until one fires:
        its index, or None, with ``aborted`` and the source as those calls
        leave them.

        The draws are read ahead in one numpy pass (``RandomSource.ahead``),
        which picks the tests within a slack of the threshold.  A test outside
        it cannot fire: its mu is b = 4/eps times a unit draw below
        ``UNIT_BOUND``, whose ``np.log`` is a few ulps of b UNIT_BOUND from the
        exact draw, and a rounded sum errs by at most 2^-53 of itself, about
        2^-53 |thresh + tau| where the test can change sides; the slack is
        2^-40 of these bounds.  A test inside it is decided by ``fires``.
        """
        src = self._src
        b = 4.0 / self.eps
        rhs = self.thresh + self.tau
        lhs = src.ahead(len(values))
        lhs *= b
        lhs += values
        slack = 2.0**-40 * (abs(rhs) + b * UNIT_BOUND)
        taken = 0
        for i in np.flatnonzero(lhs > rhs - slack).tolist():
            src.take(i - taken)  # the draws of the tests before i, none of which fired
            taken = i + 1
            if self.fires(values.item(i)):
                return i
        src.take(len(values) - taken)
        return None
