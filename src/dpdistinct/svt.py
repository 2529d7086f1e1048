"""The sparse-vector rule, and AboveThreshold as a streaming state machine.

One noisy threshold tau ~ Lap(2/eps) is drawn per instance
(``threshold_noise``); each query draws fresh mu ~ Lap(4/eps) and fires when
value + mu strictly exceeds thresh + tau (``fires``).  The known-K mechanism
applies the same two functions to its gap |out - q_t| (``step_count``), and
its segment scanner the same rule, at ``mu_scale``, to a window of steps.

An ``AboveThreshold`` instance answers YES at most once: the first time the
rule fires it reports YES and aborts, after which every step reports ABORTED
without drawing noise.  The caller is responsible for only feeding queries
of sensitivity at most 1.
"""

from __future__ import annotations

import enum
import math

from .errors import ParameterError
from .noise import RandomSource


class SvtAnswer(enum.Enum):
    YES = "yes"
    NO = "no"
    ABORTED = "aborted"


def threshold_noise(eps: float, src: RandomSource) -> float:
    """Draw the per-instance threshold noise tau ~ Lap(2/eps)."""
    return src.laplace(2.0 / eps)


def mu_scale(eps: float) -> float:
    """The Laplace scale 4/eps of the per-query noise mu."""
    return 4.0 / eps


def fires(value: float, thresh: float, tau: float, eps: float, src: RandomSource) -> bool:
    """Draw mu ~ Lap(4/eps); True when value + mu > thresh + tau."""
    return value + src.laplace(mu_scale(eps)) > thresh + tau


class AboveThreshold:
    def __init__(self, eps: float, thresh: float, src: RandomSource):
        if not (math.isfinite(eps) and eps > 0):
            raise ParameterError(f"epsilon must be positive and finite, got {eps}")
        self.eps = eps
        self.thresh = thresh
        self._src = src
        self.tau = threshold_noise(eps, src)
        self.aborted = False

    def step(self, q_value: float) -> SvtAnswer:
        if self.aborted:
            return SvtAnswer.ABORTED
        if fires(q_value, self.thresh, self.tau, self.eps, self._src):
            self.aborted = True
            return SvtAnswer.YES
        return SvtAnswer.NO
