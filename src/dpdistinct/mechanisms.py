"""Private output mechanisms for distinct counting under continual observation.

The central mechanism monitors the gap between its last released estimate and
the live distinct count with a sparse-vector threshold test, refreshing the
estimate only when the gap grows past a threshold.  The number of refreshes is
capped by a stopping parameter derived from the total flippancy budget K, so
the privacy cost is paid only for refreshes, not for quiet steps.

Also provided: the two unknown-K runners, which share one doubling loop
(``_doubling``) and differ in their budget schedule (``_Schedule``) and in the
all-bounds fallback to trivial/additive-noise baselines; per-step Laplace and
Gaussian baselines, a binary-tree counter for the likes model (one node draw
per step, every prefix sum in one numpy pass), and the adapter that turns an
event-level mechanism into an item-level one by prepending a zero step.

The count sequence q_t does not depend on the noise, so every runner reads it
from the validated ``Stream`` (``Stream.counts``, a read-only int64 array)
and no runner replays the batches.  One segment scanner (``_scan``) drives
every known-K instance, frozen ones included.  Between refreshes the released
value is constant, so it hands the gaps |out - q_t| of a whole window of
steps to the instance's ``AboveThreshold.scan``, releases the constant value
for the quiet steps before the first that fires, and refreshes there.  The
scan leaves each test near the threshold to ``AboveThreshold.fires``, so it
fires, aborts and draws exactly as stepping ``step_count`` would.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import stream as streammod
from .errors import ParameterError
from .noise import RandomSource
from .stream import Stream, UpdateBatch, apply_batch, require_valid
from .svt import AboveThreshold


class PrivacyParams(NamedTuple("PrivacyParams", [("eps", float), ("delta", float)])):
    __slots__ = ()

    def __new__(cls, eps: float, delta: float = 0.0):
        if not (math.isfinite(eps) and eps > 0):
            raise ParameterError(f"epsilon must be positive and finite, got {eps}")
        if not 0 <= delta < 1:
            raise ParameterError(f"delta must be in [0, 1), got {delta}")
        if delta > 0 and eps >= 1:
            raise ParameterError(
                "the approximate-DP guarantee requires epsilon < 1 when delta > 0"
            )
        return super().__new__(cls, eps, delta)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


class KnownKConfig(NamedTuple):
    eps: float
    delta: float
    K: int
    T: int
    beta: float
    S_K: int
    eps1: float
    thresh: float


def check_T_beta(T: int, beta: float) -> None:
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    check_beta(beta)


def check_beta(beta: float) -> None:
    if not 0 < beta < 1:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")


def check_T_covers(T: int, stream: Stream) -> None:
    """T bounds the stream's length: the noise scales grow with T, so a T
    shorter than the stream would understate the sensitivity."""
    if T < stream.length:
        raise ParameterError(f"T={T} is shorter than the stream ({stream.length} steps)")


def flippancy_branch(K: int, eps: float, delta: float, log_term: float) -> float:
    """The flippancy-parameterized error for confidence term ``log_term``:
    sqrt(K L/eps) in pure DP, (K ln(1/delta) L^2/eps^2)^(1/3) with delta > 0."""
    if delta == 0:
        return math.sqrt(K * log_term / eps)
    if eps**2 == 0:  # eps < 1e-161: the branch is past every float
        return math.inf
    return (K * math.log(1 / delta) * log_term**2 / eps**2) ** (1 / 3)


def err_T_branch(T: int, eps: float, delta: float, log_term: float) -> float:
    """The stream-length error of per-step noise for confidence term
    ``log_term``: T L/eps in pure DP, sqrt(T ln(1/delta) L)/eps with delta > 0."""
    if delta == 0:
        return T * log_term / eps
    return math.sqrt(T * math.log(1 / delta) * log_term) / eps


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise ParameterError(f"{what} is not finite for these K, epsilon, delta and beta")
    return x


def derive_known_k_config(
    pp: PrivacyParams, K: int, T: int, beta: float
) -> KnownKConfig:
    """Stopping parameter, per-round epsilon, and threshold for a given K.

    Pure DP: S_K = floor(sqrt(K*eps / (18 ln(2T/beta)))) + 1 and
    eps1 = eps / (2 S_K).  Approximate DP: S_K = ceil((K*eps /
    (36 sqrt(ln(1/delta)) ln(2T/beta)))^(2/3)) + 1 and
    eps1 = eps / (4 sqrt(2 S_K ln(1/delta))).  In both cases
    thresh = 16 ln(2T/beta) / eps1.
    """
    if K < 1:
        raise ParameterError(f"K must be >= 1, got {K}")
    check_T_beta(T, beta)
    log_term = math.log(2 * T / beta)
    if pp.delta == 0:
        S_K = math.floor(_finite(math.sqrt(K * pp.eps / (18 * log_term)), "S_K")) + 1
        eps1 = pp.eps / (2 * S_K)
    else:
        log_delta = math.log(1 / pp.delta)
        raw = (K * pp.eps / (36 * math.sqrt(log_delta) * log_term)) ** (2 / 3)
        S_K = math.ceil(_finite(raw, "S_K")) + 1
        eps1 = pp.eps / (4 * math.sqrt(2 * S_K * log_delta))
    # eps1 underflows to 0 for a tiny epsilon, or a huge ln(1/delta)
    thresh = _finite(16 * log_term / eps1 if eps1 else math.inf, "the threshold")
    return KnownKConfig(pp.eps, pp.delta, K, T, beta, S_K, eps1, thresh)


class MechanismAborted(RuntimeError):
    """Raised when a step is taken on a mechanism that has already aborted."""


class KnownKMechanism:
    """Threshold-monitored distinct-count mechanism for a known flippancy budget.

    State is a constant number of scalars, plus the item counters when the
    caller feeds batches.  Each step costs one Laplace draw; a refresh costs
    two more.  At most S_K estimates are released (including the initial
    one); a refresh request beyond that budget aborts the instance instead of
    refreshing, so a stream whose flippancy stays within budget is processed
    in full.

    ``step_count`` takes the live distinct count q_t.  ``step`` takes an
    update batch, applies it to ``counters`` (a ``CounterState``) and then
    takes the count step; callers that only use ``step_count`` pass None as
    ``counters``.

    A ``frozen_out`` turns this into the variant that never updates its
    released value (``freeze`` is then True): the threshold test and abort
    bookkeeping run unchanged against that externally supplied estimate.

    Each estimate is watched by its own ``AboveThreshold``, ``_query``, on
    the gap |out - q_t|.  The runners do not call ``step_count``: ``_scan``
    tests many steps at once with ``_query.scan`` and calls ``fired`` where
    the rule fires, which leaves the same state as stepping would.
    """

    def __init__(
        self, config: KnownKConfig, counters, src: RandomSource, frozen_out: float | None = None
    ):
        self.config = config
        self.counters = counters
        self._src = src
        self.freeze = frozen_out is not None
        self.out = frozen_out
        self.count = 0
        self.aborted = False
        self.yes_events = 0
        self._refresh(0)

    def _refresh(self, q: int) -> None:
        """The next estimate at live count q: a fresh ``_query`` (its threshold
        noise first), then the draw nu, which a frozen instance does not add."""
        self.count += 1
        self._query = AboveThreshold(self.config.eps1, self.config.thresh, self._src)
        nu = self._src.laplace(1.0 / self.config.eps1)
        if not self.freeze:
            self.out = q + nu

    def step(self, batch: UpdateBatch) -> float:
        if self.aborted:
            raise MechanismAborted("step() after abort")
        apply_batch(self.counters, batch)
        return self.step_count(self.counters.q)

    def step_count(self, q: int) -> float:
        """One step on the live distinct count q; returns the released value."""
        if self.aborted:
            raise MechanismAborted("step after abort")
        if self._query.fires(abs(self.out - q)):
            self.fired(q)
        return self.out

    def fired(self, q: int) -> None:
        """The rule fired at live count q: refresh while fewer than S_K
        estimates are out; abort once S_K are (if S_K = 1, without a refresh)."""
        self.yes_events += 1
        if self.count < self.config.S_K:
            self._refresh(q)
        self.aborted = self.count >= self.config.S_K


_FIRST_WINDOW = 64  # steps; each quiet window doubles the next one, up to _MAX_WINDOW
_MAX_WINDOW = 1 << 13  # steps; bounds the scan's gaps and read-ahead draws


def _scan(mech: KnownKMechanism, q: np.ndarray, t: int, outputs: list[float]) -> int:
    """Run ``mech`` over the counts ``q[t:]`` until it aborts or the counts
    end; append each release to ``outputs`` and return the next step's index.

    The releases, ``mech``'s state and the source's draws end up exactly as
    ``step_count`` called on each count would leave them.
    """
    w = _FIRST_WINDOW
    while t < len(q) and not mech.aborted:
        out = mech.out
        gaps = np.abs(out - q[t : t + w])
        fire = mech._query.scan(gaps)
        if fire is None:
            outputs.extend([out] * len(gaps))
            t += len(gaps)
            w = min(2 * w, _MAX_WINDOW)
        else:
            outputs.extend([out] * fire)
            t += fire + 1
            mech.fired(q.item(t - 1))
            outputs.append(mech.out)
            w = _FIRST_WINDOW
    return t


class RunResult(NamedTuple):
    outputs: list[float]
    yes_events: int = 0
    instances: int = 1
    abort_step: int | None = None
    fallback: str | None = None


def run_known_k(
    pp: PrivacyParams,
    beta: float,
    T: int,
    K: int,
    stream: Stream,
    src: RandomSource,
) -> RunResult:
    """One known-K instance over the whole stream.

    If the instance aborts before the stream ends, the last released value is
    repeated for the remaining steps and the abort step is reported.
    """
    config = derive_known_k_config(pp, K, T, beta)
    check_T_covers(T, stream)
    mech = KnownKMechanism(config, None, src)
    outputs: list[float] = []
    t = _scan(mech, stream.counts, 0, outputs)
    outputs.extend([mech.out] * (stream.length - t))
    return RunResult(
        outputs=outputs,
        yes_events=mech.yes_events,
        abort_step=t if mech.aborted else None,
    )


class _Schedule(NamedTuple):
    """A doubling run's budget: instance j gets K_j = 2^j and c/(pi^2 j^2) of
    each of eps, delta and beta, c the field of the same name, which sums to
    c/6 of it over j.  ``scaled`` rounds as x * (c/(pi^2 j^2)), else c*x/(pi^2 j^2)."""

    name: str
    eps: int
    delta: int
    beta: int
    scaled: bool

    def shares(self, eps: float, delta: float, beta: float, j: int) -> tuple[float, ...]:
        den = math.pi**2 * j**2
        if self.scaled:
            return eps * (self.eps / den), delta * (self.delta / den), beta * (self.beta / den)
        return self.eps * eps / den, self.delta * delta / den, self.beta * beta / den


_UNKNOWN_K = _Schedule("unknown-k", eps=6, delta=6, beta=6, scaled=True)
_ALL_BOUNDS = _Schedule("unknown-k-all", eps=12, delta=6, beta=12, scaled=False)


def run_unknown_k(
    pp: PrivacyParams, beta: float, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Doubling wrapper: rerun the known-K mechanism with K_j = 2^j, each
    instance from the live count where the previous one aborted, with fresh
    noise, on the schedule ``_UNKNOWN_K``, which sums to eps, delta and beta."""
    return _doubling(pp, beta, T, stream, src, _UNKNOWN_K)


def run_unknown_k_all_bounds(
    pp: PrivacyParams, beta: float, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Doubling wrapper that defers to a trivial algorithm when that wins.

    Before starting instance j it compares the flippancy-parameterized error
    guess min(K_j, B_j) with min(d, err_T).  Once the latter is smaller, it
    switches permanently to the all-zero output (if d is the minimum) or to
    the per-step Laplace/Gaussian baseline (if err_T is).  An instance whose
    K_j is below B_j runs frozen at the latest boundary refresh.

    Its schedule ``_ALL_BOUNDS`` sums to 2*eps, delta and 2*beta over all j.
    Each boundary refresh also draws Lap(1/eps_j), and a fallback baseline
    spends the full eps.  The argument that this composes to the claimed
    eps is still open (ROADMAP item 1).
    """
    return _doubling(pp, beta, T, stream, src, _ALL_BOUNDS, bounds=True)


def _laplace_release(pp: PrivacyParams, T: int, counts, src: RandomSource) -> list[float]:
    """q_t + Lap(T/eps) at every step: the stream-length sensitivity bound."""
    return [q + src.laplace(T / pp.eps) for q in counts.tolist()]


def _gaussian_release(pp: PrivacyParams, T: int, counts, src: RandomSource) -> list[float]:
    """q_t + N(0, sigma^2) at every step, sigma from the sqrt(T) L2 bound."""
    sigma = math.sqrt(2 * math.log(2 / pp.delta)) * math.sqrt(T) / pp.eps
    return [q + src.gaussian(sigma) for q in counts.tolist()]


def _instance_bound(pp: PrivacyParams, T: int, K_j: int, eps_j, delta_j, beta_j) -> float:
    """B_j: the flippancy branch at ln(T/beta_j), plus a ln(1/delta_j) term if delta > 0."""
    log_term_j = math.log(T / beta_j)
    B_j = flippancy_branch(K_j, eps_j, delta_j, log_term_j)
    if pp.delta > 0 and B_j < math.inf:
        B_j += math.sqrt(math.log(1 / delta_j)) * log_term_j / eps_j
    return B_j


def _doubling(
    pp: PrivacyParams, beta: float, T: int, stream: Stream, src: RandomSource,
    schedule: _Schedule, bounds: bool = False,
) -> RunResult:
    """The doubling loop of both unknown-K runners.  ``bounds`` turns on the
    fallback test, frozen instances and boundary draws of the all-bounds one."""
    check_T_beta(T, beta)
    c, beta_1 = schedule.beta, schedule.shares(pp.eps, pp.delta, beta, 1)[2]
    if beta_1 >= 1:
        raise ParameterError(
            f"{schedule.name} requires beta < pi^2/{c} ~ {math.pi**2 / c:.3g}: its first"
            f" instance gets beta_1 = {c}*beta/pi^2 = {beta_1:.6g}, and each instance"
            " requires beta_j < 1"
        )
    check_T_covers(T, stream)
    d, counts, n = stream.d, stream.counts, stream.length
    err_T = err_T_branch(T, pp.eps, pp.delta, math.log(T / beta)) if bounds else None
    outputs: list[float] = []
    out, fallback = 0.0, None  # out: the frozen value before any boundary draw; data-independent
    t = j = yes_total = 0
    while t < n:
        j += 1
        K_j = 2**j
        eps_j, delta_j, beta_j = schedule.shares(pp.eps, pp.delta, beta, j)
        if bounds:
            B_j = _instance_bound(pp, T, K_j, eps_j, delta_j, beta_j)
            if min(K_j, B_j) > min(d, err_T):
                if d <= err_T:
                    fallback, rest = "zero", [0.0] * (n - t)
                elif pp.delta == 0:
                    fallback, rest = "laplace", _laplace_release(pp, T, counts[t:], src)
                else:
                    fallback, rest = "gaussian", _gaussian_release(pp, T, counts[t:], src)
                outputs.extend(rest)
                break
        if pp.delta > 0 and eps_j >= 1:  # only j = 1 can reach this
            c = schedule.eps
            raise ParameterError(
                f"{schedule.name} with delta > 0 requires epsilon < pi^2/{c} ~"
                f" {math.pi**2 / c:.3g}: its first instance gets eps_1 = {c}*eps/pi^2"
                f" = {eps_j:.6g}, and approximate DP requires eps_1 < 1"
            )
        config = derive_known_k_config(PrivacyParams(eps_j, delta_j), K_j, T, beta_j)
        mech = KnownKMechanism(config, None, src, out if bounds and K_j < B_j else None)
        t = _scan(mech, counts, t, outputs)
        yes_total += mech.yes_events
        if bounds:  # the boundary refresh: the released value between instances
            out = counts.item(t - 1) + src.laplace(1.0 / eps_j)
    return RunResult(outputs, yes_total, instances=j, fallback=fallback)


def run_zero(stream: Stream) -> RunResult:
    return RunResult(outputs=[0.0] * stream.length)


def run_laplace_baseline(
    pp: PrivacyParams, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Per-step Laplace release with the stream-length sensitivity bound."""
    check_T_covers(T, stream)
    return RunResult(outputs=_laplace_release(pp, T, stream.counts, src))


def run_gaussian_baseline(
    pp: PrivacyParams, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Per-step Gaussian release with the sqrt(T) L2-sensitivity bound."""
    if pp.delta <= 0:
        raise ParameterError("the Gaussian baseline requires delta > 0")
    check_T_covers(T, stream)
    return RunResult(outputs=_gaussian_release(pp, T, stream.counts, src))


def _require_likes(stream: Stream, what: str) -> None:
    require_valid(stream)
    if stream.model != streammod.LIKES:
        raise ParameterError(f"{what} requires a likes-model stream")


def run_continual_likes(
    eps: float, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Binary-tree noisy prefix sums of the distinct-count difference
    sequence; valid for event-level privacy in the likes model only.

    Changing one difference value moves one node sum per level of the tree
    over [1, T], so each node gets Lap(T.bit_length()/eps).  The release at
    t adds q[hi] - q[lo] plus the noise of node (lo, hi], for hi = t and
    then lo = hi & (hi - 1) until 0, lowest level first; node noise is drawn
    at the step where the node ends.
    """
    _require_likes(stream, "the continual-counting baseline")
    PrivacyParams(eps)  # rejects an epsilon that is not positive and finite
    check_T_covers(T, stream)
    scale = T.bit_length() / eps
    # entry 0 is the empty prefix: once a step's nodes are summed, hi stays 0
    # and adds (0 - 0) + 0.0, which leaves the (never -0.0) total unchanged
    noise = np.array([0.0] + [src.laplace(scale) for _ in range(stream.length)])
    q = np.concatenate(([0], stream.counts))
    total = np.zeros(len(q))
    hi = np.arange(len(q))
    # a scale near the float range gives inf and nan, silently, as scalar adds do
    with np.errstate(over="ignore", invalid="ignore"):
        while hi.any():
            lo = hi & (hi - 1)
            total += (q[hi] - q[lo]) + noise[hi]
            hi = lo
    return RunResult(outputs=total[1:].tolist())


def run_event_to_item(
    inner_run: Callable[[Stream], RunResult], stream: Stream
) -> RunResult:
    """Item-level adapter: prepend an all-zero step, drop the first output.

    ``inner_run`` must accept a stream of length T+1.
    """
    _require_likes(stream, "the adapter")
    padded = Stream.from_columns(
        stream.d,
        stream.T + 1,
        stream.model,
        np.insert(stream.offsets, 0, 0),
        stream.items,
        stream.deltas,
    )
    inner = inner_run(padded)
    return inner._replace(outputs=inner.outputs[1:])
