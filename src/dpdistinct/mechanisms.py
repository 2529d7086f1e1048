"""Private output mechanisms for distinct counting under continual observation.

The central mechanism monitors the gap between its last released estimate and
the live distinct count with a sparse-vector threshold test, refreshing the
estimate only when the gap grows past a threshold.  The number of refreshes is
capped by a stopping parameter derived from the total flippancy budget K, so
the privacy cost is paid only for refreshes, not for quiet steps.

Also provided: the doubling wrapper for unknown K, the variant that falls back
to trivial/additive-noise baselines when those dominate, per-step Laplace and
Gaussian baselines, a binary-tree counter on the difference sequence for the
likes model, and the adapter that turns an event-level mechanism into an
item-level one by prepending a zero step.

The count sequence q_t does not depend on the noise, so every runner reads it
from the validated ``Stream`` (``Stream.counts``) and no runner replays the
batches; the known-K instances are fed q_t by one step driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import stream as streammod
from .errors import ParameterError
from .noise import RandomSource
from .stream import Stream, UpdateBatch, apply_batch, diff_sequence, require_valid
from .svt import fires, threshold_noise


@dataclass(frozen=True)
class PrivacyParams:
    eps: float
    delta: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ParameterError(f"epsilon must be positive and finite, got {self.eps}")
        if not 0 <= self.delta < 1:
            raise ParameterError(f"delta must be in [0, 1), got {self.delta}")
        if self.delta > 0 and self.eps >= 1:
            raise ParameterError(
                "the approximate-DP guarantee requires epsilon < 1 when delta > 0"
            )


@dataclass(frozen=True)
class KnownKConfig:
    eps: float
    delta: float
    K: int
    T: int
    beta: float
    S_K: int
    eps1: float
    thresh: float


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
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    log_term = math.log(2 * T / beta)
    if pp.delta == 0:
        S_K = math.floor(math.sqrt(K * pp.eps / (18 * log_term))) + 1
        eps1 = pp.eps / (2 * S_K)
    else:
        raw = (K * pp.eps / (36 * math.sqrt(math.log(1 / pp.delta)) * log_term)) ** (
            2 / 3
        )
        S_K = math.ceil(raw) + 1
        eps1 = pp.eps / (4 * math.sqrt(2 * S_K * math.log(1 / pp.delta)))
    thresh = 16 * log_term / eps1
    return KnownKConfig(
        eps=pp.eps,
        delta=pp.delta,
        K=K,
        T=T,
        beta=beta,
        S_K=S_K,
        eps1=eps1,
        thresh=thresh,
    )


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

    ``freeze`` turns this into the variant that never updates its released
    value: the threshold test and abort bookkeeping run unchanged against the
    externally supplied frozen estimate.
    """

    def __init__(
        self,
        config: KnownKConfig,
        counters,
        src: RandomSource,
        freeze: bool = False,
        frozen_out: float = 0.0,
    ):
        self.config = config
        self.counters = counters
        self._src = src
        self.freeze = freeze
        self.count = 1
        self.tau = threshold_noise(config.eps1, src)
        nu = src.laplace(1.0 / config.eps1)
        self.out = frozen_out if freeze else 0.0 + nu
        self.aborted = False
        self.yes_events = 0

    def step(self, batch: UpdateBatch) -> float:
        if self.aborted:
            raise MechanismAborted("step() after abort")
        apply_batch(self.counters, batch)
        return self.step_count(self.counters.q)

    def step_count(self, q: int) -> float:
        """One step on the live distinct count q; returns the released value."""
        if self.aborted:
            raise MechanismAborted("step after abort")
        cfg = self.config
        if fires(abs(self.out - q), cfg.thresh, self.tau, cfg.eps1, self._src):
            self.yes_events += 1
            if self.count < cfg.S_K:
                self.count += 1
                self.tau = threshold_noise(cfg.eps1, self._src)
                nu = self._src.laplace(1.0 / cfg.eps1)
                if not self.freeze:
                    self.out = q + nu
                if self.count >= cfg.S_K:
                    self.aborted = True
            else:
                # estimate budget exhausted (S_K = 1): abort without a refresh
                self.aborted = True
        return self.out


def _drive(mech: KnownKMechanism, counts, t: int, outputs: list[float]) -> int:
    """Feed q_t from ``counts[t:]`` to ``mech`` until it aborts or the counts
    end; append each release to ``outputs`` and return the next step's index."""
    n = len(counts)
    while t < n and not mech.aborted:
        outputs.append(mech.step_count(counts[t]))
        t += 1
    return t


@dataclass
class RunResult:
    outputs: list[float]
    yes_events: int = 0
    instances: int = 1
    abort_step: int | None = None
    fallback: str | None = None
    instance_indices: list[int] = field(default_factory=list)


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
    mech = KnownKMechanism(config, None, src)
    outputs: list[float] = []
    t = _drive(mech, stream.counts, 0, outputs)
    outputs.extend([mech.out] * (stream.length - t))
    return RunResult(
        outputs=outputs,
        yes_events=mech.yes_events,
        instances=1,
        abort_step=t if mech.aborted else None,
    )


def run_unknown_k(
    pp: PrivacyParams,
    beta: float,
    T: int,
    stream: Stream,
    src: RandomSource,
) -> RunResult:
    """Doubling wrapper: rerun the known-K mechanism with K_j = 2^j.

    The j-th instance gets eps_j = 6*eps/(pi^2 j^2) (and delta, beta scaled
    the same way) so the budgets sum to the overall parameters.  Each
    instance picks up at the live count where the previous one aborted;
    noise state does not carry over.
    """
    counts = stream.counts
    outputs: list[float] = []
    indices: list[int] = []
    yes_total = 0
    j = 0
    t = 0
    while t < len(counts):
        j += 1
        scale = 6 / (math.pi**2 * j**2)
        pp_j = PrivacyParams(pp.eps * scale, pp.delta * scale)
        config = derive_known_k_config(pp_j, 2**j, T, beta * scale)
        mech = KnownKMechanism(config, None, src)
        start = t
        t = _drive(mech, counts, t, outputs)
        indices.extend([j] * (t - start))
        yes_total += mech.yes_events
    return RunResult(
        outputs=outputs,
        yes_events=yes_total,
        instances=j,
        abort_step=None,
        instance_indices=indices,
    )


def _err_T(pp: PrivacyParams, beta: float, T: int) -> float:
    if pp.delta == 0:
        return T * math.log(T / beta) / pp.eps
    return math.sqrt(T * math.log(1 / pp.delta) * math.log(T / beta)) / pp.eps


def _laplace_release(pp: PrivacyParams, T: int, counts, src: RandomSource) -> list[float]:
    """q_t + Lap(T/eps) at every step: the stream-length sensitivity bound."""
    return [q + src.laplace(T / pp.eps) for q in counts]


def _gaussian_release(pp: PrivacyParams, T: int, counts, src: RandomSource) -> list[float]:
    """q_t + N(0, sigma^2) at every step, sigma from the sqrt(T) L2 bound."""
    sigma = math.sqrt(2 * math.log(2 / pp.delta)) * math.sqrt(T) / pp.eps
    return [q + src.gaussian(sigma) for q in counts]


def run_unknown_k_all_bounds(
    pp: PrivacyParams,
    beta: float,
    T: int,
    stream: Stream,
    src: RandomSource,
) -> RunResult:
    """Doubling wrapper that defers to a trivial algorithm when that wins.

    Before starting instance j it compares the flippancy-parameterized error
    guess min(K_j, B_j) with min(d, err_T).  Once the latter is smaller, it
    switches permanently to the all-zero output (if d is the minimum) or to
    the per-step Laplace/Gaussian baseline (if err_T is).  Instances whose
    K_j is below B_j run in frozen mode: the released value stays at the
    latest boundary refresh for the whole instance.
    """
    d = stream.d
    counts = stream.counts
    n = len(counts)
    outputs: list[float] = []
    indices: list[int] = []
    err_T = _err_T(pp, beta, T)
    out = 0.0  # pre-boundary frozen value; data-independent
    t = 0
    j = 0
    fallback = None
    while t < n:
        j += 1
        eps_j = 12 * pp.eps / (math.pi**2 * j**2)
        delta_j = 6 * pp.delta / (math.pi**2 * j**2)
        beta_j = 12 * beta / (math.pi**2 * j**2)
        K_j = 2**j
        log_term_j = math.log(T / beta_j)
        if pp.delta == 0:
            B_j = math.sqrt(K_j * log_term_j / eps_j)
        else:
            B_j = (K_j * math.log(1 / delta_j) * log_term_j**2 / eps_j**2) ** (
                1 / 3
            ) + math.sqrt(math.log(1 / delta_j)) * log_term_j / eps_j
        if min(K_j, B_j) > min(d, err_T):
            if d <= err_T:
                fallback = "zero"
                outputs.extend([0.0] * (n - t))
            elif pp.delta == 0:
                fallback = "laplace"
                outputs.extend(_laplace_release(pp, T, counts[t:], src))
            else:
                fallback = "gaussian"
                outputs.extend(_gaussian_release(pp, T, counts[t:], src))
            indices.extend([j] * (n - t))
            break
        pp_j = PrivacyParams(eps_j, delta_j)
        config = derive_known_k_config(pp_j, K_j, T, beta_j)
        freeze = K_j < B_j
        mech = KnownKMechanism(config, None, src, freeze=freeze, frozen_out=out)
        start = t
        t = _drive(mech, counts, t, outputs)
        indices.extend([j] * (t - start))
        # boundary refresh: released value between instances
        out = counts[t - 1] + src.laplace(1.0 / eps_j)
    return RunResult(
        outputs=outputs,
        instances=j,
        fallback=fallback,
        instance_indices=indices,
    )


def run_zero(stream: Stream) -> RunResult:
    return RunResult(outputs=[0.0] * stream.length)


def run_laplace_baseline(
    pp: PrivacyParams, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Per-step Laplace release with the stream-length sensitivity bound."""
    return RunResult(outputs=_laplace_release(pp, T, stream.counts, src))


def run_gaussian_baseline(
    pp: PrivacyParams, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Per-step Gaussian release with the sqrt(T) L2-sensitivity bound."""
    if pp.delta <= 0:
        raise ParameterError("the Gaussian baseline requires delta > 0")
    return RunResult(outputs=_gaussian_release(pp, T, stream.counts, src))


class ContinualCountingMechanism:
    """Binary-tree noisy prefix sums over the distinct-count difference
    sequence; valid for event-level privacy in the likes model only.

    Per dyadic node the noise is Lap(ceil(log2 T)/eps), drawn lazily on first
    use and cached, so each step costs O(log T) work.
    """

    def __init__(self, eps: float, T: int, src: RandomSource):
        if not (math.isfinite(eps) and eps > 0):
            raise ParameterError(f"epsilon must be positive and finite, got {eps}")
        if T < 1:
            raise ParameterError(f"T must be >= 1, got {T}")
        self.eps = eps
        self.T = T
        self._src = src
        self._scale = max(math.ceil(math.log2(T)), 1) / eps
        self._cumsum = [0]  # cumulative diffs, index t
        self._node_noise: dict[tuple[int, int], float] = {}

    def _noise(self, level: int, index: int) -> float:
        key = (level, index)
        if key not in self._node_noise:
            self._node_noise[key] = self._src.laplace(self._scale)
        return self._node_noise[key]

    def add(self, diff: int) -> float:
        """Ingest one difference value; return the noisy prefix sum."""
        self._cumsum.append(self._cumsum[-1] + diff)
        t = len(self._cumsum) - 1
        # dyadic decomposition of [1, t]
        total = 0.0
        hi = t
        while hi > 0:
            level = (hi & -hi).bit_length() - 1  # largest power of 2 dividing hi
            size = 1 << level
            lo = hi - size
            total += (self._cumsum[hi] - self._cumsum[lo]) + self._noise(
                level, hi >> level
            )
            hi = lo
        return total


def run_continual_likes(
    eps: float, T: int, stream: Stream, src: RandomSource
) -> RunResult:
    """Continual counting baseline on the difference sequence (likes model)."""
    require_valid(stream)
    if stream.model != streammod.LIKES:
        raise ParameterError(
            "the continual-counting baseline requires a likes-model stream"
        )
    mech = ContinualCountingMechanism(eps, T, src)
    return RunResult(outputs=[mech.add(diff) for diff in diff_sequence(stream)])


def run_event_to_item(
    inner_run: Callable[[Stream], RunResult], stream: Stream
) -> RunResult:
    """Item-level adapter: prepend an all-zero step, drop the first output.

    ``inner_run`` must accept a stream of length T+1.
    """
    require_valid(stream)
    if stream.model != streammod.LIKES:
        raise ParameterError("the adapter requires a likes-model stream")
    padded = Stream.from_columns(
        stream.d,
        stream.T + 1,
        stream.model,
        np.concatenate(([0], stream.offsets)),
        stream.items,
        stream.deltas,
    )
    inner = inner_run(padded)
    return RunResult(
        outputs=inner.outputs[1:],
        yes_events=inner.yes_events,
        instances=inner.instances,
        abort_step=inner.abort_step,
        fallback=inner.fallback,
    )
