"""Error evaluation, multi-trial statistics, bound calculators, an empirical
privacy probe, and a throughput benchmark.

The probe is a statistical witness in the auditing sense: it estimates the
largest log-likelihood ratio observable between the output histograms of two
neighboring streams.  Passing it is necessary, not sufficient, for the claimed
privacy guarantee.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .mechanisms import PrivacyParams, RunResult
from .noise import RandomSource, child_seed
# distinct_counts is unused here; it is kept for perfbench/traced.py, which wraps it
from .stream import Stream, distinct_counts

RunFn = Callable[[RandomSource, Stream], RunResult]


@dataclass
class TrialReport:
    per_step_error: list[float]
    max_error: float


def release_errors(result: RunResult, stream: Stream) -> tuple[np.ndarray, np.ndarray]:
    """The releases o_t of the stream's steps as float64, and |o_t - q_t|."""
    n = min(len(result.outputs), stream.length)
    outputs = np.fromiter(result.outputs, np.float64, count=n)
    return outputs, np.abs(outputs - stream.counts[:n])


def evaluate(result: RunResult, stream: Stream) -> TrialReport:
    """Per-step absolute error of a run against the exact oracle."""
    _, errors = release_errors(result, stream)
    return TrialReport(
        per_step_error=errors.tolist(),
        max_error=float(errors.max(initial=0.0)),
    )


@dataclass
class TrialsSummary:
    n_trials: int
    max_errors: list[float]
    quantiles: dict[float, float]
    pass_fraction: float | None
    bound: float | None


def run_trials(
    run_fn: RunFn,
    stream: Stream,
    n_trials: int,
    base_seed: int,
    mode: str = "live",
    bound: float | None = None,
) -> TrialsSummary:
    """Repeat a run with derived child seeds; summarize max errors.

    The per-trial seed depends only on (base_seed, trial index), so results
    are identical regardless of execution order or parallelism.
    """
    if n_trials < 1:
        raise ParameterError(f"n_trials must be >= 1, got {n_trials}")
    max_errors = []
    for k in range(n_trials):
        src = RandomSource(child_seed(base_seed, k), mode)
        result = run_fn(src, stream)
        max_errors.append(float(release_errors(result, stream)[1].max(initial=0.0)))
    ordered = sorted(max_errors)
    quantiles = {
        q: ordered[min(int(q * n_trials), n_trials - 1)] for q in (0.5, 0.9, 0.99)
    }
    pass_fraction = None
    if bound is not None:
        pass_fraction = sum(1 for e in max_errors if e <= bound) / n_trials
    return TrialsSummary(
        n_trials=n_trials,
        max_errors=max_errors,
        quantiles=quantiles,
        pass_fraction=pass_fraction,
        bound=bound,
    )


@dataclass
class BoundSpec:
    branches: dict[str, float]
    minimum: float


def theoretical_bound(
    pp: PrivacyParams,
    beta: float,
    T: int,
    K: int,
    d: int,
    regime: str = "known",
) -> BoundSpec:
    """All branches of the additive-error minimum, and their minimum.

    ``regime="unknown"`` applies the extra ln K factor on the flippancy
    branch plus the additive ln^2 K term paid by the doubling wrapper.
    """
    if T < 1:
        raise ParameterError(f"T must be >= 1, got {T}")
    if K < 0:
        raise ParameterError(f"K must be >= 0, got {K}")
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if not 0 < beta < 1:
        raise ParameterError(f"beta must be in (0, 1), got {beta}")
    log_term = math.log(2 * T / beta)
    if K == 0:
        return BoundSpec(branches={"zero": 0.0}, minimum=0.0)
    lnK = max(math.log(K), 1.0)
    if pp.delta == 0:
        flip = math.sqrt(K * log_term / pp.eps)
        err_T = T * log_term / pp.eps
    else:
        # eps**2 underflows to 0 for eps < 1e-161, where the branch is past every float
        flip = (
            (K * math.log(1 / pp.delta) * log_term**2 / pp.eps**2) ** (1 / 3)
            if pp.eps**2
            else math.inf
        )
        err_T = math.sqrt(T * math.log(1 / pp.delta) * log_term) / pp.eps
    branches = {"d": float(d), "K": float(K), "flippancy": flip, "err_T": err_T}
    additive = 0.0
    if regime == "unknown":
        branches["flippancy"] = lnK * flip
        additive = lnK**2 * math.log(max(lnK, math.e) / beta) / pp.eps
    elif regime != "known":
        raise ValueError(f"unknown regime {regime!r}")
    return BoundSpec(branches=branches, minimum=min(branches.values()) + additive)


@dataclass
class ProbeResult:
    eps_hat: float | None
    status: str  # "ok" | "inconclusive"
    n_bins: int
    eligible_bins: int
    projection_step: int


def default_projection_step(x: Stream, y: Stream) -> int:
    """Index of the (first) step where the true counts of x and y differ the
    most."""
    n = min(x.length, y.length)
    if n == 0:
        return 0
    return int(np.abs(x.counts[:n] - y.counts[:n]).argmax())


def privacy_probe(
    run_fn: RunFn,
    x: Stream,
    y: Stream,
    bin_width: float = 1.0,
    n_samples: int = 10**6,
    base_seed: int = 0,
    delta: float = 0.0,
    floor: float = 1e-4,
) -> ProbeResult:
    """Histogram-based lower-bound witness for the privacy loss.

    The outputs at ``default_projection_step`` under x and y are binned;
    counts are Laplace-smoothed by +1 and bins whose smaller smoothed mass is
    below ``floor`` are skipped, preventing ratio blowups.  The reported value is the largest
    absolute log-ratio after subtracting the delta allowance.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ParameterError(f"bin width must be positive and finite, got {bin_width}")
    if n_samples < 1:
        raise ParameterError(f"n_samples must be >= 1, got {n_samples}")
    step = default_projection_step(x, y)

    def bin_of(result: RunResult) -> int:
        v = result.outputs[step] / bin_width
        if not math.isfinite(v):
            raise ParameterError(
                f"release {result.outputs[step]} at step {step} over bin width"
                f" {bin_width} is not finite"
            )
        return math.floor(v)

    hist_x: Counter = Counter()
    hist_y: Counter = Counter()
    src_x = RandomSource(child_seed(base_seed, 0))
    src_y = RandomSource(child_seed(base_seed, 1))
    for _ in range(n_samples):
        hist_x[bin_of(run_fn(src_x, x))] += 1
    for _ in range(n_samples):
        hist_y[bin_of(run_fn(src_y, y))] += 1
    bins = set(hist_x) | set(hist_y)
    denom = n_samples + len(bins)
    eps_hat = None
    eligible = 0
    for b in bins:
        px = (hist_x[b] + 1) / denom
        py = (hist_y[b] + 1) / denom
        if min(px, py) < floor:
            continue
        eligible += 1
        candidates = []
        if px - delta > 0:
            candidates.append(math.log((px - delta) / py))
        if py - delta > 0:
            candidates.append(math.log((py - delta) / px))
        local = max([c for c in candidates if c > 0], default=0.0)
        eps_hat = local if eps_hat is None else max(eps_hat, local)
    return ProbeResult(
        eps_hat=eps_hat,
        status="ok" if eligible else "inconclusive",
        n_bins=len(bins),
        eligible_bins=eligible,
        projection_step=step,
    )


@dataclass
class BenchReport:
    updates: int
    steps: int
    seconds: float
    updates_per_second: float
    laplace_draws: int
    laplace_calls: int


def throughput_bench(run_fn: RunFn, stream: Stream, seed: int = 0, mode: str = "live") -> BenchReport:
    """Wall-clock one run and report the update rate and noise-draw counts."""
    src = RandomSource(seed, mode)
    n_updates = int(stream.offsets[-1])
    start = time.perf_counter()
    run_fn(src, stream)
    elapsed = time.perf_counter() - start
    return BenchReport(
        updates=n_updates,
        steps=stream.length,
        seconds=elapsed,
        updates_per_second=n_updates / elapsed if elapsed > 0 else float("inf"),
        laplace_draws=src.laplace_draws,
        laplace_calls=src.laplace_calls,
    )
