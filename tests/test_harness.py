"""Evaluation, trial statistics, bound branches, privacy probe, benchmark."""

import math

import pytest

from dpdistinct import ParameterError, RandomSource, Stream, child_seed
from dpdistinct.generators import random_stream
from dpdistinct.harness import (
    default_projection_step,
    evaluate,
    privacy_probe,
    release_errors,
    run_trials,
    theoretical_bound,
    throughput_bench,
)
from dpdistinct.mechanisms import (
    PrivacyParams,
    RunResult,
    run_continual_likes,
    run_gaussian_baseline,
    run_known_k,
    run_laplace_baseline,
    run_unknown_k,
    run_unknown_k_all_bounds,
    run_zero,
)
from dpdistinct.stream import distinct_counts


class TestEvaluate:
    def test_exact_run_has_zero_error(self):
        s = random_stream(4, 10, target_K=8, seed=0)
        result = RunResult(outputs=[float(q) for q in distinct_counts(s)])
        assert evaluate(result, s) == 0.0
        assert release_errors(result, s)[1].tolist() == [0.0] * 10

    def test_known_offsets(self):
        s = Stream(d=2, T=2, model="likes", batches=[[(1, 1)], [(2, 1)]])
        result = RunResult(outputs=[0.0, 3.5])
        assert release_errors(result, s)[1].tolist() == [1.0, 1.5]
        assert evaluate(result, s) == 1.5


PURE, APPROX = PrivacyParams(1.0), PrivacyParams(0.5, 0.01)
EVERY_MECHANISM = {
    "known-k": lambda src, s: run_known_k(PURE, 0.1, s.T, 64, s, src),
    "unknown-k": lambda src, s: run_unknown_k(PURE, 0.1, s.T, s, src),
    "unknown-k-all": lambda src, s: run_unknown_k_all_bounds(PURE, 0.1, s.T, s, src),
    "zero": lambda src, s: run_zero(s),
    "laplace-T": lambda src, s: run_laplace_baseline(PURE, s.T, s, src),
    "gaussian-T": lambda src, s: run_gaussian_baseline(APPROX, s.T, s, src),
    "continual-likes": lambda src, s: run_continual_likes(1.0, s.T, s, src),
}


@pytest.mark.parametrize("name", EVERY_MECHANISM)
def test_evaluate_and_run_trials_agree(name):
    run_fn = EVERY_MECHANISM[name]
    s = random_stream(16, 120, model="likes", target_K=400, seed=4)
    summary = run_trials(run_fn, s, 4, base_seed=9)
    for k, max_error in enumerate(summary.max_errors):
        result = run_fn(RandomSource(child_seed(9, k)), s)
        assert evaluate(result, s) == max_error
        assert max_error == max(release_errors(result, s)[1].tolist())


class TestRunTrials:
    def setup_method(self):
        self.stream = random_stream(8, 32, target_K=24, seed=1)
        self.run_fn = lambda src, s: run_laplace_baseline(
            PrivacyParams(1.0), 32, s, src
        )

    def test_reproducible(self):
        a = run_trials(self.run_fn, self.stream, 10, base_seed=5)
        b = run_trials(self.run_fn, self.stream, 10, base_seed=5)
        assert a.max_errors == b.max_errors

    def test_zero_mode_exact(self):
        summary = run_trials(self.run_fn, self.stream, 3, base_seed=5, mode="zero")
        assert summary.max_errors == [0.0, 0.0, 0.0]

    def test_pass_fraction(self):
        summary = run_trials(self.run_fn, self.stream, 20, base_seed=5, bound=1e9)
        assert summary.pass_fraction == 1.0
        summary = run_trials(self.run_fn, self.stream, 20, base_seed=5, bound=0.0)
        assert summary.pass_fraction == 0.0

    def test_quantiles_ordered(self):
        summary = run_trials(self.run_fn, self.stream, 50, base_seed=6)
        assert summary.quantiles[0.5] <= summary.quantiles[0.9] <= summary.quantiles[0.99]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_trials(self.run_fn, self.stream, 0, base_seed=5)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
    def test_rejects_a_bound_that_is_not_finite(self, bound):
        # every max error fails a NaN bound, and an infinite one passes them all
        with pytest.raises(ParameterError, match="bound must be finite"):
            run_trials(self.run_fn, self.stream, 2, base_seed=5, bound=bound)


class TestTheoreticalBound:
    def test_pure_dp_branches(self):
        beta = 32 * math.exp(-4)  # ln(2T/beta) = 4 for T = 16
        spec = theoretical_bound(PrivacyParams(1.0), beta, T=16, K=72, d=100)
        assert spec.branches["d"] == 100.0
        assert spec.branches["K"] == 72.0
        assert spec.branches["flippancy"] == pytest.approx(math.sqrt(288))
        assert spec.branches["err_T"] == pytest.approx(64.0)
        assert spec.minimum == pytest.approx(math.sqrt(288))

    def test_zero_flippancy(self):
        spec = theoretical_bound(PrivacyParams(1.0), 0.1, T=16, K=0, d=100)
        assert spec.minimum == 0.0

    def test_approx_dp_branches(self):
        pp = PrivacyParams(0.5, 1e-6)
        spec = theoretical_bound(pp, 0.1, T=1000, K=500, d=10**6)
        L = math.log(2 * 1000 / 0.1)
        assert spec.branches["flippancy"] == pytest.approx(
            (500 * math.log(1e6) * L**2 / 0.25) ** (1 / 3)
        )
        assert spec.branches["err_T"] == pytest.approx(
            math.sqrt(1000 * math.log(1e6) * L) / 0.5
        )

    def test_unknown_regime_adds_overhead(self):
        known = theoretical_bound(PrivacyParams(1.0), 0.1, T=4096, K=512, d=10**6)
        unknown = theoretical_bound(
            PrivacyParams(1.0), 0.1, T=4096, K=512, d=10**6, regime="unknown"
        )
        assert unknown.minimum > known.minimum
        lnK = math.log(512)
        assert unknown.branches["flippancy"] == pytest.approx(
            lnK * known.branches["flippancy"]
        )

    def test_bad_regime(self):
        with pytest.raises(ParameterError, match="unknown regime 'nope'"):
            theoretical_bound(PrivacyParams(1.0), 0.1, 16, 8, 4, regime="nope")


class TestProbe:
    def test_projection_step_picks_largest_gap(self):
        x = Stream(d=3, T=3, model="likes", batches=[[(1, 1)], [(2, 1)], [(3, 1)]])
        y = Stream(d=3, T=3, model="likes", batches=[[(1, 1)], [], []])
        assert default_projection_step(x, y) == 2

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 1e308])
    def test_non_finite_bin_is_parameter_error(self, value):
        # a noise scale near the float range can release inf (or inf - inf);
        # 1e308 over a bin width of 1e-10 overflows the bin index
        s = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        run_fn = lambda src, st: RunResult(outputs=[value])
        with pytest.raises(ParameterError, match="is not finite"):
            privacy_probe(run_fn, s, s, bin_width=1e-10, n_samples=3)

    def test_self_probe_is_tight_for_concentrated_release(self):
        # a sharp release puts every eligible bin at high mass, so the
        # smoothed log-ratio estimate on identical inputs is near zero
        s = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        run_fn = lambda src, st: run_laplace_baseline(PrivacyParams(20.0), 1, st, src)
        result = privacy_probe(run_fn, s, s, n_samples=40000, base_seed=3)
        assert result.status == "ok"
        assert result.eps_hat is not None and result.eps_hat <= 0.05

    def test_self_probe_noise_floor_for_diffuse_release(self):
        # a diffuse release has bins near the mass floor whose counts are
        # small; the max-over-bins estimate is then noise-limited, well
        # below the true-ratio scale but not near zero
        s = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        run_fn = lambda src, st: run_laplace_baseline(PrivacyParams(1.0), 1, st, src)
        result = privacy_probe(run_fn, s, s, n_samples=40000, base_seed=3)
        assert result.status == "ok"
        assert result.eps_hat is not None and result.eps_hat <= 1.0

    def test_neighbor_probe_detects_leakage_within_budget(self):
        eps = 2.0
        x = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        y = Stream(d=2, T=1, model="likes", batches=[[]])
        run_fn = lambda src, st: run_laplace_baseline(PrivacyParams(eps), 1, st, src)
        result = privacy_probe(run_fn, x, y, n_samples=60000, base_seed=4)
        assert result.status == "ok"
        assert 0.2 <= result.eps_hat <= eps + 0.1

    def test_floor_can_force_inconclusive(self):
        s = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        run_fn = lambda src, st: run_laplace_baseline(PrivacyParams(1.0), 1, st, src)
        result = privacy_probe(run_fn, s, s, n_samples=200, base_seed=5, floor=1.0)
        assert result.status == "inconclusive"
        assert result.eps_hat is None

    @pytest.mark.parametrize("delta", [-1.0, 1.0, 2.0, math.nan, math.inf])
    def test_delta_outside_the_unit_interval_is_parameter_error(self, delta):
        # a delta of 1 or more, or NaN, leaves a witness that cannot fail
        s = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        with pytest.raises(ParameterError, match=r"delta must be in \[0, 1\)"):
            privacy_probe(lambda src, st: run_zero(st), s, s, n_samples=3, delta=delta)

    def test_delta_allowance_reduces_estimate(self):
        x = Stream(d=2, T=1, model="likes", batches=[[(1, 1)]])
        y = Stream(d=2, T=1, model="likes", batches=[[]])
        run_fn = lambda src, st: run_laplace_baseline(PrivacyParams(2.0), 1, st, src)
        plain = privacy_probe(run_fn, x, y, n_samples=30000, base_seed=6)
        slack = privacy_probe(run_fn, x, y, n_samples=30000, base_seed=6, delta=0.01)
        assert slack.eps_hat <= plain.eps_hat


class TestBench:
    def test_counts_and_rate(self):
        s = random_stream(16, 200, target_K=100, seed=2)
        run_fn = lambda src, st: run_known_k(PrivacyParams(1.0), 0.1, 200, 128, st, src)
        report = throughput_bench(run_fn, s, seed=0)
        assert report.steps == 200
        assert report.updates == sum(len(b) for b in s.batches)
        assert report.seconds > 0
        assert report.updates_per_second > 0
        assert report.laplace_calls >= 200
        assert (report.gaussian_calls, report.gaussian_draws) == (0, 0)

    @pytest.mark.parametrize("mode, draws", [("live", 5), ("zero", 0)])
    def test_gaussian_counts(self, mode, draws):
        s = random_stream(4, 5, target_K=4, seed=3)
        run_fn = lambda src, st: run_gaussian_baseline(PrivacyParams(0.5, 0.01), 5, st, src)
        report = throughput_bench(run_fn, s, seed=0, mode=mode)
        assert (report.gaussian_calls, report.gaussian_draws) == (5, draws)
        assert (report.laplace_calls, report.laplace_draws) == (0, 0)
