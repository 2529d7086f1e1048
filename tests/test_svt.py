"""AboveThreshold state machine: exactness, abort semantics, accuracy."""

import math

import pytest

from dpdistinct import ParameterError, RandomSource, child_seed
from dpdistinct.svt import AboveThreshold, SvtAnswer


class TestZeroNoise:
    def test_below_threshold_is_no(self):
        svt = AboveThreshold(1.0, 10.0, RandomSource(0, "zero"))
        assert svt.step(9.0) is SvtAnswer.NO
        assert svt.step(10.0) is SvtAnswer.NO  # strict comparison

    def test_above_threshold_fires_once(self):
        svt = AboveThreshold(1.0, 10.0, RandomSource(0, "zero"))
        assert svt.step(10.5) is SvtAnswer.YES
        assert svt.aborted
        assert svt.step(100.0) is SvtAnswer.ABORTED

    def test_aborted_steps_draw_no_noise(self):
        src = RandomSource(0, "zero")
        svt = AboveThreshold(1.0, 0.0, src)
        svt.step(1.0)  # YES
        calls = src.laplace_calls
        svt.step(1.0)
        svt.step(1.0)
        assert src.laplace_calls == calls


class TestDrawAccounting:
    def test_one_tau_per_instance(self):
        src = RandomSource(0)
        AboveThreshold(1.0, 0.0, src)
        assert src.laplace_calls == 1

    def test_one_mu_per_query(self):
        src = RandomSource(0)
        svt = AboveThreshold(0.1, 1e9, src)
        for _ in range(7):
            svt.step(0.0)
        assert src.laplace_calls == 8  # tau + 7 mus

    def test_determinism(self):
        answers = []
        for _ in range(2):
            svt = AboveThreshold(1.0, 5.0, RandomSource(77))
            answers.append([svt.step(q) for q in (1.0, 4.0, 5.5, 9.0)])
        assert answers[0] == answers[1]

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ParameterError):
            AboveThreshold(0.0, 1.0, RandomSource(0))

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ParameterError):
            AboveThreshold(eps, 1.0, RandomSource(0))


class TestAccuracy:
    def test_alpha_band_holds_with_frequency(self):
        """Answers are alpha-accurate with probability >= 1 - beta.

        alpha = 8 (ln k + ln(2/beta)) / eps for k queries.  Queries are laid
        out across the hard band around the threshold.
        """
        eps, beta, k = 1.0, 0.1, 100
        thresh = 0.0
        alpha = 8 * (math.log(k) + math.log(2 / beta)) / eps
        queries = [(-1.5 + 3.0 * i / (k - 1)) * alpha for i in range(k)]
        trials, violations = 500, 0
        for trial in range(trials):
            svt = AboveThreshold(eps, thresh, RandomSource(child_seed(2024, trial)))
            for q in queries:
                ans = svt.step(q)
                if ans is SvtAnswer.YES and q < thresh - alpha:
                    violations += 1
                    break
                if ans is SvtAnswer.NO and q > thresh + alpha:
                    violations += 1
                    break
                if ans is SvtAnswer.YES or ans is SvtAnswer.ABORTED:
                    break
        assert violations / trials <= beta + 0.05
