"""Mechanism configuration, exactness under zero noise, abort semantics,
wrappers, baselines, and the item-level adapter."""

import math
import tracemalloc
from unittest import mock

import pytest

from dpdistinct import CounterState, ParameterError, RandomSource, Stream, child_seed, mechanisms
from dpdistinct.generators import multiupdate_stream, random_stream
from dpdistinct.mechanisms import (
    KnownKConfig,
    KnownKMechanism,
    MechanismAborted,
    PrivacyParams,
    derive_known_k_config,
    run_continual_likes,
    run_event_to_item,
    run_gaussian_baseline,
    run_known_k,
    run_laplace_baseline,
    run_unknown_k,
    run_unknown_k_all_bounds,
    run_zero,
)
from dpdistinct.stream import distinct_counts


class TestPrivacyParams:
    def test_eps_must_be_positive(self):
        with pytest.raises(ParameterError):
            PrivacyParams(0.0)

    def test_delta_range(self):
        with pytest.raises(ParameterError):
            PrivacyParams(0.5, 1.0)

    def test_approx_dp_needs_small_eps(self):
        with pytest.raises(ParameterError):
            PrivacyParams(2.0, 0.01)
        PrivacyParams(0.99, 0.01)  # fine


class TestConfig:
    def test_hand_computed_pure_dp(self):
        # chosen so ln(2T/beta) = 4 exactly
        beta = 32 * math.exp(-4)
        cfg = derive_known_k_config(PrivacyParams(1.0), K=72, T=16, beta=beta)
        assert cfg.S_K == 2
        assert cfg.eps1 == pytest.approx(0.25)
        assert cfg.thresh == pytest.approx(256.0)

    def test_minimal_budget(self):
        cfg = derive_known_k_config(PrivacyParams(1.0), K=1, T=100, beta=0.1)
        assert cfg.S_K == 1
        assert cfg.eps1 == pytest.approx(0.5)

    def test_approx_dp_formula(self):
        pp = PrivacyParams(0.5, 1e-6)
        K, T, beta = 10000, 10000, 0.05
        cfg = derive_known_k_config(pp, K, T, beta)
        L = math.log(2 * T / beta)
        raw = (K * pp.eps / (36 * math.sqrt(math.log(1 / pp.delta)) * L)) ** (2 / 3)
        assert cfg.S_K == math.ceil(raw) + 1
        assert cfg.eps1 == pytest.approx(
            pp.eps / (4 * math.sqrt(2 * cfg.S_K * math.log(1 / pp.delta)))
        )
        assert cfg.thresh == pytest.approx(16 * L / cfg.eps1)
        # with this stopping parameter, an in-budget stream cannot exhaust
        # the refresh allowance under zero noise
        assert cfg.S_K * (9 / 8) * (cfg.thresh / 2) > K

    def test_s_k_monotone_in_k(self):
        pp = PrivacyParams(1.0)
        values = [
            derive_known_k_config(pp, K, 1000, 0.1).S_K for K in (1, 10, 100, 10**4)
        ]
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_parameter_validation(self):
        pp = PrivacyParams(1.0)
        with pytest.raises(ParameterError):
            derive_known_k_config(pp, 0, 10, 0.1)
        with pytest.raises(ParameterError):
            derive_known_k_config(pp, 1, 0, 0.1)
        with pytest.raises(ParameterError):
            derive_known_k_config(pp, 1, 10, 1.5)


def manual_config(S_K, thresh, eps1=1.0):
    return KnownKConfig(
        eps=1.0, delta=0.0, K=1, T=100, beta=0.1, S_K=S_K, eps1=eps1, thresh=thresh
    )


class TestKnownKMechanism:
    def test_zero_noise_quiet_stream_keeps_initial_output(self):
        s = multiupdate_stream(8, 2, (1, 3), 6)
        result = run_known_k(
            PrivacyParams(1.0), 0.05, 6, 16, s, RandomSource(0, "zero")
        )
        assert result.outputs == [0.0] * 6
        assert result.abort_step is None
        assert result.yes_events == 0

    def test_zero_noise_refresh_sequence(self):
        cfg = manual_config(S_K=3, thresh=5.0)
        counters = CounterState(10)
        mech = KnownKMechanism(cfg, counters, RandomSource(0, "zero"))
        # q=6 exceeds thresh: refresh to 6
        assert mech.step([(i, 1) for i in range(1, 7)]) == 6.0
        assert mech.count == 2 and not mech.aborted
        # gap 0: quiet
        assert mech.step([]) == 6.0
        # back to q=0, gap 6: refresh to 0, budget exhausted
        assert mech.step([(i, -1) for i in range(1, 7)]) == 0.0
        assert mech.aborted
        with pytest.raises(MechanismAborted):
            mech.step([])

    def test_single_refresh_budget_aborts_without_refresh(self):
        cfg = manual_config(S_K=1, thresh=5.0)
        mech = KnownKMechanism(cfg, CounterState(10), RandomSource(0, "zero"))
        out = mech.step([(i, 1) for i in range(1, 7)])
        assert out == 0.0  # initial estimate kept
        assert mech.aborted
        assert mech.yes_events == 1

    def test_freeze_keeps_external_estimate(self):
        cfg = manual_config(S_K=2, thresh=5.0)
        mech = KnownKMechanism(cfg, CounterState(30), RandomSource(0, "zero"), frozen_out=7.0)
        assert mech.out == 7.0
        out = mech.step([(i, 1) for i in range(1, 21)])  # gap 13 > 5: fires
        assert out == 7.0  # released value never moves
        assert mech.yes_events == 1
        assert mech.aborted  # refresh budget spent

    def test_run_repeats_last_output_after_abort(self):
        s = Stream(
            d=10,
            T=4,
            model="likes",
            batches=[
                [(i, 1) for i in range(1, 7)],
                [],
                [(i, -1) for i in range(1, 7)],
                [(7, 1)],
            ],
        )
        # a large epsilon with K=1 yields S_K=1 and a sub-6 threshold, so the
        # step-1 jump exhausts the budget immediately
        result = run_known_k(PrivacyParams(40.0), 0.5, 4, 1, s, RandomSource(0, "zero"))
        cfg = derive_known_k_config(PrivacyParams(40.0), 1, 4, 0.5)
        assert cfg.S_K == 1 and cfg.thresh < 6
        assert result.abort_step == 1
        assert result.outputs == [0.0, 0.0, 0.0, 0.0]

    def test_determinism(self):
        s = random_stream(16, 64, target_K=40, seed=3)
        runs = [
            run_known_k(PrivacyParams(1.0), 0.1, 64, 64, s, RandomSource(11)).outputs
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_draw_count_bound(self):
        s = random_stream(16, 64, target_K=40, seed=3)
        src = RandomSource(11)
        run_known_k(PrivacyParams(1.0), 0.1, 64, 64, s, src)
        cfg = derive_known_k_config(PrivacyParams(1.0), 64, 64, 0.1)
        assert src.laplace_calls <= 64 + 2 * cfg.S_K + 1

    def test_state_is_counters_plus_scalars(self):
        cfg = manual_config(S_K=2, thresh=5.0)
        mech = KnownKMechanism(cfg, CounterState(50), RandomSource(0))
        mech.step([(1, 1)])
        for name, value in vars(mech).items():
            if name in ("counters", "config", "_src", "_query"):
                continue
            assert isinstance(value, (int, float, bool)), name

    def test_batch_steps_match_count_driver(self):
        # step() on the batches and run_known_k on the stored counts draw the
        # same noise in the same order; K=800 refreshes 4 times, K=4 aborts
        s = multiupdate_stream(200, 200, (2, 5, 9, 12), 16)
        pp = PrivacyParams(50.0)
        for K in (800, 4):
            cfg = derive_known_k_config(pp, K, 16, 0.1)
            mech = KnownKMechanism(cfg, CounterState(s.d), RandomSource(21))
            outputs = [mech.out if mech.aborted else mech.step(b) for b in s.batches]
            result = run_known_k(pp, 0.1, 16, K, s, RandomSource(21))
            assert result.yes_events == mech.yes_events > 0
            assert outputs == result.outputs

    def test_refresh_starts_a_fresh_query(self):
        # tau and nu, then mu_1 fires on a gap past any noise: the refresh's
        # instance draws its tau next
        cfg = manual_config(S_K=3, thresh=5.0)
        mech = KnownKMechanism(cfg, None, RandomSource(8))
        first = mech._query
        mech.step_count(10**6)
        ref = RandomSource(8)
        for b in (2.0, 1.0, 4.0):
            ref.laplace(b)
        assert first.aborted and mech.yes_events == 1
        assert (mech._query is not first, mech._query.aborted) == (True, False)
        assert mech._query.tau == ref.laplace(2.0)

    def test_constant_query_never_fires_under_zero_noise(self):
        cfg = derive_known_k_config(PrivacyParams(1.0), 32, 32, 0.1)
        mech = KnownKMechanism(cfg, None, RandomSource(0, "zero"))
        outputs = [mech.step_count(0) for _ in range(32)]
        assert mech.yes_events == 0
        assert outputs == [0.0] * 32


class TestUnknownK:
    def test_empty_stream_single_instance(self):
        s = Stream(d=4, T=8, model="likes", batches=[[] for _ in range(8)])
        result = run_unknown_k(PrivacyParams(1.0), 0.1, 8, s, RandomSource(0, "zero"))
        assert result.outputs == [0.0] * 8
        assert result.instances == 1

    def test_engineered_abort_starts_second_instance(self):
        batches = [[(i, 1) for i in range(1, 7)]] + [[] for _ in range(7)]
        s = Stream(d=8, T=8, model="likes", batches=batches)
        eps, beta, T = 50.0, 0.4, 8
        # first doubling instance has S_K = 1 and a sub-6 threshold, so the
        # six-item insertion at step 1 fires and exhausts it immediately
        scale = 6 / math.pi**2
        cfg1 = derive_known_k_config(
            PrivacyParams(eps * scale), 2, T, beta * scale
        )
        assert cfg1.S_K == 1 and cfg1.thresh < 6
        result = run_unknown_k(PrivacyParams(eps), beta, T, s, RandomSource(0, "zero"))
        assert result.instances == 2
        assert result.outputs == [0.0] * 8  # zero noise: estimates stay 0

    def test_counters_carry_over(self):
        # after the step-1 abort above, instance 2 sees the live count 6 and
        # stays quiet because its threshold is far larger
        batches = [[(i, 1) for i in range(1, 7)]] + [[] for _ in range(7)]
        s = Stream(d=8, T=8, model="likes", batches=batches)
        scale2 = 6 / (math.pi**2 * 4)
        cfg2 = derive_known_k_config(PrivacyParams(50.0 * scale2), 4, 8, 0.4 * scale2)
        assert cfg2.thresh > 6
        result = run_unknown_k(PrivacyParams(50.0), 0.4, 8, s, RandomSource(0, "zero"))
        assert result.instances == 2

    def test_determinism(self):
        s = random_stream(16, 128, target_K=100, seed=9)
        runs = [
            run_unknown_k(PrivacyParams(1.0), 0.1, 128, s, RandomSource(33)).outputs
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize(
        "T, beta, message",
        [(4, 5.0, r"beta must be in \(0, 1\), got 5.0"), (0, 0.1, "T must be >= 1, got 0")],
    )
    def test_checks_T_and_beta_on_an_empty_stream(self, T, beta, message):
        # no step starts an instance, so only the runner's own check sees them
        s = Stream(d=4, T=4, model="likes", batches=[])
        with pytest.raises(ParameterError, match=message):
            run_unknown_k(PrivacyParams(1.0), beta, T, s, RandomSource(0))


class TestUnknownKAllBounds:
    @pytest.mark.parametrize("beta", [0.9, math.pi**2 / 12])
    @pytest.mark.parametrize("T", [1, 2])
    def test_beta_past_its_first_instance_limit(self, T, beta):
        # beta_1 = 12 beta / pi^2 reaches 1 at beta = pi^2/12 ~ 0.822; it is
        # rejected also where j = 1 falls back to zero (eps 0.1) or Laplace (eps 50)
        batches = [[(1, 1)]] + [[] for _ in range(T - 1)]
        s = Stream(d=1, T=T, model="likes", batches=batches)
        for pp in (PrivacyParams(0.1), PrivacyParams(1.0), PrivacyParams(50.0),
                   PrivacyParams(0.5, 0.01)):
            with pytest.raises(ParameterError, match=r"pi\^2/12 ~ 0.822: .* beta_1 = "):
                run_unknown_k_all_bounds(pp, beta, T, s, RandomSource(0))
        run_unknown_k_all_bounds(PrivacyParams(1.0), 0.82, T, s, RandomSource(0))

    @pytest.mark.parametrize("eps", [0.9, 0.95, math.nextafter(1.0, 0.0)])
    def test_epsilon_limit_is_checked_where_instance_one_starts(self, eps):
        # with delta > 0, eps_1 = 12 eps / pi^2 >= 1 from eps = pi^2/12 on; the
        # check follows the fallback test.  On the one-step stream
        # err_T = sqrt(ln(100) ln 2)/eps < 2 = K_1, so instance 1 falls back and
        # the run goes on; on the 48-step stream instance 1 starts and is refused
        short = multiupdate_stream(10, 10, [1], 1)
        result = run_unknown_k_all_bounds(
            PrivacyParams(eps, 0.01), 0.5, short.T, short, RandomSource(5)
        )
        assert (result.fallback, result.instances, len(result.outputs)) == ("gaussian", 1, 1)
        multi = multiupdate_stream(200, 200, [2, 5, 9, 14, 20, 27, 35, 44], 48)
        message = r"delta > 0 requires epsilon < pi\^2/12 ~ 0.822: .* eps_1 = 12\*eps/pi\^2 = 1"
        for e in (math.pi**2 / 12, eps):
            with pytest.raises(ParameterError, match=message):
                run_unknown_k_all_bounds(
                    PrivacyParams(e, 0.01), 0.5, multi.T, multi, RandomSource(5)
                )

    def test_dimension_one_falls_back_to_zero(self):
        batches = [[(1, 1)], [(1, -1)], [(1, 1)], []]
        s = Stream(d=1, T=4, model="likes", batches=batches)
        result = run_unknown_k_all_bounds(
            PrivacyParams(1.0), 0.1, 100, s, RandomSource(0)
        )
        assert result.fallback == "zero"
        assert result.outputs == [0.0] * 4

    def test_short_stream_falls_back_to_laplace(self):
        s = Stream(d=10, T=1, model="likes", batches=[[(1, 1), (2, 1)]])
        result = run_unknown_k_all_bounds(
            PrivacyParams(4.0), 0.5, 1, s, RandomSource(0, "zero")
        )
        assert result.fallback == "laplace"
        assert result.outputs == [2.0]  # zero noise: exact count

    def test_short_stream_falls_back_to_gaussian(self):
        s = Stream(d=10, T=1, model="likes", batches=[[(1, 1), (2, 1)]])
        result = run_unknown_k_all_bounds(
            PrivacyParams(0.95, 0.01), 0.5, 1, s, RandomSource(0, "zero")
        )
        assert result.fallback == "gaussian"
        assert result.outputs == [2.0]

    def test_frozen_first_instance_emits_constant(self):
        # small epsilon: threshold is enormous, and K_1 < B_1 freezes the
        # released value at the data-independent initial 0
        s = random_stream(100, 20, target_K=30, seed=4)
        result = run_unknown_k_all_bounds(
            PrivacyParams(0.01), 0.1, 20, s, RandomSource(0, "zero")
        )
        assert result.fallback is None
        assert result.instances == 1
        assert result.outputs == [0.0] * 20

    def test_instance_then_fallback_with_boundary_refresh(self):
        batches = [[(i, 1) for i in range(1, 7)]] + [[] for _ in range(7)]
        s = Stream(d=8, T=8, model="likes", batches=batches)
        result = run_unknown_k_all_bounds(
            PrivacyParams(50.0), 0.4, 8, s, RandomSource(0, "zero")
        )
        # instance 1 fires on the jump and aborts; the comparison at j=2
        # prefers the per-step baseline
        assert result.fallback == "laplace"
        assert result.instances == 2
        assert result.outputs == [6.0] * 8  # refresh, then exact baseline

    def test_yes_events_sum_over_instances(self):
        instances = []

        class Recorded(KnownKMechanism):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                instances.append(self)

        batches = [[(i, 1) for i in range(1, 7)]] + [[] for _ in range(7)]
        s = Stream(d=8, T=8, model="likes", batches=batches)
        with mock.patch.object(mechanisms, "KnownKMechanism", Recorded):
            result = run_unknown_k_all_bounds(
                PrivacyParams(50.0), 0.4, 8, s, RandomSource(0, "zero")
            )
        assert [m.yes_events for m in instances] == [1]
        assert result.yes_events == 1
        instances.clear()
        # each swing of 400 items ends a frozen instance
        s = multiupdate_stream(400, 400, (10, 40, 70, 100, 130), 150)
        with mock.patch.object(mechanisms, "KnownKMechanism", Recorded):
            result = run_unknown_k_all_bounds(
                PrivacyParams(2.0), 0.4, s.T, s, RandomSource(5)
            )
        assert result.instances == len(instances) > 1
        assert result.yes_events == sum(m.yes_events for m in instances) > 1

    def test_determinism(self):
        s = random_stream(16, 128, target_K=100, seed=10)
        runs = [
            run_unknown_k_all_bounds(
                PrivacyParams(1.0), 0.1, 128, s, RandomSource(17)
            ).outputs
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestBaselines:
    def test_zero_mechanism(self):
        s = random_stream(4, 10, target_K=6, seed=1)
        assert run_zero(s).outputs == [0.0] * 10

    def test_laplace_zero_noise_exact(self):
        s = random_stream(8, 20, target_K=30, seed=2)
        result = run_laplace_baseline(PrivacyParams(1.0), 20, s, RandomSource(0, "zero"))
        assert result.outputs == [float(q) for q in distinct_counts(s)]

    def test_laplace_one_draw_per_step(self):
        s = random_stream(8, 20, target_K=30, seed=2)
        src = RandomSource(0)
        run_laplace_baseline(PrivacyParams(1.0), 20, s, src)
        assert src.laplace_calls == 20

    def test_gaussian_requires_delta(self):
        s = random_stream(4, 10, target_K=6, seed=1)
        with pytest.raises(ParameterError):
            run_gaussian_baseline(PrivacyParams(1.0), 10, s, RandomSource(0))

    def test_gaussian_zero_noise_exact(self):
        s = random_stream(8, 20, target_K=30, seed=2)
        result = run_gaussian_baseline(
            PrivacyParams(0.5, 0.01), 20, s, RandomSource(0, "zero")
        )
        assert result.outputs == [float(q) for q in distinct_counts(s)]


RUNNERS_WITH_T = {
    "known-k": lambda T, s, src: run_known_k(PrivacyParams(1.0), 0.1, T, 64, s, src),
    "unknown-k": lambda T, s, src: run_unknown_k(PrivacyParams(1.0), 0.1, T, s, src),
    "unknown-k-all": lambda T, s, src: run_unknown_k_all_bounds(
        PrivacyParams(1.0), 0.1, T, s, src
    ),
    "laplace-T": lambda T, s, src: run_laplace_baseline(PrivacyParams(1.0), T, s, src),
    "gaussian-T": lambda T, s, src: run_gaussian_baseline(
        PrivacyParams(0.5, 0.01), T, s, src
    ),
    "continual-likes": lambda T, s, src: run_continual_likes(1.0, T, s, src),
}


@pytest.mark.parametrize("name", RUNNERS_WITH_T)
def test_T_must_cover_the_stream(name):
    # a T shorter than the stream would shrink the noise scales calibrated to T
    run = RUNNERS_WITH_T[name]
    s = random_stream(16, 200, model="likes", target_K=40, seed=5)
    for T in (1, 199):
        message = rf"T={T} is shorter than the stream \(200 steps\)"
        with pytest.raises(ParameterError, match=message):
            run(T, s, RandomSource(0))
    assert len(run(200, s, RandomSource(0)).outputs) == 200


class TestContinualCounting:
    def test_zero_noise_exact(self):
        for seed in range(10):
            s = random_stream(8, 32, model="likes", target_K=20, seed=seed)
            result = run_continual_likes(1.0, 32, s, RandomSource(0, "zero"))
            assert result.outputs == [float(q) for q in distinct_counts(s)]

    def test_rejects_general_model(self):
        s = random_stream(4, 8, model="general", target_K=4, seed=0)
        with pytest.raises(ParameterError):
            run_continual_likes(1.0, 8, s, RandomSource(0))

    def test_rejects_invalid_likes_stream(self):
        from dpdistinct import ModelViolationError

        s = Stream(d=1, T=2, model="likes", batches=[[(1, 1)], [(1, 1)]])
        with pytest.raises(ModelViolationError):
            run_continual_likes(1.0, 2, s, RandomSource(0))

    def test_node_noise_reused(self):
        src = RandomSource(7)
        s = Stream(d=8, T=8, model="likes", batches=[[(i, 1)] for i in range(1, 9)])
        outs = run_continual_likes(1.0, 8, s, src).outputs
        # the node ending at step t is new at t; every other node of the
        # prefix [1, t] ended earlier and is reused: one draw per step
        assert src.laplace_calls == src.laplace_draws == 8
        assert len(outs) == 8

    @pytest.mark.parametrize("T, levels", [(1, 1), (2, 2), (4, 3), (40, 6), (1024, 11)])
    def test_scale_covers_every_node_of_a_step(self, T, levels):
        # a difference value at step p enters every dyadic node over p that
        # some prefix [1, t] uses; its change moves that many node sums, so
        # the per-node scale must be that count over eps
        covering = [set() for _ in range(T + 1)]
        for t in range(1, T + 1):
            hi = t
            while hi > 0:
                size = hi & -hi
                for p in range(hi - size + 1, hi + 1):
                    covering[p].add((size, hi))
                hi -= size
        assert max(map(len, covering)) == levels

        scales = []

        class RecordingSource(RandomSource):
            def laplace(self, b):
                scales.append(b)
                return super().laplace(b)

        s = Stream(d=1, T=T, model="likes", batches=[[(1, 1)]])
        run_continual_likes(0.5, T, s, RecordingSource(0))
        assert scales == [levels / 0.5]

    def test_noise_count_logarithmic(self):
        src = RandomSource(8)
        T = 256
        s = Stream(d=T, T=T, model="likes", batches=[[(i, 1)] for i in range(1, T + 1)])
        run_continual_likes(1.0, T, s, src)
        # one draw per dyadic node, and the tree has one node ending at each
        # step: T draws, where a fresh draw per node use would take ~T log T / 2
        assert src.laplace_calls == T

    def test_determinism(self):
        s = random_stream(8, 64, model="likes", target_K=40, seed=12)
        runs = [
            run_continual_likes(1.0, 64, s, RandomSource(5)).outputs for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestEventToItemAdapter:
    def test_outputs_shift(self):
        s = random_stream(6, 16, model="likes", target_K=10, seed=20)
        adapted = run_event_to_item(
            lambda padded: run_continual_likes(1.0, 17, padded, RandomSource(0, "zero")),
            s,
        )
        assert adapted.outputs == [float(q) for q in distinct_counts(s)]

    def test_bitwise_equality_with_manual_padding(self):
        s = random_stream(6, 16, model="likes", target_K=10, seed=21)
        padded = Stream(
            d=6, T=17, model="likes", batches=[[]] + [list(b) for b in s.batches]
        )
        direct = run_continual_likes(1.0, 17, padded, RandomSource(99))
        adapted = run_event_to_item(
            lambda p: run_continual_likes(1.0, 17, p, RandomSource(99)), s
        )
        assert adapted.outputs == direct.outputs[1:]

    def test_rejects_general_model(self):
        s = random_stream(4, 8, model="general", target_K=4, seed=0)
        with pytest.raises(ParameterError):
            run_event_to_item(lambda p: run_zero(p), s)


def test_quiet_known_k_run_traced_peak():
    """A quiet run's scan window stays capped: a 10^5-step known-K run holds
    its outputs list (0.8 MB) and little else.  It peaked at 1.3 MB with the
    capped window and at 2.3 MB with a window that doubled to the stream's
    length."""
    s = random_stream(10**4, 10**5, "likes", True, 10**5, 1)
    tracemalloc.start()
    try:
        result = run_known_k(PrivacyParams(0.5), 0.1, s.T, s.T, s, RandomSource(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.yes_events == 0  # the threshold is above d: no refresh
    assert peak <= 1.75e6, f"run_known_k peaked at {peak / 1e6:.2f} MB"
