"""Property tests: the segment scanner against the per-step mechanism.

``step_loop`` is the loop the scanner replaced: it feeds each q_t to
``KnownKMechanism.step_count``.  For every input the scanner must release
the same values, fire and abort at the same steps, count the same draws and
leave the source at the same next draw.  The runner tests swap the scanner
for ``step_loop`` to build the reference run, so unknown-K chains,
frozen all-bounds instances and fallbacks after an instance (where a
Gaussian draw has to rewind the generator past the scanner's look-ahead) are
compared end to end.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpdistinct import RandomSource, Stream, mechanisms
from dpdistinct.generators import multiupdate_stream, random_stream
from dpdistinct.mechanisms import (
    KnownKConfig,
    KnownKMechanism,
    PrivacyParams,
    derive_known_k_config,
    run_known_k,
    run_unknown_k,
    run_unknown_k_all_bounds,
)
from dpdistinct.noise import _BLOCK
from dpdistinct.svt import AboveThreshold

SETTINGS = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def step_loop(mech, q, t, outputs):
    """The per-step reference: one ``step_count`` call per count."""
    while t < len(q) and not mech.aborted:
        outputs.append(mech.step_count(int(q[t])))
        t += 1
    return t


def source_after(src):
    """Draw counters, then the source's next draws of each kind and, in live
    mode, its generator's next uniform (zero mode builds no generator)."""
    return (
        src.laplace_calls,
        src.laplace_draws,
        src.gaussian_calls,
        src.laplace(1.0),
        src.gaussian(1.0),
        src._rng.random() if src.mode == "live" else None,
    )


def state(mech):
    """The mechanism's scalars, and its AboveThreshold instance's."""
    query = mech._query
    return {k: v for k, v in vars(mech).items() if k not in ("_src", "_query")} | {
        "_query": (query.eps, query.thresh, query.tau, query.aborted)
    }


@SETTINGS
@given(
    q=st.lists(st.integers(0, 60), max_size=400),
    start=st.integers(0, 20),
    S_K=st.integers(1, 6),
    thresh=st.floats(0.0, 40.0),
    eps1=st.sampled_from([0.1, 0.5, 1.0, 4.0]),
    frozen_out=st.none() | st.floats(-20.0, 80.0),
    mode=st.sampled_from(["live", "zero"]),
    seed=st.integers(0, 2**32),
)
def test_scan_matches_step_count(q, start, S_K, thresh, eps1, frozen_out, mode, seed):
    cfg = KnownKConfig(
        eps=1.0, delta=0.0, K=1, T=100, beta=0.1, S_K=S_K, eps1=eps1, thresh=thresh
    )
    q = np.array(q, dtype=np.int64)
    start = min(start, len(q))
    src_a, src_b = RandomSource(seed, mode), RandomSource(seed, mode)
    mech_a = KnownKMechanism(cfg, None, src_a, frozen_out=frozen_out)
    mech_b = KnownKMechanism(cfg, None, src_b, frozen_out=frozen_out)
    outs_a, outs_b = [], []
    t_a = mechanisms._scan(mech_a, q, start, outs_a)
    t_b = step_loop(mech_b, q, start, outs_b)
    assert (t_a, outs_a) == (t_b, outs_b)
    assert state(mech_a) == state(mech_b)
    assert source_after(src_a) == source_after(src_b)


def assert_same_run(runner, args, seed, mode="live"):
    """Run ``runner(*args, src)`` with the scanner and with ``step_loop``
    in its place; returns the scanner's result."""
    src_a, src_b = RandomSource(seed, mode), RandomSource(seed, mode)
    got = runner(*args, src_a)
    with mock.patch.object(mechanisms, "_scan", step_loop):
        want = runner(*args, src_b)
    assert got == want  # outputs, yes_events, abort_step, instances, fallback
    assert source_after(src_a) == source_after(src_b)
    return got


PARAMS = st.sampled_from(
    [
        PrivacyParams(0.5),
        PrivacyParams(1.0),
        PrivacyParams(5.0),
        PrivacyParams(40.0),
        PrivacyParams(0.5, 1e-3),
        PrivacyParams(0.8, 0.05),
    ]
)
STREAMS = st.builds(
    lambda d, T, model, frac, seed: random_stream(
        d, T, model=model, target_K=int(frac * d * T), seed=seed
    ),
    d=st.integers(1, 40),
    T=st.integers(1, 150),
    model=st.sampled_from(["general", "likes"]),
    frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
)


@SETTINGS
@given(
    s=STREAMS,
    pp=PARAMS,
    K=st.sampled_from([1, 2, 8, 64, 4096]),
    beta=st.sampled_from([0.05, 0.4]),
    mode=st.sampled_from(["live", "zero"]),
    seed=st.integers(0, 2**32),
)
def test_known_k_runner(s, pp, K, beta, mode, seed):
    assert_same_run(run_known_k, (pp, beta, s.T, K, s), seed, mode)


@SETTINGS
@given(
    s=STREAMS,
    pp=PARAMS,
    beta=st.sampled_from([0.05, 0.4]),
    mode=st.sampled_from(["live", "zero"]),
    seed=st.integers(0, 2**32),
)
def test_unknown_k_runners(s, pp, beta, mode, seed):
    assert_same_run(run_unknown_k, (pp, beta, s.T, s), seed, mode)
    assert_same_run(run_unknown_k_all_bounds, (pp, beta, s.T, s), seed, mode)


def test_known_k_aborts_with_one_estimate():
    # K = 1 at a large epsilon gives S_K = 1: the first firing aborts
    s = random_stream(30, 120, target_K=900, seed=1)
    pp = PrivacyParams(40.0)
    assert derive_known_k_config(pp, 1, s.T, 0.5).S_K == 1
    aborts = [
        assert_same_run(run_known_k, (pp, 0.5, s.T, 1, s), seed).abort_step
        for seed in range(20)
    ]
    assert any(a is not None for a in aborts)


def test_unknown_k_chains_instances():
    # every swing of 400 items can end an instance
    s = multiupdate_stream(400, 400, (10, 40, 70, 100, 130), 150)
    runs = [
        assert_same_run(run_unknown_k, (PrivacyParams(40.0), 0.4, s.T, s), seed)
        for seed in range(20)
    ]
    assert max(r.instances for r in runs) >= 3


def test_frozen_instances():
    # at eps = 2 the first instances have K_j < B_j, so they run frozen: the
    # swings of 400 items fire them against a released value that stays put
    s = multiupdate_stream(400, 400, (10, 40, 70, 100, 130), 150)
    runs = [
        assert_same_run(run_unknown_k_all_bounds, (PrivacyParams(2.0), 0.4, s.T, s), seed)
        for seed in range(10)
    ]
    assert all(r.fallback is None for r in runs)
    assert max(r.instances for r in runs) >= 2


@pytest.mark.parametrize(
    "pp, beta, d, T, kind",
    [
        (PrivacyParams(50.0), 0.4, 8, 8, "laplace"),
        (PrivacyParams(0.8, 0.1), 0.5, 1000, 2, "gaussian"),
    ],
)
def test_fallback_after_an_instance(pp, beta, d, T, kind):
    # all d items arrive at step 1: instance 1 fires there and aborts, and the
    # comparison before instance 2 picks the baseline.  The scanner read
    # uniforms past the abort: the boundary refresh and the Laplace baseline
    # take them next, and the Gaussian baseline must rewind past them.
    batches = [[(i, 1) for i in range(1, d + 1)]] + [[] for _ in range(T - 1)]
    s = Stream(d=d, T=T, model="likes", batches=batches)
    for seed in range(10):
        r = assert_same_run(run_unknown_k_all_bounds, (pp, beta, T, s), seed)
        assert (r.fallback, r.instances) == (kind, 2)


class _StubGenerator:
    """A generator handing out fixed uniforms, with a rewindable position;
    it raises when asked for more uniforms than it holds, and its normal
    draws are 0.0."""

    def __init__(self, values):
        self.values = list(values)
        self.state = 0
        self.bit_generator = self

    def random(self, size):
        if self.state + size > len(self.values):
            raise IndexError(f"stub asked for {size} uniforms past {self.state}")
        self.state += size
        return np.array(self.values[self.state - size : self.state])

    def standard_normal(self):
        self.state += 1
        return 0.0

    def advance(self, k):
        self.state = (self.state + k) % (1 << 128)  # PCG64's period


def _disagreements(b=4.0, block=64):
    """Uniforms below 0.5 whose vector draw in a block of ``block`` is above
    and below their scalar draw, as {True: r, False: r}."""
    rng = np.random.default_rng(2024)
    found = {}
    for _ in range(200):
        r = rng.random(block) * 0.5
        src = RandomSource(0)
        src._rng = _StubGenerator(list(r) + [0.5] * _BLOCK)
        vector = b * src.ahead(block)
        for i, v in enumerate(vector.tolist()):
            scalar = src.laplace(b)
            if v != scalar:
                found.setdefault(v > scalar, float(r[i]))
        if len(found) == 2:
            break
    return found


def _known_k_run(drive):
    """Drive a known-K instance over 64 zero counts: tau and nu come before
    mu_1, and step 1 fires when mu_1 > thresh."""

    def run(src, thresh):
        cfg = KnownKConfig(
            eps=1.0, delta=0.0, K=1, T=64, beta=0.1, S_K=3, eps1=1.0, thresh=thresh
        )
        mech = KnownKMechanism(cfg, None, src)
        outputs = []
        drive(mech, np.zeros(64, dtype=np.int64), 0, outputs)
        return (outputs, mech.yes_events), mech.yes_events == 1

    return run


def _svt_run(scan):
    """Query an AboveThreshold instance with 64 zeros: tau comes before mu_1,
    and the first query fires when mu_1 > thresh."""

    def run(src, thresh):
        svt = AboveThreshold(1.0, thresh, src)
        if scan:
            fire = svt.scan(np.zeros(64))
        else:
            fire = next((i for i in range(64) if svt.fires(0.0)), None)
        return (fire, svt.aborted), fire == 0

    return run


# the draws before mu_1, and the two drivers that must agree
DRIVERS = {
    "scan": (2, _known_k_run(mechanisms._scan), _known_k_run(step_loop)),
    "svt": (1, _svt_run(True), _svt_run(False)),
}


@pytest.mark.parametrize(
    "vector_above, level",
    [
        pytest.param(v, level, id=str(v) if level == "scan" else f"svt-{v}")
        for level in DRIVERS
        for v in (True, False)
    ],
)
def test_threshold_decided_by_scalar_log(vector_above, level):
    found = _disagreements()
    if vector_above not in found:
        pytest.skip("np.log and math.log agree on the sampled uniforms here")
    r = found[vector_above]
    # tau and nu come from uniforms of 0.5 and are -0.0, so the threshold is
    # exactly thresh and the released value 0.0; the gap stays at 0, so the
    # first test fires exactly when mu_1 > thresh
    skip, *drivers = DRIVERS[level]
    values = [0.5] * skip + [r] + [0.5] * _BLOCK
    src = RandomSource(0)
    src._rng = _StubGenerator(values[skip:])
    mu_vector, mu_scalar = 4.0 * src.ahead(64)[0], src.laplace(4.0)
    assert bool(mu_vector > mu_scalar) is vector_above
    thresh = min(mu_vector, mu_scalar)  # between the two draws
    runs = []
    for drive in drivers:
        src = RandomSource(0)
        src._rng = _StubGenerator(values)
        result, fired = drive(src, thresh)
        src.gaussian(1.0)  # rewinds to just after the last uniform taken
        runs.append((result, fired, src.laplace_draws, src._rng.state))
    assert runs[0] == runs[1]
    assert runs[0][1] is not vector_above  # as math.log decides


def test_zero_uniform_is_dropped():
    # a zero uniform is skipped, in a block and at a refresh, as the scalar
    # redraw skips it, and the rewind counts it
    cfg = KnownKConfig(
        eps=1.0, delta=0.0, K=1, T=8, beta=0.1, S_K=4, eps1=1.0, thresh=1.0
    )
    values = [0.3, 0.6, 0.5, 0.0, 0.001, 0.0, 0.2, 0.7, 0.5, 0.0, 0.5] + [0.5] * _BLOCK
    q = np.array([0, 0, 3, 3, 3, 0, 0, 0], dtype=np.int64)
    runs = []
    for drive in (mechanisms._scan, step_loop):
        src = RandomSource(0)
        src._rng = _StubGenerator(values)
        mech = KnownKMechanism(cfg, None, src)
        outputs = []
        drive(mech, q, 0, outputs)
        src.gaussian(1.0)  # rewinds to just after the last uniform taken
        runs.append((outputs, state(mech), src.laplace_draws, src._rng.state))
    assert runs[0] == runs[1]
    assert runs[0][0][1] != runs[0][0][0]  # the step-2 draw 0.001 fired
    # the rewind lands just after the last uniform taken, zeros counted, and
    # the normal draw takes one more
    taken = [i for i, v in enumerate(values) if v != 0.0][: runs[0][2]]
    assert runs[0][3] == taken[-1] + 2


def _positions(values, ops):
    """Run ops on a source over a stub, and as scalar calls on another stub: a
    Laplace draw takes random() until one is non-zero, a Gaussian draw one
    standard_normal().  Returns both stubs' positions and Laplace counts."""
    src = RandomSource(0)
    src._rng = _StubGenerator(values)
    ref, draws = _StubGenerator(values), 0
    for op, n in ops:
        if op == "ahead":
            src.ahead(n)
            continue
        if op == "take":
            src.take(n)
        for _ in range(n):
            if op == "gaussian":
                src.gaussian(1.0)
                ref.standard_normal()
                continue
            if op == "laplace":
                src.laplace(1.0)
            while ref.random(1)[0] == 0.0:
                pass
            draws += 1
    return (src._rng.state, src.laplace_draws), (ref.state, draws)


PAD = [0.5] * (2 * _BLOCK)
REWINDS = {
    # the zero came before the last uniform taken: the scalar draws skipped it
    "zero-before-cursor": ([0.3, 0.0, 0.6, 0.2], [("ahead", 3), ("take", 2), ("gaussian", 1)]),
    # the zero is right after the last uniform taken, still unread
    "zero-at-cursor": ([0.3, 0.6, 0.0, 0.2], [("ahead", 3), ("take", 2), ("gaussian", 1)]),
    "zero-after-cursor": ([0.3, 0.6, 0.2, 0.0], [("ahead", 3), ("take", 2), ("gaussian", 1)]),
    # two zeros in a row each come after one non-zero uniform
    "two-zeros-before-cursor": (
        [0.3, 0.0, 0.0, 0.6, 0.2], [("ahead", 3), ("take", 2), ("gaussian", 1)]
    ),
    # every uniform buffered is taken, and the block's last raw draw was a zero
    "zero-at-cursor-nothing-unread": (
        [0.5] * (_BLOCK - 1) + [0.0],
        [("ahead", _BLOCK - 1), ("take", _BLOCK - 1), ("gaussian", 1)],
    ),
    # the stepped-back zero is read again, and dropped again, by the next fill
    "zero-read-again": (
        [0.3, 0.6, 0.2, 0.0, 0.7],
        [("ahead", 3), ("take", 2), ("gaussian", 1), ("laplace", 2), ("gaussian", 1)],
    ),
    "nothing-read-ahead": ([], [("ahead", _BLOCK), ("take", _BLOCK), ("gaussian", 1)]),
    "nothing-drawn": ([], [("gaussian", 2)]),
}
# the second fill carries 251 unread uniforms over and holds a zero after
# 257 non-zero uniforms; 251, 252 and 253 more draws leave the cursor before,
# at and past it
REWINDS |= {
    f"second-fill-take-{k}": (
        [0.5] * _BLOCK + [0.3, 0.0, 0.6],
        [("ahead", 10), ("take", 5), ("ahead", _BLOCK), ("take", k), ("gaussian", 1)],
    )
    for k in (251, 252, 253)
}


@pytest.mark.parametrize("case", list(REWINDS))
def test_rewind_lands_where_scalar_draws_do(case):
    values, ops = REWINDS[case]
    got, want = _positions(values + PAD, ops)
    assert got == want


def test_advancing_by_the_period_less_k_steps_back_k_draws():
    # numpy's PCG64 advances modulo its period 2^128, which the rewind relies on
    u = np.random.default_rng(5).random(10)
    for k in (1, 4, 10):
        rng = np.random.default_rng(5)
        rng.random(10)
        rng.bit_generator.advance((1 << 128) - k)
        assert rng.random() == u[10 - k]
