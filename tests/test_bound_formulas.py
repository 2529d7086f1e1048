"""The shared error-branch formulas and budget schedules against the inline
copies they replaced.

``theoretical_bound`` and ``run_unknown_k_all_bounds`` each used to write the
flippancy and err_T branches inline, and ``run_unknown_k_all_bounds`` read
err_T from a third copy.  The ``reference_*`` functions below are those
copies, unchanged.  ``flippancy_branch`` and ``err_T_branch`` must give the
same floats, bit for bit: with ``theoretical_bound``'s confidence term
ln(2T/beta), and with the all-bounds runner's ln(T/beta) and ln(T/beta_j).
Likewise the doubling loop's schedules must give the per-instance budgets
that each unknown-K runner used to compute inline, and their partial sums
must approach the closed-form totals.
"""

import math

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dpdistinct.harness import theoretical_bound
from dpdistinct.mechanisms import (
    _ALL_BOUNDS,
    _UNKNOWN_K,
    PrivacyParams,
    _instance_bound,
    err_T_branch,
)

SETTINGS = settings(
    max_examples=600,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_theoretical_bound(pp, beta, T, K, d, regime):
    """theoretical_bound's branches and minimum, for K >= 1."""
    log_term = math.log(2 * T / beta)
    lnK = max(math.log(K), 1.0)
    if pp.delta == 0:
        flip = math.sqrt(K * log_term / pp.eps)
        err_T = T * log_term / pp.eps
    else:
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
    return branches, min(branches.values()) + additive


def reference_length_branch(pp, beta, T):
    """The all-bounds runner's err_T."""
    if pp.delta == 0:
        return T * math.log(T / beta) / pp.eps
    return math.sqrt(T * math.log(1 / pp.delta) * math.log(T / beta)) / pp.eps


def reference_B_j(pp, beta, T, j):
    """The all-bounds runner's B_j for instance j."""
    eps_j = 12 * pp.eps / (math.pi**2 * j**2)
    delta_j = 6 * pp.delta / (math.pi**2 * j**2)
    beta_j = 12 * beta / (math.pi**2 * j**2)
    K_j = 2**j
    log_term_j = math.log(T / beta_j)
    if pp.delta == 0:
        return math.sqrt(K_j * log_term_j / eps_j)
    if eps_j**2 == 0:
        return math.inf
    return (K_j * math.log(1 / delta_j) * log_term_j**2 / eps_j**2) ** (
        1 / 3
    ) + math.sqrt(math.log(1 / delta_j)) * log_term_j / eps_j


def shared_B_j(pp, beta, T, j):
    """B_j as the doubling loop builds it for run_unknown_k_all_bounds."""
    eps_j, delta_j, beta_j = _ALL_BOUNDS.shares(pp.eps, pp.delta, beta, j)
    return _instance_bound(pp, T, 2**j, eps_j, delta_j, beta_j)


def reference_shares(runner, pp, beta, j):
    """Instance j's (eps_j, delta_j, beta_j) as each runner computed them."""
    if runner == "unknown-k":
        scale = 6 / (math.pi**2 * j**2)
        return pp.eps * scale, pp.delta * scale, beta * scale
    return (
        12 * pp.eps / (math.pi**2 * j**2),
        6 * pp.delta / (math.pi**2 * j**2),
        12 * beta / (math.pi**2 * j**2),
    )


SCHEDULES = {"unknown-k": _UNKNOWN_K, "unknown-k-all": _ALL_BOUNDS}
# what each schedule's shares of (eps, delta, beta) sum to over all j, per unit
TOTALS = {"unknown-k": (1, 1, 1), "unknown-k-all": (2, 1, 2)}


def outcome(f, *args):
    """The float's exact bits, or the exception's type: T = 1 with beta_j > 1
    gives a negative ln(T/beta_j), whose square root raises, and a tiny eps
    gives eps_j = 0, which divides by zero."""
    try:
        return f(*args).hex()
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc).__name__


EPSILONS = st.one_of(
    st.floats(5e-324, 1e-161),  # eps^2 underflows to 0
    st.floats(1e-161, 0.999),
    st.floats(1.0, 1e3),
)
DELTAS = st.one_of(st.just(0.0), st.floats(1e-300, 0.999))
BETAS = st.floats(1e-12, 0.999)
T_VALUES = st.one_of(st.integers(1, 64), st.integers(1, 2**62))


@st.composite
def privacy_params(draw):
    eps, delta = draw(EPSILONS), draw(DELTAS)
    assume(delta == 0 or eps < 1)
    return PrivacyParams(eps, delta)


@SETTINGS
@given(
    pp=privacy_params(),
    beta=BETAS,
    T=T_VALUES,
    K=st.integers(1, 2**62),
    d=st.integers(1, 2**62),
    regime=st.sampled_from(["known", "unknown"]),
)
def test_theoretical_bound_matches_the_inline_formulas(pp, beta, T, K, d, regime):
    spec = theoretical_bound(pp, beta, T, K, d, regime)
    branches, minimum = reference_theoretical_bound(pp, beta, T, K, d, regime)
    assert {k: v.hex() for k, v in spec.branches.items()} == {
        k: v.hex() for k, v in branches.items()
    }
    assert spec.minimum.hex() == minimum.hex()


@SETTINGS
@given(pp=privacy_params(), beta=BETAS, T=T_VALUES, j=st.integers(1, 60))
def test_all_bounds_branches_match_the_inline_formulas(pp, beta, T, j):
    assert outcome(shared_B_j, pp, beta, T, j) == outcome(reference_B_j, pp, beta, T, j)
    err_T = err_T_branch(T, pp.eps, pp.delta, math.log(T / beta))
    assert err_T.hex() == reference_length_branch(pp, beta, T).hex()


@SETTINGS
@given(
    runner=st.sampled_from(sorted(SCHEDULES)),
    pp=privacy_params(),
    beta=BETAS,
    j=st.integers(1, 60),
)
def test_schedule_shares_match_the_inline_forms(runner, pp, beta, j):
    got = SCHEDULES[runner].shares(pp.eps, pp.delta, beta, j)
    assert [x.hex() for x in got] == [x.hex() for x in reference_shares(runner, pp, beta, j)]


@pytest.mark.parametrize("J", [1, 2, 10, 1000])
@pytest.mark.parametrize("runner", sorted(SCHEDULES))
def test_schedule_partial_sums_approach_the_closed_form(runner, J):
    # sum_{j > J} 1/j^2 lies strictly between 1/(J + 1) and 1/J, so the part
    # of a total c x/6 that instances past J get lies between 6/(pi^2 (J + 1))
    # and 6/(pi^2 J) of it
    pp, beta = PrivacyParams(0.7, 0.01), 0.1
    shares = [SCHEDULES[runner].shares(pp.eps, pp.delta, beta, j) for j in range(1, J + 1)]
    for k, x in enumerate((pp.eps, pp.delta, beta)):
        total = TOTALS[runner][k] * x
        tail = total - math.fsum(share[k] for share in shares)
        assert 6 / (math.pi**2 * (J + 1)) < tail / total < 6 / (math.pi**2 * J)
