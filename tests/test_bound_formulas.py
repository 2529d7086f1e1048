"""The shared error-branch formulas against the inline copies they replaced.

``theoretical_bound`` and ``run_unknown_k_all_bounds`` each used to write the
flippancy and err_T branches inline, and ``run_unknown_k_all_bounds`` read
err_T from a third copy.  The ``reference_*`` functions below are those
copies, unchanged.  ``flippancy_branch`` and ``err_T_branch`` must give the
same floats, bit for bit: with ``theoretical_bound``'s confidence term
ln(2T/beta), and with the all-bounds runner's ln(T/beta) and ln(T/beta_j).
"""

import math

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dpdistinct.harness import theoretical_bound
from dpdistinct.mechanisms import PrivacyParams, err_T_branch, flippancy_branch

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
    """B_j as run_unknown_k_all_bounds now builds it from flippancy_branch."""
    eps_j = 12 * pp.eps / (math.pi**2 * j**2)
    delta_j = 6 * pp.delta / (math.pi**2 * j**2)
    beta_j = 12 * beta / (math.pi**2 * j**2)
    log_term_j = math.log(T / beta_j)
    B_j = flippancy_branch(2**j, eps_j, delta_j, log_term_j)
    if pp.delta > 0 and B_j < math.inf:
        B_j += math.sqrt(math.log(1 / delta_j)) * log_term_j / eps_j
    return B_j


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
