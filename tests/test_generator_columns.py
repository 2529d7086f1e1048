"""Property tests: the columnar generators against the list-of-batches versions.

``reference_*`` below are the generators as they were before they built
their arrays directly: each fills a Python list of T batches, sorts every
batch and hands the list to ``Stream(d, T, model, batches)``.  For every
input, the columnar versions must build the same ``offsets``, ``items`` and
``deltas`` (and so the same ``.dstream`` text), or raise the same exception
class with the same message.  ``random_stream`` must also draw from its
generator in the same order, which equal streams for every seed check.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_neighbor_columns import reference_event, reference_item

from dpdistinct import generators
from dpdistinct import stream as streammod
from dpdistinct.errors import ParameterError
from dpdistinct.stream import Stream

SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_blocks(d, m, J, T_prime):
    if d < m or m < 1:
        raise ParameterError(f"need d >= m >= 1, got d={d}, m={m}")
    if T_prime < 0 or T_prime % m != 0:
        raise ParameterError(f"T'={T_prime} must be a non-negative multiple of m={m}")
    n_blocks = T_prime // m
    if list(J) != sorted(set(J)) or any(not 1 <= j <= n_blocks for j in J):
        raise ParameterError(f"J must be strictly increasing block indices in [1, {n_blocks}]")
    batches = [[] for _ in range(T_prime)]
    for pos, j in enumerate(J):
        delta = 1 if pos % 2 == 0 else -1
        for i in range(1, m + 1):
            t = (j - 1) * m + i
            batches[t - 1] = [(i, delta)]
    return Stream(d=d, T=T_prime, model="likes", batches=batches)


def reference_multiupdate(d, m, I, T_prime):
    if d < m or m < 1:
        raise ParameterError(f"need d >= m >= 1, got d={d}, m={m}")
    if list(I) != sorted(set(I)) or any(not 1 <= t <= T_prime for t in I):
        raise ParameterError(f"I must be strictly increasing steps in [1, {T_prime}]")
    batches = [[] for _ in range(T_prime)]
    for pos, t in enumerate(I):
        delta = 1 if pos % 2 == 0 else -1
        batches[t - 1] = [(i, delta) for i in range(1, m + 1)]
    return Stream(d=d, T=T_prime, model="likes", batches=batches)


def reference_marginals_singleton(table):
    n, m = table.n, table.m
    batches = [[] for _ in range(2 * n * m)]
    for j in range(m):
        base = j * 2 * n
        for i in range(n):
            if table.y[i][j]:
                batches[base + i] = [(i + 1, 1)]
                batches[base + n + i] = [(i + 1, -1)]
    return Stream(d=n, T=2 * n * m, model="likes", batches=batches)


def reference_marginals_multi(table):
    n, m = table.n, table.m
    batches = []
    for j in range(m):
        rows = [(i + 1, 1) for i in range(n) if table.y[i][j]]
        batches.append(rows)
        batches.append([(item, -1) for item, _ in rows])
    return Stream(d=n, T=2 * m, model="likes", batches=batches)


def reference_random(d, T, model="general", singleton=False, target_K=0, seed=0):
    if target_K < 0:
        raise ParameterError(f"target_K must be >= 0, got {target_K}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    limit = T if singleton else d * T
    if target_K > limit:
        raise ParameterError(
            f"target_K={target_K} infeasible for d={d}, T={T}, singleton={singleton}"
        )
    rng = np.random.default_rng(seed)
    batches = [[] for _ in range(T)]
    per_item_steps = {}
    if singleton:
        steps = rng.choice(T, size=target_K, replace=False)
        items = rng.integers(1, d + 1, size=target_K)
        for t, item in zip(steps.tolist(), items.tolist()):
            per_item_steps.setdefault(item, []).append(t)
    else:
        slots = rng.choice(d * T, size=target_K, replace=False)
        for s in slots.tolist():
            per_item_steps.setdefault(s // T + 1, []).append(s % T)
    for item, steps in per_item_steps.items():
        for pos, t in enumerate(sorted(steps)):
            batches[t].append((item, 1 if pos % 2 == 0 else -1))
    if model == "general" and not singleton and target_K < d * T:
        free_items = [i for i in range(1, d + 1) if i not in per_item_steps]
        for item in free_items[: max(1, len(free_items) // 2)]:
            if T < 2:
                break
            t1, t2 = sorted(rng.choice(T, size=2, replace=False).tolist())
            batches[t1].append((item, -1))
            batches[t2].append((item, 1))
    for batch in batches:
        batch.sort()
    return Stream(d=d, T=T, model=model, batches=batches)


def outcome(build, *args):
    """The built stream's arrays and text, or the exception's class and text."""
    try:
        s = build(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return s.offsets.tolist(), s.items.tolist(), s.deltas.tolist(), streammod.dumps(s)


def increasing(limit):
    """Sorted distinct integers in [1, limit], sometimes with a bad entry."""
    good = st.lists(st.integers(1, max(limit, 1)), unique=True, max_size=6).map(sorted)
    bad = st.lists(st.integers(-1, limit + 2), max_size=4)
    return st.one_of(good, good, good, bad).map(tuple)


@SETTINGS
@given(
    st.integers(0, 5),
    st.integers(0, 4),
    st.integers(0, 5),
    st.sampled_from([0, 0, 0, 1, -1]),
    st.data(),
)
def test_blocks_match_list_version(d, m, n_blocks, off, data):
    T_prime = m * n_blocks + off
    J = data.draw(increasing(n_blocks))
    assert outcome(generators.blocks_stream, d, m, J, T_prime) == outcome(
        reference_blocks, d, m, J, T_prime
    )


@SETTINGS
@given(st.integers(0, 5), st.integers(0, 4), st.integers(-1, 12), st.data())
def test_multiupdate_matches_list_version(d, m, T_prime, data):
    I = data.draw(increasing(T_prime))
    assert outcome(generators.multiupdate_stream, d, m, I, T_prime) == outcome(
        reference_multiupdate, d, m, I, T_prime
    )


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_marginals_match_list_versions(n, m, data):
    bits = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=m, max_size=m),
                              min_size=n, max_size=n))
    table = generators.MarginalsTable(n, m, tuple(map(tuple, bits)))
    for build, reference in (
        (generators.marginals_to_stream_singleton, reference_marginals_singleton),
        (generators.marginals_to_stream_multi, reference_marginals_multi),
    ):
        assert outcome(build, table) == outcome(reference, table)


@SETTINGS
@given(
    st.integers(1, 8),
    st.integers(0, 14),
    st.sampled_from(["general", "likes"]),
    st.booleans(),
    st.integers(0, 5),
    st.data(),
)
def test_random_matches_list_version(d, T, model, singleton, seed, data):
    limit = T if singleton else d * T
    target_K = data.draw(st.one_of(st.integers(0, limit), st.just(limit), st.just(limit + 1)))
    args = (d, T, model, singleton, target_K, seed)
    assert outcome(generators.random_stream, *args) == outcome(reference_random, *args)


@SETTINGS
@given(
    st.integers(1, 6),
    st.integers(1, 10),
    st.sampled_from(["general", "likes"]),
    st.integers(0, 3),
    st.data(),
)
def test_neighbors_of_generated_streams_match_list_versions(d, T, model, seed, data):
    target_K = data.draw(st.integers(0, d * T))
    x = generators.random_stream(d, T, model, False, target_K, seed)
    x_ref = reference_random(d, T, model, False, target_K, seed)
    t_star, i_star = data.draw(st.integers(1, T)), data.draw(st.integers(1, d))
    new_value = data.draw(st.sampled_from([-1, 0, 1]))
    assert outcome(generators.neighbor_event, x, t_star, i_star, new_value) == outcome(
        reference_event, x_ref, t_star, i_star, new_value
    )
    column = data.draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=T, max_size=T))
    assert outcome(generators.neighbor_item, x, i_star, column) == outcome(
        reference_item, x_ref, i_star, column
    )
