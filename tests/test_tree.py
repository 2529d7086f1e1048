"""Property tests: the whole-run tree counter against the scalar tree.

``ScalarTree`` is the per-step counter that ``run_continual_likes``
replaced: it keeps the cumulative differences and a dict of node noise drawn
on first use, and sums the dyadic nodes of [1, t] from the lowest level up.
For every likes stream the whole-run pass must release the same floats, bit
for bit, count the same draws and leave the source at the same next draw.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpdistinct import RandomSource, Stream
from dpdistinct.mechanisms import run_continual_likes
from dpdistinct.stream import diff_sequence

SETTINGS = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class ScalarTree:
    """Binary-tree noisy prefix sums, one difference value at a time, with
    each node's Lap(T.bit_length()/eps) noise drawn lazily and cached."""

    def __init__(self, eps: float, T: int, src: RandomSource):
        self._src = src
        self._scale = T.bit_length() / eps
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


def scalar_run(eps: float, T: int, stream: Stream, src: RandomSource) -> list[float]:
    tree = ScalarTree(eps, T, src)
    return [tree.add(diff) for diff in diff_sequence(stream)]


def source_after(src):
    """Draw counters, then the source's next draws of each kind and, in live
    mode, its generator's next uniform (zero mode builds no generator)."""
    return (
        src.laplace_calls,
        src.laplace_draws,
        src.laplace(1.0),
        src.gaussian(1.0),
        src._rng.random() if src.mode == "live" else None,
    )


@st.composite
def likes_streams(draw):
    """A likes-model stream: each batch toggles a set of items in or out."""
    d = draw(st.integers(1, 12))
    toggles = draw(st.lists(st.sets(st.integers(1, d)), max_size=300))
    present = set()
    batches = []
    for items in toggles:
        batches.append([(i, -1 if i in present else 1) for i in sorted(items)])
        present ^= items
    return Stream(d=d, T=max(len(batches), 1), model="likes", batches=batches)


@SETTINGS
@given(
    stream=likes_streams(),
    extra_T=st.sampled_from([0, 0, 1, 7, 1000]),
    eps=st.sampled_from([0.1, 0.5, 1.0, 3.0]),
    mode=st.sampled_from(["live", "zero"]),
    seed=st.integers(0, 2**32),
)
def test_whole_run_matches_scalar_tree(stream, extra_T, eps, mode, seed):
    T = max(stream.length, 1) + extra_T
    src_a, src_b = RandomSource(seed, mode), RandomSource(seed, mode)
    got = run_continual_likes(eps, T, stream, src_a).outputs
    want = scalar_run(eps, T, stream, src_b)
    assert all(type(v) is float for v in got)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert src_a.laplace_calls == stream.length
    assert source_after(src_a) == source_after(src_b)


def test_empty_stream_draws_nothing():
    s = Stream(d=3, T=5, model="likes", batches=[])
    src = RandomSource(4)
    assert run_continual_likes(1.0, 5, s, src).outputs == []
    assert (src.laplace_calls, src.laplace_draws) == (0, 0)
    assert source_after(src) == source_after(RandomSource(4))


def test_long_run_matches_scalar_tree():
    # 2^11 + 3 steps: prefixes with up to 11 nodes, past a power of two
    n = 2**11 + 3
    batches = [[(1 + (t % 2), 1 if (t // 2) % 2 == 0 else -1)] for t in range(n)]
    s = Stream(d=2, T=n, model="likes", batches=batches)
    src_a, src_b = RandomSource(11), RandomSource(11)
    got = run_continual_likes(0.7, n, s, src_a).outputs
    want = scalar_run(0.7, n, s, src_b)
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert source_after(src_a) == source_after(src_b)
    assert not all(math.isclose(v, round(v)) for v in got)  # noise is live


def test_overflowing_scale_matches_scalar_tree():
    # node noise near 1e309 overflows the sums to inf and then nan, with no
    # floating-point warning (pytest turns warnings into errors)
    n = 64
    batches = [[(1 + (t % 2), 1 if (t // 2) % 2 == 0 else -1)] for t in range(n)]
    s = Stream(d=2, T=n, model="likes", batches=batches)
    got = run_continual_likes(1e-307, n, s, RandomSource(1)).outputs
    want = scalar_run(1e-307, n, s, RandomSource(1))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert not all(map(math.isfinite, got))
