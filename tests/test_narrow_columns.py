"""The stream's narrow columns.

A ``Stream`` keeps ``items`` in the narrowest type that holds d
(``np.min_scalar_type(d)``), ``deltas`` as int8 and ``offsets`` in the
narrowest unsigned type that holds the update count; ``counts`` stays int64,
and all four are read-only.  The types depend only on d and the update
count, so every constructor gives equal streams equal dtypes.  Every
consumer that does arithmetic on the columns must give the same result for
the narrowest ids (uint8, d <= 255) as for the widest (uint64, d near 2^63).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_generator_columns import reference_random
from test_neighbor_columns import outcome, reference_event, reference_item
from test_stream_columns import SETTINGS, SHAPES, assert_equal_streams, reference_dumps

from dpdistinct import generators, mechanisms
from dpdistinct import stream as streammod
from dpdistinct.cli import main
from dpdistinct.generators import neighbor_event, neighbor_item
from dpdistinct.mechanisms import RunResult
from dpdistinct.stream import Stream

MAX_ID = 2**63 - 1  # the largest d
INTEGER_TYPES = [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]


def assert_narrow(s):
    assert s.items.dtype == np.min_scalar_type(s.d)
    assert s.deltas.dtype == np.int8
    assert s.offsets.dtype == np.min_scalar_type(len(s.items))
    assert s.offsets.dtype.kind == "u"
    assert s.counts.dtype == np.int64
    for a in (s.offsets, s.items, s.deltas, s.counts):
        assert not a.flags.writeable


def general_batches(d, n):
    """n singleton steps over the (up to) three largest ids."""
    return [[(d - k % min(d, 3), 1 - 2 * (k // 3 % 2))] for k in range(n)]


@pytest.mark.parametrize(
    "d, items_type",
    [(1, np.uint8), (255, np.uint8), (256, np.uint16), (2**16 - 1, np.uint16),
     (2**16, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64), (MAX_ID, np.uint64)],
)
@pytest.mark.parametrize("n, offsets_type", [(0, np.uint8), (255, np.uint8), (256, np.uint16)])
def test_every_constructor_stores_the_narrow_types(tmp_path, d, items_type, n, offsets_type):
    batches = general_batches(d, n)
    s = Stream(d, n, "general", batches)
    assert (s.items.dtype, s.offsets.dtype) == (items_type, offsets_type)
    assert_narrow(s)
    wide = [np.array(a.tolist(), dtype=np.int64) for a in (s.offsets, s.items, s.deltas)]
    built = [
        Stream.from_columns(d, n, "general", *wide),
        Stream.from_columns(d, n, "general", *(c.tolist() for c in wide)),
    ]
    if d < 10**18:  # the grammar reads ids of up to 18 digits
        path = tmp_path / "s.dstream"
        streammod.write_file(s, path)
        built += [streammod.loads(streammod.dumps(s)), streammod.read_file(path)]
    for other in built:
        assert_narrow(other)
        assert_equal_streams(other, s)


def test_generators_store_the_narrow_types():
    table = generators.MarginalsTable(3, 2, ((1, 0), (1, 1), (0, 1)))
    for s in (
        generators.blocks_stream(6, 3, (1, 2, 4), 12),
        generators.multiupdate_stream(300, 300, (2, 3, 7), 9),
        generators.marginals_to_stream_singleton(table),
        generators.marginals_to_stream_multi(table),
        generators.random_stream(70000, 400, "general", False, 300, 3),
        generators.random_stream(MAX_ID, 5, "general", True, 4, 1),
    ):
        assert_narrow(s)
        assert_narrow(neighbor_item(s, 1, [0] * s.length))


def fitting_types(values):
    """The integer types that hold every one of ``values``."""
    return [t for t in INTEGER_TYPES
            if all(np.iinfo(t).min <= v <= np.iinfo(t).max for v in values)]


@SETTINGS
@given(st.data())
def test_narrow_and_int64_inputs_build_equal_streams(data):
    d = data.draw(st.sampled_from([1, 7, 255, 256, 70000, 2**32 + 5, MAX_ID]))
    ids = st.sampled_from([d, d - 1, 1, 2, 0, -1, d + 1]) | st.integers(1, d)
    batch = st.lists(st.tuples(ids, st.sampled_from([1, -1, 1, -1, 0, 2])), max_size=4)
    batches = data.draw(st.lists(batch, max_size=8))
    model = data.draw(st.sampled_from(["general", "likes"]))
    offsets = np.cumsum([0] + [len(b) for b in batches])
    updates = [u for b in batches for u in b]
    columns = [offsets.tolist(), [i for i, _ in updates], [v for _, v in updates]]
    if max(columns[1], default=0) >= 2**63:  # d + 1 past int64 holds no id
        return
    wide = [np.array(c, dtype=np.int64) for c in columns]
    narrow = [np.array(c, dtype=data.draw(st.sampled_from(fitting_types(c)))) for c in columns]
    want = outcome(Stream.from_columns, d, len(batches), model, *wide)
    assert outcome(Stream.from_columns, d, len(batches), model, *narrow) == want
    if not isinstance(want[0], type):  # built, not raised
        a = Stream.from_columns(d, len(batches), model, *wide)
        b = Stream.from_columns(d, len(batches), model, *narrow)
        assert_narrow(a)
        assert_equal_streams(a, b)


# --- consumers that do arithmetic on the columns -------------------------


@pytest.mark.parametrize("d", [3, MAX_ID])
def test_writer_ends_a_block_of_empty_steps_after_255_updates(tmp_path, d):
    # uint8 offsets: the second writer block starts at update 255 and holds
    # only empty steps
    batches = general_batches(d, 255) + [[] for _ in range(streammod.WRITE_BLOCK)]
    s = Stream(d, len(batches), "general", batches)
    assert s.offsets.dtype == np.uint8
    want = reference_dumps(d, len(batches), "general", batches)
    assert streammod.dumps(s) == want
    streammod.write_file(s, tmp_path / "s.dstream")
    assert (tmp_path / "s.dstream").read_bytes() == want.encode("ascii")


@pytest.mark.parametrize("d", [200, MAX_ID])
def test_neighbours_sort_narrow_and_widest_ids(d):
    # d, d-1, d-2 and d-3 are one float64 near 2^63, so only an integer key sorts them
    batches = [[(d - 2, 1), (d, 1)], [(d - 3, 1)], [(d, -1), (d - 2, -1), (d - 1, 1)], []]
    s = Stream(d, 5, "general", batches)
    for i_star, column in ((d - 1, [1, 0, -1, 1]), (d - 3, [1, -1, 1, 0]), (d, [0, 1, 0, -1])):
        got = outcome(neighbor_item, s, i_star, column)
        assert got == outcome(reference_item, s, i_star, column)
        assert not isinstance(got[0], type)
    for t_star in range(1, 5):
        for i_star in (d, d - 1, d - 3):
            for value in (-1, 0, 1):
                want = outcome(reference_event, s, t_star, i_star, value)
                assert outcome(neighbor_event, s, t_star, i_star, value) == want


def test_item_neighbour_keeps_the_id_type_traced_peak():
    """A neighbour that gains no entry builds its ids in the stream's id type:
    on churn-multi's shape (10^4 items, 2.5e5 updates), an all-zero column
    peaked at 10.0 MB, and at 12.0 MB with the ids widened to int64."""
    s = SHAPES["churn-multi"]()
    zeros = [0] * s.length
    tracemalloc.start()
    try:
        got = neighbor_item(s, 5188, zeros)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_equal_streams(got, reference_item(s, 5188, zeros))
    assert peak <= 11e6, f"neighbor_item peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("d", [200, MAX_ID])
def test_event_to_item_pads_narrow_columns(d):
    s = Stream(d, 3, "likes", [[(d, 1)], [], [(d, -1), (1, 1)]])
    seen = []

    def inner(padded):
        seen.append(padded)
        return RunResult(outputs=padded.counts.astype(float).tolist())

    assert mechanisms.run_event_to_item(inner, s).outputs == [1.0, 1.0, 1.0]
    (padded,) = seen
    assert padded.offsets.tolist() == [0, 0, 1, 1, 3]
    for name in ("offsets", "items", "deltas"):
        assert getattr(padded, name).dtype == getattr(s, name).dtype
    assert padded.items.tolist() == s.items.tolist() == [d, d, 1]


def test_generate_writes_uint8_ids(tmp_path, capsys):
    out = tmp_path / "x.dstream"
    rc = main(["generate", "random", "--d", "200", "--T", "50", "--model", "likes",
               "--K", "20", "--seed", "1", "-o", str(out)])
    assert rc == 0, capsys.readouterr().err
    got = streammod.read_file(out)
    assert got.items.dtype == np.uint8
    assert_equal_streams(got, generators.random_stream(200, 50, "likes", False, 20, 1))


# --- random_stream's pair sort --------------------------------------------


@pytest.mark.parametrize("top", [10, 2**40, 2**61, MAX_ID])
@pytest.mark.parametrize("span", [1, 7, 2**22, 2**62])
def test_pair_order_is_the_lexsort_order(top, span):
    rng = np.random.default_rng([top % 1000, span % 1000])
    major = rng.integers(0, top, size=10, endpoint=True).repeat(4)  # repeated majors
    minor = rng.integers(0, span, size=40)
    pairs = sorted(set(zip(major.tolist(), minor.tolist())))
    major, minor = np.array([pairs[i] for i in rng.permutation(len(pairs))]).T
    got = generators._pair_order(major, minor, span)
    assert got.tolist() == np.lexsort((minor, major)).tolist()


@pytest.mark.parametrize(
    "d, T, model, singleton, K",
    [(MAX_ID, 6, "general", True, 5), (2**62, 4, "likes", True, 4),
     (2**62 - 1, 2, "likes", False, 3)],
)
def test_random_stream_sorts_keys_past_int64(d, T, model, singleton, K):
    # the largest id times T, or (d + 1) * T, reaches 2^63: the lexsort branch
    got = generators.random_stream(d, T, model, singleton, K, 4)
    assert_equal_streams(got, reference_random(d, T, model, singleton, K, 4))
    assert_narrow(got)
