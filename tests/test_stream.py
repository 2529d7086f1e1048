"""Stream representation, exact oracles, and the .dstream format."""

import numpy as np
import pytest

from dpdistinct import (
    CounterState,
    FlippancySummary,
    ModelViolationError,
    ParameterError,
    Stream,
    StreamFormatError,
    apply_batch,
    diff_sequence,
    distinct_count,
    distinct_counts,
    total_flippancy,
    validate,
)
from dpdistinct import stream as streammod
from dpdistinct.generators import blocks_stream


def brute_force_counts(stream):
    """Recompute CountDistinct at every step from raw prefix sums."""
    out = []
    for t in range(1, stream.length + 1):
        total = 0
        for i in range(1, stream.d + 1):
            prefix = sum(
                delta
                for batch in stream.batches[:t]
                for item, delta in batch
                if item == i
            )
            total += prefix > 0
        out.append(total)
    return out


def brute_force_flippancy(stream):
    flips = 0
    for i in range(1, stream.d + 1):
        prev = False
        prefix = 0
        for batch in stream.batches:
            for item, delta in batch:
                if item == i:
                    prefix += delta
            now = prefix > 0
            flips += now != prev
            prev = now
    return flips


def random_raw_stream(rng, model):
    """Arbitrary random stream: raw deltas for general, toggling for likes."""
    d = int(rng.integers(1, 9))
    T = int(rng.integers(1, 33))
    batches = []
    if model == "general":
        for _ in range(T):
            items = rng.permutation(d)[: rng.integers(0, d + 1)]
            batches.append(
                [(int(i) + 1, int(rng.choice([-1, 1]))) for i in sorted(items)]
            )
    else:
        present = [False] * d
        for _ in range(T):
            items = rng.permutation(d)[: rng.integers(0, d + 1)]
            batch = []
            for i in sorted(items):
                if rng.random() < 0.5:
                    continue
                batch.append((int(i) + 1, -1 if present[i] else 1))
                present[i] = not present[i]
            batches.append(batch)
    return Stream(d=d, T=T, model=model, batches=batches)


class TestCounterState:
    def test_two_fresh_insertions(self):
        state = CounterState(2)
        apply_batch(state, [(1, 1), (2, 1)])
        assert state.q == 2

    def test_one_deletion(self):
        state = apply_batch(CounterState(2), [(1, 1), (2, 1)])
        assert state.q == 2
        apply_batch(state, [(1, -1)])
        assert state.q == 1

    def test_empty_batch_is_identity(self):
        state = apply_batch(CounterState(2), [(1, 1)])
        apply_batch(state, [])
        assert (state.c, state.q) == ([1, 0], 1)

    def test_insert_then_delete(self):
        state = CounterState(2)
        apply_batch(state, [(1, 1), (2, 1)])
        apply_batch(state, [(1, -1)])
        assert distinct_count(state) == 1

    def test_general_model_negative_prefix(self):
        # insert, delete, delete, insert leaves c_1 = 0
        state = CounterState(1)
        for delta in (1, -1, -1, 1):
            apply_batch(state, [(1, delta)])
        assert distinct_count(state) == 0

    def test_out_of_range_item(self):
        state = CounterState(2)
        with pytest.raises(StreamFormatError):
            apply_batch(state, [(3, 1)])

    def test_duplicate_item_in_batch(self):
        state = CounterState(2)
        with pytest.raises(StreamFormatError):
            apply_batch(state, [(1, 1), (1, -1)])

    @pytest.mark.parametrize("update", [(1,), (1, 1, 5), 1])
    def test_update_that_is_not_a_pair(self, update):
        with pytest.raises(StreamFormatError, match=r"is not an \(item, delta\) pair$"):
            apply_batch(CounterState(2), [update])


class TestFlippancy:
    def test_single_item_three_flips(self):
        s = Stream(d=1, T=3, model="general", batches=[[(1, 1)], [(1, -1)], [(1, 1)]])
        assert total_flippancy(s).total_K == 3

    def test_all_zero_stream(self):
        s = Stream(d=4, T=5, model="general", batches=[[] for _ in range(5)])
        summary = total_flippancy(s)
        assert summary.total_K == 0
        assert summary.max_w == 0

    def test_blocks_stream_flippancy(self):
        s = blocks_stream(2, 2, (1, 3), 8)
        assert total_flippancy(s).total_K == 4

    def test_likes_flippancy_equals_update_count(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = random_raw_stream(rng, "likes")
            n_updates = sum(len(b) for b in s.batches)
            assert total_flippancy(s).total_K == n_updates

    def test_max_w_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            s = random_raw_stream(rng, "general")
            summary = total_flippancy(s)
            assert summary.max_w <= summary.total_K <= s.d * summary.max_w or (
                summary.total_K == 0
            )


class TestDiffSequence:
    def test_insert_insert_delete(self):
        s = Stream(
            d=2, T=3, model="likes", batches=[[(1, 1)], [(2, 1)], [(1, -1)]]
        )
        assert diff_sequence(s) == [1, 1, -1]

    def test_all_zero(self):
        s = Stream(d=3, T=4, model="general", batches=[[] for _ in range(4)])
        assert diff_sequence(s) == [0, 0, 0, 0]

    def test_prefix_sums_reproduce_counts(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = random_raw_stream(rng, "general")
            diffs = diff_sequence(s)
            counts = distinct_counts(s)
            running = 0
            for dv, q in zip(diffs, counts):
                running += dv
                assert running == q

    def test_likes_singleton_diffs_bounded(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            s = random_raw_stream(rng, "likes")
            # keep at most one update per step to get a singleton stream
            s = Stream(
                d=s.d, T=s.T, model="likes", batches=[b[:1] for b in s.batches]
            )
            assert all(v in (-1, 0, 1) for v in diff_sequence(s))


class TestValidate:
    def test_double_insert_violation(self):
        s = Stream(d=2, T=2, model="likes", batches=[[(1, 1)], [(1, 1)]])
        report = validate(s)
        assert not report.ok
        assert report.violation == (1, 2)

    def test_general_delete_absent_ok(self):
        s = Stream(d=2, T=1, model="general", batches=[[(1, -1)]])
        assert validate(s).ok

    def test_singleton_flag(self):
        s = Stream(d=3, T=2, model="likes", batches=[[(1, 1)], [(2, 1)]])
        assert validate(s).singleton
        s2 = Stream(d=3, T=1, model="likes", batches=[[(1, 1), (2, 1)]])
        assert not validate(s2).singleton


class TestBruteForceOracle:
    def test_incremental_matches_brute_force(self):
        rng = np.random.default_rng(1234)
        for k in range(200):
            model = "general" if k % 2 == 0 else "likes"
            s = random_raw_stream(rng, model)
            assert distinct_counts(s) == brute_force_counts(s)
            assert total_flippancy(s).total_K == brute_force_flippancy(s)


class TestDstreamFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = random_raw_stream(rng, "general")
            again = streammod.loads(streammod.dumps(s))
            assert again.d == s.d and again.T == s.T and again.model == s.model
            assert again.batches == s.batches

    @pytest.mark.parametrize("items", [[10**18 + 5], [2**63 - 1], [10**18 + 5, 2**63 - 1]],
                             ids=["10^18+5", "2^63-1", "both"])
    def test_19_digit_ids_round_trip(self, tmp_path, items):
        # the widest ids a Stream holds: the reader takes what the writer writes
        n = len(items)
        s = Stream.from_columns(2**63 - 1, 2, "likes", [0, n, n], items, [1] * n)
        path = tmp_path / "wide.dstream"
        streammod.write_file(s, path)
        for again in (streammod.read_file(path), streammod.loads(streammod.dumps(s))):
            assert (again.d, again.T, again.model) == (s.d, s.T, s.model)
            assert again.batches == s.batches == [[(i, 1) for i in items], []]
            assert again.counts.tolist() == s.counts.tolist()

    def test_header_shape(self):
        text = streammod.dumps(Stream(d=2, T=2, model="likes", batches=[[(1, 1)]]))
        assert text.splitlines()[0] == "dstream 1 2 2 likes"

    def test_reject_bad_header(self):
        with pytest.raises(StreamFormatError):
            streammod.loads("nope 1 2 2 likes\n")

    def test_reject_out_of_range_id(self):
        with pytest.raises(StreamFormatError):
            streammod.loads("dstream 1 2 2 likes\n3:+1\n")

    def test_reject_duplicate_id(self):
        with pytest.raises(StreamFormatError):
            streammod.loads("dstream 1 2 2 likes\n1:+1 1:-1\n")

    def test_reject_too_many_lines(self):
        with pytest.raises(StreamFormatError):
            streammod.loads("dstream 1 2 1 likes\n1:+1\n2:+1\n")

    @pytest.mark.parametrize("line", ["3:+1", "1:+2", "1:+1 1:-1"])
    def test_errors_name_the_line(self, line):
        with pytest.raises(StreamFormatError, match="^line 3: "):
            streammod.loads(f"dstream 1 2 2 general\n1:+1\n{line}\n")


class TestConstruction:
    @pytest.mark.parametrize(
        "bad", [[(3, 1)], [(0, 1)], [(1, 2)], [(1, 0)], [(2, 1), (2, -1)]]
    )
    def test_bad_batch_names_the_step(self, bad):
        with pytest.raises(StreamFormatError, match="^step 2: ") as info:
            Stream(d=2, T=3, model="general", batches=[[(1, 1)], bad, []])
        assert info.value.step == 2

    @pytest.mark.parametrize(
        "batches, step, update",
        [
            ([[(1, 1, 5)]], 1, "(1, 1, 5)"),
            ([[(1,), (2, 1, 1)]], 1, "(1,)"),
            ([[(1, 1)], [(2,)]], 2, "(2,)"),
            ([[(1, 1)], [(2, -1), 1]], 2, "1"),
        ],
        ids=["triple", "single then triple", "single in step 2", "int in step 2"],
    )
    def test_update_that_is_not_a_pair_names_the_step(self, batches, step, update):
        message = f"step {step}: update {update} is not an (item, delta) pair"
        with pytest.raises(StreamFormatError) as info:
            Stream(d=2, T=2, model="general", batches=batches)
        assert (str(info.value), info.value.step) == (message, step)

    def test_counts_and_flips_are_stored(self):
        s = Stream(d=3, T=4, model="general",
                   batches=[[(1, 1), (2, 1)], [(1, -1)], [(1, -1)], [(1, 1), (3, 1)]])
        assert list(s.counts) == [2, 1, 1, 2]
        assert total_flippancy(s) == FlippancySummary(total_K=4, max_w=2)
        assert s.violation is None and not s.singleton

    def test_counts_are_one_read_only_int64_array(self):
        s = Stream(d=2, T=3, model="likes", batches=[[(1, 1)], [(2, 1)], []])
        assert s.counts.dtype == np.int64 and s.counts.tolist() == [1, 2, 2]
        with pytest.raises(ValueError):
            s.counts[0] = 5

    def test_non_integer_d_is_rejected(self):
        # a float d would pick a float16 item type, which rounds ids past 2048
        with pytest.raises(ParameterError, match=r"^dimension d must be an integer, got 5000\.5$"):
            Stream(5000.5, 3, "general", [[(2048, 1)], [(2049, 1)], [(3001, 1)]])

    @pytest.mark.parametrize("T", [2.7, 3.0, "3"])
    def test_non_integer_T_is_rejected(self, T):
        with pytest.raises(ParameterError, match="^length bound T must be an integer, got "):
            Stream(4, T, "likes", [[(1, 1)]])

    @pytest.mark.parametrize("column", ["offsets", "items", "deltas"])
    @pytest.mark.parametrize("kind", [float, str, bool])
    def test_from_columns_rejects_a_non_integer_column(self, column, kind):
        columns = {"offsets": [0, 1, 2], "items": [1, 2], "deltas": [1, 1]}
        columns[column] = [kind(v) for v in columns[column]]
        with pytest.raises(TypeError, match="^a stream column holds .*, not integers$"):
            Stream.from_columns(3, 2, "likes", *columns.values())

    def test_an_empty_column_of_any_dtype_is_accepted(self):
        s = Stream.from_columns(3, 2, "likes", [0, 0, 0], [], np.array([], dtype=np.float32))
        assert s.items.size == 0 and s.counts.tolist() == [0, 0]

    @pytest.mark.parametrize(
        "offsets, items, deltas, fault",
        [
            ([0, 1], [[1]], [1], "a column is not 1-D"),
            ([[0, 1]], [1], [1], "a column is not 1-D"),
            (0, [], [], "a column is not 1-D"),
            ([], [], [], "offsets are empty"),
            ([1, 2], [1, 2], [1, 1], r"offsets\[0\] is not 0"),
            ([-1, 2], [1, 2, 3], [1, 1, 1], r"offsets\[0\] is not 0"),
            ([0, 2, 1], [1, 2], [1, 1], "offsets decrease"),
            (np.array([0, 2, 1], np.uint8), [1, 2], [1, 1], "offsets decrease"),
            ([0, 1], [1, 2], [1, 1], r"offsets\[-1\] is not len\(items\) = 2"),
            ([0, 2], [1, 2], [1], "deltas and items differ in length"),
            ([0, 1], [1], [1, -1], "deltas and items differ in length"),
        ],
    )
    def test_from_columns_rejects_columns_that_describe_no_stream(
        self, offsets, items, deltas, fault
    ):
        with pytest.raises(StreamFormatError, match=f"^stream columns: {fault}$"):
            Stream.from_columns(3, 3, "likes", offsets, items, deltas)


def test_flippancy_rejects_invalid_likes_stream():
    s = Stream(d=1, T=2, model="likes", batches=[[(1, 1)], [(1, 1)]])
    with pytest.raises(ModelViolationError):
        total_flippancy(s)
