"""Property tests: the columnar Stream against the per-batch reference.

``reference_loads`` is a per-token parse that checks each token against the
documented grammar (``GRAMMAR``), and ``reference_index`` the per-batch
validation loop that the columnar constructor replaced.  For every input,
the columnar code must build the same stream (batches, counts, total and
largest flippancy, violation, singleton, and the ``.dstream`` text that
``dumps`` returns and the bytes that ``write_file`` writes) or raise the same
exception class with the same message.  ``read_file``, which hands a file's
bytes to the parser, must give what ``loads`` gives for the bytes decoded as
UTF-8.
"""

import re
import tempfile
import tracemalloc
from collections import defaultdict
from itertools import zip_longest
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dpdistinct import generators
from dpdistinct import stream as streammod
from dpdistinct.errors import ParameterError, StreamFormatError
from dpdistinct.stream import FlippancySummary, Stream, check_batch, total_flippancy

SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# an item and a delta, each an optional sign and 1 to 18 ASCII digits
GRAMMAR = re.compile(r"[+-]?[0-9]{1,18}:[+-]?[0-9]{1,18}")


def tokens_of(line):
    """The tokens of a data line, split on spaces and tabs."""
    return [token for token in line.replace("\t", " ").split(" ") if token]


def first_bad_token(lines):
    """(token, line number) of the first token outside GRAMMAR, or None."""
    for lineno, line in enumerate(lines, start=2):
        for token in tokens_of(line):
            if not GRAMMAR.fullmatch(token):
                return token, lineno
    return None


def reference_index(d, T, model, batches):
    """The per-batch loop: (counts, flips, violation, singleton), or raise;
    ``flips`` maps each updated item to its flippancy."""
    if d < 1:
        raise ParameterError(f"dimension d must be >= 1, got {d}")
    if T < 0:
        raise ParameterError(f"length bound T must be >= 0, got {T}")
    if model not in ("general", "likes"):
        raise ParameterError(f"unknown model {model!r}")
    if len(batches) > T:
        raise StreamFormatError(f"stream has {len(batches)} batches but declares T={T}")
    sums = defaultdict(int)  # by item, so that d may be as large as 2^63 - 1
    flips = defaultdict(int)
    counts = []
    q = 0
    singleton = True
    violation = None
    for t, batch in enumerate(batches, start=1):
        try:
            check_batch(batch, d)
        except StreamFormatError as exc:
            raise StreamFormatError(f"step {t}: {exc}", step=t) from None
        if len(batch) > 1:
            singleton = False
        for item, delta in batch:
            old = sums[item]
            new = old + delta
            sums[item] = new
            if (new > 0) != (old > 0):
                flips[item] += 1
                q += delta
            if new not in (0, 1) and model == "likes" and violation is None:
                violation = (item, t)
        counts.append(q)
    return counts, flips, violation, singleton


def reference_loads(text):
    """The per-token parse: (d, T, model, batches, index), or raise."""
    lines = text.splitlines()
    if not lines:
        raise StreamFormatError("empty .dstream input")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "dstream" or header[1] != "1":
        raise StreamFormatError(f"bad .dstream header: {lines[0]!r}")
    try:
        d, T = int(header[2]), int(header[3])
    except ValueError:
        raise StreamFormatError(f"non-integer d/T in header: {lines[0]!r}")
    model = header[4]
    if model not in ("general", "likes"):
        raise StreamFormatError(f"unknown model {model!r} in header")
    data_lines = lines[1:]
    if len(data_lines) > T:
        raise StreamFormatError(f"{len(data_lines)} data lines exceed declared T={T}")
    bad = first_bad_token(data_lines)
    if bad is not None:
        raise StreamFormatError("bad token %r on line %d" % bad)
    batches = [
        [tuple(map(int, token.split(":"))) for token in tokens_of(line)]
        for line in data_lines
    ]
    try:
        index = reference_index(d, T, model, batches)
    except StreamFormatError as exc:
        raise StreamFormatError(f"line {exc.step + 1}: {exc}") from None
    return d, T, model, batches, index


def reference_dumps(d, T, model, batches):
    lines = [f"dstream 1 {d} {T} {model}"]
    for batch in batches:
        lines.append(" ".join(f"{item}:{delta:+d}" for item, delta in batch))
    return "\n".join(lines) + "\n"


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # compared by class and message
        return None, (type(exc), str(exc))


def first_difference(got: str, want: str):
    """None if the texts are equal, else (line number, got's line, want's
    line) for the first line that differs, a missing line being None.  The
    report stays short: pytest's own diff of two long texts takes minutes."""
    if got == want:
        return None
    lines = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((i, a, b) for i, (a, b) in enumerate(lines, start=1) if a != b)


def assert_same_stream(s, d, T, model, batches, index):
    counts, flips, violation, singleton = index
    assert (s.d, s.T, s.model, s.length) == (d, T, model, len(batches))
    assert s.batches == batches
    assert list(s.counts) == counts
    if violation is None:
        want = FlippancySummary(sum(flips.values()), max(flips.values(), default=0))
        assert total_flippancy(s) == want
    assert s.violation == violation
    assert s.singleton is singleton
    text = streammod.dumps(s)
    assert first_difference(text, reference_dumps(d, T, model, batches)) is None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.dstream"
        streammod.write_file(s, path)
        assert first_difference(path.read_bytes().decode("latin-1"), text) is None
    if s.items.max(initial=0) < 10**18:  # GRAMMAR reads ids of up to 18 digits
        assert streammod.loads(text).batches == batches


# --- .dstream text --------------------------------------------------------

ALPHABET = "0123456789:+- \t\r\nx"
SIGN = st.sampled_from(["", "", "+", "-"])
NUMBER = st.one_of(
    st.integers(0, 9).map(str),
    st.builds(lambda z, n: "0" * z + str(n), st.integers(0, 20), st.integers(0, 12)),
    st.integers(10**17, 10**20).map(str),
)
WELL_FORMED = st.builds(lambda i, s: f"{i}:{s}1", st.integers(1, 6), st.sampled_from("+-"))
NUMERIC = st.builds(lambda a, n, b, m: f"{a}{n}:{b}{m}", SIGN, NUMBER, SIGN, NUMBER)
CLEAN = st.one_of(WELL_FORMED, WELL_FORMED, WELL_FORMED, NUMERIC)
NOISY = st.one_of(WELL_FORMED, NUMERIC, st.text(ALPHABET, max_size=5))
SEPARATOR = st.sampled_from([" ", " ", "\t", "  ", " \t"])
BREAK = st.sampled_from(["\n", "\n", "\r\n", "\r"])


def edit(line, pos, char, op):
    """One insert, replace or delete in a line, at pos (mod the line length)."""
    pos %= len(line) + 1
    if op == "insert":
        return line[:pos] + char + line[pos:]
    return line[:pos] + (char if op == "replace" else "") + line[pos + 1 :]


def lines_of(tokens, unique=False):
    return st.builds(
        lambda lead, parts, tail: lead + "".join(t + s for t, s in parts) + tail,
        st.sampled_from(["", "", " ", "\t"]),
        st.lists(
            st.tuples(tokens, SEPARATOR),
            max_size=4,
            unique_by=(lambda p: p[0].partition(":")[0]) if unique else None,
        ),
        st.sampled_from(["", "", " "]),
    )


@st.composite
def dstream_texts(draw):
    """Headers with d in {0, 1, 3, 6, 7} and T around the line count.

    Data lines are empty (so that streams can be sparse) or made of
    well-formed tokens on distinct items (valid but for likes-model
    violations when d >= 6), of well-formed tokens mixed with numbers that
    may be out of range, long or zero-padded, of well-formed tokens with one
    character edited, or of any text over ALPHABET.
    """
    d = draw(st.sampled_from([0, 1, 3, 6, 6, 7, 7]))
    model = draw(st.sampled_from(["general", "likes"]))
    line = draw(st.sampled_from([
        lines_of(WELL_FORMED, unique=True),
        lines_of(CLEAN),
        st.builds(edit, lines_of(WELL_FORMED), st.integers(0, 40),
                  st.sampled_from(":+- \tx1"), st.sampled_from(["insert", "replace", "delete"])),
        st.one_of(lines_of(NOISY), st.text(ALPHABET, max_size=8)),
    ]))
    lines = draw(st.lists(st.one_of(st.just(""), line), max_size=10))
    body = "".join(draw(BREAK) + line for line in lines)
    body += draw(st.sampled_from(["", "\n", "\r\n"]))
    n_lines = len(("header" + body).splitlines()) - 1
    T = max(0, n_lines + draw(st.sampled_from([0, 0, 1, 1, -1])))
    return f"dstream 1 {d} {T} {model}" + body


@SETTINGS
@given(dstream_texts())
def test_loads_matches_reference(text):
    got, got_err = outcome(streammod.loads, text)
    want, want_err = outcome(reference_loads, text)
    assert got_err == want_err
    if want is not None:
        assert_same_stream(got, *want)


# any Unicode, or the grammar's characters mixed with spellings that int() or
# str.split read and the grammar does not (an Arabic-Indic digit, no-break
# space, underscore) and with line breaks that str.splitlines honours
TAIL = st.one_of(
    st.text(max_size=8), st.text("0123456789:+- \t\n\u0661\xa0_\u2028\x0b", max_size=8)
)


@SETTINGS
@given(dstream_texts(), TAIL)
def test_column_parser_accepts_exactly_the_grammar(text, tail):
    lines = (text + tail).splitlines()[1:]
    bad = first_bad_token(lines)
    header = f"dstream 1 7 {len(lines)} general\n"  # the parser reads from its end
    data = "".join([header, *(line + "\n" for line in lines)]).encode("ascii", "replace")
    assert (streammod._parse_columns(data, len(header)) is None) == (bad is not None)
    if bad is not None:
        body = "\n".join([f"dstream 1 7 {len(lines)} general", *lines])
        with pytest.raises(StreamFormatError) as info:
            streammod.loads(body)
        assert str(info.value) == "bad token %r on line %d" % bad


# the line breaks of str.splitlines other than "\n", and three characters that
# str.split splits at but str.splitlines does not
OTHER_BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
SPACES = ["\x1f", "\xa0", "\u3000"]


@st.composite
def dstream_files(draw):
    """The UTF-8 bytes of a dstream_texts() text, maybe with a TAIL, where up
    to two of OTHER_BREAKS or SPACES are put into the header line, up to two
    of the body's "\\n" become another break, and one or two arbitrary bytes
    (often not UTF-8) may be inserted anywhere."""
    header, _, body = (draw(dstream_texts()) + draw(st.just("") | TAIL)).partition("\n")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.sampled_from([i for i, c in enumerate(header) if c == " "] + [len(header)]))
        char = draw(st.sampled_from(OTHER_BREAKS + SPACES))
        header = header[:at] + char + header[at + draw(st.integers(0, 1)):]
    body = body.replace("\n", draw(st.sampled_from(OTHER_BREAKS)), draw(st.integers(0, 2)))
    data = f"{header}\n{body}".encode("utf-8")
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    return data


def assert_equal_streams(a, b):
    fields = ("d", "T", "model", "violation", "singleton")
    assert [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
    for name in ("offsets", "items", "deltas", "counts"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tolist() == y.tolist()


@SETTINGS
@given(dstream_files())
def test_read_file_matches_loads(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "read_file.dstream"
    path.write_bytes(data)
    got, got_err = outcome(streammod.read_file, path)
    want, want_err = outcome(lambda: streammod.loads(data.decode("utf-8")))
    assert got_err == want_err
    if want is not None:
        assert_equal_streams(got, want)


# respellings of an "item:+1" token: the parser reads each with its digit
# loop (a sign, zero padding, a delta other than "+1" or "-1", a tab after
# it), or rejects it (a 19-digit number, a second colon, a trailing colon)
ODD_ITEM = st.sampled_from(["+{}", "-{}", "{:018d}", "-{:018d}", "{:019d}", "+{:019d}"])
ODD_DELTA = st.sampled_from(
    [":1", ":11", ":+01", ":-01", ":+10", ":+0", ":-1\t", ":+1:+1", ":1:",
     ":-000000000000000001", ":+0000000000000000001"]
)


@st.composite
def spliced_texts(draw):
    """Lines of canonical "item:+1" and "item:-1" tokens on distinct items,
    with one token respelled at the first, a middle or the last position,
    and the last line ended by "\\n" or not."""
    d = draw(st.sampled_from([3, 9]))
    unit = st.tuples(st.integers(1, d), st.sampled_from("+-"))
    line = st.lists(unit, min_size=1, max_size=4, unique_by=lambda u: u[0])
    lines = [[f"{i}:{s}1" for i, s in ln] for ln in draw(st.lists(line, min_size=1, max_size=6))]
    at = [(n, k) for n, ln in enumerate(lines) for k in range(len(ln))]
    n, k = at[draw(st.sampled_from([0, len(at) // 2, -1]))]
    item, delta = lines[n][k].split(":")
    lines[n][k] = draw(st.one_of(
        st.builds(lambda f, delta: f.format(int(item)) + delta, ODD_ITEM, st.just(":" + delta)),
        st.builds(lambda delta: item + delta, ODD_DELTA),
        st.builds(lambda f, delta: f.format(int(item)) + delta, ODD_ITEM, ODD_DELTA),
    ))
    model = draw(st.sampled_from(["general", "likes"]))
    text = "\n".join([f"dstream 1 {d} {len(lines)} {model}", *map(" ".join, lines)])
    return text + draw(st.sampled_from(["\n", ""]))


@settings(SETTINGS, max_examples=200)
@given(spliced_texts())
@example("dstream 1 3 2 likes\n1:+1 2:+1\n2:-1")
@example("dstream 1 3 2 likes\n1:+1 2:+1\n2:1")
def test_spliced_tokens_match_reference(tmp_path_factory, text):
    want, want_err = outcome(reference_loads, text)
    path = tmp_path_factory.getbasetemp() / "spliced.dstream"
    path.write_bytes(text.encode())
    for read, source in ((streammod.loads, text), (streammod.read_file, path)):
        got, got_err = outcome(read, source)
        assert got_err == want_err
        if want is not None:
            assert_same_stream(got, *want)


SHAPES = {
    # churn-multi's shape: 10^4 items swing together at 25 of 10^4 steps
    "churn-multi": lambda: generators.multiupdate_stream(
        10**4, 10**4, range(200, 10**4, 400), 10**4
    ),
    # quiet-singleton's shape: 10^5 singleton likes updates over 10^4 items
    "quiet-singleton": lambda: generators.random_stream(10**4, 10**5, "likes", True, 10**5, 1),
}


@pytest.mark.parametrize("shape, bound_mb", [("churn-multi", 11), ("quiet-singleton", 5.5)],
                         ids=list(SHAPES))
def test_read_file_traced_peak(tmp_path, shape, bound_mb):
    """read_file's traced memory peak stays a few times the file's size:
    about 1.5 times the measured 7.5 MB (churn-multi) and 3.6 MB
    (quiet-singleton), with the columns kept narrow."""
    made = SHAPES[shape]()
    path = tmp_path / "s.dstream"
    streammod.write_file(made, path)
    tracemalloc.start()
    try:
        got = streammod.read_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_equal_streams(got, made)
    assert peak <= bound_mb * 10**6, f"read_file peaked at {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("shape", SHAPES)
def test_write_file_traced_peak(tmp_path, shape):
    """write_file's traced memory peak stays within twice the file's size."""
    made = SHAPES[shape]()
    path = tmp_path / "s.dstream"
    tracemalloc.start()
    try:
        streammod.write_file(made, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert_equal_streams(streammod.read_file(path), made)
    assert peak <= 2 * size, f"write_file peaked at {peak / 1e6:.2f} MB for {size / 1e6:.2f} MB"


@pytest.mark.parametrize(
    "text",
    [
        "dstream 1 5 4 general\n1:+1 2:-1\n\n0003:1\t+4:+01\n",
        "dstream 1 5 4 likes\r\n1:+1\r\n1:+1\r\n",
        "dstream 1 5 4 likes\n1:+1\n2:+1 2:-1\n9:+1\n",
        "dstream 1 5 4 general\n1:+1 2:+2\nx\n",
        "dstream 1 5 4 general\n1:+1:2\n",
        "dstream 1 5 4 general\n1_0:+1\n",
        "dstream 1 5 4 general\n١:+1 2:-1\n",
        "dstream 1 5 4 general\n0000000000000000000001:+1\n",
        "dstream 1 5 4 general\n99999999999999999999:+1\n",
        "dstream 1 5 4 general\n1:+99999999999999999999\n",
        "dstream 1 0 1 general\n1:+1\n",
        "dstream 1 5 1 general\n\n\n",
        "dstream 1 5 4 general\n1 2 :\n",
        "dstream 1 5 4 general\n+ 1:1\n",
        "dstream 1 5 4 general\n1:+1+2:+1\n",
        "dstream 1 5 4 general\n1:+1 2:-+1\n",
        "dstream 1 5 4 general\n1:1: 2:1\n",
        "dstream 1 5 4 general\n1: 1\n",
        "dstream 1 5 4 general\n12 1:1:1\n",
        "dstream 1 5 4 general\n1::1 2\n",
        "dstream 1 5 4 general\n++1:1\n",
        "dstream 1 5 4 general\n1:-+1\n",
        "dstream 1 3 5 general\n\n\n5:+1\n",
    ],
)
def test_loads_edge_cases(text):
    got, got_err = outcome(streammod.loads, text)
    want, want_err = outcome(reference_loads, text)
    assert got_err == want_err
    if want is not None:
        assert_same_stream(got, *want)


# --- Stream(batches=...) --------------------------------------------------

BATCH = st.lists(st.tuples(st.integers(-1, 8), st.sampled_from([1, 1, -1, -1, 0, 2])), max_size=4)
BATCHES = st.lists(st.one_of(st.just([]), BATCH), max_size=10)
MAX_ID = 2**63 - 1  # the largest d, so the widest id a stream holds (19 digits)
# ids of every width from 1 to 19 digits, and the edges of the writer's
# uint32 digit path (9 and 10 digits, 2^32)
WIDE_ID = st.one_of(
    st.integers(1, 19).flatmap(lambda k: st.integers(10 ** (k - 1), min(10**k - 1, MAX_ID))),
    st.sampled_from([9, 10, 10**9 - 1, 10**9, 2**32 - 1, 2**32, 10**18, MAX_ID]),
)
WIDE_BATCH = st.lists(st.tuples(WIDE_ID, st.sampled_from([1, -1])), max_size=4,
                      unique_by=lambda u: u[0])
WIDE_BATCHES = st.lists(st.one_of(st.just([]), WIDE_BATCH), max_size=10)


@SETTINGS
@given(
    st.one_of(st.tuples(st.integers(1, 7), BATCHES), st.tuples(st.just(MAX_ID), WIDE_BATCHES)),
    st.sampled_from(["general", "likes"]),
)
@example((4, [[], [(1, 1)], [], [(2, -1), (4, 1)], []]), "general")  # empty first, middle, last
@example((3, [[], [], []]), "likes")  # no update at all
@example((3, []), "likes")  # a stream of length 0
@example((MAX_ID, [[(10**k, 1) for k in range(19)] + [(MAX_ID, -1)], []]), "general")
def test_batches_match_reference(stream, model):
    d, batches = stream
    got, got_err = outcome(Stream, d, len(batches), model, batches)
    want, want_err = outcome(reference_index, d, len(batches), model, batches)
    assert got_err == want_err
    if want is not None:
        assert_same_stream(got, d, len(batches), model, batches, want)


TOP = 2**16 - 1  # the largest id that _index sorts as a 16-bit key
# valid steps that leave every count at 0: enough updates for the radix sort,
# on ids that a key narrower than 16 bits would merge (i and i + 256)
PAD = [[(i, s), (i + 256, s)] for i in range(1, streammod._RADIX_MIN // 4 + 1) for s in (1, -1)]


@pytest.mark.parametrize("pad", [[], PAD], ids=["int64-sort", "radix-sort"])
@pytest.mark.parametrize("d", [TOP - 1, TOP + 2])
@pytest.mark.parametrize("model", ["general", "likes"])
@pytest.mark.parametrize(
    "tail",
    [
        [[(TOP, 1), (1, 1)], [(1, 1)], [(TOP, -1)]],  # likes violation, or TOP > d
        [[(2, 1)], [(0, 1), (TOP, 1)]],  # item 0
        [[(3, 1)], [(TOP, 1), (-1, 1)]],  # a negative item
        [[(TOP, 1), (3, 1), (TOP, -1)]],  # an item twice in one step
        [[(4, 1)], [(7, 2)]],  # a delta of 2
        [[(TOP + 1, 1), (5, 1)], [(5, 1)], [(TOP + 1, -1)]],  # an id past 16 bits
    ],
)
def test_ids_at_the_16_bit_boundary_match_reference(pad, d, model, tail):
    batches = pad + tail
    got, got_err = outcome(Stream, d, len(batches), model, batches)
    want, want_err = outcome(reference_index, d, len(batches), model, batches)
    assert got_err == want_err
    if want is not None:
        assert_same_stream(got, d, len(batches), model, batches, want)


@pytest.mark.parametrize("bad", [(1.5, 1), (1, 1.0), ("1", 1)])
def test_non_integer_updates_are_rejected(bad):
    with pytest.raises(TypeError):
        Stream(2, 1, "general", [[bad]])


@SETTINGS
@given(
    st.integers(1, 12),
    st.integers(1, 40),
    st.sampled_from(["general", "likes"]),
    st.booleans(),
    st.integers(0, 10**6),
    st.data(),
)
def test_generated_streams_match_reference(d, T, model, singleton, seed, data):
    target_K = data.draw(st.integers(0, T if singleton else d * T))
    s = generators.random_stream(d, T, model, singleton, target_K, seed)
    batches = s.batches
    assert_same_stream(s, d, T, model, batches, reference_index(d, T, model, batches))
    i_star = data.draw(st.integers(1, d))
    column = data.draw(st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=T, max_size=T))
    y, err = outcome(generators.neighbor_item, s, i_star, column)
    if y is not None:
        ybatches = y.batches
        assert_same_stream(y, d, T, model, ybatches, reference_index(d, T, model, ybatches))


B = streammod.WRITE_BLOCK  # updates and steps in one block of the .dstream writer


@pytest.mark.parametrize(
    "s",
    [
        generators.blocks_stream(6, 3, (1, 2, 4), 12),
        generators.multiupdate_stream(5, 4, (2, 3, 7), 9),
        generators.marginals_to_stream_singleton(
            generators.MarginalsTable(3, 2, ((1, 0), (1, 1), (0, 1)))
        ),
        generators.marginals_to_stream_multi(
            generators.MarginalsTable(3, 2, ((1, 0), (1, 1), (0, 1)))
        ),
        # more steps than one writer block, about half of them empty
        generators.random_stream(64, 2 * B + 3, "likes", True, B, 7),
        # two steps longer than one writer block, after, between and before empty steps
        generators.multiupdate_stream(B + 100, B + 100, (2, 4), 5),
    ],
)
def test_family_streams_match_reference(s):
    batches = s.batches
    assert_same_stream(s, s.d, s.T, s.model, batches, reference_index(s.d, s.T, s.model, batches))
