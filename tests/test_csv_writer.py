"""Property test: the block writer of the `run` CSV against the per-row formatter.

``cli._write_rows`` formats CSV_BLOCK rows at a time with numpy and runs
``"%.12g"`` once per distinct bit pattern.  For every input it must write
exactly what ``"%d,%.12g,%d,%.12g\\n" % row`` writes row by row, to a file
opened by ``open`` and to a redirected ``sys.stdout`` (a ``StringIO``,
which has no ``.buffer``).
"""

import contextlib
import io
import struct
import sys
from itertools import count, zip_longest

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from dpdistinct.cli import CSV_BLOCK, _write_rows

B = CSV_BLOCK
FLOAT_EDGES = [
    0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],  # NaN with a payload
    5e-324, -5e-324, 2.2250738585072014e-308, 1e-320,  # subnormals and the smallest normal
    1e16, -1e16, 123456789012345678.0, 1.7976931348623157e308, -3.25, 0.1, 1.0, 42.0,
]
INT_EDGES = [0, 1, 9, 10, 99, 100, 10**12, 10**18, 2**62, 2**63 - 1]


def reference(outputs, truth, errors) -> str:
    """The per-row formatter the CLI used before the block writer."""
    rows = zip(count(1), outputs.tolist(), truth.tolist(), errors.tolist())
    return "".join(map("%d,%.12g,%d,%.12g\n".__mod__, rows))


def first_difference(got: str, want: str):
    """None if the texts are equal, else (row number, got's row, want's row)
    for the first row that differs, a missing row being None.  The report
    stays short: pytest's own diff of two texts of 2B + 1 rows took minutes."""
    if got == want:
        return None
    rows = zip_longest(got.splitlines(keepends=True), want.splitlines(keepends=True))
    return next((i, a, b) for i, (a, b) in enumerate(rows, start=1) if a != b)


@st.composite
def columns(draw):
    """Columns of a length around the block size, drawn from small value pools
    (a run's outputs repeat) that hold every edge case, tiled by a seeded index."""
    n = draw(st.sampled_from([0, 1, B - 1, B, B + 1, 2 * B + 1]))
    float_pool = np.array(FLOAT_EDGES + draw(st.lists(st.floats(), max_size=40)), np.float64)
    int_pool = np.array(INT_EDGES + draw(st.lists(st.integers(0, 2**62), max_size=40)), np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pick = lambda pool: pool[rng.integers(len(pool), size=n)]  # noqa: E731
    return pick(float_pool), pick(int_pool), pick(float_pool)


# no shrink phase (nor explain, which needs it): a failure reports its first
# example unshrunk, and first_difference points at the row
@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(columns())
def test_block_writer_matches_per_row_formatter(tmp_path_factory, cols):
    want = reference(*cols)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with open(path, "w") as fh:
        _write_rows(fh, *cols)
    assert first_difference(path.read_text(), want) is None
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _write_rows(sys.stdout, *cols)
    assert first_difference(out.getvalue(), want) is None


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(columns())
def test_block_writer_writes_bytes_to_binary_files(tmp_path_factory, cols):
    """`run` writes its CSV as bytes, to a file opened "wb" or to
    sys.stdout.buffer; the bytes are the per-row text's ASCII bytes."""
    want = reference(*cols)
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    with open(path, "wb") as fh:
        _write_rows(fh, *cols)
    assert first_difference(path.read_bytes().decode("ascii"), want) is None
    out = io.BytesIO()
    _write_rows(out, *cols)
    assert first_difference(out.getvalue().decode("ascii"), want) is None
