"""Property test: no command-line input makes ``cli.main`` raise.

Each example drives one subcommand (run, trials, probe, bounds, generate) on
a tiny stream with flag values drawn from the edge cases of their types
(0, negatives, NaN, infinities, the largest and smallest doubles, integers
past 64 bits and past the double range, non-integer lists) and from
unreadable input files and headers whose d or T is past 64 bits.  Every
example must end with exit code 0, 1 (parameter error) or 2 (input error,
or an argument argparse rejects) and no exception.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpdistinct.cli import MECHANISMS, main

SETTINGS = settings(
    max_examples=400,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FLOATS = ["0", "-1", "nan", "inf", "-inf", "1e308", "5e-324", "1e-320",
          "0.001", "0.1", "0.5", "0.9", "1", "3"]
# integers past 2^63 only: a size inside the int64 range can be allocated
HUGE_INTS = [str(2**63), str(2**64), str(-(2**63) - 1), str(10**30), str(10**400),
             str(-(10**400))]
INTS = ["0", "-1", "-5", "1", "2", "4", "40", "nan", "inf", "1e308", "2.5",
        str(2**64 - 1), *HUGE_INTS]
SMALL_INTS = ["0", "-1", "1", "2", "3", "6", "x", "nan", *HUGE_INTS]
LISTS = ["1", "1,3", "2,5", "1,x", "x", "", "1,,2", "-1,2", "3,1", "1.5"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    paths = {
        "likes": "dstream 1 4 4 likes\n1:+1\n2:+1\n1:-1\n\n",
        "general": "dstream 1 3 5 general\n1:+1 2:+1\n1:+1\n2:-1\n\n3:+1\n",
        "empty": "dstream 1 4 0 likes\n",
        "malformed": "dstream 1 4 4 likes\n1:+2\n",
        "huge_d": f"dstream 1 {10**30} 4 likes\n1:+1\n",
        "huge_T": f"dstream 1 4 {10**400} likes\n1:+1\n",
        "table": "2 3\n1 0 1\n1 1 0\n",
        "bad_table": "2 3\n1 0\n",
    }
    for name, text in paths.items():
        (root / name).write_text(text)
        paths[name] = str(root / name)
    (root / "latin1").write_bytes(b"dstream 1 4 4 likes\n\xff\xfe:+1\n")
    paths["latin1"] = str(root / "latin1")
    paths["directory"] = str(root)
    paths["missing"] = str(root / "missing.dstream")
    paths["out"] = str(root / "out.csv")
    return paths


INPUTS = ["likes", "likes", "general", "empty", "malformed", "huge_d", "huge_T", "latin1",
          "directory", "missing"]


@st.composite
def argvs(draw, files):
    command = draw(st.sampled_from(["run", "trials", "probe", "bounds", "generate"]))
    if command == "bounds":
        argv = ["bounds"]
        for flag, values in (("--eps", FLOATS), ("--delta", FLOATS), ("--beta", FLOATS),
                             ("--T", INTS), ("--K", INTS), ("--d", INTS)):
            argv += [flag, draw(st.sampled_from(values))]
        return argv
    if command == "generate":
        family = draw(st.sampled_from(["blocks", "multiupdate", "marginals", "random"]))
        argv = ["generate", family, "-o", files["out"]]
        if family in ("blocks", "multiupdate"):
            argv += ["--m", draw(st.sampled_from(SMALL_INTS)),
                     "--Tprime", draw(st.sampled_from(SMALL_INTS)),
                     "--J" if family == "blocks" else "--I", draw(st.sampled_from(LISTS))]
        elif family == "marginals":
            name = draw(st.sampled_from(["table", "bad_table", "latin1", "directory", "missing"]))
            argv += ["--file", files[name]]
        else:
            for flag in ("--d", "--T", "--K"):
                argv += [flag, draw(st.sampled_from(SMALL_INTS))]
            argv += ["--seed", draw(st.sampled_from(INTS))]
        return argv
    argv = [command, "--input", files[draw(st.sampled_from(INPUTS))],
            "--mechanism", draw(st.sampled_from(MECHANISMS))]
    if command != "probe":  # probe has no --noise
        argv += ["--noise", draw(st.sampled_from(["live", "zero"]))]
    for flag, values in (("--eps", FLOATS), ("--delta", FLOATS), ("--beta", FLOATS),
                         ("--K", INTS), ("--T", INTS), ("--seed", INTS)):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if command == "run":
        argv += ["-o", files["out"]]
    elif command == "trials":
        argv += ["--trials", "2"]
        if draw(st.booleans()):
            argv += ["--bound", draw(st.sampled_from(FLOATS))]
    else:
        argv += ["--neighbor", files[draw(st.sampled_from(INPUTS))], "--samples", "2"]
    return argv


def run_main(argv):
    """``main``'s return code, or argparse's exit code; output is discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@SETTINGS
@given(data=st.data())
def test_cli_never_raises(files, data):
    argv = data.draw(argvs(files))
    assert run_main(argv) in (0, 1, 2), argv
