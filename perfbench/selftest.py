"""Negative tests of the benchmark's own checks, on tiny inputs.

Usage (from the repository root):  python3 perfbench/selftest.py

Each case runs the benchmark's real set-up, gate and measurement code for
one cycle and asserts the verdict:

* clean tiny workloads pass with no failed operation and the regime held;
* a ``run`` CSV with one altered ``truth`` value makes ``failed`` > 0;
* a child that exits non-zero makes ``failed`` > 0;
* a churn stream whose swings are smaller than the threshold trips the
  regime guard.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import sys

import run
from run import WORKLOADS, Bench, Session

TINY = {
    "quiet": dataclasses.replace(WORKLOADS["quiet-singleton"], d=100, T=2000, target_K=2000),
    "churn": dataclasses.replace(WORKLOADS["churn-multi"], d=2000, T=500, swings=10),
    "small": dataclasses.replace(WORKLOADS["small-repeat"], trials=20, probe_samples=10),
}


class CorruptingSession(Session):
    """Adds 1 to the truth value of row 3 of every CSV a ``run`` child writes."""

    def child(self, argv):
        c = super().child(argv)
        if "run" in argv and "-o" in argv:
            path = argv[argv.index("-o") + 1]
            with open(path) as fh:
                lines = fh.read().split("\n")
            cells = lines[3].split(",")
            cells[2] = str(int(cells[2]) + 1)
            lines[3] = ",".join(cells)
            with open(path, "w") as fh:
                fh.write("\n".join(lines))
        return c


def one_cycle(workdir, name, wl, session_cls=Session, seed=7) -> Bench:
    """Set up, gate and measure one cycle; returns the bench with its verdicts."""
    workdir.mkdir(parents=True)
    with session_cls(workdir) as session:
        bench = Bench(name, wl, seed, session)
        bench.setup()
        if wl.mechanism == "known-k":
            bench.zero_noise_check()
        walls, _ = bench.measure(0)
    if walls["trials"]:
        bench.check_regime(statistics.median(walls["trials"]))
    return bench


def main() -> int:
    run.MIN_CYCLES = 1
    run.SETUP_MIN_S = 0.0
    if not run.SRC.is_dir():
        sys.exit(f"no sources under {run.SRC}")
    sys.path.insert(0, str(run.SRC))
    base = run.WORK / f"selftest-{os.getpid()}"
    try:
        for key, wl in TINY.items():
            b = one_cycle(base / key, key, wl)
            assert b.s.failed == 0, b.s.failures
            assert not b.regime_problems, b.regime_problems
            print(f"ok: tiny {key} passes the gate and holds its regime")

        b = one_cycle(base / "altered", "quiet", TINY["quiet"], CorruptingSession)
        assert b.s.failed > 0 and any("truth differs" in f for f in b.s.failures), b.s.failures
        print(f"ok: an altered truth value fails {b.s.failed}/{b.s.attempted} operations")

        b = one_cycle(base / "exit", "small", dataclasses.replace(TINY["small"], trials=0))
        assert b.s.failed > 0 and any("exit code" in f for f in b.s.failures), b.s.failures
        print(f"ok: a non-zero exit fails {b.s.failed}/{b.s.attempted} operations")

        weak = dataclasses.replace(TINY["churn"], d=200)
        b = one_cycle(base / "weak", "churn", weak)
        assert b.s.failed == 0, b.s.failures
        assert b.regime_problems, "swings below the threshold must trip the regime guard"
        print(f"ok: small swings trip the regime guard: {b.regime_problems[0]}")
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            run.WORK.rmdir()  # only when no benchmark run is using it
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
