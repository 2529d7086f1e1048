"""Layered end-to-end benchmark of the dpdistinct command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs ``python -m dpdistinct.cli`` with ``src`` on PYTHONPATH, one child
process at a time in a closed loop: each command starts only after the
previous one has exited.  All inputs are generated from ``--seed``.

1. Set-up: the workload's ``dpdistinct generate`` call and its item-level
   neighbour (``neighbor.py``), repeated at least SETUP_REPEATS times and
   for at least SETUP_MIN_S seconds.
2. Correctness gate: every output is checked (see ``oracle.py``); a
   zero-noise known-K run is compared with a replay of the threshold rule.
3. Measurement: cycles of ``run``, ``trials`` and ``probe`` for ``--seconds``
   seconds (at least MIN_CYCLES cycles); timings are medians over repeats.
4. With ``--trace 1``: an import-only child and a traced in-process replay
   of the same commands (``traced.py``) give the per-layer metrics.

Every timed child runs between two ``reference.py`` children, and its time
is scaled to a host on which that reference takes REF_NOMINAL_S, because a
shared host's speed shifts from second to second (see ``Session.op``).

Standard output is a report line (every metric with its unit, the sample
counts, the regime guard, calibration, host speed and metadata) followed by
the result line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle
from reference import loops as calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3  # at least, and until SETUP_MIN_S of set-up has been timed
SETUP_MIN_S = 3.0
MIN_CYCLES = 3
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 120
BETA = 0.1  # the CLI's default --beta
SMALL_SHARE_LIMIT = 0.05
# Timings are scaled to a host on which the reference child takes this long.
REF_NOMINAL_S = 0.6


@dataclasses.dataclass(frozen=True)
class Workload:
    family: str  # "random" or "multiupdate"
    d: int
    T: int
    mechanism: str
    eps: float
    trials: int
    probe_samples: int
    regime: str  # "quiet", "churn" or "small"
    model: str = "likes"
    singleton: bool = False
    target_K: int = 0
    swings: int = 0  # multiupdate: steps at which all d items flip together

    def swing_steps(self, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        return sorted((rng.choice(self.T, self.swings, replace=False) + 1).tolist())

    def generate_args(self, seed: int, out: Path) -> list[str]:
        if self.family == "multiupdate":
            steps = ",".join(map(str, self.swing_steps(seed)))
            return ["generate", "multiupdate", "--m", str(self.d), "--I", steps,
                    "--Tprime", str(self.T), "-o", str(out)]
        args = ["generate", "random", "--d", str(self.d), "--T", str(self.T),
                "--model", self.model, "--K", str(self.target_K),
                "--seed", str(seed), "-o", str(out)]
        return args + (["--singleton"] if self.singleton else [])

    def neighbor_item(self, seed: int) -> int:
        return int(np.random.default_rng([seed, 1]).integers(1, self.d + 1))


WORKLOADS = {
    # per-step layers: 1e5 scalar draws per trial, the step loop, a 1e5-row
    # CSV; the threshold (~1.3e4 at eps = 0.5) exceeds d, so no refresh can fire
    "quiet-singleton": Workload(
        family="random", d=10_000, T=100_000, singleton=True, target_K=100_000,
        mechanism="known-k", eps=0.5, trials=2, probe_samples=1, regime="quiet"),
    # refresh path: 2.5e5 updates in 1e4 steps, every swing (1e4 items) is
    # larger than the threshold (~6.6e3), so each one refreshes
    "churn-multi": Workload(
        family="multiupdate", d=10_000, T=10_000, swings=25,
        mechanism="known-k", eps=4.0, trials=2, probe_samples=1, regime="churn"),
    # per-call overhead: seeds, sources, configs and results per trial; not in
    # BENCHMARK.json, because three workloads leave too short a window for
    # steady figures within the run budget
    "small-repeat": Workload(
        family="random", d=64, T=256, model="general", target_K=1024,
        mechanism="unknown-k", eps=1.0, trials=1000, probe_samples=500,
        regime="small"),
}

# Which end-to-end metric, on which workload, each per-layer metric should move.
MOVES = {
    "stream.read_file_s": "run_updates_per_s, most on churn-multi, then quiet-singleton",
    "stream.validate_s": "run_updates_per_s on quiet-singleton and churn-multi",
    "stream.distinct_counts_s": "run_updates_per_s on quiet-singleton and churn-multi",
    "stream.distinct_counts_calls": "run_updates_per_s (calls per run command)",
    "stream.check_batch_per_step": "run_updates_per_s and peak_rss_mb on both big workloads",
    "stream.total_flippancy_s": "setup_s",
    "stream.apply_batch_s": "trials_per_s on churn-multi",
    "stream.write_file_s": "setup_s",
    "stream.rss_growth_mb": "peak_rss_mb on quiet-singleton",
    "noise.laplace_draws": "trials_per_s on quiet-singleton; flat on churn-multi",
    "noise.laplace_s": "trials_per_s on quiet-singleton; flat on churn-multi",
    "noise.sources": "trials_per_s on small-repeat only (a manual workload)",
    "noise.source_new_s": "trials_per_s on small-repeat only (a manual workload)",
    "svt.queries": "nothing yet; run_updates_per_s on quiet-singleton once known-K uses AboveThreshold",
    "svt.step_s": "nothing yet; run_updates_per_s on quiet-singleton once known-K uses AboveThreshold",
    "mechanisms.run_s": "trials_per_s on quiet-singleton",
    "mechanisms.self_s": "trials_per_s on quiet-singleton",
    "mechanisms.calls": "count; explains trials_per_s",
    "mechanisms.steps": "count; explains trials_per_s",
    "mechanisms.refreshes": "regime guard: 0 on quiet-singleton, one per swing on churn-multi",
    "mechanisms.refresh_share": "regime guard (refreshes per step)",
    "mechanisms.instances": "trials_per_s on small-repeat (a manual workload)",
    "mechanisms.draws_per_step": "trials_per_s on quiet-singleton",
    "harness.run_trials_s": "trials_per_s, most on small-repeat (a manual workload)",
    "harness.privacy_probe_s": "probe_samples_per_s, most on small-repeat (a manual workload)",
    "harness.evaluate_s": "run_updates_per_s on quiet-singleton",
    "harness.self_s": "trials_per_s and probe_samples_per_s, most on small-repeat (a manual workload)",
    "generators.build_s": "setup_s",
    "cli.import_s": "every metric a little, small-repeat (a manual workload) the most",
    "cli.self_s": "run_updates_per_s and peak_rss_mb on quiet-singleton; flat on churn-multi",
    "cli.output_bytes": "run_updates_per_s and peak_rss_mb on quiet-singleton; flat on churn-multi",
    "trace_overhead_frac": "none (cost of the traced run against the untraced one)",
    "trace.accounted_frac": "none (share of each command's traced wall time the layers account for)",
}

# ROADMAP item 4 re-anchor baseline: seconds per 1e6 singleton likes updates,
# d = 1e4 (Python 3.11.7, numpy 2.4.6, 2 cores); same shape as quiet-singleton.
BASELINE_PER_1E6 = {
    "generators.random_stream": 1.68,
    "stream.distinct_counts": 1.27,
    "stream.validate": 1.12,
    "stream.total_flippancy": 2.20,
    "noise.laplace": 1.67,
    "mechanisms.run_known_k": 3.00,
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclasses.dataclass
class Child:
    wall: float
    rss_mb: float
    rc: int
    stdout: str
    stderr: str
    ref: float = 0.0  # mean wall of the reference children just before and after

    def scaled(self) -> float:
        """Wall time scaled to a host on which the reference child takes REF_NOMINAL_S."""
        return self.wall * REF_NOMINAL_S / self.ref


class Session:
    """Runs children one at a time and counts attempted and failed operations.

    Children are started by ``spawn.py`` so that their ``ru_maxrss`` is their
    own peak and not this process's.  Use as a context manager.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self._spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py"), str(CHILD_TIMEOUT_S)],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ref_walls: list[float] = []
        self._last_ref = None  # wall of the reference child run last, if nothing ran since

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self._spawner.stdin.close()
        self._spawner.wait()
        self._spawner.stdout.close()

    def child(self, argv: list[str]) -> Child:
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        request = {"argv": [sys.executable, *argv], "stdout": str(out_path), "stderr": str(err_path)}
        self._spawner.stdin.write(json.dumps(request) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise BenchError("the child spawner exited")
        r = json.loads(reply)
        return Child(r["wall"], r["rss_mb"], r["rc"], out_path.read_text(), err_path.read_text())

    def reference(self) -> float:
        """Time one reference child, a measure of how fast the host is now."""
        c = self.child([str(HERE / "reference.py")])
        if c.rc != 0:
            raise BenchError(f"reference child exit code {c.rc}: {c.stderr.strip()[-300:]}")
        self.ref_walls.append(c.wall)
        return c.wall

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)
        return not problems

    def op(self, label: str, argv: list[str], gate=None, timed=False) -> tuple[Child, bool]:
        """One operation: a child, failed on a non-zero exit, a traceback or its gate.

        A timed child runs between two reference children, so that its wall
        time can be scaled to the nominal host speed (``Child.scaled``): the
        host's speed shifts from second to second, and the shift shows in the
        reference children too.  Consecutive timed children share a reference.
        """
        if timed and self._last_ref is None:
            self._last_ref = self.reference()
        before = self._last_ref
        c = self.child(argv)
        self._last_ref = self.reference() if timed else None
        if timed:
            c.ref = (before + self._last_ref) / 2
        problems = []
        if c.rc != 0:
            problems.append(f"exit code {c.rc}: {c.stderr.strip()[-300:]}")
        elif "Traceback" in c.stderr:
            problems.append("traceback on stderr")
        elif gate is not None:
            problems = gate(c)
        return c, self.record(label, problems)

    def cli(self, label: str, args: list[str], gate=None, timed=False) -> tuple[Child, bool]:
        return self.op(label, ["-m", "dpdistinct.cli", *args], gate, timed)


def digest(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


class Repeats:
    """Gate each distinct output once and require every repeat to match the first."""

    def __init__(self, check):
        self.check = check
        self.first = None
        self.verdicts: dict[str, list[str]] = {}

    def __call__(self, text: str) -> list[str]:
        key = digest(text)
        if key not in self.verdicts:
            self.verdicts[key] = self.check(text)
        self.first = self.first or key
        differs = ["output differs from the first repeat with the same seed"]
        return self.verdicts[key] + (differs if key != self.first else [])


def metadata(seed: int) -> dict:
    import dpdistinct

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src_hash = hashlib.sha256()
    for path in sorted(Path(dpdistinct.__file__).parent.glob("*.py")):
        src_hash.update(path.name.encode() + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def summary(values: list[float]) -> dict:
    return {"value": statistics.median(values), "n": len(values), "samples": values}


class Bench:
    """One workload at one seed: set-up, gates, measurement and trace."""

    def __init__(self, name: str, wl: Workload, seed: int, session: Session):
        self.name, self.wl, self.seed, self.s = name, wl, seed, session
        w = session.workdir
        self.x, self.y = w / "x.dstream", w / "y.dstream"
        self.run_csv = w / "run.csv"
        self.live_changes = None  # output changes in the first gated run CSV
        self.regime: dict = {}
        self.host: dict = {}
        self.regime_problems: list[str] = []

    def run(self, seconds: float, trace: bool) -> tuple[dict, dict, dict]:
        """All steps; returns end-to-end summaries, per-layer metrics, trace details."""
        setup = self.setup()
        if self.wl.mechanism == "known-k":
            self.zero_noise_check()
        walls, peak_rss = self.measure(seconds)
        if any(not walls[k] for k in ("run", "trials", "probe")):
            raise BenchError("a command failed on every repeat: " + "; ".join(self.s.failures[:3]))
        medians = {k: statistics.median(v) for k, v in walls.items()}
        self.check_regime(medians["trials"])
        self.host = {"reference_median_s": statistics.median(self.s.ref_walls),
                     "reference_n": len(self.s.ref_walls),
                     "unscaled_median_s": {"setup": statistics.median(w for w, _ in setup),
                                           **medians}}
        e2e = {
            "setup_s": summary([s for _, s in setup]),
            **{metric: summary([self.work(kind) / s for s in self.scaled[kind]])
               for metric, kind in (("run_updates_per_s", "run"), ("trials_per_s", "trials"),
                                    ("probe_samples_per_s", "probe"))},
            "peak_rss_mb": {"value": peak_rss, "n": sum(len(v) for v in walls.values())},
        }
        return (e2e, *self.trace(medians)) if trace else (e2e, {}, {})

    # -- set-up -----------------------------------------------------------
    def setup(self) -> list[tuple[float, float]]:
        """Set-up repeats; returns (wall, scaled wall) of each."""
        walls, files = [], None
        neighbor_argv = [str(HERE / "neighbor.py"), str(self.x), str(self.y),
                         str(self.wl.neighbor_item(self.seed))]
        while len(walls) < SETUP_REPEATS or sum(w for w, _ in walls) < SETUP_MIN_S:
            gen, ok = self.s.cli("generate", self.wl.generate_args(self.seed, self.x),
                                 gate=self._read_K, timed=True)
            if not ok:
                raise BenchError(f"generate failed: {self.s.failures[-1]}")
            nb, ok = self.s.op("neighbor", neighbor_argv, timed=True)
            if not ok:
                raise BenchError(f"neighbour failed: {self.s.failures[-1]}")
            walls.append((gen.wall + nb.wall, gen.scaled() + nb.scaled()))
            now = (digest(self.x.read_bytes()), digest(self.y.read_bytes()))
            self.s.record("setup determinism",
                          [] if files in (None, now) else ["set-up files differ between repeats"])
            files = now
        _, _, _, step, item, delta, self.steps = oracle.parse_dstream(self.x)
        self.updates = len(item)
        self.truth = oracle.distinct_counts(self.steps, step, item, delta)
        return walls

    def _read_K(self, c: Child) -> list[str]:
        """The generated flippancy, which known-K runs take as their K."""
        found = re.search(r" K=(\d+)$", c.stdout.strip())
        if not found:
            return ["no K= in generate output"]
        self.K = int(found.group(1))
        return []

    # -- commands ---------------------------------------------------------
    def mech_args(self) -> list[str]:
        args = ["--mechanism", self.wl.mechanism, "--eps", repr(self.wl.eps),
                "--seed", str(self.seed)]
        return args + (["--K", str(self.K)] if self.wl.mechanism == "known-k" else [])

    def commands(self, run_csv: Path) -> dict[str, list[str]]:
        return {
            "run": ["run", "--input", str(self.x), "-o", str(run_csv), *self.mech_args()],
            "trials": ["trials", "--input", str(self.x), "--trials", str(self.wl.trials),
                       *self.mech_args()],
            "probe": ["probe", "--input", str(self.x), "--neighbor", str(self.y),
                      "--samples", str(self.wl.probe_samples), *self.mech_args()],
        }

    def work(self, kind: str) -> int:
        """Units of work of one command: updates, trials, or probe samples."""
        return {"run": self.updates, "trials": self.wl.trials,
                "probe": 2 * self.wl.probe_samples}[kind]

    def _check_csv(self, text: str) -> list[str]:
        problems, outputs = oracle.check_run_csv(text, self.truth)
        if outputs is not None:
            self.live_changes = oracle.output_changes(outputs)
        return problems

    def zero_noise_check(self) -> None:
        """A --noise zero known-K run must match the replayed threshold rule."""
        from dpdistinct.mechanisms import PrivacyParams, derive_known_k_config

        cfg = derive_known_k_config(PrivacyParams(self.wl.eps), self.K, self.wl.T, BETA)
        expected = oracle.zero_noise_outputs(self.truth, cfg.thresh, cfg.S_K)
        self.zero_changes = oracle.output_changes(expected)
        csv = self.s.workdir / "zero.csv"

        def gate(c: Child) -> list[str]:
            problems, outputs = oracle.check_run_csv(csv.read_text(), self.truth)
            if outputs is not None and not np.array_equal(outputs, expected):
                t = int(np.flatnonzero(outputs != expected)[0]) + 1
                problems.append(f"zero-noise output differs from the threshold-rule replay at t={t}")
            return problems

        self.s.cli("zero-noise run", self.commands(csv)["run"] + ["--noise", "zero"], gate=gate)

    def measure(self, seconds: float) -> tuple[dict, float]:
        """Closed loop over run/trials/probe; returns walls per command and peak RSS.

        The scaled walls (``Child.scaled``) go to ``self.scaled``.
        """
        cmds = self.commands(self.run_csv)
        gates = {
            "run": Repeats(self._check_csv),
            "trials": Repeats(lambda t: [] if f"n_trials={self.wl.trials}\n" in t
                              else ["no n_trials line"]),
            "probe": Repeats(lambda t: [] if t.startswith("status=") else ["no status line"]),
        }
        self.outputs = {}
        walls = defaultdict(list)
        self.scaled = defaultdict(list)
        peak = 0.0
        t0 = time.perf_counter()
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() - t0 < seconds:
            for kind, args in cmds.items():
                def gate(c, kind=kind):
                    try:
                        text = self.run_csv.read_text() if kind == "run" else c.stdout
                    except OSError as exc:
                        return [f"no output: {exc}"]
                    self.outputs.setdefault(kind, text)
                    return gates[kind](text)

                c, ok = self.s.cli(kind, args, gate=gate, timed=True)
                peak = max(peak, c.rss_mb)
                if ok:
                    walls[kind].append(c.wall)
                    self.scaled[kind].append(c.scaled())
            cycles += 1
        return walls, peak

    # -- regime guard -----------------------------------------------------
    def check_regime(self, trials_wall: float) -> None:
        wl, r = self.wl, self.regime
        if wl.regime in ("quiet", "churn"):
            want = 0 if wl.regime == "quiet" else wl.swings
            r.update(refreshes=self.live_changes, zero_noise_refreshes=self.zero_changes,
                     expected_refreshes=want, refresh_share=(self.live_changes or 0) / self.steps)
            for key in ("refreshes", "zero_noise_refreshes"):
                if r[key] != want:
                    self.regime_problems.append(
                        f"{self.name}: {key}={r[key]}, the regime needs {want}")
        else:
            from dpdistinct import stream

            t0 = time.perf_counter()
            s = stream.read_file(self.x)
            stream.validate(s)
            stream.distinct_counts(s)
            share = (time.perf_counter() - t0) / trials_wall
            r.update(parse_validate_oracle_share=share, limit=SMALL_SHARE_LIMIT)
            if share >= SMALL_SHARE_LIMIT:
                self.regime_problems.append(
                    f"{self.name}: parse+validate+oracle is {share:.3f} of a trials command")

    # -- traced run -------------------------------------------------------
    def trace(self, medians: dict) -> tuple[dict, dict]:
        """Per-layer metrics, and trace details for the report."""
        w = self.s.workdir
        imports = []
        for _ in range(IMPORT_REPEATS):
            c, ok = self.s.op("import", ["-c", "import dpdistinct.cli"])
            if ok:
                imports.append(c.wall)
        tx, ty, tcsv = w / "traced_x.dstream", w / "traced_y.dstream", w / "traced_run.csv"
        cmds = self.commands(tcsv)
        plan_cmds = [{"name": k, "argv": v, "setup": False} for k, v in cmds.items()]
        plan_cmds += [
            {"name": "generate", "argv": self.wl.generate_args(self.seed, tx), "setup": True},
            {"name": "neighbor", "argv": [str(tx), str(ty), str(self.wl.neighbor_item(self.seed))],
             "setup": True},
        ]
        plan = {"commands": plan_cmds, "input": str(self.x), "seed": self.seed,
                "svt": {"eps": self.wl.eps, "K": self.K, "beta": BETA}}
        plan_path, out_path = w / "plan.json", w / "trace.json"
        plan_path.write_text(json.dumps(plan))

        def gate(c: Child) -> list[str]:
            result = json.loads(out_path.read_text())
            problems = [f"traced {cmd['name']} exit code {cmd['rc']}"
                        for cmd in result["commands"] if cmd["rc"] != 0]
            got = {cmd["name"]: cmd["stdout"] for cmd in result["commands"]}
            got["run"] = tcsv.read_text()
            for kind in ("run", "trials", "probe"):
                if got[kind] != self.outputs.get(kind):
                    problems.append(f"traced {kind} output differs from the untraced one")
            if tx.read_bytes() != self.x.read_bytes() or ty.read_bytes() != self.y.read_bytes():
                problems.append("traced set-up files differ from the untraced ones")
            self.trace_result = result
            return problems

        _, ok = self.s.op("traced run", [str(HERE / "traced.py"), str(plan_path), str(out_path)],
                          gate=gate)
        if not ok or not imports:
            raise BenchError(f"traced run failed: {self.s.failures[-1]}")
        import_s = statistics.median(imports)
        per_layer, extra = layer_metrics(self.trace_result, medians, import_s, self.steps)
        per_layer["cli.output_bytes"] = tcsv.stat().st_size
        nested = extra["span_nesting_violations"]
        self.s.record("trace spans", [f"{nested} spans end outside their parent"] if nested else [])
        if self.name == "quiet-singleton":
            extra["baseline_ratio"] = baseline_ratios(self.trace_result, self.updates)
        return per_layer, extra


def _span_tree(spans):
    n = len(spans)
    dur = [sp[2] - sp[1] for sp in spans]
    child_time = [0.0] * n
    root = list(range(n))
    nesting = 0
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent is not None:
            child_time[parent] += dur[i]
            root[i] = root[parent]
            if start < spans[parent][1] or end > spans[parent][2]:
                nesting += 1
    self_t = [dur[i] - child_time[i] for i in range(n)]
    return dur, self_t, root, nesting


def layer_metrics(trace: dict, medians: dict, import_s: float, n_steps: int):
    """Per-layer metrics from the traced run's spans, counts and replays."""
    spans = trace["spans"]
    dur, self_t, root, nesting = _span_tree(spans)
    measured = {c["span"]: c for c in trace["commands"] if not c["setup"]}
    setup = {c["span"] for c in trace["commands"] if c["setup"]}
    run_root = next(r for r, c in measured.items() if c["name"] == "run")

    def select(prefix, roots):
        return [i for i, sp in enumerate(spans) if sp[0].startswith(prefix) and root[i] in roots]

    def total(prefix, roots=measured, times=dur):
        return sum(times[i] for i in select(prefix, roots))

    mech = select("mechanisms.", measured)
    steps = sum(spans[i][4]["steps"] for i in mech)
    replays = [c["replay"] for c in measured.values()]
    apply_s = sum(rp["apply_s"] for rp in replays)
    laplace_s = sum(rp["laplace_s"] for rp in replays)
    draws = sum(rp["draws"] for rp in replays)
    passes = sum(rp["passes"] for rp in replays)

    # Self time per layer for each command; the replayed per-step costs move
    # from the mechanism spans to the stream and noise layers.
    accounted = []
    for r, c in measured.items():
        layers = defaultdict(float)
        for i in range(len(spans)):
            if root[i] == r:
                layers[spans[i][0].split(".")[0]] += self_t[i]
        layers["mechanisms"] -= c["replay"]["apply_s"] + c["replay"]["laplace_s"]
        layers["stream"] += c["replay"]["apply_s"]
        layers["noise"] += c["replay"]["laplace_s"]
        accounted.append(sum(layers.values()) / dur[r])

    untraced = sum(medians[c["name"]] for c in measured.values())
    traced = sum(dur[r] + import_s for r in measured)
    per_layer = {
        "stream.read_file_s": total("stream.read_file"),
        "stream.validate_s": total("stream.validate"),
        "stream.distinct_counts_s": total("stream.distinct_counts"),
        "stream.distinct_counts_calls": len(select("stream.distinct_counts", {run_root})),
        "stream.check_batch_per_step": measured[run_root]["check_batch"] / n_steps,
        "stream.total_flippancy_s": total("stream.total_flippancy", setup),
        "stream.apply_batch_s": apply_s / passes,
        "stream.write_file_s": total("stream.write_file", setup),
        "stream.rss_growth_mb": max(spans[i][4]["rss_growth_mb"]
                                    for i in select("stream.read_file", measured)),
        "noise.laplace_draws": draws,
        "noise.laplace_s": laplace_s,
        "noise.sources": trace["sources"],
        "noise.source_new_s": total("noise."),
        "svt.queries": trace["svt"]["queries"],
        "svt.step_s": trace["svt"]["s"],
        "mechanisms.run_s": total("mechanisms."),
        "mechanisms.self_s": total("mechanisms.", times=self_t) - apply_s - laplace_s,
        "mechanisms.calls": len(mech),
        "mechanisms.steps": steps,
        "mechanisms.refreshes": sum(spans[i][4]["refreshes"] for i in mech),
        "mechanisms.refresh_share": sum(spans[i][4]["refreshes"] for i in mech) / steps,
        "mechanisms.instances": sum(spans[i][4]["instances"] for i in mech),
        "mechanisms.draws_per_step": draws / steps,
        "harness.run_trials_s": total("harness.run_trials"),
        "harness.privacy_probe_s": total("harness.privacy_probe"),
        "harness.evaluate_s": total("harness.evaluate"),
        "harness.self_s": total("harness.", times=self_t),
        "generators.build_s": total("generators.", setup),
        "cli.import_s": import_s,
        "cli.self_s": sum(self_t[r] for r in measured),
        "trace_overhead_frac": traced / untraced - 1,
        "trace.accounted_frac": min(accounted),
    }
    extra = {
        "traced_command_s": {c["name"]: dur[r] for r, c in measured.items()},
        "check_batch_per_step": {c["name"]: c["check_batch"] / n_steps for c in measured.values()},
        "svt_replay_refreshes": trace["svt"]["refreshes"],
        "span_count": len(spans),
        "span_nesting_violations": nesting,
    }
    return per_layer, extra


def baseline_ratios(trace: dict, updates: int) -> dict:
    """Seconds per 1e6 updates against the ROADMAP item 4 baseline."""
    spans = trace["spans"]
    per_call = defaultdict(list)
    for name, start, end, _, _ in spans:
        per_call[name].append(end - start)
    scale = 1e6 / updates
    measured = {
        name: statistics.median(per_call[name]) * scale
        for name in BASELINE_PER_1E6 if name in per_call
    }
    replays = [c["replay"] for c in trace["commands"] if not c["setup"]]
    measured["noise.laplace"] = (sum(rp["laplace_s"] for rp in replays)
                                 / sum(rp["draws"] for rp in replays) * 1e6)
    return {name: {"measured_s_per_1e6": v, "baseline_s_per_1e6": BASELINE_PER_1E6[name],
                   "ratio": v / BASELINE_PER_1E6[name]} for name, v in measured.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dpdistinct" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no dpdistinct sources under {SRC} or no {spec_path.name}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(spec_path.read_text())

    calib_start = calibrate()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with Session(workdir) as session:
            bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, session)
            e2e_values, per_layer, trace_extra = bench.run(args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other invocation is using it
        except OSError:
            pass

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    correct = not session.failures and not bench.regime_problems
    report = {
        "workload": args.workload,
        "meta": metadata(args.seed),
        "calib_s": {"start": calib_start, "end": calibrate()},
        "host": bench.host,
        "end_to_end": {k: {**v, "unit": units.get(k, "")} for k, v in e2e_values.items()},
        "failed_ops_frac": {"value": session.failed / session.attempted, "unit": "frac",
                            "attempted": session.attempted},
        "failures": session.failures,
        "regime": {**bench.regime, "ok": not bench.regime_problems,
                   "problems": bench.regime_problems},
        "per_layer": {k: {"value": v, "unit": units.get(k, ""), "moves": MOVES[k]}
                      for k, v in per_layer.items()},
        "trace": trace_extra,
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else {k: v["value"] for k, v in e2e_values.items()}
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
