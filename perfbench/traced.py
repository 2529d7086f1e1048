"""Traced in-process replay of one workload's commands.

Usage: python traced.py PLAN.json OUT.json   (with ``src`` on PYTHONPATH)

Each command in the plan goes through ``dpdistinct.cli.main`` (or
``neighbor.main``) inside a ``cli.<command>`` span.  The layers' public
functions are wrapped at the module attributes their callers resolve, so
every call opens a span ``<layer>.<function>`` whose parent is the span
open when it started.  Spans are kept in memory and written with the
command outputs when the run ends.

Functions called once per step (``apply_batch``, ``RandomSource.laplace``,
``AboveThreshold.step``) are too fine to wrap: the run counts them and
times them by replaying them standalone with the wrappers suspended.  The
``apply_batch`` and Laplace replays follow each command, so that they run
at the same machine speed as the command they stand for.  ``check_batch``
gets a bare call counter and no span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from dpdistinct import cli, generators, harness, mechanisms, noise, stream, svt

import neighbor

perf_counter = time.perf_counter


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans as [name, start, end, parent id, meta]; the id is the index."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []  # (module, attr, original, replacement)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int, meta=None) -> None:
        self.spans[sid][2] = perf_counter()
        self.spans[sid][4] = meta
        self._stack.pop()

    def patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr), replacement))
        setattr(module, attr, replacement)

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        """Replace module.attr by a spanned call; ``after`` builds the meta."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            sid = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                self.close(sid, {"raised": True})
                raise
            self.close(sid)
            if after:
                self.spans[sid][4] = after(args, kwargs, result, state)
            return result

        self.patch(module, attr, traced)

    @contextlib.contextmanager
    def suspended(self):
        """Restore the original functions for the duration of the block."""
        for module, attr, orig, _ in reversed(self._patches):
            setattr(module, attr, orig)
        try:
            yield
        finally:
            for module, attr, _, replacement in self._patches:
                setattr(module, attr, replacement)


def _arg(args, kwargs, kind):
    return next(
        (a for a in (*args, *kwargs.values()) if isinstance(a, kind)), None
    )


def install(tracer: Tracer) -> dict:
    """Wrap every layer boundary; returns the live counters."""
    counts = {"check_batch": 0, "sources": []}
    # the measured commands run first, so the first read grows the peak RSS
    # of a process that holds nothing but the imports
    tracer.wrap(stream, "read_file", "stream.read_file",
                before=lambda a, k: peak_rss_mb(),
                after=lambda a, k, r, rss0: {"rss_growth_mb": peak_rss_mb() - rss0})
    tracer.wrap(stream, "validate", "stream.validate")
    tracer.wrap(stream, "write_file", "stream.write_file")
    # cli and harness bind these by name at import time
    tracer.wrap(cli, "total_flippancy", "stream.total_flippancy")
    tracer.wrap(cli, "distinct_counts", "stream.distinct_counts")
    tracer.wrap(harness, "distinct_counts", "stream.distinct_counts")

    check_batch = stream.check_batch

    def counted_check_batch(batch, d):
        counts["check_batch"] += 1
        return check_batch(batch, d)

    tracer.patch(stream, "check_batch", counted_check_batch)

    class TracedSource(noise.RandomSource):
        def __init__(self, *args, **kwargs):
            sid = tracer.open("noise.source_new")
            super().__init__(*args, **kwargs)
            tracer.close(sid)
            counts["sources"].append(self)

    tracer.patch(cli, "RandomSource", TracedSource)
    tracer.patch(harness, "RandomSource", TracedSource)
    tracer.wrap(harness, "child_seed", "noise.child_seed")

    def mech_before(args, kwargs):
        src = _arg(args, kwargs, noise.RandomSource)
        return src, (src.laplace_draws if src else 0)

    def mech_after(args, kwargs, result, state):
        src, draws0 = state
        return {
            "steps": _arg(args, kwargs, stream.Stream).length,
            "draws": (src.laplace_draws - draws0) if src else 0,
            "refreshes": result.yes_events,
            "instances": result.instances,
        }

    for attr in dir(mechanisms):
        if attr.startswith("run_") and callable(getattr(mechanisms, attr)):
            tracer.wrap(mechanisms, attr, f"mechanisms.{attr}",
                        before=mech_before, after=mech_after)
    for attr in ("run_trials", "privacy_probe", "evaluate"):
        tracer.wrap(harness, attr, f"harness.{attr}")
    for attr in ("random_stream", "multiupdate_stream", "neighbor_item"):
        tracer.wrap(generators, attr, f"generators.{attr}")
    return counts


def replay_steps(x: stream.Stream, steps: int, draws: int, seed: int) -> dict:
    """Time ``steps`` apply_batch calls, as whole passes over x, and ``draws``
    scalar Laplace draws."""
    apply_batch = stream.apply_batch
    passes = steps // x.length if x.length else 0
    t0 = perf_counter()
    for _ in range(passes):
        state = stream.CounterState(x.d)
        for batch in x.batches:
            apply_batch(state, batch)
    apply_s = perf_counter() - t0
    laplace = noise.RandomSource(seed).laplace
    t0 = perf_counter()
    for _ in range(draws):
        laplace(1.0)
    return {"apply_s": apply_s, "passes": passes,
            "laplace_s": perf_counter() - t0, "draws": draws}


def replay_svt(x: stream.Stream, plan: dict) -> dict:
    """AboveThreshold driven by the known-K rule over the input's q_t: on YES,
    re-release and start a fresh instance (a new noisy threshold), as a
    refresh does."""
    q = stream.distinct_counts(x)
    p = plan["svt"]
    cfg = mechanisms.derive_known_k_config(
        mechanisms.PrivacyParams(p["eps"]), p["K"], x.T, p["beta"]
    )
    src = noise.RandomSource(plan["seed"])
    t0 = perf_counter()
    at = svt.AboveThreshold(cfg.eps1, cfg.thresh, src)
    out = src.laplace(1.0 / cfg.eps1)
    queries = refreshes = 0
    for q_t in q:
        queries += 1
        if at.step(abs(out - q_t)) is svt.SvtAnswer.YES:
            refreshes += 1
            out = q_t + src.laplace(1.0 / cfg.eps1)
            at = svt.AboveThreshold(cfg.eps1, cfg.thresh, src)
    return {"queries": queries, "refreshes": refreshes, "s": perf_counter() - t0}


def main(argv) -> int:
    plan_path, out_path = argv
    with open(plan_path) as fh:
        plan = json.load(fh)
    tracer = Tracer()
    counts = install(tracer)
    x = None  # read after the first command, whose read must be the first
    commands = []
    for cmd in plan["commands"]:
        entry = neighbor.main if cmd["name"] == "neighbor" else cli.main
        calls0 = counts["check_batch"]
        buf = io.StringIO()
        sid = tracer.open(f"cli.{cmd['name']}")
        with contextlib.redirect_stdout(buf):
            rc = entry(cmd["argv"])
        tracer.close(sid)
        record = {
            "name": cmd["name"],
            "setup": cmd["setup"],
            "span": sid,
            "rc": rc,
            "stdout": buf.getvalue(),
            "check_batch": counts["check_batch"] - calls0,
        }
        if not cmd["setup"]:
            mech = [sp[4] for sp in tracer.spans[sid + 1:]
                    if sp[0].startswith("mechanisms.") and sp[4]]
            with tracer.suspended():
                if x is None:
                    x = stream.read_file(plan["input"])
                record["replay"] = replay_steps(
                    x, sum(m["steps"] for m in mech), sum(m["draws"] for m in mech),
                    plan["seed"])
        commands.append(record)
    with tracer.suspended():
        svt_replay = replay_svt(x, plan)
    result = {
        "spans": tracer.spans,
        "commands": commands,
        "sources": len(counts["sources"]),
        "svt": svt_replay,
    }
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
