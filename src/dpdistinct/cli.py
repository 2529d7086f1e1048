"""Command-line entry point.

Subcommands: generate | run | trials | bounds | probe | bench.  Exit codes:
0 success, 1 parameter error, 2 input error (an unreadable or invalid input)
or output error (any failed write to standard output or -o).  Every report
field is written as key=value by ``_fields``, each float with 12 significant
digits (``FLOAT``), so identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import gc
import io
import os
import sys
from contextlib import nullcontext

import numpy as np

from . import harness, mechanisms, stream as streammod
from .errors import ModelViolationError, ParameterError, StreamFormatError
from .noise import RandomSource
# distinct_counts is unused here; it is kept for perfbench/traced.py, which wraps it
from .stream import Stream, _int_bytes, distinct_counts, total_flippancy


FLOAT = "%.12g"  # the one format of every float the CLI writes
CSV_BLOCK = 8192  # rows per block: the CSV writer's memory does not grow with T


def _float_bytes(x: np.ndarray) -> np.ndarray:
    """``FLOAT`` of float64s: left-aligned ASCII rows, NUL-padded.  Each bit
    pattern is formatted once, so -0.0 and 0.0 stay apart."""
    bits, rows = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array([FLOAT % v for v in bits.view(np.float64).tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(bits), text.itemsize)[rows]


def _byte_writer(fh):
    """A write function for bytes on ``fh``: a binary file's own ``write``, a
    text file's binary buffer (flushed first, so earlier text stays in front),
    or, for a text file without one (a ``StringIO`` ``sys.stdout``), ASCII text."""
    if not isinstance(fh, io.TextIOBase):
        return fh.write
    if getattr(fh, "buffer", None) is None:
        return lambda data: fh.write(data.decode("ascii"))
    fh.flush()
    return fh.buffer.write


def _write_rows(fh, outputs: np.ndarray, truth: np.ndarray, errors: np.ndarray) -> None:
    """Write the rows "t,output,truth,error\\n", floats in ``FLOAT``, for t = 1, 2, ...
    as bytes (``_byte_writer``), "\\n" ending each row on every platform.
    Each block's fields and separators lie side by side in one uint8 matrix,
    whose non-NUL bytes, read row by row, are the block's text."""
    write = _byte_writer(fh)
    for lo in range(0, len(outputs), CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, len(outputs))
        comma = np.full((hi - lo, 1), ord(","), np.uint8)
        block = np.hstack([
            _int_bytes(np.arange(lo + 1, hi + 1, dtype=np.int64)), comma,
            _float_bytes(outputs[lo:hi]), comma,
            _int_bytes(truth[lo:hi]), comma,
            _float_bytes(errors[lo:hi]), np.full_like(comma, ord("\n")),
        ])
        write(block[block != 0].tobytes())


def _fields(**fields) -> list[str]:
    """"key=value" for each field that is not None, a float in ``FLOAT``."""
    return [f"{k}={FLOAT % v if isinstance(v, float) else v}" for k, v in fields.items()
            if v is not None]


def _report(**fields) -> None:
    """Print ``_fields``, one a line."""
    print(*_fields(**fields), sep="\n")


def _reading(read, path: str):
    """``read(path)``, its OSError an input error; main reports any other as output."""
    try:
        return read(path)
    except OSError as exc:  # a path that is missing, a directory or unreadable
        raise StreamFormatError(str(exc)) from None


# each mechanism's run, from (flags, privacy params, T, source, stream); the
# mechanisms.run_* attribute is looked up at call time, so a wrapper set on it
# after this import (perfbench/traced.py sets one) is the one that runs
_RUNNERS = {
    "known-k": lambda a, pp, T, src, s: mechanisms.run_known_k(pp, a.beta, T, a.K, s, src),
    "unknown-k": lambda a, pp, T, src, s: mechanisms.run_unknown_k(pp, a.beta, T, s, src),
    "unknown-k-all": lambda a, pp, T, src, s: mechanisms.run_unknown_k_all_bounds(
        pp, a.beta, T, s, src
    ),
    "zero": lambda a, pp, T, src, s: mechanisms.run_zero(s),
    "laplace-T": lambda a, pp, T, src, s: mechanisms.run_laplace_baseline(pp, T, s, src),
    "gaussian-T": lambda a, pp, T, src, s: mechanisms.run_gaussian_baseline(pp, T, s, src),
    "continual-likes": lambda a, pp, T, src, s: mechanisms.run_continual_likes(a.eps, T, s, src),
}
MECHANISMS = tuple(_RUNNERS)


def int64(text: str) -> int:
    """An integer flag in the int64 range, which numpy and the float arithmetic need."""
    if -(2**63) <= int(text) < 2**63:
        return int(text)
    raise argparse.ArgumentTypeError("integer outside [-2^63, 2^63)")


def _add_mechanism_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p.add_argument("--eps", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--K", type=int64, help="flippancy budget (required for known-k)")
    p.add_argument("--T", type=int64, help="override the stream header's T")
    p.add_argument("--seed", type=int, default=0)


def _make_run_fn(args, T: int):
    """Build a (src, stream) -> RunResult callable from CLI flags."""
    pp = mechanisms.PrivacyParams(args.eps, args.delta)  # checked also where ignored
    if args.mechanism == "known-k" and args.K is None:
        raise ParameterError("--K is required for mechanism known-k")
    mechanisms.check_beta(args.beta)  # also where ignored
    runner = _RUNNERS[args.mechanism]
    return lambda src, s: runner(args, pp, T, src, s)


def _load_stream(path: str, args) -> tuple[Stream, int]:
    """Read and validate a stream; T is the header's unless --T overrides it."""
    s = _reading(streammod.read_file, path)
    streammod.require_valid(s)
    if args.T is None:
        return s, s.T
    mechanisms.check_T_covers(args.T, s)
    return s, args.T


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise ParameterError(f"{flag} must be comma-separated integers, got {text!r}") from None


# each generate family's required flags and its build, from (the generators
# module, flags, d); generate passes the module in, so only it imports it
_FAMILIES = {
    "blocks": (("m", "J", "Tprime"), lambda g, a, d: g.blocks_stream(
        d, a.m, _int_list(a.J, "--J"), a.Tprime)),
    "multiupdate": (("m", "I", "Tprime"), lambda g, a, d: g.multiupdate_stream(
        d, a.m, _int_list(a.I, "--I"), a.Tprime)),
    "marginals": (("file",), lambda g, a, d: (
        g.marginals_to_stream_singleton if a.variant == "singleton" else g.marginals_to_stream_multi
    )(_reading(g.read_marginals_file, a.file))),
    "random": (("d", "T"), lambda g, a, d: g.random_stream(
        d, a.T, a.model, singleton=a.singleton, target_K=a.K, seed=a.seed)),
}


def cmd_generate(args) -> int:
    from . import generators  # imported here only, so that other subcommands do not load it

    flags, build = _FAMILIES[args.family]
    if any(getattr(args, f) is None for f in flags):
        raise ParameterError(f"{args.family} requires " + ", ".join(f"--{f}" for f in flags))
    d = args.m if args.d is None else args.d  # blocks and multiupdate: d = m by default
    try:
        s = build(generators, args, d)
        streammod.write_file(s, args.output)
    except MemoryError:  # a size inside the int64 limits that this machine cannot hold
        raise ParameterError("the requested stream does not fit in memory") from None
    summary = total_flippancy(s)
    print("wrote", args.output, *_fields(d=s.d, T=s.T, model=s.model, K=summary.total_K))
    return 0


def cmd_run(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    src = RandomSource(args.seed, args.noise)
    result = run_fn(src, s)
    outputs, errors = harness.release_errors(result, s)
    with open(args.output, "wb") if args.output else nullcontext(sys.stdout) as fh:
        write = _byte_writer(fh)
        write(b"t,output,truth,abs_error\n")
        _write_rows(fh, outputs, s.counts[: len(outputs)], errors)
        footer = _fields(max_error=errors.max(initial=0.0),
                         aborts=int(result.abort_step is not None), instances=result.instances)
        write(("# " + " ".join(footer) + "\n").encode("ascii"))
    return 0


def cmd_trials(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    summary = harness.run_trials(
        run_fn, s, args.trials, args.seed, mode=args.noise, bound=args.bound
    )
    quantiles = {f"max_error_q{int(q * 100)}": v for q, v in sorted(summary.quantiles.items())}
    _report(n_trials=summary.n_trials, **quantiles, bound=summary.bound,
            pass_fraction=summary.pass_fraction)
    return 0


def cmd_bounds(args) -> int:
    pp = mechanisms.PrivacyParams(args.eps, args.delta)
    spec = harness.theoretical_bound(
        pp, args.beta, args.T, args.K, args.d, regime=args.regime
    )
    _report(**{f"branch_{name}": v for name, v in spec.branches.items()}, min=spec.minimum)
    return 0


def cmd_probe(args) -> int:
    x, T = _load_stream(args.input, args)
    y, _ = _load_stream(args.neighbor, args)
    for name, value, want in (("d", y.d, x.d), ("model", y.model, x.model)):
        if value != want:
            raise StreamFormatError(f"neighbor {name}={value} differs from the input's {want}")
    if y.length > T:
        raise StreamFormatError(f"neighbor length {y.length} exceeds T={T}")
    if min(x.length, y.length) == 0:
        raise StreamFormatError("probe needs at least one step in the input and the neighbor")
    run_fn = _make_run_fn(args, T)
    result = harness.privacy_probe(run_fn, x, y, bin_width=args.bin_width, n_samples=args.samples,
                                   base_seed=args.seed, delta=args.delta)
    _report(status=result.status, eps_hat=result.eps_hat, n_bins=result.n_bins,
            eligible_bins=result.eligible_bins, projection_step=result.projection_step)
    return 0


def cmd_bench(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    report = harness.throughput_bench(run_fn, s, seed=args.seed, mode=args.noise)
    _report(**report._asdict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpdistinct")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a .dstream file")
    gen.add_argument("family", choices=tuple(_FAMILIES))
    gen.add_argument("--d", type=int64, default=None)
    gen.add_argument("--m", type=int64)
    gen.add_argument("--J", help="comma-separated block indices (blocks)")
    gen.add_argument("--I", help="comma-separated time steps (multiupdate)")
    gen.add_argument("--Tprime", type=int64)
    gen.add_argument("--file", help="marginals table file")
    gen.add_argument("--variant", choices=("singleton", "multi"), default="singleton")
    gen.add_argument("--T", type=int64)
    gen.add_argument("--model", choices=("general", "likes"), default="likes")
    gen.add_argument("--singleton", action="store_true")
    gen.add_argument("--K", type=int64, default=0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run a mechanism over a stream, emit CSV")
    run.add_argument("--input", required=True)
    run.add_argument("-o", "--output")
    _add_mechanism_flags(run)
    run.set_defaults(func=cmd_run)

    trials = sub.add_parser("trials", help="multi-trial error statistics")
    trials.add_argument("--input", required=True)
    trials.add_argument("--trials", type=int, default=100)
    trials.add_argument("--bound", type=float)
    _add_mechanism_flags(trials)
    trials.set_defaults(func=cmd_trials)

    bounds = sub.add_parser("bounds", help="theoretical error branches")
    bounds.add_argument("--eps", type=float, required=True)
    bounds.add_argument("--delta", type=float, default=0.0)
    bounds.add_argument("--beta", type=float, required=True)
    bounds.add_argument("--T", type=int64, required=True)
    bounds.add_argument("--K", type=int64, required=True)
    bounds.add_argument("--d", type=int64, required=True)
    bounds.add_argument("--regime", choices=("known", "unknown"), default="known")
    bounds.set_defaults(func=cmd_bounds)

    probe = sub.add_parser("probe", help="empirical privacy witness")
    probe.add_argument("--input", required=True, help="stream x")
    probe.add_argument("--neighbor", required=True, help="stream y")
    probe.add_argument("--samples", type=int, default=10**5)
    probe.add_argument("--bin-width", type=float, default=1.0)
    _add_mechanism_flags(probe)
    probe.set_defaults(func=cmd_probe)

    bench = sub.add_parser("bench", help="throughput benchmark")
    bench.add_argument("--input", required=True)
    _add_mechanism_flags(bench)
    bench.set_defaults(func=cmd_bench)

    for p in (run, trials, bench):  # probe always draws live noise
        p.add_argument("--noise", choices=("live", "zero"), default="live")
    return parser


def main(argv=None) -> int:
    if argv is None:  # a process's own command line: its exit skips numpy's teardown
        gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit's flush
        return code
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    except (StreamFormatError, ModelViolationError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # on standard output, or on the file that -o names
        try:
            sys.stdout.flush()
        except OSError:  # it failed: fd 1 on the null device, so the exit's flush succeeds
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.close(devnull)
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
