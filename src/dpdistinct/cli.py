"""Command-line entry point.

Subcommands: generate | run | trials | bounds | probe | bench.  Exit codes:
0 success, 1 parameter error, 2 input/validation error.  All floating-point
values are printed with 12 significant digits so identical configurations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

import numpy as np

from . import harness, mechanisms, stream as streammod
from .errors import ModelViolationError, ParameterError, StreamFormatError
from .noise import RandomSource
# distinct_counts is unused here; it is kept for perfbench/traced.py, which wraps it
from .stream import _MAX_DIGITS, Stream, _int_bytes, distinct_counts, total_flippancy


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


CSV_BLOCK = 8192  # rows per block: the CSV writer's memory does not grow with T


def _float_bytes(x: np.ndarray) -> np.ndarray:
    """"%.12g" of float64s: left-aligned ASCII rows, NUL-padded.  Each bit
    pattern is formatted once, so -0.0 and 0.0 stay apart."""
    bits, rows = np.unique(x.view(np.int64), return_inverse=True)
    text = np.array(["%.12g" % v for v in bits.view(np.float64).tolist()], dtype="S")
    return text.view(np.uint8).reshape(len(bits), text.itemsize)[rows]


def _write_rows(fh, outputs: np.ndarray, truth: np.ndarray, errors: np.ndarray) -> None:
    """Write "%d,%.12g,%d,%.12g\\n" % (t, output, truth, error) for t = 1, 2, ...
    Each block's fields and separators lie side by side in one uint8 matrix,
    whose non-NUL bytes, read row by row, are the block's text."""
    for lo in range(0, len(outputs), CSV_BLOCK):
        hi = min(lo + CSV_BLOCK, len(outputs))
        comma = np.full((hi - lo, 1), ord(","), np.uint8)
        block = np.hstack([
            _int_bytes(np.arange(lo + 1, hi + 1, dtype=np.int64)), comma,
            _float_bytes(outputs[lo:hi]), comma,
            _int_bytes(truth[lo:hi]), comma,
            _float_bytes(errors[lo:hi]), np.full_like(comma, ord("\n")),
        ])
        fh.write(block[block != 0].tobytes().decode("ascii"))


MECHANISMS = (
    "known-k",
    "unknown-k",
    "unknown-k-all",
    "zero",
    "laplace-T",
    "gaussian-T",
    "continual-likes",
)


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
    name = args.mechanism
    pp = mechanisms.PrivacyParams(args.eps, args.delta)  # checked also where ignored
    if name == "zero":
        return lambda src, s: mechanisms.run_zero(s)
    if name == "continual-likes":
        return lambda src, s: mechanisms.run_continual_likes(args.eps, T, s, src)
    if name == "known-k":
        if args.K is None:
            raise ParameterError("--K is required for mechanism known-k")
        return lambda src, s: mechanisms.run_known_k(pp, args.beta, T, args.K, s, src)
    if name == "unknown-k":
        return lambda src, s: mechanisms.run_unknown_k(pp, args.beta, T, s, src)
    if name == "unknown-k-all":
        return lambda src, s: mechanisms.run_unknown_k_all_bounds(
            pp, args.beta, T, s, src
        )
    if name == "laplace-T":
        return lambda src, s: mechanisms.run_laplace_baseline(pp, T, s, src)
    if name == "gaussian-T":
        return lambda src, s: mechanisms.run_gaussian_baseline(pp, T, s, src)
    raise ParameterError(f"unknown mechanism {name!r}")


def _load_stream(path: str, args) -> tuple[Stream, int]:
    """Read and validate a stream; T is the header's unless --T overrides it."""
    s = streammod.read_file(path)
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


def cmd_generate(args) -> int:
    from . import generators  # imported here only, so that other subcommands do not load it

    d = args.m if args.d is None else args.d  # blocks and multiupdate: d = m by default
    try:
        if args.family == "blocks":
            if args.m is None or args.J is None or args.Tprime is None:
                raise ParameterError("blocks requires --m, --J, --Tprime")
            J = _int_list(args.J, "--J")
            s = generators.blocks_stream(d, args.m, J, args.Tprime)
        elif args.family == "multiupdate":
            if args.m is None or args.I is None or args.Tprime is None:
                raise ParameterError("multiupdate requires --m, --I, --Tprime")
            I = _int_list(args.I, "--I")
            s = generators.multiupdate_stream(d, args.m, I, args.Tprime)
        elif args.family == "marginals":
            if args.file is None:
                raise ParameterError("marginals requires --file")
            table = generators.read_marginals_file(args.file)
            if args.variant == "singleton":
                s = generators.marginals_to_stream_singleton(table)
            else:
                s = generators.marginals_to_stream_multi(table)
        elif args.family == "random":
            if args.d is None or args.T is None:
                raise ParameterError("random requires --d and --T")
            s = generators.random_stream(
                d=args.d,
                T=args.T,
                model=args.model,
                singleton=args.singleton,
                target_K=args.K,
                seed=args.seed,
            )
        else:
            raise ParameterError(f"unknown generator family {args.family!r}")
        top = int(s.items.max(initial=0))
        if top >= 10**_MAX_DIGITS:  # checked here: write_file writes any int64 id
            raise ParameterError(f"item id {top} is past the {_MAX_DIGITS}-digit .dstream limit")
        streammod.write_file(s, args.output)
    except MemoryError:  # a size inside the int64 limits that this machine cannot hold
        raise ParameterError("the requested stream does not fit in memory") from None
    summary = total_flippancy(s)
    print(f"wrote {args.output} d={s.d} T={s.T} model={s.model} K={summary.total_K}")
    return 0


def cmd_run(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    src = RandomSource(args.seed, args.noise)
    result = run_fn(src, s)
    outputs, errors = harness.release_errors(result, s)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as fh:
        fh.write("t,output,truth,abs_error\n")
        _write_rows(fh, outputs, s.counts[: len(outputs)], errors)
        fh.write(
            f"# max_error={_fmt(errors.max(initial=0.0))}"
            f" aborts={1 if result.abort_step is not None else 0}"
            f" instances={result.instances}\n"
        )
    return 0


def cmd_trials(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    summary = harness.run_trials(
        run_fn, s, args.trials, args.seed, mode=args.noise, bound=args.bound
    )
    print(f"n_trials={summary.n_trials}")
    for q, v in sorted(summary.quantiles.items()):
        print(f"max_error_q{int(q * 100)}={_fmt(v)}")
    if summary.pass_fraction is not None:
        print(f"bound={_fmt(summary.bound)}")
        print(f"pass_fraction={_fmt(summary.pass_fraction)}")
    return 0


def cmd_bounds(args) -> int:
    pp = mechanisms.PrivacyParams(args.eps, args.delta)
    spec = harness.theoretical_bound(
        pp, args.beta, args.T, args.K, args.d, regime=args.regime
    )
    for name, value in spec.branches.items():
        print(f"branch_{name}={_fmt(value)}")
    print(f"min={_fmt(spec.minimum)}")
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
    result = harness.privacy_probe(
        run_fn,
        x,
        y,
        bin_width=args.bin_width,
        n_samples=args.samples,
        base_seed=args.seed,
        delta=args.delta,
    )
    print(f"status={result.status}")
    if result.eps_hat is not None:
        print(f"eps_hat={_fmt(result.eps_hat)}")
    print(f"n_bins={result.n_bins}")
    print(f"eligible_bins={result.eligible_bins}")
    print(f"projection_step={result.projection_step}")
    return 0


def cmd_bench(args) -> int:
    s, T = _load_stream(args.input, args)
    run_fn = _make_run_fn(args, T)
    report = harness.throughput_bench(run_fn, s, seed=args.seed, mode=args.noise)
    print(f"updates={report.updates}")
    print(f"steps={report.steps}")
    print(f"seconds={_fmt(report.seconds)}")
    print(f"updates_per_second={_fmt(report.updates_per_second)}")
    print(f"laplace_draws={report.laplace_draws}")
    print(f"laplace_calls={report.laplace_calls}")
    print(f"gaussian_draws={report.gaussian_draws}")
    print(f"gaussian_calls={report.gaussian_calls}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpdistinct")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a .dstream file")
    gen.add_argument("family", choices=("blocks", "multiupdate", "marginals", "random"))
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return 1
    # OSError: a path that is missing, a directory or unreadable
    except (StreamFormatError, ModelViolationError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
