"""Command-line interface: solve, gen, bench.

Exit codes: 0 success, 2 usage or parse problems, 3 empty or invalid
geometry. Reports are JSON on stdout (or ``--out`` for bench); identical
invocations with the same seed produce byte-identical output except for
wall-clock timing fields. ``MINISPHERE_SEED`` supplies the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bench, datagen
from .cloudio import FORMATS, load_points, save_points
from .errors import (
    EmptyInputError,
    InsufficientSamplesError,
    InvalidGeometryError,
    InvalidKError,
    InvalidParamsError,
    ParseError,
    TooLargeError,
    UnknownFormatError,
    UnknownKindError,
)
from .projection import solve

_PROG = "minisphere"


def _fail(message: str) -> None:
    print(f"{_PROG}: error: {message}", file=sys.stderr)


def _count(text: str) -> int:
    """Integer count, accepting scientific notation like 1e4."""
    try:
        return int(text, 10)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a count: {text!r}") from None
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    return int(value)


def _int_list(text: str) -> list:
    """Comma-separated counts; ``a..b`` expands to the inclusive range."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise argparse.ArgumentTypeError("empty entry in list")
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            lo, hi = _count(lo_s), _count(hi_s)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"descending range {token!r}")
            out.extend(range(lo, hi + 1))
        else:
            out.append(_count(token))
    return out


def _seed_value(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _k_arg(text: str):
    if text == "auto":
        return None
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--k takes an integer or 'auto', got {text!r}") from None


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("MINISPHERE_SEED")
    if env is None:
        return 0
    try:
        return _seed_value(env)
    except argparse.ArgumentTypeError as exc:
        raise InvalidParamsError(f"MINISPHERE_SEED: {exc}") from None


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    seed = _resolve_seed(args)
    points = load_points(args.input, fmt=args.format)
    report = solve(points, sel=args.k, seed=seed, strategy=args.strategy)
    _emit({"report_version": 1, **report.to_dict()}, None)
    return 0


def _cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    points = datagen.generate(args.kind, args.n, seed=seed)
    save_points(args.out, points, fmt=args.format)
    return 0


def _cmd_bench_scaling(args) -> int:
    report = bench.run_scaling(
        args.sizes,
        strategy=args.strategy,
        seeds=args.seeds,
        k_mode=args.k,
        kind=args.kind,
    )
    _emit(report, args.out)
    return 0


def _cmd_bench_convergence(args) -> int:
    report = bench.run_convergence(args.n, args.ks, args.seeds, kind=args.kind)
    _emit(report, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Smallest enclosing sphere via projection-based point reduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a point cloud from a file")
    p_solve.add_argument("input", help="path to a csv, xyz, or json point file")
    p_solve.add_argument("--format", choices=FORMATS, default=None,
                         help="override extension-based format detection")
    p_solve.add_argument("--strategy", choices=("projection", "welzl"), default="projection",
                         help="projection: reduce, solve, repair; welzl: solve the full cloud")
    p_solve.add_argument("--k", type=_k_arg, default=None,
                         help="projection plane count, or 'auto': k = 1, on a ~4*sqrt(N) sample from 32,768 points up")
    p_solve.add_argument("--seed", type=_seed_value, default=None,
                         help="seed recorded in the report; the solve does not read it "
                              "(default: $MINISPHERE_SEED or 0)")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a seeded point cloud file")
    p_gen.add_argument("kind", help="one of: " + ", ".join(datagen.kinds()))
    p_gen.add_argument("n", type=_count, help="number of points")
    p_gen.add_argument("--seed", type=_seed_value, default=None)
    p_gen.add_argument("-o", "--out", required=True, help="output file path")
    p_gen.add_argument("--format", choices=FORMATS, default=None)
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser("bench", help="run a benchmark study")
    bench_sub = p_bench.add_subparsers(dest="study", required=True)

    p_scal = bench_sub.add_parser("scaling", help="log-log runtime slope across sizes")
    p_scal.add_argument("--sizes", type=_int_list, required=True,
                        help="comma list of counts, e.g. 1e4,1e5,1e6")
    p_scal.add_argument("--seeds", type=_int_list, default=[0, 1, 2],
                        help="comma list or a..b range, at least 3")
    p_scal.add_argument("--k", type=_k_arg, default=24,
                        help="fixed plane count, or 'auto' as in solve")
    p_scal.add_argument("--strategy", choices=("projection", "welzl"), default="projection")
    p_scal.add_argument("--kind", choices=datagen.kinds(), default="uniform-ball")
    p_scal.add_argument("--out", default=None, help="write the report here instead of stdout")
    p_scal.set_defaults(func=_cmd_bench_scaling)

    p_conv = bench_sub.add_parser("convergence", help="coverage and repairs versus plane count")
    p_conv.add_argument("--n", type=_count, required=True, help="points per instance (<= 400)")
    p_conv.add_argument("--ks", type=_int_list, default=[6, 12, 24, 48],
                        help="comma list of plane counts")
    p_conv.add_argument("--seeds", type=_int_list, default=[0, 1, 2])
    p_conv.add_argument("--kind", choices=datagen.kinds(), default="uniform-ball")
    p_conv.add_argument("--out", default=None)
    p_conv.set_defaults(func=_cmd_bench_convergence)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ParseError as exc:
        where = f" at line {exc.line}" if exc.line is not None else ""
        _fail(f"parse error{where}: {exc}")
        return 2
    except (
        UnknownKindError,
        UnknownFormatError,
        InvalidKError,
        InvalidParamsError,
        InsufficientSamplesError,
        TooLargeError,
    ) as exc:
        _fail(str(exc))
        return 2
    except EmptyInputError:
        _fail("no points")
        return 3
    except InvalidGeometryError as exc:
        _fail(f"invalid geometry: {exc}")
        return 3
    except OSError as exc:
        _fail(str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
