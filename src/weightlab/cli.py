"""Command-line front end.

Subcommands
-----------
char            dyadic characteristics of one weight (JSON)
verify-gehring  self-improvement and subset-bound scans (CSV, one row per check)
sparse-form     evaluate the quadratic sparse form from files (JSON)
weak-norm       empirical weak operator norm over the test corpus (CSV)
trace-proof     run the instrumented pigeonhole argument (JSON + optional CSV)
bounds          closed-form bound calculus for one weight and window (JSON)
sweep           power-weight sweep of characteristics and bounds (CSV)

Exit codes: 0 on success, 1 when a verified inequality fails, 2 on bad
input or usage, or when the grid does not fit in memory.  Identical
configuration and seed give byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings
from typing import Iterator, List, Optional, Sequence

import numpy as np

from .bounds import evaluate_bounds, simplified_weak_type_factor
from .characteristics import characteristic_report, rh_constant
from .errors import ConfigError, SparsityViolationError, WeightlabError
from .gehring import epsilon_range, random_subset_checks, sharp_rh_levels
from .grid import DyadicGrid
from .operators import _corpus_stream, _norm_exponent, empirical_weak_operator_norm
from .profiles import SLACK, ExponentProfile
from .serialize import dump_json, write_csv, write_text
from .sparse import SparseFamily, sparse_form, verify_sparsity
from .tracer import GOOD_FRACTION_TARGET, ProofTrace, trace_proof
from .weights import PowerWeight, TabulatedWeight, Weight, unit_weight


# --- shared argument plumbing ----------------------------------------------------------


def _add_depth(parser: argparse.ArgumentParser, default: Optional[int] = None) -> None:
    parser.add_argument(
        "--L",
        dest="depth",
        type=int,
        required=default is None,
        default=default,
        help="dyadic depth: the grid splits [0,1) into 2^L cells",
    )


def _add_weight_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--power",
        type=float,
        metavar="ALPHA",
        help="power weight x^ALPHA on [0,1) with exact moments",
    )
    group.add_argument(
        "--weight-file",
        metavar="PATH",
        help="tabulated weight: one positive number per line, exactly 2^L lines",
    )
    group.add_argument(
        "--unit-weight", action="store_true", help="the constant weight 1"
    )


def _add_window(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p0", type=float, default=1.0, help="lower window exponent")
    parser.add_argument(
        "--q0", type=float, default=4.0,
        help="upper window exponent, above 2 ('inf': not for trace-proof and sweep)",
    )


def _read_value_file(path: str, grid: DyadicGrid, positive: bool) -> np.ndarray:
    """One float per line, in numpy's float syntax; blank lines are skipped."""
    try:
        with warnings.catch_warnings():  # an empty file fails the count below instead
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read value file {path!r}: {exc}") from exc
    except ValueError as exc:  # loadtxt's row numbers skip blank lines; name the line
        reason = str(exc).split(" at row ")[0].split("; use")[0]
        raise ConfigError(f"value file {path!r}: {_bad_line(path)}{reason}") from exc
    if table.shape[1] != 1:
        raise ConfigError(f"value file {path!r} must hold one value per line")
    values = table[:, 0]
    if values.size != grid.n_cells:
        raise ConfigError(
            f"value file {path!r} has {values.size} entries; depth {grid.depth} "
            f"needs exactly {grid.n_cells}"
        )
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"value file {path!r} contains non-finite entries")
    if positive and not np.all(values > 0.0):
        raise ConfigError(f"value file {path!r} must be strictly positive")
    return values


def _bad_line(path: str) -> str:
    """``"line N: "`` for the first line that is neither blank nor one number."""
    # loadtxt's float syntax: Python's, without digit separators or non-ASCII digits
    number = r"\s*[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?|inf(inity)?|nan)\s*"
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for at, line in enumerate(fh, 1):
            if line.strip() and not re.fullmatch(number, line, re.IGNORECASE):
                return f"line {at}: "
    return ""


def _load_weight(args: argparse.Namespace, grid: DyadicGrid) -> Weight:
    if args.unit_weight:
        return unit_weight()
    if args.power is not None:
        return PowerWeight(args.power)
    values = _read_value_file(args.weight_file, grid, positive=True)
    return TabulatedWeight(values)


# --- char -------------------------------------------------------------------------------


def _cmd_char(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    w = _load_weight(args, grid)
    ap_exps = args.ap_exponents or [2.0]
    rh_exps = args.rh_exponents or [2.0]
    report = characteristic_report(w, grid, ap_exps, rh_exps)
    write_text(dump_json(report.to_jsonable()), args.out)
    return 0


# --- verify-gehring ---------------------------------------------------------------------


def _cmd_verify_gehring(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    w = _load_weight(args, grid)
    if args.eps_grid < 1:
        raise ConfigError("--eps-grid must be at least 1")
    if args.subsets < 0:
        raise ConfigError("--subsets must be at least 0")
    q0s = args.q0_star
    eps_max = epsilon_range(w, q0s, grid)  # refuses q0* outside (1, ∞)
    rh = rh_constant(w, q0s, grid)
    epsilons = [eps_max * i / args.eps_grid for i in range(1, args.eps_grid + 1)]
    columns = ["check", "level", "index", "epsilon", "lhs", "rhs", "ratio"]
    worst = 0.0

    def blocks() -> Iterator[List[object]]:
        nonlocal worst
        for eps in epsilons:
            for level, at, lhs, rhs, ratio in sharp_rh_levels(w, q0s + eps, rh, grid):
                worst = max(worst, float(ratio.max()))
                yield ["self-improve", level, np.arange(at, at + lhs.size), eps, lhs, rhs, ratio]
        if args.subsets > 0:
            cubes, eps, checks = zip(
                *random_subset_checks(w, q0s, epsilons, grid, args.subsets, args.seed)
            )
            ratios = [chk.ratio for chk in checks]
            worst = max(worst, *ratios)
            yield ["subset", [c.level for c in cubes], [c.index for c in cubes], eps,
                   [chk.lhs for chk in checks], [chk.rhs for chk in checks], ratios]

    n_rows = write_csv(columns, blocks(), args.csv)
    print(f"verify-gehring: {n_rows} checks, epsilon_max={eps_max!r}, "
          f"worst ratio={worst!r}", file=sys.stderr)
    return 0 if worst <= 1.0 + SLACK else 1


# --- sparse-form ------------------------------------------------------------------------


def _cmd_sparse_form(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    try:
        with open(args.family, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read family file {args.family!r}: {exc}") from exc
    try:  # overlapping witnesses are rejected while the family loads
        family = SparseFamily.from_json(text, grid)
        verify_sparsity(family, grid)
    except SparsityViolationError as exc:
        print(f"sparse-form: family at {args.family!r} is not 1/2-sparse ({exc})", file=sys.stderr)
        return 1
    fvals = _read_value_file(args.f, grid, positive=False)
    gvals = _read_value_file(args.g, grid, positive=False)
    profile = ExponentProfile(p0=args.p0, q0=args.q0)
    value = sparse_form(fvals, gvals, profile, family, grid)
    payload = {
        "depth": grid.depth,
        "p0": profile.p0,
        "q0_star": profile.q0_star,
        "n_cubes": len(family),
        "value": value,
    }
    write_text(dump_json(payload), args.out)
    return 0


# --- weak-norm --------------------------------------------------------------------------


def _cmd_weak_norm(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    w = _load_weight(args, grid)
    p = _norm_exponent(args.p)  # before the CSV header goes out
    columns = ["function", "strong_norm_f", "weak_norm_sf", "ratio"]
    best = 0.0

    def table() -> Iterator[List[object]]:
        nonlocal best
        corpus = _corpus_stream(grid, seed=args.seed)
        [(best, rows)] = empirical_weak_operator_norm([w], grid, p=p, corpus=corpus)
        for r in rows:
            yield [r.name, r.strong_norm, r.weak_norm_sf, r.ratio]

    n_rows = write_csv(columns, table(), args.csv)
    print(f"weak-norm: {n_rows} corpus functions, best ratio={best!r}", file=sys.stderr)
    return 0


# --- trace-proof ------------------------------------------------------------------------


def _trace_gates(trace: ProofTrace) -> List[str]:
    """Hard inequalities every valid trace must satisfy; returns failures."""
    failures: List[str] = []
    if trace.good_fraction < GOOD_FRACTION_TARGET * (1.0 - SLACK):
        failures.append(f"good-set fraction {trace.good_fraction!r} below 3/4")
    if trace.worst_average_ratio > 1.0 + SLACK:
        failures.append(
            f"average-comparison ratio {trace.worst_average_ratio!r} above 1"
        )
    if trace.worst_bin_min_ratio > 1.0 + SLACK:
        failures.append(f"bin cap ratio {trace.worst_bin_min_ratio!r} above 1")
    if trace.worst_mass_ratio > 1.0 + SLACK:
        failures.append(f"layer-counting ratio {trace.worst_mass_ratio!r} above 1")
    if trace.clamped.size:
        failures.append(f"{len(trace.clamped)} cubes needed bin clamping")
    if not (math.isfinite(trace.c0) and trace.c0 >= 0.0):
        failures.append(f"empirical constant {trace.c0!r} is not finite")
    return failures


def _cmd_trace_proof(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    w = _load_weight(args, grid)
    profile = ExponentProfile(p0=args.p0, q0=args.q0)
    if args.f is not None:
        fvals = _read_value_file(args.f, grid, positive=False)
    else:
        fvals = np.ones(grid.n_cells, dtype=np.float64)
    trace = trace_proof(fvals, w, grid, profile, epsilon=args.epsilon, ratio=args.ratio)
    write_text(dump_json(trace.to_jsonable()), args.out)
    if args.csv is not None:
        columns = ["r", "s", "n_cubes", "quad_sum", "cap_via_mass", "cap_via_disjoint",
                   "min_ratio", "mass_ratio", "witness_mass", "comparability_max"]
        table = (
            [r, s, len(b.cubes), b.quad_sum, b.cap_via_mass, b.cap_via_disjoint,
             b.min_ratio, b.mass_ratio, b.witness_mass, b.comparability_max]
            for (r, s), b in sorted(trace.bins.items())
        )
        write_csv(columns, table, args.csv)
    failures = _trace_gates(trace)
    for message in failures:
        print(f"trace-proof: {message}", file=sys.stderr)
    print(
        f"trace-proof: {len(trace.traced)} cubes in {len(trace.bins)} bins, "
        f"empirical constant={trace.c0!r}",
        file=sys.stderr,
    )
    return 1 if failures else 0


# --- bounds -----------------------------------------------------------------------------


def _cmd_bounds(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    w = _load_weight(args, grid)
    report = evaluate_bounds(w, grid, args.p0, args.q0, epsilon=args.epsilon)
    write_text(dump_json(report.to_jsonable()), args.out)
    return 0


# --- sweep ------------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = DyadicGrid(args.depth)
    if args.alpha_steps < 1:
        raise ConfigError("--alpha-steps must be at least 1")
    profile = ExponentProfile(p0=args.p0, q0=args.q0)
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    weights = [unit_weight() if a == 0.0 else PowerWeight(float(a)) for a in alphas]
    columns = ["alpha", "L", "ap", "rh", "a_infty", "epsilon", "weak_bound",
               "weak_bound_pinned", "strong_bound", "empirical_weak", "c0"]

    def rows() -> Iterator[List[object]]:
        ones = np.ones(grid.n_cells, dtype=np.float64)
        corpus = _corpus_stream(grid, seed=args.seed)
        scans = empirical_weak_operator_norm(weights, grid, p=2.0, corpus=corpus)
        for alpha, (empirical, _) in zip(alphas, scans):
            w = weights.pop(0)  # released once its row is written
            bounds = evaluate_bounds(w, grid, profile.p0, profile.q0)
            pinned_eta = simplified_weak_type_factor(
                bounds.rh_char, bounds.a_infty_char, bounds.q0_star, bounds.a_infty_pow_char
            )
            pinned = math.sqrt(bounds.ap_char * bounds.rh_char * pinned_eta)
            trace = trace_proof(ones, w, grid, profile)
            yield [float(alpha), grid.depth, bounds.ap_char, bounds.rh_char,
                   bounds.a_infty_char, bounds.epsilon, bounds.weak_bound, pinned,
                   bounds.strong_bound, empirical, trace.c0]

    write_csv(columns, rows(), args.csv)
    return 0


# --- parser -----------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightlab",
        description="dyadic weighted-inequality laboratory on [0,1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser("char", help="dyadic characteristics of one weight")
    _add_weight_source(p_char)
    _add_depth(p_char)
    p_char.add_argument(
        "-p",
        dest="ap_exponents",
        type=float,
        action="append",
        metavar="P",
        help="strong-type exponent for the two-sided characteristic (repeatable)",
    )
    p_char.add_argument(
        "-q",
        dest="rh_exponents",
        type=float,
        action="append",
        metavar="Q",
        help="higher-integrability exponent (repeatable)",
    )
    p_char.add_argument("--out", metavar="PATH", help="write JSON here (default stdout)")
    p_char.set_defaults(func=_cmd_char)

    p_geh = sub.add_parser(
        "verify-gehring",
        help="scan the self-improved integrability and subset bounds",
    )
    _add_weight_source(p_geh)
    _add_depth(p_geh)
    p_geh.add_argument(
        "--q0-star", type=float, default=2.0, help="integrability exponent (default 2)"
    )
    p_geh.add_argument(
        "--eps-grid",
        type=int,
        default=10,
        help="number of evenly spaced epsilon values in (0, epsilon_max]",
    )
    p_geh.add_argument(
        "--subsets",
        type=int,
        default=0,
        help="number of seeded random subset checks to add",
    )
    p_geh.add_argument("--seed", type=int, default=2024, help="subset sampling seed")
    p_geh.add_argument("--csv", metavar="PATH", help="write CSV here (default stdout)")
    p_geh.set_defaults(func=_cmd_verify_gehring)

    p_sf = sub.add_parser(
        "sparse-form", help="evaluate the quadratic sparse form from files"
    )
    _add_depth(p_sf)
    p_sf.add_argument(
        "--family",
        required=True,
        metavar="PATH",
        help="JSON list of cubes with witness cell ranges",
    )
    p_sf.add_argument(
        "--f", required=True, metavar="PATH", help="values file: one number per line"
    )
    p_sf.add_argument(
        "--g", required=True, metavar="PATH", help="values file: one number per line"
    )
    _add_window(p_sf)
    p_sf.add_argument("--out", metavar="PATH", help="write JSON here (default stdout)")
    p_sf.set_defaults(func=_cmd_sparse_form)

    p_wn = sub.add_parser(
        "weak-norm", help="empirical weak operator norm over the test corpus"
    )
    _add_weight_source(p_wn)
    _add_depth(p_wn)
    p_wn.add_argument("-p", type=float, default=2.0, help="Lebesgue exponent")
    p_wn.add_argument("--seed", type=int, default=2024, help="corpus noise seed")
    p_wn.add_argument("--csv", metavar="PATH", help="write CSV here (default stdout)")
    p_wn.set_defaults(func=_cmd_weak_norm)

    p_tp = sub.add_parser(
        "trace-proof", help="run the instrumented pigeonhole argument"
    )
    _add_weight_source(p_tp)
    _add_depth(p_tp)
    _add_window(p_tp)
    p_tp.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="integrability bump (default: the proven maximum)",
    )
    p_tp.add_argument(
        "--f",
        metavar="PATH",
        help="values file for the test function (default: constant 1)",
    )
    p_tp.add_argument(
        "--ratio",
        type=float,
        default=2.0,
        help="stopping-time threshold ratio for the traced family",
    )
    p_tp.add_argument("--out", metavar="PATH", help="write JSON here (default stdout)")
    p_tp.add_argument("--csv", metavar="PATH", help="also write a per-bin CSV here")
    p_tp.set_defaults(func=_cmd_trace_proof)

    p_bd = sub.add_parser(
        "bounds", help="closed-form bound calculus for one weight and window"
    )
    _add_weight_source(p_bd)
    _add_depth(p_bd)
    _add_window(p_bd)
    p_bd.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="integrability bump (default: the proven maximum)",
    )
    p_bd.add_argument("--out", metavar="PATH", help="write JSON here (default stdout)")
    p_bd.set_defaults(func=_cmd_bounds)

    p_sw = sub.add_parser(
        "sweep", help="power-weight sweep of characteristics and bounds"
    )
    _add_depth(p_sw, default=10)
    p_sw.add_argument("--alpha-min", type=float, default=-0.375)
    p_sw.add_argument("--alpha-max", type=float, default=0.375)
    p_sw.add_argument("--alpha-steps", type=int, default=7)
    _add_window(p_sw)
    p_sw.add_argument("--seed", type=int, default=2024, help="corpus noise seed")
    p_sw.add_argument("--csv", metavar="PATH", help="write CSV here (default stdout)")
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WeightlabError, ValueError, OSError) as exc:  # OSError: an unwritable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(
            f"error: {args.command} does not fit in memory at depth L={args.depth}",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
