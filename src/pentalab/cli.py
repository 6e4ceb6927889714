"""Command-line front end: build configurations, run the expansion and
transfer-matrix experiments, and emit machine-readable reports.

Every subcommand writes one JSON (or CSV) report and exits 0 when the run's
verdict is within tolerance, 1 on a tolerance failure or a degenerate run,
and 2 on a usage error.  Reports are deterministic for a fixed seed: keys
are sorted, the seed is recorded, and nothing time-dependent is written.

The parser is built once per process.  Each subcommand's parser defaults
carry its handler's name, looked up in this module at dispatch so that a
patched ``cmd_*`` is the one that runs, and ``op``, the module operation a
run error names.
"""

import argparse
import functools
import json
import math
import sys

import numpy as np

from .chimap import DegenerateIntersection
from .configs import (
    ChiConfig,
    SymTable,
    dual_dented_chi,
    dual_dented_shift,
    evenly_spaced_chi,
    short_diagonal_chi,
    solve_alpha_diag,
)
from .curves import CurveSpec, DegenerateLift, IntegrationFailure, random_curve_spec
from .expansion import (FIRST_ORDER_TOL, NotCentralized,
                        alpha_constancy_check, check_kmax, extract_alphas,
                        kdv_rhs_check)
from .jets import DegenerateSystem, NonPositiveBase
from .kdvops import CommutatorResidue
from .lax import lax_limit_diagnostics
from .linalg import SingularMatrixError
from .realize import (DegenerateProbes, MissingScipy, NotPlaneConfig,
                      check_34, dof_lower_bound, mari_beffa_family,
                      r_poly_roots, search_34)

_FAMILY_NAMES = ("short-diagonal", "evenly-spaced", "dual-dented")
# what a run can meet on a geometry it cannot handle (ZeroDivisionError: a
# pole of a u_i at the working point); anything else is a bug and is
# raised, not reported as a failed run
_RUN_ERRORS = (DegenerateIntersection, DegenerateLift, DegenerateSystem,
               IntegrationFailure, SingularMatrixError, NotCentralized,
               NonPositiveBase, DegenerateProbes, CommutatorResidue,
               ZeroDivisionError)
# what reading a malformed input file can raise: a usage error; a file
# nested too deep for the json decoder raises RecursionError
_LOAD_ERRORS = (OSError, KeyError, TypeError, ValueError, RecursionError)
# largest kdv-verify deviation that passes
_KDV_TOL = 1e-3


class UsageError(Exception):
    """Configuration rejected before any computation."""


def _finite_float(text):
    """The argparse type of every float flag: a finite number."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _seed(text):
    """The argparse type of --seed: a non-negative integer, as numpy's
    random generators need."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative "
                                         "integer")
    return value


def _shift_value(text):
    """--shift: 'auto' or a finite number."""
    return text if text == "auto" else _finite_float(text)


def _build_family(args, d_default=None):
    name = args.family if hasattr(args, "family") else args.chi
    d = args.d if args.d is not None else d_default
    if d is None:
        raise UsageError("a named family needs --d")
    try:
        if name == "short-diagonal":
            chi = short_diagonal_chi(d)
        elif name == "evenly-spaced":
            if args.p is None or args.r_step is None:
                raise UsageError("evenly-spaced needs --p and --r-step")
            chi = evenly_spaced_chi(args.p, args.r_step, d)
        elif name == "dual-dented":
            if args.s is None:
                raise UsageError("dual-dented needs --s")
            chi = dual_dented_chi(d, args.s, variant=args.variant)
        else:
            raise UsageError(f"unknown family {name!r}")
    except ValueError as exc:
        raise UsageError(str(exc))
    applied = 0.0
    if args.shift is not None:
        if name != "dual-dented":
            raise UsageError("--shift only applies to dual-dented")
        applied = (dual_dented_shift(d, args.s) if args.shift == "auto"
                   else args.shift)
        chi = chi.shift(applied)
    return chi, applied


def _run_inputs(args):
    """(curve spec, configuration) of a run command, checked in order:
    --kmax, the curve file, the family or chi file, --d against the
    configuration, and the curve's dimension against the configuration's."""
    dtype = np.longdouble if args.precision == "extended" else np.float64
    try:
        check_kmax(getattr(args, "kmax", 2))
    except ValueError as exc:
        raise UsageError(str(exc))

    spec = None
    if args.curve != "random":
        try:
            spec = CurveSpec.load(args.curve, dtype=dtype)
        except _LOAD_ERRORS as exc:
            raise UsageError(f"cannot load curve from {args.curve!r}: {exc}")

    if args.chi in _FAMILY_NAMES:
        chi = _build_family(args, None if spec is None else spec.d)[0]
    else:
        try:
            chi = ChiConfig.load(args.chi)
        except _LOAD_ERRORS as exc:
            raise UsageError(f"cannot load chi from {args.chi!r}: {exc}")

    d = args.d if args.d is not None else chi.d
    if d != chi.d:
        raise UsageError(f"--d {d} contradicts the configuration's "
                         f"dimension {chi.d}")
    if spec is None:
        return random_curve_spec(d, seed=args.seed, dtype=dtype), chi
    if spec.d != chi.d:
        raise UsageError("curve and configuration dimensions differ")
    return spec, chi


def _emit(args, payload, csv_rows=None, csv_header=None):
    """Write the report to args.out in args.format; a path that cannot be
    written is a usage error."""
    if args.format == "csv" and csv_rows is not None:
        lines = [",".join(csv_header)]
        lines += [",".join(repr(v) for v in row) for row in csv_rows]
        text = "\n".join(lines) + "\n"
    elif args.format == "csv":
        lines = [f"{k},{json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(payload.items())]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write report to {args.out!r}: "
                         f"{exc.strerror}")


def cmd_families(args):
    chi, applied = _build_family(args)
    diag = None
    centralized = None
    if chi.is_hyperplane():
        diag = solve_alpha_diag(chi)
        centralized = bool(abs(diag[0]) <= 1e-9)
    payload = {
        "schema": 1,
        "family": args.family,
        "d": chi.d,
        "chi": chi.to_dict(),
        "applied_shift": applied,
        "sigma_top": [float(v) for v in SymTable(chi).top()],
        "alpha_diag": None if diag is None else [float(v) for v in diag],
        "centralized": centralized,
    }
    _emit(args, payload)
    return 0


def cmd_expand(args):
    spec, chi = _run_inputs(args)
    report = extract_alphas(spec, chi, args.x, args.kmax)
    payload = {"schema": 1, "seed": args.seed, **report.to_dict()}
    # the rows are built only for the format that prints them
    rows = report.csv_rows() if args.format == "csv" else None
    _emit(args, payload, csv_rows=rows,
          csv_header=("order", "frame_index", "alpha", "uncertainty"))
    return 0


def cmd_centralize(args):
    spec, chi = _run_inputs(args)
    if len(set(args.x)) < 3:
        raise UsageError("centralize needs at least three distinct --x values")
    report, spread = alpha_constancy_check(spec, chi, args.x)
    alpha11 = float(report.alpha[1, 1])
    centralized = bool(abs(alpha11) <= FIRST_ORDER_TOL)
    payload = {
        "schema": 1,
        "seed": args.seed,
        "chi": chi.to_dict(),
        "x_values": [float(v) for v in args.x],
        "alpha11": alpha11,
        "diag_spread": float(spread),
        "centralized": centralized,
    }
    _emit(args, payload)
    return 0 if centralized else 1


def cmd_kdv_verify(args):
    spec, chi = _run_inputs(args)
    deviation = float(kdv_rhs_check(spec, chi, args.x))
    ok = deviation <= _KDV_TOL
    payload = {
        "schema": 1,
        "seed": args.seed,
        "chi": chi.to_dict(),
        "x": args.x,
        "deviation": deviation,
        "tolerance": _KDV_TOL,
        "pass": ok,
    }
    _emit(args, payload)
    return 0 if ok else 1


def cmd_lax_verify(args):
    spec, chi = _run_inputs(args)
    report = lax_limit_diagnostics(spec, chi, args.x)
    checks = report.checks()
    ok = all(checks.values())
    payload = {"schema": 1, "seed": args.seed, "pass": ok, "checks": checks,
               **report.to_dict()}
    _emit(args, payload)
    return 0 if ok else 1


def cmd_realize34(args):
    if args.probes < 3:
        raise UsageError("realize34 needs --probes >= 3")
    if args.root_index is not None and args.chi != "r-root":
        raise UsageError("--root-index only applies to r-root")
    if args.chi == "integer-instance":
        chi, _ = mari_beffa_family(-2, 3, -5)
    elif args.chi == "r-root":
        roots, index = r_poly_roots(), args.root_index or 0
        if not 0 <= index < roots.size:
            raise UsageError(f"--root-index must be in 0..{roots.size - 1}")
        r = roots[index]
        chi = ChiConfig(3, [[-1.0, 1.5, 4.0], [1.2, 10.0, -0.5],
                            [1.0, -r, 6.0 / r]])
    else:
        try:
            chi = ChiConfig.load(args.chi)
        except _LOAD_ERRORS as exc:
            raise UsageError(f"cannot load chi from {args.chi!r}: {exc}")
    curves = [random_curve_spec(3, seed=args.seed + k)
              for k in range(args.probes)]
    try:
        if args.search:  # descend from chi; the report is the result's
            result = search_34(chi, curves, args.x)
            report = result.report
        else:
            result = report = check_34(chi, curves, args.x)
    except (NotPlaneConfig, MissingScipy) as exc:
        raise UsageError(str(exc))
    payload = {"schema": 1, "seed": args.seed, "x": float(args.x),
               **result.to_dict()}
    _emit(args, payload)
    return 0 if report.passes() else 1


def cmd_dof(args):
    try:
        print(dof_lower_bound(args.m))
    except ValueError as exc:
        raise UsageError(str(exc))
    return 0


def _add_output_flags(p):
    p.add_argument("--out", default="-", help="report path, - for stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_family_flags(p):
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=_finite_float, nargs="+", default=None,
                   help="node set for evenly-spaced")
    p.add_argument("--r-step", type=_finite_float, default=None,
                   help="group translation step for evenly-spaced")
    p.add_argument("--s", type=int, default=None,
                   help="dent position for dual-dented")
    p.add_argument("--shift", type=_shift_value, default=None,
                   help="node shift for dual-dented: a number or 'auto'")
    p.add_argument("--variant", choices=("full", "reduced"), default="full")


def _add_ignored_step_flags(p):
    """Step flags older command lines pass; nothing reads them."""
    p.add_argument("--eps0", type=_finite_float, help=argparse.SUPPRESS)
    p.add_argument("--ratio", type=_finite_float, help=argparse.SUPPRESS)
    p.add_argument("--count", type=int, help=argparse.SUPPRESS)


def _add_run_flags(p):
    p.add_argument("--chi", default="short-diagonal",
                   help="family name (short-diagonal, evenly-spaced, "
                        "dual-dented) or a JSON file path")
    p.add_argument("--curve", default="random",
                   help="'random' or a curve JSON file path")
    _add_family_flags(p)
    p.add_argument("--precision", choices=("double", "extended"),
                   default="double")
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for random curves, recorded in the report")
    _add_output_flags(p)


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pentalab",
        description="Numerical experiments on intersection-type curve maps: "
                    "series extraction, flow verification, transfer-matrix "
                    "limits, and configuration search.",
        epilog="CSV columns: expand emits (order, frame_index, alpha, "
               "uncertainty) per coefficient; the other commands emit "
               "(key, value) pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="print a named configuration and "
                                        "its closed-form verdict")
    p.add_argument("family", choices=_FAMILY_NAMES)
    _add_family_flags(p)
    _add_output_flags(p)
    p.set_defaults(handler="cmd_families", op="configs.solve_alpha_diag")

    p = sub.add_parser("expand", help="the expansion coefficients of the "
                                      "mapped curve at one point")
    _add_run_flags(p)
    p.add_argument("--x", type=_finite_float, default=0.3)
    p.add_argument("--kmax", type=int, default=2)
    _add_ignored_step_flags(p)
    p.set_defaults(handler="cmd_expand", op="expansion.extract_alphas")

    p = sub.add_parser("centralize", help="test first-order vanishing and "
                                          "coefficient constancy across x")
    _add_run_flags(p)
    p.add_argument("--x", type=_finite_float, nargs="+",
                   default=(-0.4, 0.3, 1.1))
    p.set_defaults(handler="cmd_centralize",
                   op="expansion.alpha_constancy_check")

    p = sub.add_parser("kdv-verify", help="compare the second-order flow "
                                          "against the commutator right-hand "
                                          "side")
    _add_run_flags(p)
    p.add_argument("--x", type=_finite_float, default=0.3)
    p.set_defaults(handler="cmd_kdv_verify", op="expansion.kdv_rhs_check")

    p = sub.add_parser("lax-verify", help="check the limits of the "
                                          "transfer-matrix picture")
    _add_run_flags(p)
    p.add_argument("--x", type=_finite_float, default=0.3)
    p.set_defaults(handler="cmd_lax_verify", op="lax.lax_limit_diagnostics")

    p = sub.add_parser("realize34", help="check a plane configuration for "
                                         "the third-order flow")
    p.add_argument("--chi", default="integer-instance",
                   help="'integer-instance', 'r-root', or a JSON file path")
    p.add_argument("--root-index", type=int, default=None)
    p.add_argument("--probes", type=int, default=3)
    p.add_argument("--x", type=_finite_float, default=0.3)
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for random curves, recorded in the report")
    p.add_argument("--search", action="store_true",
                   help="descend from the configuration toward one that "
                        "passes, and report the best found")
    _add_output_flags(p)
    p.set_defaults(handler="cmd_realize34", op="realize.check_34")

    p = sub.add_parser("dof", help="lower bound on constraints for the "
                                   "order-m flow")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(handler="cmd_dof", op="realize.dof_lower_bound")

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = globals()[args.handler]
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except _RUN_ERRORS as exc:
        op = ("realize.search_34" if getattr(args, "search", False)
              else args.op)
        print(f"error in {op}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
