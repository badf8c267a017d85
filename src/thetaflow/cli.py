"""Command-line front end: kernel evaluation, evolutions, property suites.

Exit codes: 0 success, 1 validation or input error, 2 a check suite failed.
The environment variable THETA_TOL overrides the default truncation
tolerance used by evaluation and pairing commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

# Module level: only what the flow commands need. The theta, check and
# ultra handlers import their modules in their own bodies, so a heat or
# poisson process never loads theta, checks or ultradist.
from .fourier import _tolerance
from .io import (
    load_coefficients,
    load_function,
    load_ultra,
    save_function,
    save_ultra,
)
from .semigroups import (
    SubordinationQuadrature,
    poisson_evolve_kernel,
    poisson_evolve_multiplier,
    subordinate,
    theta_evolve,
)

DEFAULT_TOL = 1e-14


def _env_tolerance() -> float:
    raw = os.environ.get("THETA_TOL")
    if raw is None:
        return DEFAULT_TOL
    return _tolerance(float(raw), "THETA_TOL")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser; each command's handler is its `run` default."""
    p = argparse.ArgumentParser(
        prog="thetaflow",
        description="Heat and Poisson flows on the torus via theta kernels.",
        epilog="Set THETA_TOL to override the default truncation tolerance.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    theta = sub.add_parser("theta", help="evaluate the theta function")
    tsub = theta.add_subparsers(dest="subcommand", required=True)
    ev = tsub.add_parser("eval", help="evaluate theta3(x, q)")
    ev.add_argument("--x", type=float, required=True, help="angle in radians")
    ev.add_argument("--q", type=float, required=True, help="nome in [0, 1)")
    ev.add_argument("--form", choices=("series", "product"), default="series")
    ev.set_defaults(run=_run_theta)

    heat = sub.add_parser("heat", help="apply the heat flow to a CSV function")
    _add_flow_args(heat, quad=False)
    heat.set_defaults(run=_run_heat)

    poisson = sub.add_parser("poisson", help="apply the Poisson flow")
    _add_flow_args(poisson, quad=True)
    poisson.add_argument("--method",
                         choices=("multiplier", "kernel", "subordination"),
                         default="multiplier")
    poisson.set_defaults(run=_run_poisson)

    subo = sub.add_parser("subordinate",
                          help="Poisson flow by explicit subordination quadrature")
    _add_flow_args(subo, quad=True)
    subo.set_defaults(run=_run_poisson, method="subordination")

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", choices=("thm1", "thm2"), required=True)
    check.add_argument("--n", type=int, default=None,
                       help="grid points per axis (defaults per suite)")
    check.add_argument("--report", default=None, help="write the JSON report here")
    check.add_argument("--seed", type=int, default=42)
    check.set_defaults(run=_run_check)

    ultra = sub.add_parser("ultra", help="ultra-distribution operations")
    usub = ultra.add_subparsers(dest="subcommand", required=True)
    um = usub.add_parser("check-membership",
                         help="test a distribution against a growth class")
    um.add_argument("--dist", required=True, help="distribution JSON")
    um.add_argument("--kind", choices=("test", "dual"), default=None)
    um.add_argument("--base", type=float, default=None)
    um.add_argument("--order", type=int, default=None)
    um.add_argument("--constant", type=float, default=1.0)
    um.set_defaults(run=_run_ultra_membership)
    ue = usub.add_parser("evolve", help="heat-evolve a distribution")
    ue.add_argument("--dist", required=True)
    ue.add_argument("--t", type=float, required=True)
    ue.add_argument("--out", required=True)
    ue.set_defaults(run=_run_ultra_evolve)
    up = usub.add_parser("pair", help="pair a distribution with a coefficient file")
    up.add_argument("--dist", required=True, help="distribution JSON")
    up.add_argument("--seq", required=True, help="test coefficient JSON array")
    up.add_argument("--test-base", type=float, default=None,
                    help="declare a test-class base for the sequence")
    up.add_argument("--test-order", type=int, default=1)
    up.add_argument("--test-constant", type=float, default=1.0)
    up.set_defaults(run=_run_ultra_pair)
    return p


def _add_flow_args(parser: argparse.ArgumentParser, quad: bool) -> None:
    parser.add_argument("--init", required=True, help="input function CSV")
    parser.add_argument("--t", type=float, required=True)
    parser.add_argument("--out", required=True, help="output function CSV")
    if quad:
        parser.add_argument("--nodes", type=int, default=SubordinationQuadrature.nodes)
        parser.add_argument("--u-max", type=float, default=36.0, dest="u_max")
        parser.add_argument("--quad-tol", type=float, default=None, dest="quad_tol")


def _run_theta(args: argparse.Namespace) -> int:
    from .theta import ThetaParams, theta3_product, theta3_series

    params = ThetaParams(args.q, tol=args.tolerance)
    fn = theta3_series if args.form == "series" else theta3_product
    print(repr(fn(args.x, params)))
    return 0


def _run_heat(args: argparse.Namespace) -> int:
    save_function(theta_evolve(load_function(args.init), args.t), args.out)
    return 0


def _run_poisson(args: argparse.Namespace) -> int:
    # The quadrature flags are checked for every method, though only subordination uses them.
    quad = SubordinationQuadrature(nodes=args.nodes, u_max=args.u_max, tol=args.quad_tol)
    f = load_function(args.init)
    if args.method == "multiplier":
        out = poisson_evolve_multiplier(f, args.t)
    elif args.method == "kernel":
        out = poisson_evolve_kernel(f, args.t)
    else:
        out = subordinate(f, args.t, quad)
    save_function(out, args.out)
    return 0


def _print_report(report) -> None:
    width = max(len(r.name) for r in report.records)
    for r in report.records:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_error {r.max_error:.3e}  "
              f"tolerance {r.tolerance:.3e}  {flag}")
    print(f"suite {report.suite}: {'all pass' if report.all_pass else 'FAILED'}")


def _run_check(args: argparse.Namespace) -> int:
    from .checks import run_suite

    report = run_suite(args.suite, n=args.n, seed=args.seed)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _print_report(report)
    return 0 if report.all_pass else 2


def _run_ultra_evolve(args: argparse.Namespace) -> int:
    from .ultradist import evolve_ultra

    save_ultra(evolve_ultra(load_ultra(args.dist), args.t), args.out)
    return 0


def _run_ultra_membership(args: argparse.Namespace) -> int:
    from .ultradist import GrowthClass, check_membership

    F = load_ultra(args.dist)
    missing = [flag for flag, value in (("--kind", args.kind), ("--base", args.base),
                                        ("--order", args.order)) if value is None]
    if not missing:
        g = GrowthClass(args.kind, args.base, args.order, args.constant)
    elif len(missing) < 3:
        raise ValueError(f"give --kind, --base and --order together or none; "
                         f"missing {', '.join(missing)}")
    elif F.declared_class is None:
        raise ValueError(
            "no growth class: give --kind/--base/--order or declare one "
            "in the distribution file"
        )
    else:
        g = F.declared_class
    res = check_membership(F.coeffs, g, tol=args.tolerance)
    where = "" if res.worst_n is None else f" at n = {res.worst_n}"
    print(f"member: {str(res.ok).lower()} "
          f"(worst ratio {res.worst_ratio:.6g}{where}, "
          f"checked |n| <= {res.checked_up_to})")
    return 0


def _run_ultra_pair(args: argparse.Namespace) -> int:
    from .ultradist import GrowthClass, pair

    F = load_ultra(args.dist)
    seq = load_coefficients(args.seq)
    f_class = None
    if args.test_base is not None:
        f_class = GrowthClass("test", args.test_base, args.test_order,
                              args.test_constant)
    res = pair(F, seq, f_class=f_class, tol=args.tolerance)
    print(f"value: {res.value.real!r} + {res.value.imag!r}j "
          f"(tail bound {res.tail_bound:.3e}, {res.terms} terms)")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.tolerance = _env_tolerance()
        return args.run(args)
    except (ValueError, OSError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
