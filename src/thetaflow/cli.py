"""Command-line front end: kernel evaluation, evolutions, property suites.

Exit codes: 0 success, 1 validation or input error, 2 a check suite failed.
The environment variable THETA_TOL overrides the default truncation
tolerance used by evaluation and pairing commands.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .checks import run_suite
from .io import (
    load_coefficients,
    load_function,
    load_ultra,
    save_function,
    save_ultra,
)
from .semigroups import (
    SubordinationQuadrature,
    poisson_evolve_d,
    poisson_evolve_kernel,
    poisson_evolve_multiplier,
    subordinate,
    theta_evolve,
    theta_evolve_d,
)
from .theta import ThetaParams, theta3_product, theta3_series
from .ultradist import GrowthClass, check_membership, evolve_ultra, pair

DEFAULT_TOL = 1e-14


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command plus its validated options."""

    command: str
    t: Optional[float] = None
    method: str = ""
    tolerance: float = DEFAULT_TOL
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    report_path: Optional[str] = None
    seed: int = 42
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.t is not None and not math.isfinite(self.t):
            raise ValueError(f"time must be finite, got {self.t}")
        if self.t is not None and self.t < 0:
            raise ValueError(f"time must be nonnegative, got {self.t}")


def _env_tolerance() -> float:
    raw = os.environ.get("THETA_TOL")
    if raw is None:
        return DEFAULT_TOL
    tol = float(raw)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"THETA_TOL must be positive and finite, got {raw}")
    return tol


def build_parser() -> argparse.ArgumentParser:
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

    heat = sub.add_parser("heat", help="apply the heat flow to a CSV function")
    heat.add_argument("--init", required=True, help="input function CSV")
    heat.add_argument("--t", type=float, required=True)
    heat.add_argument("--out", required=True, help="output function CSV")

    poisson = sub.add_parser("poisson", help="apply the Poisson flow")
    poisson.add_argument("--init", required=True)
    poisson.add_argument("--t", type=float, required=True)
    poisson.add_argument("--out", required=True)
    poisson.add_argument("--method",
                         choices=("multiplier", "kernel", "subordination"),
                         default="multiplier")
    _add_quad_args(poisson)

    subo = sub.add_parser("subordinate",
                          help="Poisson flow by explicit subordination quadrature")
    subo.add_argument("--init", required=True)
    subo.add_argument("--t", type=float, required=True)
    subo.add_argument("--out", required=True)
    _add_quad_args(subo)

    check = sub.add_parser("check", help="run a property suite")
    check.add_argument("--suite", choices=("thm1", "thm2"), required=True)
    check.add_argument("--n", type=int, default=None,
                       help="grid points per axis (defaults per suite)")
    check.add_argument("--report", default=None, help="write the JSON report here")
    check.add_argument("--seed", type=int, default=42)

    ultra = sub.add_parser("ultra", help="ultra-distribution operations")
    usub = ultra.add_subparsers(dest="subcommand", required=True)
    um = usub.add_parser("check-membership",
                         help="test a distribution against a growth class")
    um.add_argument("--dist", required=True, help="distribution JSON")
    um.add_argument("--kind", choices=("test", "dual"), default=None)
    um.add_argument("--base", type=float, default=None)
    um.add_argument("--order", type=int, default=None)
    um.add_argument("--constant", type=float, default=1.0)
    ue = usub.add_parser("evolve", help="heat-evolve a distribution")
    ue.add_argument("--dist", required=True)
    ue.add_argument("--t", type=float, required=True)
    ue.add_argument("--out", required=True)
    up = usub.add_parser("pair", help="pair a distribution with a coefficient file")
    up.add_argument("--dist", required=True, help="distribution JSON")
    up.add_argument("--seq", required=True, help="test coefficient JSON array")
    up.add_argument("--test-base", type=float, default=None,
                    help="declare a test-class base for the sequence")
    up.add_argument("--test-order", type=int, default=1)
    up.add_argument("--test-constant", type=float, default=1.0)
    return p


def _add_quad_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--u-max", type=float, default=36.0, dest="u_max")
    parser.add_argument("--quad-tol", type=float, default=None, dest="quad_tol")


def config_from_args(args: argparse.Namespace) -> RunConfig:
    opts = {k: v for k, v in vars(args).items()
            if k not in ("command", "t", "method")}
    return RunConfig(
        command=args.command,
        t=getattr(args, "t", None),
        method=getattr(args, "method", ""),
        tolerance=_env_tolerance(),
        input_path=getattr(args, "init", None) or getattr(args, "dist", None),
        output_path=getattr(args, "out", None),
        report_path=getattr(args, "report", None),
        seed=getattr(args, "seed", 42),
        options=opts,
    )


def _quad_from(config: RunConfig) -> SubordinationQuadrature:
    return SubordinationQuadrature(
        nodes=config.options.get("nodes", 64),
        u_max=config.options.get("u_max", 36.0),
        tol=config.options.get("quad_tol"),
    )


def _run_theta(config: RunConfig) -> int:
    params = ThetaParams(config.options["q"], tol=config.tolerance)
    form = config.options["form"]
    fn = theta3_series if form == "series" else theta3_product
    print(repr(fn(config.options["x"], params)))
    return 0


def _run_heat(config: RunConfig) -> int:
    f = load_function(config.input_path)
    out = theta_evolve(f, config.t) if f.grid.dims == 1 else theta_evolve_d(f, config.t)
    save_function(out, config.output_path)
    return 0


def _run_poisson(config: RunConfig) -> int:
    f = load_function(config.input_path)
    method = config.method or "subordination"
    if method == "multiplier":
        out = (poisson_evolve_multiplier(f, config.t) if f.grid.dims == 1
               else poisson_evolve_d(f, config.t))
    elif method == "kernel":
        out = poisson_evolve_kernel(f, config.t)
    else:
        out = subordinate(f, config.t, _quad_from(config))
    save_function(out, config.output_path)
    return 0


def _print_report(report) -> None:
    width = max(len(r.name) for r in report.records)
    for r in report.records:
        flag = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_error {r.max_error:.3e}  "
              f"tolerance {r.tolerance:.3e}  {flag}")
    print(f"suite {report.suite}: {'all pass' if report.all_pass else 'FAILED'}")


def _run_check(config: RunConfig) -> int:
    report = run_suite(config.options["suite"], n=config.options.get("n"),
                       seed=config.seed)
    if config.report_path:
        with open(config.report_path, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _print_report(report)
    return 0 if report.all_pass else 2


def _run_ultra(config: RunConfig) -> int:
    sub = config.options["subcommand"]
    F = load_ultra(config.input_path)
    if sub == "evolve":
        save_ultra(evolve_ultra(F, config.t), config.output_path)
        return 0
    if sub == "check-membership":
        kind, base = config.options.get("kind"), config.options.get("base")
        order = config.options.get("order")
        if kind is None or base is None or order is None:
            if F.declared_class is None:
                raise ValueError(
                    "no growth class: give --kind/--base/--order or declare one "
                    "in the distribution file"
                )
            g = F.declared_class
        else:
            g = GrowthClass(kind, base, order, config.options.get("constant", 1.0))
        res = check_membership(F.coeffs, g, tol=config.tolerance)
        where = "" if res.worst_n is None else f" at n = {res.worst_n}"
        print(f"member: {str(res.ok).lower()} "
              f"(worst ratio {res.worst_ratio:.6g}{where}, "
              f"checked |n| <= {res.checked_up_to})")
        return 0
    seq = load_coefficients(config.options["seq"])
    f_class = None
    if config.options.get("test_base") is not None:
        f_class = GrowthClass("test", config.options["test_base"],
                              config.options.get("test_order", 1),
                              config.options.get("test_constant", 1.0))
    res = pair(F, seq, f_class=f_class, tol=config.tolerance)
    print(f"value: {res.value.real!r} + {res.value.imag!r}j "
          f"(tail bound {res.tail_bound:.3e}, {res.terms} terms)")
    return 0


def run(config: RunConfig) -> int:
    """Execute a resolved configuration; returns the process exit code."""
    dispatch = {
        "theta": _run_theta,
        "heat": _run_heat,
        "poisson": _run_poisson,
        "subordinate": lambda c: _run_poisson(c),
        "check": _run_check,
        "ultra": _run_ultra,
    }
    return dispatch[config.command](config)


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
        return run(config)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
