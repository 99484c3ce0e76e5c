"""Command line interface.

Subcommands cover the main computations: ball spectra, the Galerkin solve on a
star-shaped domain, Hadamard shape derivatives with optional finite-difference
validation, criticality residuals, the concentrated-mass sweep, and the
isoperimetric scans.  CSV floats use 12 significant digits in scientific
notation; JSON floats carry 17 significant digits.  Output is deterministic:
identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from .ball_spectrum import sorted_spectrum
from .concentration import convergence_sweep
from .errors import DomainValidationError, NumericalError
from .geometry import StarDomain, _check_n_nodes
from .iso_experiments import iso_scan
from .shape_calculus import (
    PerturbationField,
    criticality_residual,
    fd_derivative,
    hadamard_derivative,
)
from .steklov_solver import _RULE_GRID, assemble, boundary_rule_size, make_trial_basis, solve

_DOMAIN_KEYS = {"a0", "cos_coeffs", "sin_coeffs", "center"}


def _load_domain(path: str) -> StarDomain:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainValidationError(f"cannot read domain file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DomainValidationError(f"domain file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainValidationError("domain file must hold an object with an 'a0' field")
    unknown = sorted(set(raw) - _DOMAIN_KEYS)
    if unknown:
        raise DomainValidationError(f"unknown domain fields: {', '.join(unknown)}")
    if "a0" not in raw:
        raise DomainValidationError("domain file is missing the required field 'a0'")
    try:
        a0 = float(raw["a0"])
        cos_coeffs = tuple(float(c) for c in raw.get("cos_coeffs", ()))
        sin_coeffs = tuple(float(c) for c in raw.get("sin_coeffs", ()))
        center_raw = raw.get("center", (0.0, 0.0))
        if len(center_raw) != 2:
            raise DomainValidationError("'center' must hold exactly two numbers")
        center = (float(center_raw[0]), float(center_raw[1]))
    except (TypeError, ValueError) as exc:
        raise DomainValidationError(f"malformed domain field: {exc}") from exc
    return StarDomain(a0=a0, cos_coeffs=cos_coeffs, sin_coeffs=sin_coeffs, center=center)


def _domain_as_dict(domain: StarDomain) -> dict:
    return {
        "a0": domain.a0,
        "cos_coeffs": list(domain.cos_coeffs),
        "sin_coeffs": list(domain.sin_coeffs),
        "center": list(domain.center),
    }


def _parse_field(spec: str, domain: StarDomain) -> PerturbationField:
    """The normal velocity named by spec; one the largest boundary rule cannot resolve
    on domain is refused before its coefficients are built."""
    if spec == "const":
        return PerturbationField(const=1.0)
    m = re.fullmatch(r"(cos|sin)([1-9][0-9]*)", spec)
    if not m:
        raise DomainValidationError(
            f"field {spec!r} not understood; use 'const', 'cosK' or 'sinK' with K >= 1"
        )
    try:
        k = int(m.group(2))
    except ValueError:  # beyond int()'s digit limit, so beyond any rule too
        k = _RULE_GRID
    _check_n_nodes(domain, _RULE_GRID, k)
    coeffs = (0.0,) * (k - 1) + (1.0,)
    if m.group(1) == "cos":
        return PerturbationField(cos_coeffs=coeffs)
    return PerturbationField(sin_coeffs=coeffs)


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise DomainValidationError(f"bad {what} list {text!r}: {exc}") from exc


def _resolve_F(spec: str, solution) -> tuple[int, ...]:
    if spec == "AUTO":
        lo, hi = solution.cluster_of(2)
        return tuple(range(lo, hi + 1))
    try:
        F = tuple(int(v) for v in spec.split(","))
    except ValueError as exc:
        raise DomainValidationError(f"bad index set {spec!r}: {exc}") from exc
    if not F:
        raise DomainValidationError("index set F is empty")
    return F


def _fnum(x: float) -> str:
    return "%.12e" % float(x)


def _json_value(x):
    if isinstance(x, dict):
        items = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in x.items())
        return "{" + items + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in x) + "]"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return json.dumps(x)


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainValidationError(f"cannot write output file {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_ball_spectrum(args) -> int:
    spectrum = sorted_spectrum(args.dim, args.tau, args.count)
    lines = ["index,eigenvalue,angular_order"]
    for j, lam, order in spectrum.flatten():
        lines.append(f"{j},{_fnum(lam)},{order}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _solve_for(args, domain: StarDomain, field_modes: int = 0):
    """Solve on a rule that also resolves field_modes more modes, for a field integrated on it."""
    basis = make_trial_basis(args.kmax, args.tau)
    n_boundary = boundary_rule_size(domain, basis, field_modes)
    return solve(assemble(domain, args.tau, basis, n_boundary=n_boundary))


def _cmd_solve(args) -> int:
    domain = _load_domain(args.domain)
    solution = _solve_for(args, domain)
    d = solution.diagnostics
    doc = {
        "domain": _domain_as_dict(domain),
        "tau": args.tau,
        "k_max": args.kmax,
        "eigenvalues": [float(v) for v in solution.eigenvalues],
        "clusters": [list(c) for c in solution.clusters],
        "diagnostics": {
            "basis_size": d.basis_size,
            "filtered_dimension": d.filtered_dimension,
            "b_null_count": d.b_null_count,
            "gram_condition": d.gram_condition,
        },
    }
    _emit(_json_value(doc) + "\n", args.output)
    return 0


def _cmd_shape_derivative(args) -> int:
    domain = _load_domain(args.domain)
    field = _parse_field(args.field, domain)
    solution = _solve_for(args, domain, field.max_mode)
    F = _resolve_F(args.F, solution)
    deriv = hadamard_derivative(solution, F, args.s, field)
    doc = {
        "domain": _domain_as_dict(domain),
        "tau": args.tau,
        "F": list(F),
        "s": args.s,
        "field": args.field,
        "hadamard": deriv,
    }
    if args.validate_fd:
        fd = fd_derivative(solution, F, args.s, field)
        doc["fd_steps"] = list(fd.steps)
        doc["fd_estimates"] = list(fd.estimates)
        doc["fd_extrapolated"] = fd.extrapolated
        doc["fd_discrepancy"] = abs(deriv - fd.extrapolated)
    _emit(_json_value(doc) + "\n", args.output)
    return 0


def _cmd_criticality(args) -> int:
    domain = _load_domain(args.domain)
    solution = _solve_for(args, domain)
    F = _resolve_F(args.F, solution)
    c_best, residual = criticality_residual(solution, F)  # validates F
    lam_f = float(np.mean(solution.eigenvalues[[j - 1 for j in F]]))
    doc = {
        "domain": _domain_as_dict(domain),
        "tau": args.tau,
        "F": list(F),
        "lambda_F": lam_f,
        "c_best": c_best,
        "residual": residual,
    }
    _emit(_json_value(doc) + "\n", args.output)
    return 0


def _cmd_concentration(args) -> int:
    eps_list = _parse_float_list(args.eps, "eps")
    j_list = list(range(1, args.modes + 1))
    rows = convergence_sweep(args.tau, eps_list, j_list,
                             n_bulk=args.mesh_bulk, n_collar=args.mesh_collar)
    lines = ["eps,j,lambda_eps,lambda_limit,abs_error"]
    for r in rows:
        lines.append(
            f"{_fnum(r.eps)},{r.j},{_fnum(r.lambda_eps)},{_fnum(r.lambda_limit)},{_fnum(r.abs_error)}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_iso_scan(args) -> int:
    parameters = _parse_float_list(args.params, "parameter") if args.params is not None else None
    result = iso_scan(args.family, parameters, tau=args.tau, mode=args.mode, k_max=args.kmax)
    lines = ["family,parameter,area,tau,lambda2,ball_bound,margin"]
    for r in result.rows:
        lines.append(
            f"{r.family},{_fnum(r.parameter)},{_fnum(r.area)},{_fnum(r.tau)},"
            f"{_fnum(r.lambda2)},{_fnum(r.ball_bound)},{_fnum(r.margin)}"
        )
    lines.append(f"verdict,{'PASS' if result.verdict else 'FAIL'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bisteklov",
        description="Steklov eigenvalues of the biharmonic operator: spectra, "
        "shape derivatives, concentration limits, isoperimetric scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball-spectrum", help="sorted ball eigenvalues with angular orders")
    p.add_argument("--dim", type=int, default=2, help="space dimension N (default 2)")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--count", type=int, required=True, help="number of eigenvalues")
    p.add_argument("--output", help="write to file instead of stdout")
    p.set_defaults(fn=_cmd_ball_spectrum)

    p = sub.add_parser("solve", help="Galerkin spectrum on a star-shaped domain")
    p.add_argument("--domain", required=True, help="JSON file with a0/cos_coeffs/sin_coeffs/center")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--kmax", type=int, default=10, help="angular order cutoff (default 10)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("shape-derivative", help="Hadamard derivative of a symmetric eigenvalue function")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--F", default="AUTO",
                   help="comma-separated 1-based cluster indexes, or AUTO for the cluster of index 2")
    p.add_argument("--s", type=int, default=1, help="order of the symmetric function (default 1)")
    p.add_argument("--field", required=True, help="normal velocity: const, cosK or sinK")
    p.add_argument("--validate-fd", action="store_true", dest="validate_fd",
                   help="also compute central finite differences of the assembled pencil")
    p.add_argument("--kmax", type=int, default=10, help="angular order cutoff (default 10)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_shape_derivative)

    p = sub.add_parser("criticality", help="boundary criticality residual of an eigenvalue cluster")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--F", default="AUTO")
    p.add_argument("--kmax", type=int, default=10, help="angular order cutoff (default 10)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_criticality)

    p = sub.add_parser("concentration", help="concentrated-mass plate eigenvalues against their limits")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated strictly decreasing widths")
    p.add_argument("--modes", type=int, default=6, help="report indexes 1..J (default 6)")
    p.add_argument("--mesh-bulk", type=int, default=40, dest="mesh_bulk")
    p.add_argument("--mesh-collar", type=int, default=8, dest="mesh_collar")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_concentration)

    p = sub.add_parser("iso-scan", help="fixed-area family scan against the equal-area disk")
    p.add_argument("--family", choices=("perturbed_disk", "ellipse_like"), required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--params", help="comma-separated amplitudes or aspect ratios")
    p.add_argument("--mode", type=int, help="cosine mode of perturbed_disk (default 3); "
                   "ellipse_like takes none")
    p.add_argument("--kmax", type=int, default=10, help="angular order cutoff (default 10)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_iso_scan)

    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code without exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.fn(args)
    except DomainValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
