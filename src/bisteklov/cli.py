"""Command line interface.

Subcommands cover the main computations: ball spectra, the Galerkin solve on a
star-shaped domain, Hadamard shape derivatives with optional finite-difference
validation, criticality residuals, the concentrated-mass sweep, and the
isoperimetric scans.  Each subcommand returns its report; `run` writes it to
stdout or to the `--output` file and maps errors to exit codes.  CSV floats use
12 significant digits in scientific notation; JSON floats are Python's shortest
repr that reads back to the same double.  Output is deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys

import numpy as np

from ._util import single_blas_thread
from .ball_spectrum import sorted_spectrum
from .concentration import _check_mode_cap, convergence_sweep
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

_DOMAIN_KEYS = {f.name for f in dataclasses.fields(StarDomain)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _load_domain(path: str) -> StarDomain:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainValidationError(f"cannot read domain file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer beyond int()'s digit limit
        raise DomainValidationError(f"domain file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise DomainValidationError("domain file must hold an object with an 'a0' field")
    unknown = sorted(set(raw) - _DOMAIN_KEYS)
    if unknown:
        raise DomainValidationError(f"unknown domain fields: {', '.join(unknown)}")
    if "a0" not in raw:
        raise DomainValidationError("domain file is missing the required field 'a0'")
    for key, value in raw.items():  # StarDomain would take "12" or true as numbers
        if key == "a0" and not _is_number(value):
            raise DomainValidationError("domain field 'a0' must be a number")
        if key != "a0" and not (isinstance(value, list) and all(map(_is_number, value))):
            raise DomainValidationError(f"domain field '{key}' must be a list of numbers")
    try:
        return StarDomain(**raw)
    except DomainValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainValidationError(f"malformed domain field: {exc}") from exc


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


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainValidationError(f"cannot write output file {output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv(header: str, rows) -> str:
    """A header line and one line per row; floats in _fnum's format, the rest by str."""
    lines = (",".join(_fnum(v) if isinstance(v, float) else str(v) for v in row) for row in rows)
    return "\n".join([header, *lines]) + "\n"


def _json_report(domain: StarDomain, args, **fields) -> str:
    return json.dumps({"domain": dataclasses.asdict(domain), "tau": args.tau, **fields}) + "\n"


def _cmd_ball_spectrum(args) -> str:
    spectrum = sorted_spectrum(args.dim, args.tau, args.count)
    return _csv("index,eigenvalue,angular_order", spectrum.flatten())


def _solve_for(args, domain: StarDomain, field_modes: int = 0):
    """Solve on a rule that also resolves field_modes more modes, for a field integrated on it."""
    basis = make_trial_basis(args.kmax, args.tau)
    n_boundary = boundary_rule_size(domain, basis, field_modes)
    return solve(assemble(domain, args.tau, basis, n_boundary=n_boundary))


def _cmd_solve(args) -> str:
    domain = _load_domain(args.domain)
    solution = _solve_for(args, domain)
    return _json_report(domain, args, k_max=args.kmax,
                        eigenvalues=[float(v) for v in solution.eigenvalues],
                        clusters=[list(c) for c in solution.clusters],
                        diagnostics=dataclasses.asdict(solution.diagnostics))


def _cmd_shape_derivative(args) -> str:
    domain = _load_domain(args.domain)
    field = _parse_field(args.field, domain)
    solution = _solve_for(args, domain, field.max_mode)
    F = _resolve_F(args.F, solution)
    deriv = hadamard_derivative(solution, F, args.s, field)
    fd = {}
    if args.validate_fd:
        result = fd_derivative(solution, F, args.s, field)
        fd = {f"fd_{k}": v for k, v in dataclasses.asdict(result).items()}
        fd["fd_discrepancy"] = abs(deriv - result.extrapolated)
    return _json_report(domain, args, F=list(F), s=args.s, field=args.field, hadamard=deriv, **fd)


def _cmd_criticality(args) -> str:
    domain = _load_domain(args.domain)
    solution = _solve_for(args, domain)
    F = _resolve_F(args.F, solution)
    c_best, residual = criticality_residual(solution, F)  # validates F
    lam_f = float(np.mean(solution.eigenvalues[[j - 1 for j in F]]))
    return _json_report(domain, args, F=list(F), lambda_F=lam_f, c_best=c_best, residual=residual)


def _cmd_concentration(args) -> str:
    eps_list = _parse_float_list(args.eps, "eps")
    _check_mode_cap(args.modes)  # before the indexes 1..J are built
    rows = convergence_sweep(args.tau, eps_list, range(1, args.modes + 1),
                             n_bulk=args.mesh_bulk, n_collar=args.mesh_collar)
    return _csv("eps,j,lambda_eps,lambda_limit,abs_error", map(dataclasses.astuple, rows))


def _cmd_iso_scan(args) -> str:
    parameters = _parse_float_list(args.params, "parameter") if args.params is not None else None
    result = iso_scan(args.family, parameters, tau=args.tau, mode=args.mode, k_max=args.kmax)
    rows = [*map(dataclasses.astuple, result.rows), ("verdict", "PASS" if result.verdict else "FAIL")]
    return _csv("family,parameter,area,tau,lambda2,ball_bound,margin", rows)


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
    p.set_defaults(fn=_cmd_ball_spectrum)

    p = sub.add_parser("solve", help="Galerkin spectrum on a star-shaped domain")
    p.add_argument("--domain", required=True, help="JSON file with a0/cos_coeffs/sin_coeffs/center")
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("shape-derivative", help="Hadamard derivative of a symmetric eigenvalue function")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--F", default="AUTO",
                   help="a contiguous group of 1-based indexes that splits no cluster, comma-separated, "
                   "or AUTO for the cluster of index 2")
    p.add_argument("--s", type=int, default=1, help="order of the symmetric function (default 1)")
    p.add_argument("--field", required=True, help="normal velocity: const, cosK or sinK")
    p.add_argument("--validate-fd", action="store_true", dest="validate_fd",
                   help="also compute central finite differences of the assembled pencil")
    p.set_defaults(fn=_cmd_shape_derivative)

    p = sub.add_parser("criticality", help="boundary criticality residual of an eigenvalue cluster")
    p.add_argument("--domain", required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--F", default="AUTO")
    p.set_defaults(fn=_cmd_criticality)

    p = sub.add_parser("concentration", help="concentrated-mass plate eigenvalues against their limits")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eps", required=True, help="comma-separated strictly decreasing widths")
    p.add_argument("--modes", type=int, default=6, help="report indexes 1..J (default 6)")
    p.add_argument("--mesh-bulk", type=int, default=40, dest="mesh_bulk")
    p.add_argument("--mesh-collar", type=int, default=8, dest="mesh_collar")
    p.set_defaults(fn=_cmd_concentration)

    p = sub.add_parser("iso-scan", help="fixed-area family scan against the equal-area disk")
    p.add_argument("--family", choices=("perturbed_disk", "ellipse_like"), required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--params", help="comma-separated amplitudes or aspect ratios")
    p.add_argument("--mode", type=int, help="cosine mode of perturbed_disk (default 3); "
                   "ellipse_like takes none")
    p.set_defaults(fn=_cmd_iso_scan)

    # options shared by several subcommands, after each one's own
    for name, p in sub.choices.items():
        if name in ("solve", "shape-derivative", "criticality", "iso-scan"):
            p.add_argument("--kmax", type=int, default=10, help="angular order cutoff (default 10)")
        p.add_argument("--output", help="write to file instead of stdout")

    return parser


def run(argv) -> int:
    """Execute one CLI invocation; returns the exit code without exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with single_blas_thread():
            _emit(args.fn(args), args.output)
        return 0
    except DomainValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
