"""Numerical probes of isoperimetric-type bounds for the second Steklov eigenvalue.

Among domains of fixed area, the disk should maximize the first nonzero
eigenvalue.  These experiments scan one-parameter families of star-shaped
domains at fixed area, compare each member against the equal-area disk computed
with the same discretization, and evaluate two related boundary inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import parallel_map
from .errors import DomainValidationError
from .geometry import (
    StarDomain,
    area,
    boundary_geometry,
    center_boundary_centroid,
    fourier_projection,
    rescale_to_area,
)
from .steklov_solver import assemble, make_trial_basis, solve

_MARGIN_TOL = 1e-7
_GAP_TOL = 1e-8
_WEIGHTED_TOL = 1e-9

_DEFAULT_AMPLITUDES = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12)
_DEFAULT_ASPECTS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def _solve_domain(domain: StarDomain, tau: float, k_max: int, svd_tol: float):
    return solve(assemble(domain, tau, make_trial_basis(k_max, tau)), svd_tol)


def lambda2_of(
    domain: StarDomain, tau: float, k_max: int = 10, svd_tol: float = 1e-12
) -> float:
    """First nonzero Steklov eigenvalue of the domain.

    The trial basis is expanded about the domain's own centre, so a translation
    moves every boundary node with the basis and leaves the eigenvalues unchanged;
    the domain is solved where it stands, without centring.
    """
    return float(_solve_domain(domain, tau, k_max, svd_tol).eigenvalues[1])


def make_family(
    family: str,
    parameters=None,
    mode: int = 3,
    target_area: float = math.pi,
) -> list[tuple[float, StarDomain]]:
    """Members (parameter, domain) of a named scan family, rescaled to target_area.

    "perturbed_disk": rho = 1 + amplitude cos(mode theta), parameter = amplitude.
    "ellipse_like":   trigonometric projection of an ellipse of unit area scaled
    from aspect ratio a/b, parameter = aspect.
    """
    if mode < 1:
        raise DomainValidationError(f"mode must be >= 1, got {mode}")
    params = None if parameters is None else tuple(parameters)
    if params == ():
        raise DomainValidationError("no parameter values given")
    if family == "perturbed_disk":
        params = _DEFAULT_AMPLITUDES if params is None else params
        out = []
        for amp in params:
            coeffs = (0.0,) * (mode - 1) + (float(amp),) if amp != 0.0 else ()
            dom = StarDomain(a0=1.0, cos_coeffs=coeffs)
            out.append((float(amp), rescale_to_area(dom, target_area)))
        return out
    if family == "ellipse_like":
        params = _DEFAULT_ASPECTS if params is None else params
        out = []
        for aspect in params:
            if aspect < 1.0:
                raise DomainValidationError(f"aspect ratio must be >= 1, got {aspect}")
            a, b = math.sqrt(aspect), 1.0 / math.sqrt(aspect)
            th = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
            dom = fourier_projection(a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2))
            out.append((float(aspect), rescale_to_area(dom, target_area)))
        return out
    raise DomainValidationError(f"unknown family {family!r}")


@dataclass(frozen=True)
class IsoScanRow:
    family: str
    parameter: float
    area: float
    tau: float
    lambda2: float
    ball_bound: float
    margin: float


@dataclass(frozen=True)
class IsoScanResult:
    rows: tuple[IsoScanRow, ...]
    verdict: bool


def iso_scan(
    family: str = "perturbed_disk",
    parameters=None,
    tau: float = 1.0,
    mode: int = 3,
    target_area: float = math.pi,
    k_max: int = 10,
    svd_tol: float = 1e-12,
) -> IsoScanResult:
    """Compare lambda_2 across a fixed-area family against the equal-area disk.

    The disk reference is computed with the same solver and resolution, so the
    margin bound - lambda_2 carries only the family's true deficit plus matched
    discretization error.  The verdict passes when every margin is >= -1e-7 and
    only the disk member of the family sits within 1e-7 of the bound.
    """
    members = make_family(family, parameters, mode=mode, target_area=target_area)
    radius = math.sqrt(target_area / math.pi)
    bound = lambda2_of(StarDomain(a0=radius), tau, k_max=k_max, svd_tol=svd_tol)
    lam2s = parallel_map(
        lambda m: lambda2_of(m[1], tau, k_max=k_max, svd_tol=svd_tol), members
    )
    rows = []
    verdict = True
    for (param, dom), lam2 in zip(members, lam2s):
        margin = bound - lam2
        is_disk = param == 0.0 if family == "perturbed_disk" else param == 1.0
        if margin < -_MARGIN_TOL:
            verdict = False
        if abs(margin) <= _MARGIN_TOL and not is_disk:
            verdict = False
        rows.append(IsoScanRow(family, param, area(dom), tau, lam2, bound, margin))
    return IsoScanResult(rows=tuple(rows), verdict=verdict)


def inverse_sum_bound(
    domain: StarDomain, tau: float, k_max: int = 10, svd_tol: float = 1e-12, n_nodes: int = 1024
) -> tuple[float, float, float]:
    """Check 1/lambda_2 + 1/lambda_3 against its boundary-moment lower bound.

    Returns (lhs, rhs, gap) with rhs the second boundary moment divided by tau
    times the area, and gap = lhs - rhs; the bound holds when gap >= 0, with
    equality on the disk.  Centroid centering is applied first, which makes the
    coordinate trial functions admissible.
    """
    dom = center_boundary_centroid(domain)
    sol = _solve_domain(dom, tau, k_max, svd_tol)
    lam2, lam3 = float(sol.eigenvalues[1]), float(sol.eigenvalues[2])
    lhs = 1.0 / lam2 + 1.0 / lam3
    bq = boundary_geometry(dom, n_nodes)
    moment = float(np.dot(bq.weights, np.einsum("nc,nc->n", bq.points, bq.points)))
    rhs = moment / (tau * area(dom))
    return lhs, rhs, lhs - rhs


_WEIGHT_CATALOG = {
    "t": lambda t: t,
    "t2": lambda t: t**2,
    "t4": lambda t: t**4,
}


def weighted_boundary_inequality_check(
    domain: StarDomain, f: str = "t2", n_nodes: int = 1024
) -> tuple[float, float, bool]:
    """Check the moment inequality for f(|x|) against the equal-area disk.

    For the admissible increasing convex weights in the catalog (f = t, t^2, t^4),
    the boundary integral of f(|x|) on a centered star-shaped domain is at least
    its value on the disk of equal area, f(R) 2 pi R.  Returns (lhs, rhs, verdict)
    with verdict true when lhs >= rhs - 1e-9.
    """
    if f not in _WEIGHT_CATALOG:
        raise DomainValidationError(
            f"weight {f!r} not in the admissible catalog {sorted(_WEIGHT_CATALOG)}"
        )
    fn = _WEIGHT_CATALOG[f]
    dom = center_boundary_centroid(domain)
    bq = boundary_geometry(dom, n_nodes)
    lhs = float(np.dot(bq.weights, fn(np.hypot(bq.points[:, 0], bq.points[:, 1]))))
    R = math.sqrt(area(dom) / math.pi)
    rhs = fn(R) * 2.0 * math.pi * R
    return lhs, rhs, lhs >= rhs - _WEIGHTED_TOL
