"""Numerical probes of isoperimetric-type bounds for the second Steklov eigenvalue.

Among domains of fixed area, the disk should maximize the first nonzero
eigenvalue.  These experiments scan one-parameter families of star-shaped
domains at fixed area and compare each member against the equal-area disk,
computed with the same discretization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import parallel_map
from .errors import DomainValidationError
from .geometry import StarDomain, _check_n_nodes, area, fourier_projection, rescale_to_area
from .steklov_solver import _RULE_GRID, assemble, make_trial_basis, solve

_MARGIN_TOL = 1e-7

_DEFAULT_AMPLITUDES = (0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12)
_DEFAULT_ASPECTS = (1.0, 1.1, 1.2, 1.3, 1.4, 1.5)


def lambda2_of(domain: StarDomain, tau: float, k_max: int = 10) -> float:
    """First nonzero Steklov eigenvalue of the domain.

    The trial basis is expanded about the domain's own centre, so a translation
    moves every boundary node with the basis and leaves the eigenvalues unchanged;
    the domain is solved where it stands, without centring.
    """
    return float(solve(assemble(domain, tau, make_trial_basis(k_max, tau))).eigenvalues[1])


def make_family(
    family: str,
    parameters=None,
    mode: int | None = None,
) -> list[tuple[float, StarDomain]]:
    """Members (parameter, domain) of a named scan family, rescaled to the unit disk's area pi.

    "perturbed_disk": rho = 1 + amplitude cos(mode theta), parameter = amplitude,
    mode 3 unless given.
    "ellipse_like":   trigonometric projection of an ellipse of unit area scaled
    from aspect ratio a/b, parameter = aspect; it takes no mode.
    """
    params = None if parameters is None else tuple(parameters)
    if params == ():
        raise DomainValidationError("no parameter values given")
    if family == "perturbed_disk":
        mode = 3 if mode is None else mode
        if mode < 1:
            raise DomainValidationError(f"mode must be >= 1, got {mode}")
        # refuse a mode the largest boundary rule cannot resolve before building it
        _check_n_nodes(StarDomain(a0=1.0), _RULE_GRID, mode)
        params = _DEFAULT_AMPLITUDES if params is None else params
        out = []
        for amp in params:
            coeffs = (0.0,) * (mode - 1) + (float(amp),) if amp != 0.0 else ()
            dom = StarDomain(a0=1.0, cos_coeffs=coeffs)
            out.append((float(amp), rescale_to_area(dom, math.pi)))
        return out
    if family == "ellipse_like":
        if mode is not None:
            raise DomainValidationError(f"the ellipse_like family takes no mode, got {mode}")
        params = _DEFAULT_ASPECTS if params is None else params
        out = []
        for aspect in params:
            if aspect < 1.0:
                raise DomainValidationError(f"aspect ratio must be >= 1, got {aspect}")
            a, b = math.sqrt(aspect), 1.0 / math.sqrt(aspect)
            th = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
            dom = fourier_projection(a * b / np.sqrt((b * np.cos(th)) ** 2 + (a * np.sin(th)) ** 2))
            out.append((float(aspect), rescale_to_area(dom, math.pi)))
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
    mode: int | None = None,
    k_max: int = 10,
) -> IsoScanResult:
    """Compare lambda_2 across a fixed-area family against the equal-area disk.

    The disk reference is computed with the same solver and resolution, so the
    margin bound - lambda_2 carries only the family's true deficit plus matched
    discretization error.  The verdict passes when every margin is >= -1e-7 and
    only the disk member of the family sits within 1e-7 of the bound.
    """
    members = make_family(family, parameters, mode=mode)
    bound = lambda2_of(StarDomain(a0=1.0), tau, k_max=k_max)
    lam2s = parallel_map(lambda m: lambda2_of(m[1], tau, k_max=k_max), members)
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
