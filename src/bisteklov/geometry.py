"""Star-shaped planar domains given by trigonometric radius series.

A domain is rho(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta) around a
center point.  All boundary quantities (tangent, outward normal, curvature, arc
length weights) follow from rho and its first two derivatives, so quadrature
rules on the boundary and in the interior are spectrally accurate for smooth
radius series on uniform angular grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainValidationError

_POSITIVITY_GRID = 4096
_COEF_TRIM = 1e-13


@dataclass(frozen=True)
class StarDomain:
    """Immutable star-shaped domain; positivity of the radius is checked at construction."""

    a0: float
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "cos_coeffs", tuple(float(c) for c in self.cos_coeffs))
        object.__setattr__(self, "sin_coeffs", tuple(float(c) for c in self.sin_coeffs))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        object.__setattr__(self, "a0", float(self.a0))
        with np.errstate(invalid="ignore"):  # infinite coefficients: nan samples, rejected
            r = _grid_samples(self.a0, self.cos_coeffs, self.sin_coeffs, _POSITIVITY_GRID)
        if not np.all(r > 0.0):
            raise DomainValidationError(
                f"radius series is not positive (min {r.min():.3e}); domain is invalid"
            )

    @property
    def max_mode(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def rho(self, theta: np.ndarray) -> np.ndarray:
        return trig_series(self.a0, self.cos_coeffs, self.sin_coeffs, theta)

    def rho_derivatives(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho, rho', rho'') at the given angles."""
        return trig_series(self.a0, self.cos_coeffs, self.sin_coeffs, theta, derivatives=True)


def trig_series(const, cos_coeffs, sin_coeffs, theta, derivatives: bool = False):
    """const + sum_k (cos_coeffs[k-1] cos k theta + sin_coeffs[k-1] sin k theta) at theta.

    Returns the value, or (value, first, second theta-derivative) when derivatives
    is set.  Modes are added one at a time, cosines first, in increasing order.
    """
    theta = np.asarray(theta, dtype=float)
    f = np.full_like(theta, const)
    f1, f2 = np.zeros_like(theta), np.zeros_like(theta)
    for coeffs, main_fn, other_fn, sign in (
        (cos_coeffs, np.cos, np.sin, -1.0),
        (sin_coeffs, np.sin, np.cos, 1.0),
    ):
        for k, c in enumerate(coeffs, start=1):
            if c != 0.0:
                main = main_fn(k * theta)
                f += c * main
                if derivatives:
                    f1 += sign * (c * k * other_fn(k * theta))
                    f2 -= c * k * k * main
    return (f, f1, f2) if derivatives else f


def _grid_samples(const, cos_coeffs, sin_coeffs, n: int) -> np.ndarray:
    """trig_series at theta_j = 2 pi j / n (n even), to rounding, by one inverse real FFT.

    The series is Re sum_k c_k e^(ik theta) with c_k = a_k - i b_k: fold the modes
    modulo n, and the Hermitian part of that spectrum has the same real samples.
    """
    c = np.zeros(n, dtype=complex)
    np.add.at(c, np.arange(1, len(cos_coeffs) + 1) % n, cos_coeffs)
    np.add.at(c, np.arange(1, len(sin_coeffs) + 1) % n, -1j * np.asarray(sin_coeffs))
    c[0] += const
    return np.fft.irfft(0.5 * (c + np.roll(c[::-1], 1).conj())[: n // 2 + 1], n, norm="forward")


def fourier_projection(samples: np.ndarray, center=(0.0, 0.0)) -> StarDomain:
    """Star domain whose radius series interpolates samples on a uniform angular grid.

    The samples are taken at theta_j = 2 pi j / n.  Trailing modes whose cosine and
    sine coefficients both lie below 1e-13 of the largest coefficient are dropped.
    """
    co = np.fft.rfft(samples) / len(samples)
    a0 = float(co[0].real)
    ak = 2.0 * co[1:].real
    bk = -2.0 * co[1:].imag
    cutoff = _COEF_TRIM * max(abs(a0), float(np.abs(ak).max()), float(np.abs(bk).max()))
    big = np.flatnonzero((np.abs(ak) > cutoff) | (np.abs(bk) > cutoff))
    keep = int(big[-1]) + 1 if big.size else 0
    return StarDomain(a0=a0, cos_coeffs=tuple(ak[:keep]), sin_coeffs=tuple(bk[:keep]), center=center)


@dataclass(frozen=True)
class BoundaryQuadrature:
    """Uniform-angle boundary rule: nodes, outward unit normals, arc weights, curvature."""

    thetas: np.ndarray
    points: np.ndarray  # (n, 2)
    normals: np.ndarray  # (n, 2), unit outward
    weights: np.ndarray  # (n,), arc length measure
    curvatures: np.ndarray  # (n,), signed, +1 on the unit circle


def _check_n_nodes(domain: StarDomain, n_nodes: int, field_modes: int = 0) -> None:
    need = 4 * (domain.max_mode + field_modes + 1)
    if n_nodes < need:
        raise DomainValidationError(
            f"n_nodes={n_nodes} too small for mode content; need at least {need}"
        )


def boundary_geometry(domain: StarDomain, n_nodes: int) -> BoundaryQuadrature:
    """Boundary quadrature on a uniform angular grid.

    Trapezoidal weights on the parameter circle are spectrally accurate here since
    every integrand built from the radius series is 2 pi periodic and smooth.
    """
    _check_n_nodes(domain, n_nodes)
    th = np.linspace(0.0, 2.0 * np.pi, n_nodes, endpoint=False)
    r, r1, r2 = domain.rho_derivatives(th)
    ct, st = np.cos(th), np.sin(th)
    jac = np.sqrt(r * r + r1 * r1)
    pts = np.stack([domain.center[0] + r * ct, domain.center[1] + r * st], axis=1)
    normals = np.stack([(r1 * st + r * ct) / jac, (-r1 * ct + r * st) / jac], axis=1)
    weights = jac * (2.0 * np.pi / n_nodes)
    curv = (r * r + 2.0 * r1 * r1 - r * r2) / jac**3
    return BoundaryQuadrature(th, pts, normals, weights, curv)


def area(domain: StarDomain) -> float:
    """Enclosed area, exact from the radius coefficients."""
    s = domain.a0**2 + 0.5 * (
        sum(a * a for a in domain.cos_coeffs) + sum(b * b for b in domain.sin_coeffs)
    )
    return np.pi * s


def rescale_to_area(domain: StarDomain, target_area: float) -> StarDomain:
    """Scale the radius series about the center so the area equals target_area."""
    if not (target_area > 0.0):
        raise DomainValidationError(f"target area must be positive, got {target_area}")
    s = np.sqrt(target_area / area(domain))
    return StarDomain(
        a0=s * domain.a0,
        cos_coeffs=tuple(s * a for a in domain.cos_coeffs),
        sin_coeffs=tuple(s * b for b in domain.sin_coeffs),
        center=domain.center,
    )


def center_boundary_centroid(domain: StarDomain, n_nodes: int = 1024) -> StarDomain:
    """Translate the domain so the arc-length centroid of its boundary sits at the origin.

    The translation subtracts the quadrature centroid exactly, so one application
    suffices at the resolution used.
    """
    bq = boundary_geometry(domain, n_nodes)
    length = bq.weights.sum()
    centroid = bq.weights @ bq.points / length
    return StarDomain(
        a0=domain.a0,
        cos_coeffs=domain.cos_coeffs,
        sin_coeffs=domain.sin_coeffs,
        center=(domain.center[0] - centroid[0], domain.center[1] - centroid[1]),
    )


def interior_quadrature(
    domain: StarDomain, n_r: int, n_theta: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tensor rule for area integrals: Gauss-Legendre radially, uniform in angle.

    Parameters
    ----------
    n_r : int
        Radial Gauss-Legendre points per ray, at least 8.
    n_theta : int
        Number of rays; must resolve the radius series (>= 4 per mode).

    Returns
    -------
    (points, weights)
        points is (n_r * n_theta, 2), weights sum to the domain area.
    """
    if n_r < 8:
        raise DomainValidationError(f"n_r must be at least 8, got {n_r}")
    _check_n_nodes(domain, n_theta)
    x, w = np.polynomial.legendre.leggauss(n_r)
    x = 0.5 * (x + 1.0)  # map to (0, 1); nodes stay strictly interior
    w = 0.5 * w
    th = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    r_b = domain.rho(th)
    ct, st = np.cos(th), np.sin(th)
    # scaled radius x in (0,1): point = center + rho(theta) x e(theta),
    # weight = w x rho^2 dtheta from the area Jacobian r dr dtheta
    R = r_b[None, :] * x[:, None]
    px = domain.center[0] + R * ct[None, :]
    py = domain.center[1] + R * st[None, :]
    wts = (w * x)[:, None] * (r_b**2)[None, :] * (2.0 * np.pi / n_theta)
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    return pts, wts.ravel()
