"""Star-shaped planar domains given by trigonometric radius series.

A domain is rho(theta) = a0 + sum_k (a_k cos k theta + b_k sin k theta) around a
center point.  All boundary quantities (tangent, outward normal, curvature, arc
length weights) follow from rho and its first two derivatives, so quadrature
rules on the boundary and in the interior are spectrally accurate for smooth
radius series on uniform angular grids.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if not np.all(np.isfinite(self.center)):
            raise DomainValidationError(f"center must be finite, got {self.center}")
        if not np.all(np.isfinite((self.a0, *self.cos_coeffs, *self.sin_coeffs))):
            raise DomainValidationError("radius a0 and coefficients must be finite")
        with np.errstate(invalid="ignore"):  # coefficients near overflow: nan samples, rejected
            r = self.samples(_POSITIVITY_GRID)
        if not np.all(r > 0.0):
            raise DomainValidationError(
                f"radius series is not positive (min {r.min():.3e}); domain is invalid"
            )

    @property
    def max_mode(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def samples(self, n: int, derivatives: bool = False):
        """rho at theta_j = 2 pi j / n, or (rho, rho', rho'') when derivatives is set."""
        return grid_series(self.a0, self.cos_coeffs, self.sin_coeffs, n, derivatives)


def grid_series(const, cos_coeffs, sin_coeffs, n: int, derivatives: bool = False):
    """const + sum_k (cos_coeffs[k-1] cos k theta + sin_coeffs[k-1] sin k theta) at theta_j = 2 pi j / n.

    Returns the n samples, or (value, first, second theta-derivative) when
    derivatives is set.  The series is Re sum_k c_k e^(ik theta) with
    c_k = a_k - i b_k, and its d-th derivative has the spectrum (ik)^d c_k.  On the
    grid mode k equals mode k mod n, so the modes are folded modulo n; the
    Hermitian part of the folded spectrum has the same real samples, which one
    batched inverse real FFT returns.  Its factor 1/2 is applied to the samples:
    halving is exact for normal floats either way, but a halved subnormal
    coefficient rounds to zero and drops its mode.
    """
    k = np.concatenate([np.arange(1, len(cos_coeffs) + 1), np.arange(1, len(sin_coeffs) + 1)])
    c = np.concatenate([np.asarray(cos_coeffs, dtype=complex),
                        -1j * np.asarray(sin_coeffs, dtype=float)])
    spectra = np.stack([c, 1j * k * c, -(k * k) * c]) if derivatives else c[None, :]
    folded = np.zeros((len(spectra), n), dtype=complex)
    np.add.at(folded, (slice(None), k % n), spectra)
    folded[0, 0] += const
    # modes 0..n//2 and their mirrors -m mod n = 0, n-1, ..., n - n//2
    mirror = np.concatenate([folded[:, :1], folded[:, : n - n // 2 - 1 : -1]], axis=1)
    f = 0.5 * np.fft.irfft(folded[:, : n // 2 + 1] + mirror.conj(), n, norm="forward")
    return (f[0], f[1], f[2]) if derivatives else f[0]


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

    points: np.ndarray  # (n, 2)
    normals: np.ndarray  # (n, 2), unit outward
    weights: np.ndarray  # (n,), arc length measure
    curvatures: np.ndarray  # (n,), signed, +1 on the unit circle


def min_nodes(domain: StarDomain, field_modes: int = 0) -> int:
    """Fewest nodes a boundary rule may have for the domain's modes plus field_modes more."""
    return 4 * (domain.max_mode + field_modes + 1)


def _check_n_nodes(domain: StarDomain, n_nodes: int, field_modes: int = 0) -> None:
    need = min_nodes(domain, field_modes)
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
    r, r1, r2 = domain.samples(n_nodes, derivatives=True)
    ct, st = np.cos(th), np.sin(th)
    jac = np.sqrt(r * r + r1 * r1)
    pts = np.stack([domain.center[0] + r * ct, domain.center[1] + r * st], axis=1)
    normals = np.stack([(r1 * st + r * ct) / jac, (-r1 * ct + r * st) / jac], axis=1)
    weights = jac * (2.0 * np.pi / n_nodes)
    curv = (r * r + 2.0 * r1 * r1 - r * r2) / jac**3
    return BoundaryQuadrature(pts, normals, weights, curv)


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
    r_b = domain.samples(n_theta)
    ct, st = np.cos(th), np.sin(th)
    # scaled radius x in (0,1): point = center + rho(theta) x e(theta),
    # weight = w x rho^2 dtheta from the area Jacobian r dr dtheta
    R = r_b[None, :] * x[:, None]
    px = domain.center[0] + R * ct[None, :]
    py = domain.center[1] + R * st[None, :]
    wts = (w * x)[:, None] * (r_b**2)[None, :] * (2.0 * np.pi / n_theta)
    pts = np.stack([px.ravel(), py.ravel()], axis=1)
    return pts, wts.ravel()
