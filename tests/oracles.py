"""Independent brute-force references used by several test modules.

Everything here deliberately avoids the reduced formulas under test: energies are
expanded in full Cartesian second derivatives and integrated over the interior on a
two-dimensional polar grid, so agreement with the package's radial and boundary
reductions is meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from bisteklov.geometry import interior_quadrature
from bisteklov.steklov_solver import _eval_all


def interior_stiffness(domain, basis, n_r: int = 32, n_theta: int = 256) -> np.ndarray:
    """Energy matrix by interior quadrature of D^2 u : D^2 v + tau grad u . grad v.

    The volume form the solver's boundary (Green's identity) stiffness must equal.
    """
    pts, wts = interior_quadrature(domain, n_r, n_theta)
    _, grad, hess = _eval_all(basis, pts, domain.center)
    # |D^2 u : D^2 v| in channels (xx, xy, yy): the mixed channel counts twice
    ch_w = np.array([1.0, 2.0, 1.0])
    A = np.einsum("ipc,p,c,jpc->ij", hess, wts, ch_w, hess, optimize=True)
    A += basis.tau * np.einsum("ipc,p,jpc->ij", grad, wts, grad, optimize=True)
    return 0.5 * (A + A.T)


def cartesian_energy_2d(f, fp, fpp, k: int, tau: float, n_r: int = 200, n_t: int = 512):
    """Domain integral of |D^2 u|^2 + tau |grad u|^2 for u = f(r) cos(k theta) on the unit disk.

    f, fp, fpp are callables of an ndarray of radii.  Second derivatives are formed
    through the full polar-to-Cartesian chain rule, never through a radial identity.
    """
    gx, gw = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * (gx + 1.0)
    wr = 0.5 * gw
    th = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
    wt = 2.0 * np.pi / n_t
    R = r[:, None]
    T = th[None, :]
    c, s = np.cos(T), np.sin(T)
    ck, sk = np.cos(k * T), np.sin(k * T)

    F = f(r)[:, None]
    Fp = fp(r)[:, None]
    Fpp = fpp(r)[:, None]

    u_r = Fp * ck
    u_t = -k * F * sk
    u_rr = Fpp * ck
    u_rt = -k * Fp * sk
    u_tt = -k * k * F * ck

    u_x = u_r * c - u_t * s / R
    u_y = u_r * s + u_t * c / R
    u_xx = u_rr * c**2 - 2 * u_rt * c * s / R + u_tt * s**2 / R**2 + u_r * s**2 / R + 2 * u_t * c * s / R**2
    u_yy = u_rr * s**2 + 2 * u_rt * c * s / R + u_tt * c**2 / R**2 + u_r * c**2 / R - 2 * u_t * c * s / R**2
    u_xy = (
        u_rr * c * s
        + u_rt * (c**2 - s**2) / R
        - u_tt * c * s / R**2
        - u_r * c * s / R
        - u_t * (c**2 - s**2) / R**2
    )

    dens = u_xx**2 + 2 * u_xy**2 + u_yy**2 + tau * (u_x**2 + u_y**2)
    return float(np.dot((dens * R).sum(axis=1) * wt, wr))


def cartesian_quotient_2d(f, fp, fpp, k: int, tau: float, n_r: int = 200, n_t: int = 512) -> float:
    """Rayleigh quotient of u = f(r) cos(k theta) on the unit disk via the 2-D energy."""
    num = cartesian_energy_2d(f, fp, fpp, k, tau, n_r=n_r, n_t=n_t)
    # boundary integral of u^2: f(1)^2 times the angular moment of cos^2
    ang = 2.0 * np.pi if k == 0 else np.pi
    f1 = float(f(np.array([1.0]))[0])
    return num / (f1 * f1 * ang)
