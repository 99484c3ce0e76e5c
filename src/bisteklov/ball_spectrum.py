"""Closed-form Steklov spectrum of the biharmonic operator on the unit ball.

Separation of variables with a spherical harmonic of degree l reduces
Delta^2 u = tau Delta u on the unit ball of R^N, with the natural free-edge
boundary conditions, to a two-dimensional radial space spanned by r^l and
i_l(sqrt(tau) r).  Eliminating the two coefficients between the boundary
conditions gives each eigenvalue as a ratio of Bessel expressions; this module
evaluates that ratio, enumerates the spectrum in sorted order, and provides an
independent Rayleigh-quotient route for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainValidationError, NumericalError
from .special_functions import _check_tau, leading_term, scaled_derivatives, series_derivatives


def multiplicity_of_order(l: int, N: int) -> int:
    """Dimension of the space of spherical harmonics of degree l on the unit sphere in R^N."""
    if l < 0 or N < 2:
        raise DomainValidationError(f"need l >= 0 and N >= 2, got l={l}, N={N}")
    if l == 0:
        return 1
    if l == 1:
        return N
    return math.comb(N + l - 1, l) - math.comb(N + l - 3, l - 2)


def eigenvalue_of_order(l, N: int, tau: float):
    """Steklov eigenvalue attached to spherical harmonics of degree l on the unit ball.

    Parameters
    ----------
    l : int or ndarray of int
        Angular order(s).  l = 0 gives the trivial eigenvalue 0, l = 1 gives tau.
    N : int
        Space dimension, N >= 2.
    tau : float
        Tension parameter, 0 < tau <= 1e4.

    Returns
    -------
    float or ndarray
        The eigenvalue lambda_(l), shaped like l.

    Notes
    -----
    For l >= 1 the radial profile is R(r) = A r^l + B i_l(sqrt(tau) r).  The
    free-edge condition R''(1) = 0 fixes B/A, and the remaining natural boundary
    condition then yields

        lambda = l * num / den,
        den = (1-l) l i + tau i'',
        num = 3(l-1) l (l+N-2) i
              - (l-1) s (N - 1 + 2Nl + 2l(l-2) + tau) i'
              + tau ((l-1)(l+2N-3) + tau) i''
              + (l-1) tau s i''',

    with s = sqrt(tau) and all Bessel factors evaluated at s.  Written in
    S_nu(q) = i_l(z) / (c_0 z^l) at q = tau / 4, the terms in S itself cancel
    exactly in both, and after division by c_0 s^l q

        den = (4l + 2) S' + 4 q S'',
        num = c1 S' + c2 q S'' + 8 (l-1) q^2 S''',
        c1 = 2 (l-1) ((3l+2)(l-1) + N (2l+1)) + 2 tau (l+2),
        c2 = 4 ((l-1)(l+2N-3) + tau) + 12 (l-1)(l+1):

    sums of positive terms, which neither cancel nor underflow at large l or
    small tau.
    """
    _check_tau(tau)
    l = np.asarray(l)
    if np.any(l < 0):
        raise DomainValidationError(f"angular order must be nonnegative, got {l}")
    q = tau / 4.0
    _, S1, S2, S3 = series_derivatives(N / 2.0 - 1.0 + l, q, 3)
    c1 = 2.0 * (l - 1) * ((3 * l + 2) * (l - 1) + N * (2 * l + 1)) + 2.0 * tau * (l + 2)
    c2 = 4.0 * ((l - 1) * (l + 2 * N - 3) + tau) + 12.0 * (l - 1) * (l + 1)
    num = c1 * S1 + c2 * q * S2 + 8.0 * (l - 1) * q * q * S3
    den = (4 * l + 2) * S1 + 4.0 * q * S2
    lam = np.where(l == 0, 0.0, l * num / den)
    return float(lam) if lam.ndim == 0 else lam


@dataclass(frozen=True)
class BallMode:
    """Radial profile R(r) = coeff_power * r^l + coeff_bessel * i_l(sqrt(tau) r) of a ball eigenfunction."""

    l: int
    N: int
    tau: float
    eigenvalue: float
    coeff_power: float
    coeff_bessel: float
    multiplicity: int

    def evaluate(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Profile and its first two radial derivatives at the given radii (ndarray, r > 0).

        With beta = coeff_bessel c_0 s^l the profile is r^l (coeff_power + beta S(q)),
        q = tau r^2 / 4, differentiated through S' = S_(nu+1) / (nu + 1).
        """
        r = np.asarray(r, dtype=float)
        l, tau = self.l, self.tau
        beta, T, S1, S2 = 0.0, 0.0, 0.0, 0.0
        if self.coeff_bessel != 0.0:
            nu = self.N / 2.0 - 1.0 + l
            beta = self.coeff_bessel * float(leading_term(nu, l, math.sqrt(tau)))
            T, S1, S2 = series_derivatives(nu, tau * r * r / 4.0, 2)
        F = self.coeff_power + beta * (1.0 + T)
        R = F * r**l
        R1 = (l * F * r ** (l - 1) if l >= 1 else 0.0) + beta * tau / 2.0 * r ** (l + 1) * S1
        R2 = (
            (l * (l - 1) * F * r ** (l - 2) if l >= 2 else 0.0)
            + beta * tau * (2 * l + 1) / 2.0 * r**l * S1
            + beta * tau * tau / 4.0 * r ** (l + 2) * S2
        )
        return R, R1, R2


def radial_profile(l: int, N: int, tau: float) -> BallMode:
    """Radial eigenprofile of order l, normalized so the r^l coefficient equals 1.

    For l in {0, 1} the pure power alone satisfies both boundary conditions and the
    Bessel coefficient vanishes.
    """
    _check_tau(tau)
    if l < 0:
        raise DomainValidationError(f"angular order must be nonnegative, got {l}")
    lam = eigenvalue_of_order(l, N, tau)
    if l <= 1:
        b = 0.0
    else:
        # R''(1) = 0 with A = 1: l(l-1) + B tau i_l''(s) = 0, and tau i_l''(s) = c_0 s^l V_2
        nu = N / 2.0 - 1.0 + l
        lead = float(leading_term(nu, l, math.sqrt(tau)))
        if lead == 0.0:
            raise NumericalError(f"Bessel coefficient of order l={l} underflows at tau={tau}")
        b = l * (1.0 - l) / (lead * float(scaled_derivatives(l, nu, tau / 4.0)[2]))
    return BallMode(l, N, tau, lam, 1.0, b, multiplicity_of_order(l, N))


@dataclass(frozen=True)
class SpectrumEntry:
    eigenvalue: float
    angular_order: int
    index_range: tuple[int, int]  # 1-based, inclusive


@dataclass(frozen=True)
class SortedSpectrum:
    """Ball spectrum listed in ascending order with angular orders and index ranges."""

    N: int
    tau: float
    j_max: int
    entries: tuple[SpectrumEntry, ...]

    def eigenvalue(self, j: int) -> float:
        """The j-th smallest eigenvalue (1-based, multiplicities counted)."""
        if j < 1 or j > self.j_max:
            raise DomainValidationError(f"index {j} outside 1..{self.j_max}")
        for e in self.entries:
            if e.index_range[0] <= j <= e.index_range[1]:
                return e.eigenvalue
        raise NumericalError(f"index {j} not covered; spectrum enumeration bug")

    def flatten(self) -> list[tuple[int, float, int]]:
        """Rows (index, eigenvalue, angular_order) for indexes 1..j_max."""
        out = []
        for e in self.entries:
            for j in range(e.index_range[0], min(e.index_range[1], self.j_max) + 1):
                out.append((j, e.eigenvalue, e.angular_order))
        return out


def sorted_spectrum(N: int, tau: float, j_max: int) -> SortedSpectrum:
    """Enumerate the first j_max ball eigenvalues in ascending order.

    lambda_(1) = tau lies below lambda_(2), and lambda_(l) increases in l for
    l >= 2, so the orders up to the first l >= 2 whose multiplicities bring the
    count to j_max hold the j_max smallest eigenvalues.  They are evaluated in one
    call and sorted.
    """
    _check_tau(tau)
    if j_max < 1:
        raise DomainValidationError(f"j_max must be >= 1, got {j_max}")
    mults: list[int] = []
    while len(mults) < 3 or sum(mults) < j_max:
        mults.append(multiplicity_of_order(len(mults), N))
    lams = eigenvalue_of_order(np.arange(len(mults)), N, tau).tolist()
    entries = []
    start = 1
    for lam, order, mult in sorted(zip(lams, range(len(mults)), mults)):
        if start > j_max:
            break
        entries.append(SpectrumEntry(lam, order, (start, start + mult - 1)))
        start += mult
    return SortedSpectrum(N, tau, j_max, tuple(entries))


RadialCallable = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]


def rayleigh_quotient(
    radial: RadialCallable,
    l: int,
    N: int,
    tau: float,
    n_start: int = 32,
    n_max: int = 1024,
    rtol: float = 1e-8,
) -> float:
    """Rayleigh quotient of u = f(r) Y_l(theta) on the unit ball, reduced to a radial integral.

    Parameters
    ----------
    radial : callable
        Maps an ndarray of radii in (0, 1) to the triple (f, f', f'').  Must be smooth
        with f(1) != 0, and f(r) = O(r) as r -> 0 when l >= 1.
    l, N, tau :
        Angular order, dimension, tension.

    Returns
    -------
    float
        ( integral of |D^2 u|^2 + tau |grad u|^2 ) / ( boundary integral of u^2 ),
        with Y_l normalized in L^2 of the unit sphere.

    Notes
    -----
    With alpha = l(l+N-2) the Hessian density reduces to the manifestly nonnegative
    form

        f''^2 + 2 alpha ((f' - f/r)/r)^2 + (N-1) (f'/r - beta f/r^2)^2 + c (f/r^2)^2,

    beta = alpha/(N-1), c = (N-2) alpha (alpha-(N-1))/(N-1), and the gradient density
    to f'^2 + alpha (f/r)^2; both are integrated against r^(N-1) dr on (0, 1).
    Gauss-Legendre nodes are doubled from n_start until two successive values agree
    to rtol relative.
    """
    _check_tau(tau)
    if l < 0 or N < 2:
        raise DomainValidationError(f"need l >= 0 and N >= 2, got l={l}, N={N}")
    alpha = float(l * (l + N - 2))
    beta = alpha / (N - 1.0)
    c_extra = (N - 2.0) * alpha * (alpha - (N - 1.0)) / (N - 1.0)

    f1 = radial(np.array([1.0]))[0][0]
    if not (abs(f1) > 1e-14):
        raise DomainValidationError("radial profile vanishes at r = 1; quotient undefined")

    def quad(n: int) -> float:
        x, w = np.polynomial.legendre.leggauss(n)
        r = 0.5 * (x + 1.0)
        w = 0.5 * w
        f, fp, fpp = radial(r)
        hess = (
            fpp**2
            + 2.0 * alpha * ((fp - f / r) / r) ** 2
            + (N - 1.0) * (fp / r - beta * f / r**2) ** 2
            + c_extra * (f / r**2) ** 2
        )
        grad = fp**2 + alpha * (f / r) ** 2
        return float(np.sum(w * (hess + tau * grad) * r ** (N - 1))) / f1**2

    prev = quad(n_start)
    n = 2 * n_start
    while n <= n_max:
        cur = quad(n)
        if abs(cur - prev) <= rtol * abs(cur):
            return cur
        prev = cur
        n *= 2
    raise NumericalError(f"radial quadrature did not converge to rtol={rtol} by n={n_max}")


@dataclass(frozen=True)
class MonotonicityReport:
    values: tuple[float, ...]  # lambda_(1) .. lambda_(l_max)
    passed: bool


def verify_order_monotonicity(N: int, tau: float, l_max: int) -> MonotonicityReport:
    """Check lambda_(1) < lambda_(2) and strict increase of lambda_(l) for 2 <= l <= l_max."""
    if l_max < 2:
        raise DomainValidationError(f"l_max must be >= 2, got {l_max}")
    vals = tuple(eigenvalue_of_order(np.arange(1, l_max + 1), N, tau).tolist())
    ok = vals[0] < vals[1] and all(vals[i] < vals[i + 1] for i in range(1, len(vals) - 1))
    return MonotonicityReport(vals, ok)
