"""Closed-form Steklov spectrum of the biharmonic operator on the unit ball.

Separation of variables with a spherical harmonic of degree l reduces
Delta^2 u = tau Delta u on the unit ball of R^N, with the natural free-edge
boundary conditions, to a two-dimensional radial space spanned by r^l and
i_l(sqrt(tau) r).  Eliminating the two coefficients between the boundary
conditions gives each eigenvalue as a ratio of Bessel expressions; this module
evaluates that ratio and enumerates the spectrum in sorted order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError
from .special_functions import _check_tau, series_derivatives


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
        Space dimension, 2 <= N <= 2^53.
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
    if not 2 <= N <= 2**53:  # beyond, N is inexact as a float and N (2 l + 1) soon leaves int64
        raise DomainValidationError(f"space dimension N must lie in 2..2^53, got {N}")
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
class SortedSpectrum:
    """The first j_max ball eigenvalues in ascending order, multiplicities counted, with the
    angular order of each; equal eigenvalues are listed by ascending order."""

    eigenvalues: np.ndarray
    angular_orders: np.ndarray

    def eigenvalue(self, j: int) -> float:
        """The j-th smallest eigenvalue (1-based, multiplicities counted)."""
        if not 1 <= j <= len(self.eigenvalues):
            raise DomainValidationError(f"index {j} outside 1..{len(self.eigenvalues)}")
        return float(self.eigenvalues[j - 1])

    def flatten(self) -> list[tuple[int, float, int]]:
        """Rows (index, eigenvalue, angular_order) for indexes 1..j_max."""
        return list(zip(range(1, len(self.eigenvalues) + 1), self.eigenvalues.tolist(),
                        self.angular_orders.tolist()))


def sorted_spectrum(N: int, tau: float, j_max: int) -> SortedSpectrum:
    """Enumerate the first j_max ball eigenvalues in ascending order.

    lambda_(1) = tau lies below lambda_(2), and lambda_(l) increases in l for
    l >= 2, so the orders up to the first l >= 2 whose multiplicities bring the
    count to j_max hold the j_max smallest eigenvalues.  They are evaluated in one
    call, sorted stably and repeated by their multiplicities.
    """
    _check_tau(tau)
    if j_max < 1:
        raise DomainValidationError(f"j_max must be >= 1, got {j_max}")
    mults: list[int] = []  # each capped at j_max, which is all a repeat count needs
    count = 0
    while len(mults) < 3 or count < j_max:
        mults.append(min(multiplicity_of_order(len(mults), N), j_max))
        count += mults[-1]
    lams = eigenvalue_of_order(np.arange(len(mults)), N, tau)
    by_value = np.argsort(lams, kind="stable")
    orders = np.repeat(by_value, np.array(mults)[by_value])[:j_max]
    return SortedSpectrum(lams[orders], orders)
