"""Modified Bessel functions and their ultraspherical normalization.

The radial factor of a separated solution of (Delta^2 - tau Delta) u = 0 on a ball
in R^N involves i_l(z) = z^(1-N/2) I_(N/2-1+l)(z) = c_0 z^l S_nu(z^2/4), with
nu = N/2 - 1 + l, c_0 = 2^(-nu) / Gamma(nu + 1) and the entire function

    S_nu(q) = sum_m q^m / (m! (nu + 1)_m),    S_nu' = S_(nu+1) / (nu + 1).

One vectorised loop sums the tail T_nu = S_nu - 1 from m = 1, so small arguments
lose nothing to cancellation; every derivative follows from the identity above.
A run of integer orders needs the series at its top two orders only; a three-term
recurrence of positive terms gives the rest.
Callers that form ratios (the ball eigenvalue formula) cancel c_0 z^l and never
meet its underflow.  The supported argument range is 0 < z <= 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError, NumericalError

# series truncation: relative term size cutoff and iteration cap
_TERM_CUTOFF = 1e-17
_MAX_TERMS = 200
_Z_MAX = 100.0
_TAU_MAX = _Z_MAX**2  # keeps sqrt(tau) r inside the series range on the unit ball


@dataclass(frozen=True)
class BesselEval:
    """Value and first three derivatives of i_l at a point, all with respect to z."""

    value: float
    d1: float
    d2: float
    d3: float


def _check_tau(tau: float) -> None:
    if not (tau > 0.0):
        raise DomainValidationError(f"tau must be positive, got {tau}")
    if tau > _TAU_MAX:
        raise DomainValidationError(f"tau={tau} outside supported range (0, {_TAU_MAX}]")


def series_tail(nu, q) -> np.ndarray:
    """T_nu(q) = S_nu(q) - 1, elementwise over broadcast arrays nu > -1 and q >= 0.

    Every term is positive, so each element stops contributing once its term falls
    below 1e-17 of its partial sum.  Raises DomainValidationError for q beyond
    z = 2 sqrt(q) = 100.
    """
    nu, q = np.asarray(nu, dtype=float), np.asarray(q, dtype=float)
    q_max = float(q.max(initial=0.0))
    if q_max > _Z_MAX**2 / 4.0:
        raise DomainValidationError(
            f"argument z={2.0 * math.sqrt(q_max)} outside supported range (0, {_Z_MAX}]"
        )
    a = nu + 1.0  # unbroadcast, so each term's divisor costs only nu's own shape
    t = q / a
    total = t.copy()
    for m in range(1, _MAX_TERMS):
        t = t * q / ((m + 1.0) * (a + m))
        total += t
        if (t <= _TERM_CUTOFF * total).all():
            return total
    raise NumericalError(f"Bessel series did not converge for max argument q={q_max}")


def integer_order_tails(top: int, q) -> np.ndarray:
    """T_nu(q) for nu = 0..top (top >= 1), stacked along a new leading axis.

    Sums the series at the two highest orders only and fills in the rest downwards
    with T_(nu-1) = T_nu + q (1 + T_(nu+1)) / (nu (nu + 1)), which is
    I_(nu-1) - I_(nu+1) = (2 nu / z) I_nu in the S_nu normalization.  Every term
    is positive, so nothing cancels.
    """
    q = np.asarray(q, dtype=float)
    T = np.empty((top + 1,) + q.shape)
    T[top - 1 :] = series_tail(np.array([top - 1.0, top]).reshape((2,) + (1,) * q.ndim), q)
    for nu in range(top - 1, 0, -1):
        T[nu - 1] = T[nu] + q * (1.0 + T[nu + 1]) / (nu * (nu + 1.0))
    return T


def series_derivatives(nu, q, n: int) -> list[np.ndarray]:
    """[T_nu(q), S_nu'(q), ..., S_nu^(n)(q)], from S_nu^(j) = S_(nu+j) / ((nu+1)...(nu+j)).

    nu and q broadcast against each other.
    """
    nu, q = np.asarray(nu, dtype=float), np.asarray(q, dtype=float)
    nu_j = nu + np.arange(n + 1).reshape((-1,) + (1,) * max(nu.ndim, q.ndim))
    T = series_tail(nu_j, q)
    return [T[0], *((1.0 + T[1:]) / np.cumprod(nu_j[1:], axis=0))]


def leading_term(nu: float, l: float, z):
    """c_0 z^l with c_0 = 2^(-nu) / Gamma(nu + 1), formed in logarithms (z > 0, any shape)."""
    return np.exp(l * np.log(z) - nu * math.log(2.0) - math.lgamma(nu + 1.0))


def scaled_derivatives(l: int, nu: float, q, tail: bool = False) -> list[np.ndarray]:
    """z^n i^(n)(z) / (c_0 z^l) for n = 0..3 at z = 2 sqrt(q), each a sum of positive terms.

    With D = z d/dz acting on z^l F(q) as l + 2 q d/dq, the falling factorials of D
    give the four combinations below.  tail=True drops the leading monomial, i.e.
    differentiates i_l - c_0 z^l instead of i_l.
    """
    T, S1, S2, S3 = series_derivatives(nu, q, 3)
    q = np.asarray(q, dtype=float)
    S = T if tail else 1.0 + T
    q1, q2, q3 = q * S1, q * q * S2, q**3 * S3  # q^j S^(j)
    return [
        S,
        l * S + 2.0 * q1,
        l * (l - 1) * S + (4 * l + 2) * q1 + 4.0 * q2,
        l * (l - 1) * (l - 2) * S + 6 * l * l * q1 + 12 * (l + 1) * q2 + 8.0 * q3,
    ]


def _check_z(z: float) -> None:
    if not (z > 0.0):
        raise DomainValidationError(f"argument must be positive, got z={z}")


def _check_ultraspherical_args(l: int, N: int) -> None:
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise DomainValidationError(f"angular order l must be a nonnegative integer, got {l}")
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise DomainValidationError(f"dimension N must be an integer >= 2, got {N}")


def ultraspherical_i(l: int, N: int, z: float) -> BesselEval:
    """Evaluate i_l(z) = z^(1-N/2) I_(N/2-1+l)(z) with three derivatives.

    Parameters
    ----------
    l : int
        Angular order, l >= 0.
    N : int
        Space dimension, N >= 2.
    z : float
        Argument, 0 < z <= 100.

    Returns
    -------
    BesselEval
        value, d1, d2, d3 at z.
    """
    _check_ultraspherical_args(l, N)
    _check_z(z)
    nu = N / 2.0 - 1.0 + l
    V = scaled_derivatives(l, nu, z * z / 4.0)
    return BesselEval(*(float(leading_term(nu, l - n, z) * V[n]) for n in range(4)))


def ultraspherical_i_tail(l: int, N: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series tail i_l(z) - c_0 z^l, vectorized, with two derivatives.

    Dropping the leading term removes the part of i_l that is asymptotically parallel
    to z^l as z -> 0.  Spanned together with the pure power z^l this gives the same
    two-dimensional radial space as {z^l, i_l}, but the pair stays numerically
    independent even for small arguments, where i_l itself is dominated by its
    leading monomial.

    Parameters
    ----------
    l, N : int
        Angular order and dimension.
    z : ndarray
        Positive arguments, any shape, max value <= 100.

    Returns
    -------
    (value, d1, d2) : ndarrays shaped like z.
    """
    _check_ultraspherical_args(l, N)
    z = np.asarray(z, dtype=float)
    if z.size == 0:
        raise DomainValidationError("empty argument array")
    if not np.all(z > 0.0):
        raise DomainValidationError("arguments must be positive")
    nu = N / 2.0 - 1.0 + l
    V = scaled_derivatives(l, nu, z * z / 4.0, tail=True)
    return tuple(leading_term(nu, l - n, z) * V[n] for n in range(3))
