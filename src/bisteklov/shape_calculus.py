"""Shape derivatives of Steklov eigenvalues under normal boundary perturbations.

For a cluster F of eigenvalues (a full near-degenerate group) the elementary
symmetric functions of the cluster are differentiable with respect to the domain
even where individual eigenvalues are not.  Their derivative along a normal
velocity field g is a single weighted boundary integral of eigenfunction trace
data; this module evaluates it, checks it against finite differences of the
assembled pencil on realized perturbed domains, and measures how far a domain is
from criticality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainValidationError
from .geometry import StarDomain, _check_n_nodes, fourier_projection, grid_series
from .steklov_solver import (EigenSolution, assemble, boundary_rule_size,
                             eigenfunction_boundary_data)

_CLUSTER_SPREAD_TOL = 1e-4


@dataclass(frozen=True)
class PerturbationField:
    """Normal velocity g(theta) = const + sum_k (c_k cos k theta + s_k sin k theta) on the boundary."""

    const: float = 0.0
    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    @property
    def max_mode(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    def samples(self, n: int) -> np.ndarray:
        """g at theta_j = 2 pi j / n."""
        return grid_series(self.const, self.cos_coeffs, self.sin_coeffs, n)


def symmetric_function(eigenvalues, F: tuple[int, ...], s: int) -> float:
    """Elementary symmetric function e_s of the eigenvalues selected by 1-based indexes F.

    Evaluated with the stable one-pass recurrence, never by expanding products of
    subsets.
    """
    F = tuple(F)
    if len(set(F)) != len(F) or not F:
        raise DomainValidationError(f"F must be a nonempty set of distinct indexes, got {F}")
    if not (1 <= s <= len(F)):
        raise DomainValidationError(f"s must lie in 1..{len(F)}, got {s}")
    n = len(eigenvalues)
    for j in F:
        if not (1 <= j <= n):
            raise DomainValidationError(f"index {j} outside 1..{n}")
    e = [1.0] + [0.0] * s
    for j in F:
        x = float(eigenvalues[j - 1])
        for i in range(s, 0, -1):
            e[i] += x * e[i - 1]
    return e[s]


def _check_cluster(solution: EigenSolution, F: tuple[int, ...], s: int):
    """Validate 1 <= s <= |F| and that F is a full, well-separated near-degenerate group;
    return F sorted and its mean."""
    F = tuple(sorted(F))
    if not (1 <= s <= len(F)):
        raise DomainValidationError(f"s must lie in 1..{len(F)}, got {s}")
    if list(F) != list(range(F[0], F[-1] + 1)):
        raise DomainValidationError(f"F must be a contiguous index range, got {F}")
    lam = solution.eigenvalues
    if F[0] < 1 or F[-1] > len(lam):
        raise DomainValidationError(f"F={F} lies outside the computed indexes 1..{len(lam)}")
    vals = lam[[j - 1 for j in F]]
    lam_f = float(vals.mean())
    spread = float(vals.max() - vals.min())
    if spread > _CLUSTER_SPREAD_TOL * max(1.0, abs(lam_f)):
        raise DomainValidationError(
            f"eigenvalues of F={F} spread by {spread:.3e}; not a degenerate cluster"
        )
    lo, hi = solution.cluster_of(F[0])
    if (lo, hi) != (F[0], F[-1]):
        raise DomainValidationError(
            f"F={F} does not cover its full degenerate cluster {(lo, hi)}"
        )
    return F, lam_f


def _trace_integrand(solution: EigenSolution, F: tuple[int, ...], s: int = 1):
    """Weights, per-node density (its weighted integral against g gives the derivative) and
    lambda_F of the full cluster F, checked with s; None for the trivial cluster."""
    F, lam_f = _check_cluster(solution, F, s)
    tau = solution.boundary.basis.tau
    if abs(lam_f) <= 1e-9 * max(1.0, tau):
        return None
    tr = eigenfunction_boundary_data(solution, F)
    v, dvdn, g, h = tr.values, tr.normal_derivatives, tr.gradients, tr.hessians
    grad2 = np.einsum("mnc,mnc->mn", g, g)
    hess2 = h[:, :, 0] ** 2 + 2.0 * h[:, :, 1] ** 2 + h[:, :, 2] ** 2
    per_mode = lam_f * (tr.quad.curvatures[None, :] * v**2 + 2.0 * v * dvdn)
    per_mode = per_mode - tau * grad2 - hess2
    return tr.quad.weights, per_mode.sum(axis=0), lam_f


def hadamard_derivative(
    solution: EigenSolution, F: tuple[int, ...], s: int, field: PerturbationField
) -> float:
    """Derivative of e_s over the eigenvalue cluster F along the normal field g.

    Parameters
    ----------
    solution : EigenSolution
        The solved problem; its domain, basis and tau are those of
        `solution.boundary`.
    F : tuple of int
        1-based eigenvalue indexes forming a complete near-degenerate cluster
        (relative spread below 1e-4).
    s : int
        Order of the elementary symmetric function, 1 <= s <= |F|.
    field : PerturbationField
        Normal velocity g on the boundary.

    Notes
    -----
    With boundary-orthonormal eigenfunctions v_m of the cluster and lambda_F the
    cluster mean, the derivative equals

        - lambda_F^(s-1) C(|F|-1, s-1) *
          boundary integral of [ sum_m ( lambda_F (K v_m^2 + 2 v_m dv_m/dnu)
                                          - tau |grad v_m|^2 - |D^2 v_m|^2 ) ] g.

    The trivial cluster F = {1} (lambda = 0, constant eigenfunction) has an
    identically vanishing density and returns exactly 0.  The integral runs on the
    solution's assembly rule; a field whose modes that rule cannot resolve together
    with the domain's is rejected.
    """
    n_nodes = solution.boundary.quad.weights.size
    _check_n_nodes(solution.boundary.domain, n_nodes, field.max_mode)
    trace = _trace_integrand(solution, F, s)
    if trace is None:
        return 0.0
    weights, density, lam_f = trace
    integral = float(np.dot(weights, density * field.samples(n_nodes)))
    return -(lam_f ** (s - 1)) * math.comb(len(F) - 1, s - 1) * integral


def criticality_residual(solution: EigenSolution, F: tuple[int, ...]) -> tuple[float, float]:
    """How far the cluster F is from shape criticality under volume-preserving fields.

    The derivative vanishes for every volume-preserving field exactly when the
    trace density is constant along the boundary.  Returns (c_best, residual):
    the arc-length mean of the density and the normalized RMS deviation from it,
    residual = ||density - c_best||_rms / (|c_best| + 1), on the solution's
    assembly rule.
    """
    trace = _trace_integrand(solution, F)
    if trace is None:
        return 0.0, 0.0
    weights, density, _ = trace
    L = float(weights.sum())
    c_best = float(np.dot(weights, density) / L)
    dev = density - c_best
    residual = math.sqrt(float(np.dot(weights, dev * dev)) / L) / (abs(c_best) + 1.0)
    return c_best, residual


def realize_perturbation(domain: StarDomain, field: PerturbationField, t: float) -> StarDomain:
    """Domain whose boundary is displaced by t g(theta) along the outward normal.

    A radial change delta rho moves the boundary normally by delta rho times
    rho / sqrt(rho^2 + rho'^2), so the radius update is

        rho_t(theta) = rho(theta) + t g(theta) sqrt(rho^2 + rho'^2) / rho,

    re-expanded in a trigonometric series by FFT with small coefficients trimmed.
    """
    n = 256
    need = 8 * (domain.max_mode + field.max_mode + 4)
    while n < need:
        n *= 2
    r, r1, _ = domain.samples(n, derivatives=True)
    g = field.samples(n)
    new_r = r + t * g * np.sqrt(r * r + r1 * r1) / r
    if not np.all(new_r > 0.0):
        raise DomainValidationError(f"perturbation with t={t} destroys star-shapedness")
    return fourier_projection(new_r, center=domain.center)


@dataclass(frozen=True)
class FDResult:
    steps: tuple[float, ...]
    estimates: tuple[float, ...]
    extrapolated: float


def fd_derivative(
    solution: EigenSolution,
    F: tuple[int, ...],
    s: int,
    field: PerturbationField,
    steps: tuple[float, ...] = (1e-3, 5e-4),
) -> FDResult:
    """Central finite differences of the discrete e_s over the cluster F along the field.

    The symmetric functions of a cluster depend analytically on the assembled pencil
    even where its eigenvalues cross (Lancaster 1964; Kato 1966), so the difference
    is taken of the pencil, not of re-solved eigenvalues.  With the base solution's
    b-orthonormal coefficients x_i, its eigenvalues lambda_i and w_i = e_(s-1) of the
    other members of F, the estimate at step t is

        sum_i w_i x_i^T (dA - lambda_i dB) x_i / (2 t),

    where dA and dB are the stiffness and mass of the domain realized at +t minus
    those at -t, both assembled on one rule: the base solution's, larger where
    either domain's modes need it (boundary_rule_size).  No perturbed domain is
    solved.  F must be a full cluster, as for hadamard_derivative.  Steps must be
    finite, positive and distinct.  The two smallest steps are Richardson-combined
    into the extrapolated estimate.  The domain, basis and tau are the solution's.
    """
    steps = tuple(float(t) for t in steps)
    if not steps or not all(math.isfinite(t) and t > 0.0 for t in steps):
        raise DomainValidationError(f"steps must be positive and finite, got {steps}")
    if len(set(steps)) != len(steps):
        raise DomainValidationError(f"steps must be distinct, got {steps}")
    steps = tuple(sorted(steps, reverse=True))
    F, _ = _check_cluster(solution, F, s)
    lam = solution.eigenvalues
    lam_of_f = lam[[j - 1 for j in F]]
    X = solution.coefficients[:, [j - 1 for j in F]]
    w = np.array([1.0 if s == 1 else symmetric_function(lam, tuple(k for k in F if k != j), s - 1)
                  for j in F])
    ev = solution.boundary
    domain, basis, n_boundary = ev.domain, ev.basis, ev.quad.weights.size

    estimates = []
    for t in steps:
        plus, minus = (realize_perturbation(domain, field, sign * t) for sign in (+1.0, -1.0))
        n = max(n_boundary, boundary_rule_size(plus, basis), boundary_rule_size(minus, basis))
        fp, fm = (assemble(dom, basis.tau, basis, n_boundary=n) for dom in (plus, minus))
        dA = fp.stiffness - fm.stiffness
        dB = fp.boundary_mass - fm.boundary_mass
        dlam = np.einsum("bi,bi->i", X, dA @ X) - lam_of_f * np.einsum("bi,bi->i", X, dB @ X)
        estimates.append(float(np.dot(w, dlam)) / (2.0 * t))

    if len(steps) >= 2:
        t1, t2 = steps[-2], steps[-1]
        d1, d2 = estimates[-2], estimates[-1]
        extrapolated = (t1 * t1 * d2 - t2 * t2 * d1) / (t1 * t1 - t2 * t2)
    else:
        extrapolated = estimates[-1]
    return FDResult(steps=steps, estimates=tuple(estimates), extrapolated=extrapolated)
