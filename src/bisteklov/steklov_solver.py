"""Galerkin solver for the biharmonic Steklov problem on star-shaped planar domains.

Trial functions are global smooth fields: harmonic polynomials Re/Im (x + iy)^k
about the domain center, paired with modified Bessel modes of matching angular
order.  Both families solve Delta^2 u = tau Delta u exactly, so all error comes
from truncating the angular order, which converges spectrally for analytic
boundaries.  The discrete problem is the pencil a(u, v) = lambda b(u, v) with

    a(u, v) = integral over the domain of D^2 u : D^2 v + tau grad u . grad v,
    b(u, v) = boundary integral of u v.

Because every trial function solves the interior equation, Green's identity turns
the energy into a boundary integral (a Trefftz form, as in the method of particular
solutions),

    a(u, v) = boundary integral of (D^2 u nu) . grad v + (tau du/dnu - d(Delta u)/dnu) v,

so both forms are assembled from one evaluation of the basis on a boundary rule
sized to the integrands (boundary_rule_size).  That evaluation travels with the
forms and the solution, so the eigenfunction traces behind shape derivatives are
contractions of it, not a second evaluation.
The pencil is solved through a filtered congruence pipeline that tolerates the
strong numerical dependence of such global bases.

Bases of up to _SINGLE_THREAD_BASIS functions (k_max <= 31) run their dense
algebra on one OpenBLAS thread.  At those sizes a second thread buys no wall
time, doubles the CPU of a solve and makes its time depend on a second core
being free.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from ._util import single_blas_thread
from .errors import DomainValidationError, NumericalError
from .geometry import BoundaryQuadrature, StarDomain, boundary_geometry, min_nodes
from .special_functions import _check_tau, integer_order_tails, series_tail

_CLUSTER_RELGAP = 1e-6
# relative level below which an eigenvalue of the scaled Gram matrix is filtered
_GRAM_TOL = 1e-12
# boundary rule sizing: the angles the integrand's spectrum is read on, which also
# cap the rule, and the level relative to the mean a Fourier mode must exceed to count
_RULE_GRID = 2048
_RULE_SPECTRUM_TOL = 1e-14
# largest angular order: its basis of 2 (2 k_max + 1) rows still fits the 2048-node
# ceiling of the rule, which needs at least one node per row
_K_MAX = (_RULE_GRID - 2) // 4
# largest basis whose contraction, solve and traces run on one BLAS thread; at
# 162 functions (k_max 40) two threads start to pay, by about 7% of wall time
# on a 2-CPU Xeon VM
_SINGLE_THREAD_BASIS = 128


def _blas_scope(basis_size: int):
    if basis_size <= _SINGLE_THREAD_BASIS:
        return single_blas_thread()
    return contextlib.nullcontext()


@dataclass(frozen=True)
class TrialBasis:
    """Trial functions phi(rho) h_k(x, y) of angular orders k = 0..k_max about the center.

    Here rho = x^2 + y^2 and h_k = Re (cos) or Im (sin) of (x + iy)^k.  The harmonic
    block (phi = 1) comes first, then the Bessel block with phi = T_k(tau rho / 4):
    i_k(s r) cos/sin(k theta) minus its leading monomial c_0 s^k h_k, s = sqrt(tau),
    divided by c_0 s^k.  With h_k it spans the plain pair {h_k, i_k} but stays
    numerically independent at small tau, and without the factor c_0 s^k its rows
    of high order do not underflow.  Each block holds 2 k_max + 1 rows in the order
    of _block_layout.
    """

    tau: float
    k_max: int

    def __post_init__(self):
        # from k_max 512 the basis outgrows the largest boundary rule (boundary_rule_size)
        if not (1 <= self.k_max <= _K_MAX):
            raise DomainValidationError(f"k_max must lie in 1..{_K_MAX}, got {self.k_max}")
        _check_tau(self.tau)

    @property
    def size(self) -> int:
        return 2 * (2 * self.k_max + 1)

    @property
    def tags(self) -> tuple[tuple[str, int, str], ...]:
        """(family, angular order k, parity) of every row."""
        order, is_sin = _block_layout(self.k_max)
        return tuple((family, int(k), "sin" if s else "cos")
                     for family in ("harmonic", "bessel") for k, s in zip(order, is_sin))


def _block_layout(k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Order (r + 1) // 2 of row r of a block, and whether it is a sine row (r even, r > 0)."""
    r = np.arange(2 * k_max + 1)
    return (r + 1) // 2, (r % 2 == 0) & (r > 0)


def make_trial_basis(k_max: int, tau: float) -> TrialBasis:
    """Standard basis of size 2 (2 k_max + 1): both families, all orders up to k_max in 1..511."""
    return TrialBasis(tau=float(tau), k_max=k_max)


def _eval_all(
    basis: TrialBasis, pts: np.ndarray, center: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and Hessians of every basis function at every point.

    Every row is phi(rho) h_k(x, y) in coordinates about the center (see TrialBasis).
    The harmonic rows are gathered from per-order tables of (x + iy)^k and its
    x-derivatives; the Bessel rows apply the Cartesian product rule to them, with
    grad phi = 2 phi' (x, y) and phi', phi'' taken from T_(k+1) and T_(k+2), so
    every point, the center included, is evaluated alike.

    Returns (val, grad, hess) with shapes (nb, np), (nb, np, 2), (nb, np, 3); the
    Hessian channels are (xx, xy, yy).
    """
    x = pts[:, 0] - center[0]
    y = pts[:, 1] - center[1]
    k_max, tau, n = basis.k_max, basis.tau, len(pts)
    k = np.arange(k_max + 1)[:, None]
    # per order k: w^k and its x-derivatives k w^(k-1), k (k-1) w^(k-2); d/dy = i d/dx
    w = x + 1j * y
    P = np.zeros((3, k_max + 1, n), dtype=complex)
    P[0, 0] = 1.0
    P[0, 1:] = np.cumprod(np.broadcast_to(w, (k_max, n)), axis=0)
    P[1, 1:] = k[1:] * P[0, :-1]
    P[2, 2:] = (k * (k - 1))[2:] * P[0, :-2]
    # phi, 2 phi' and 4 phi'' of the Bessel rows from T_nu(tau rho / 4), nu = 0..k_max + 2
    T = integer_order_tails(k_max + 2, 0.25 * tau * (x * x + y * y))
    phi = T[:-2]
    p1 = (0.5 * tau) / (k + 1) * (1.0 + T[1:-1])
    p2 = (0.25 * tau * tau) / ((k + 1) * (k + 2)) * (1.0 + T[2:])

    # block 0 of each output holds the harmonic rows: Re (cos rows) or Im (sin rows) of
    # P[0], P[1], i P[1], P[2], i P[2] for (value, x, y, xx, xy), where Re/Im of i P
    # are -Im/Re of P, and yy = -xx.  Block 1 holds the Bessel rows, by the product rule.
    order, is_sin = _block_layout(k_max)
    val = np.empty((2, order.size, n))
    grad = np.empty((2, order.size, n, 2))
    hess = np.empty((2, order.size, n, 3))
    re_im = P.view(float).reshape(3, k_max + 1, n, 2)
    part = is_sin.astype(int)
    cos_negated = np.where(is_sin, 1.0, -1.0)[:, None]
    val[0] = re_im[0, order, :, part]
    grad[0, ..., 0] = re_im[1, order, :, part]
    grad[0, ..., 1] = re_im[1, order, :, 1 - part] * cos_negated
    hess[0, ..., 0] = re_im[2, order, :, part]
    hess[0, ..., 1] = re_im[2, order, :, 1 - part] * cos_negated
    np.negative(hess[0, ..., 0], out=hess[0, ..., 2])
    h, (hx, hy), (hxx, hxy, hyy) = val[0], np.moveaxis(grad[0], -1, 0), np.moveaxis(hess[0], -1, 0)
    f0, f1, f2 = phi[order], p1[order], p2[order]
    np.multiply(f0, h, out=val[1])
    np.add(f0 * hx, f1 * x * h, out=grad[1, ..., 0])
    np.add(f0 * hy, f1 * y * h, out=grad[1, ..., 1])
    np.add(f0 * hxx + 2.0 * f1 * x * hx, h * (f1 + f2 * x * x), out=hess[1, ..., 0])
    np.add(f0 * hxy + f1 * (x * hy + y * hx), f2 * x * y * h, out=hess[1, ..., 1])
    np.add(f0 * hyy + 2.0 * f1 * y * hy, h * (f1 + f2 * y * y), out=hess[1, ..., 2])
    return val.reshape(basis.size, n), grad.reshape(basis.size, n, 2), hess.reshape(basis.size, n, 3)


@dataclass(frozen=True)
class BoundaryEvaluation:
    """Every trial function of `basis` on a boundary rule of `domain`: _eval_all's output."""

    domain: StarDomain
    basis: TrialBasis
    quad: BoundaryQuadrature
    values: np.ndarray  # (nb, n_nodes)
    gradients: np.ndarray  # (nb, n_nodes, 2)
    hessians: np.ndarray  # (nb, n_nodes, 3), channels (xx, xy, yy)


def _evaluate(domain: StarDomain, basis: TrialBasis, n_boundary: int) -> BoundaryEvaluation:
    """The basis on the n_boundary-node rule of the domain."""
    bq = boundary_geometry(domain, n_boundary)
    return BoundaryEvaluation(domain, basis, bq, *_eval_all(basis, bq.points, domain.center))


def _combine(ev: BoundaryEvaluation, C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (m, n), gradients (m, n, 2) and Hessians (m, n, 3) of the m coefficient columns C."""
    nb, m = C.shape
    with _blas_scope(nb):
        return tuple((C.T @ a.reshape(nb, -1)).reshape(m, *a.shape[1:])
                     for a in (ev.values, ev.gradients, ev.hessians))


@dataclass(frozen=True)
class AssembledForms:
    """Symmetric stiffness (Hessian-Hessian plus tau gradient-gradient) and boundary mass,
    with the boundary evaluation they were contracted from."""

    stiffness: np.ndarray
    boundary_mass: np.ndarray
    boundary: BoundaryEvaluation


def boundary_rule_size(domain: StarDomain, basis: TrialBasis, field_modes: int = 0) -> int:
    """Nodes of the uniform boundary rule that integrates the Galerkin forms to roundoff.

    The integrands are products of two trial rows' traces times the arc-length
    density, periodic and analytic in theta, so the trapezoid rule converges
    geometrically and the needed size follows from their spectrum.  The steepest
    one is the top-order row squared: h = e^2 sqrt(rho^2 + rho'^2) with the
    envelope e = (rho / rho_max)^k_max S_k_max(tau rho^2 / 4) / S_k_max(tau rho_max^2 / 4),
    sampled on 2048 angles.  With B the last Fourier mode of h above 1e-14 of its
    mean, the rule has 1.25 * 2 (B + 2 k_max + 4 + field_modes) nodes rounded up to
    a multiple of 32; field_modes adds the modes of a field integrated against the
    traces (the Hadamard density times g).  The size is at least 64, basis.size and
    the mode floor 4 (max_mode + field_modes + 1) of boundary_geometry, and at most
    2048, the grid the spectrum is read on: a domain or field whose mode floor
    exceeds 2048 nodes is rejected where the rule is built or used.
    """
    k = basis.k_max
    r, r1, _ = domain.samples(_RULE_GRID, derivatives=True)
    s = 1.0 + series_tail(float(k), 0.25 * basis.tau * r * r)  # increasing in r
    e = (r / r.max()) ** k * (s / s.max())
    spectrum = np.abs(np.fft.rfft(e * e * np.sqrt(r * r + r1 * r1)))
    band = int(np.flatnonzero(spectrum > _RULE_SPECTRUM_TOL * spectrum[0])[-1])
    n = 32 * math.ceil(1.25 * 2 * (band + 2 * k + 4 + field_modes) / 32)
    return max(min(max(n, min_nodes(domain, field_modes)), _RULE_GRID), 64, basis.size)


def assemble(
    domain: StarDomain, tau: float, basis: TrialBasis, *, n_boundary: int | None = None
) -> AssembledForms:
    """Assemble the energy and boundary mass matrices for the given basis.

    The energy is evaluated in its boundary form (see the module docstring), exact
    for this basis since every trial function solves Delta^2 u = tau Delta u, on
    the same boundary rule as the mass; no interior quadrature is needed.  The rule
    has n_boundary nodes, by default boundary_rule_size(domain, basis).  The
    returned forms keep the domain, the basis, the rule and the basis evaluation
    they came from, for the eigenfunction traces of the solution.

    The flux tau du/dnu - d(Delta u)/dnu of a harmonic row h is tau dh/dnu, as
    Delta h = 0.  The Bessel row u = T_k(tau rho / 4) h_k at h_k's position in the
    second block has (u + h_k) c_0 s^k = i_k(s r) cos/sin(k theta), s = sqrt(tau),
    so Delta u = tau (u + h_k) and its flux is -tau dh_k/dnu.
    """
    if abs(tau - basis.tau) > 1e-14 * max(1.0, tau):
        raise DomainValidationError(
            f"basis was built for tau={basis.tau}, assembly requested tau={tau}"
        )
    if n_boundary is None:
        n_boundary = boundary_rule_size(domain, basis)
    ev = _evaluate(domain, basis, n_boundary)
    dh = _normal_component(ev.gradients[: basis.size // 2], ev.quad.normals)
    flux = np.concatenate([basis.tau * dh, -basis.tau * dh])
    with _blas_scope(basis.size):
        A, B = _trefftz_forms(ev.values, ev.gradients, ev.hessians, flux, ev.quad)
    return AssembledForms(stiffness=A, boundary_mass=B, boundary=ev)


def _normal_component(grad: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """du/dnu of every row from its gradient channels, (m, n_nodes, 2) -> (m, n_nodes)."""
    return grad[:, :, 0] * normals[:, 0] + grad[:, :, 1] * normals[:, 1]


def _trefftz_forms(
    val: np.ndarray, grad: np.ndarray, hess: np.ndarray, flux: np.ndarray, quad: BoundaryQuadrature
) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and boundary mass of m rows on the rule quad, both symmetrized.

    The rows are trial functions, or fixed combinations of them: values (m, n),
    gradients (m, n, 2), Hessians (m, n, 3) and flux = tau du/dnu - d(Delta u)/dnu
    (m, n).  The stiffness is the boundary (Trefftz) form of the module docstring.
    """
    m = val.shape[0]
    nx, ny = quad.normals[:, 0], quad.normals[:, 1]
    # D^2 u nu from the Hessian channels (xx, xy, yy)
    hess_n = np.stack(
        [hess[:, :, 0] * nx + hess[:, :, 1] * ny, hess[:, :, 1] * nx + hess[:, :, 2] * ny],
        axis=2,
    )
    A = (hess_n * quad.weights[:, None]).reshape(m, -1) @ grad.reshape(m, -1).T
    A += (flux * quad.weights) @ val.T
    B = (val * quad.weights) @ val.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


def _projected_forms(
    domain: StarDomain, basis: TrialBasis, X: np.ndarray, n_boundary: int
) -> tuple[np.ndarray, np.ndarray]:
    """X^T A X and X^T B X of the forms `assemble` builds on an n_boundary-node rule.

    The basis is evaluated on the rule as for `assemble`, but its values, gradients,
    Hessians and fluxes are combined into the m columns of X (coefficients in the
    basis) before the boundary form is taken, so only m rows are contracted and no
    basis-sized matrix is formed.  By the flux identity of `assemble`, the flux of
    a column x is the normal derivative of the column tau (x_harmonic - x_bessel)
    on the harmonic rows.
    """
    ev = _evaluate(domain, basis, n_boundary)
    half, m = basis.size // 2, X.shape[1]
    Y = np.vstack([basis.tau * X[:half] - basis.tau * X[half:], np.zeros_like(X[half:])])
    v, g, h = _combine(ev, np.concatenate([X, Y], axis=1))
    return _trefftz_forms(v[:m], g[:m], h[:m], _normal_component(g[m:], ev.quad.normals), ev.quad)


@dataclass(frozen=True)
class SolverDiagnostics:
    basis_size: int
    filtered_dimension: int
    b_null_count: int
    gram_condition: float


@dataclass(frozen=True)
class EigenSolution:
    """Eigenvalues ascending, coefficient columns b-orthonormal, 1-based cluster ranges,
    and the boundary evaluation of the basis the forms were assembled from."""

    eigenvalues: np.ndarray
    coefficients: np.ndarray  # (basis_size, n_modes)
    clusters: tuple[tuple[int, int], ...]
    diagnostics: SolverDiagnostics
    boundary: BoundaryEvaluation

    def cluster_of(self, j: int) -> tuple[int, int]:
        """Cluster range containing 1-based eigenvalue index j."""
        for lo, hi in self.clusters:
            if lo <= j <= hi:
                return (lo, hi)
        raise DomainValidationError(f"eigenvalue index {j} outside 1..{len(self.eigenvalues)}")


def _detect_clusters(lam: np.ndarray) -> tuple[tuple[int, int], ...]:
    # near-degenerate groups: split where the gap exceeds the relative threshold
    clusters = []
    lo = 0
    for i in range(len(lam) - 1):
        gap = lam[i + 1] - lam[i]
        if gap > _CLUSTER_RELGAP * max(1.0, abs(lam[i + 1])):
            clusters.append((lo + 1, i + 1))
            lo = i + 1
    clusters.append((lo + 1, len(lam)))
    return tuple(clusters)


def solve(forms: AssembledForms) -> EigenSolution:
    """Solve the pencil a(u, v) = lambda b(u, v) on the span of the assembled basis.

    Pipeline: symmetric diagonal scaling of both matrices, spectral filtering of the
    combined Gram matrix g = a + b at relative threshold 1e-12 and whitening, then
    the definite pencil b x = mu g x, whose eigenvalues mu = 1 / (1 + lambda) lie in
    [0, 1].  Directions with mu below 1e-12 of the largest carry no boundary trace
    (infinite Steklov eigenvalues; counted in the diagnostics) and are dropped; the
    rest give lambda = (1 - mu) / mu.  Solving for mu keeps the absolute error of
    the low eigenvalues at roundoff; a solve for lambda itself, after whitening b,
    carries the size of the largest spurious eigenvalue into the error of every
    small one.  Coefficients are returned in the original basis and are orthonormal
    in the boundary inner product.
    """
    with _blas_scope(forms.stiffness.shape[0]):
        return _solve(forms)


def _solve(forms: AssembledForms) -> EigenSolution:
    A, B = forms.stiffness, forms.boundary_mass
    d = np.sqrt(np.diag(A) + np.diag(B))
    if not np.all(d > 0.0):
        raise NumericalError("assembled forms have an identically zero basis direction")
    As = A / d[:, None] / d[None, :]
    Bs = B / d[:, None] / d[None, :]

    G = As + Bs
    try:
        sg, U = np.linalg.eigh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Gram eigendecomposition failed: {exc}") from exc
    keep = sg > _GRAM_TOL * sg[-1]
    if not np.any(keep):
        raise NumericalError("all basis directions filtered")
    cond = float(sg[-1] / sg[keep].min())
    P = U[:, keep] / np.sqrt(sg[keep])

    Ap = P.T @ As @ P
    Bp = P.T @ Bs @ P
    Ap = 0.5 * (Ap + Ap.T)
    Bp = 0.5 * (Bp + Bp.T)

    # Ap + Bp is the identity only up to the whitening's roundoff; reducing by its
    # Cholesky factor keeps lambda = (1 - mu) / mu true to the computed Ap and Bp
    try:
        Linv = np.linalg.inv(np.linalg.cholesky(Ap + Bp))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"whitened Gram matrix is not definite: {exc}") from exc
    M = Linv @ Bp @ Linv.T
    mu, Y = np.linalg.eigh(0.5 * (M + M.T))
    Z = Linv.T @ Y
    keep_b = mu > 1e-12 * mu[-1]
    n_bnull = int((~keep_b).sum())
    if not np.any(keep_b):
        raise NumericalError("boundary form is numerically zero on the filtered space")
    mu, Z = mu[keep_b][::-1], Z[:, keep_b][:, ::-1]
    lam = (1.0 - mu) / mu
    X = (P @ (Z / np.sqrt(mu))) / d[:, None]

    diagnostics = SolverDiagnostics(
        basis_size=A.shape[0],
        filtered_dimension=int(keep.sum()),
        b_null_count=n_bnull,
        gram_condition=cond,
    )
    return EigenSolution(
        eigenvalues=lam,
        coefficients=X,
        clusters=_detect_clusters(lam),
        diagnostics=diagnostics,
        boundary=forms.boundary,
    )


@dataclass(frozen=True)
class BoundaryTraces:
    """Boundary restriction of selected eigenfunctions on a quadrature rule."""

    quad: BoundaryQuadrature
    values: np.ndarray  # (m, n_nodes)
    normal_derivatives: np.ndarray  # (m, n_nodes)
    gradients: np.ndarray  # (m, n_nodes, 2)
    hessians: np.ndarray  # (m, n_nodes, 3), channels (xx, xy, yy)


def eigenfunction_boundary_data(solution: EigenSolution, which: tuple[int, ...]) -> BoundaryTraces:
    """Traces (v, dv/dnu, grad v, D^2 v) of the selected eigenfunctions on the boundary.

    which holds 1-based eigenvalue indexes, matching the ordering in the solution.
    The traces live on the assembly rule and combine the basis evaluation the
    solution carries, so no trial function is evaluated again.
    """
    n_modes = solution.coefficients.shape[1]
    for j in which:
        if not (1 <= j <= n_modes):
            raise DomainValidationError(f"eigenvalue index {j} outside 1..{n_modes}")
    bq = solution.boundary.quad
    v, g, h = _combine(solution.boundary, solution.coefficients[:, [j - 1 for j in which]])
    dvdn = _normal_component(g, bq.normals)
    return BoundaryTraces(quad=bq, values=v, normal_derivatives=dvdn, gradients=g, hessians=h)
