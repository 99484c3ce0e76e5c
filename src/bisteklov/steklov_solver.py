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
sized to the integrands (boundary_rule_size).  The evaluation carries each row's
values, gradients, Hessians and flux tau du/dnu - d(Delta u)/dnu; combined into
coefficient columns it is the same type, so one contraction (_trefftz_forms) gives
the forms of the basis and of any columns.  It travels with the forms and the
solution, so the eigenfunction traces behind shape derivatives are contractions of
it, not a second evaluation.
The pencil is solved through a filtered congruence pipeline that tolerates the
strong numerical dependence of such global bases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainValidationError, NumericalError
from .geometry import BoundaryQuadrature, StarDomain, boundary_geometry, min_nodes
from .special_functions import _check_reach, _check_tau, integer_order_tails, series_tail

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
    """m rows on a boundary rule of `domain`: every trial function of `basis` (_evaluate)
    or fixed combinations of them (_combine), with their fluxes tau du/dnu - d(Delta u)/dnu."""

    domain: StarDomain
    basis: TrialBasis
    quad: BoundaryQuadrature
    values: np.ndarray  # (m, n_nodes)
    gradients: np.ndarray  # (m, n_nodes, 2)
    hessians: np.ndarray  # (m, n_nodes, 3), channels (xx, xy, yy)
    fluxes: np.ndarray  # (m, n_nodes)

    @property
    def normal_derivatives(self) -> np.ndarray:
        """du/dnu of every row, (m, n_nodes)."""
        return _normal_component(self.gradients, self.quad.normals)


def _normal_component(grad: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """du/dnu of every row from its gradient channels, (m, n_nodes, 2) -> (m, n_nodes)."""
    return grad[:, :, 0] * normals[:, 0] + grad[:, :, 1] * normals[:, 1]


def _evaluate(domain: StarDomain, basis: TrialBasis, n_boundary: int) -> BoundaryEvaluation:
    """The basis on the n_boundary-node rule of the domain.

    The flux tau du/dnu - d(Delta u)/dnu of a harmonic row h is tau dh/dnu, as
    Delta h = 0.  The Bessel row u = T_k(tau rho / 4) h_k at h_k's position in the
    second block has (u + h_k) c_0 s^k = i_k(s r) cos/sin(k theta), s = sqrt(tau),
    so Delta u = tau (u + h_k) and its flux is -tau dh_k/dnu.
    """
    bq = boundary_geometry(domain, n_boundary)
    _check_reach(basis.tau, float(np.hypot(*(bq.points - domain.center).T).max()))
    val, grad, hess = _eval_all(basis, bq.points, domain.center)
    flux = basis.tau * _normal_component(grad[: basis.size // 2], bq.normals)
    return BoundaryEvaluation(domain, basis, bq, val, grad, hess, np.concatenate([flux, -flux]))


def _combine(ev: BoundaryEvaluation, C: np.ndarray) -> BoundaryEvaluation:
    """The m coefficient columns C (nb, m) of ev's rows as rows on its rule: one GEMM per channel."""
    nb, m = C.shape

    def contract(a: np.ndarray) -> np.ndarray:
        return (C.T @ a.reshape(nb, -1)).reshape(m, *a.shape[1:])

    return replace(ev, values=contract(ev.values), gradients=contract(ev.gradients),
                   hessians=contract(ev.hessians), fluxes=contract(ev.fluxes))


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
    _check_reach(basis.tau, float(r.max()))
    s = 1.0 + series_tail(float(k), 0.25 * basis.tau * r * r)  # increasing in r
    e = (r / r.max()) ** k * (s / s.max())
    spectrum = np.abs(np.fft.rfft(e * e * np.sqrt(r * r + r1 * r1)))
    if not 0.0 < spectrum[0] < math.inf:  # r * r under- or overflows
        raise NumericalError(f"cannot size the boundary rule: the squared top-order trace "
                             f"sums to {spectrum[0]} on this domain")
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
    """
    if abs(tau - basis.tau) > 1e-14 * max(1.0, tau):
        raise DomainValidationError(
            f"basis was built for tau={basis.tau}, assembly requested tau={tau}"
        )
    if n_boundary is None:
        n_boundary = boundary_rule_size(domain, basis)
    with np.errstate(all="ignore"):  # an overflowing basis is refused below, without warnings
        ev = _evaluate(domain, basis, n_boundary)
        A, B = _trefftz_forms(ev)
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise NumericalError(f"the trial basis overflows on this domain at k_max={basis.k_max}")
    return AssembledForms(stiffness=A, boundary_mass=B, boundary=ev)


def _trefftz_forms(ev: BoundaryEvaluation) -> tuple[np.ndarray, np.ndarray]:
    """Stiffness and boundary mass of the rows of ev, both symmetrized.

    The stiffness is the boundary (Trefftz) form of the module docstring.
    """
    m, w = ev.values.shape[0], ev.quad.weights
    nx, ny = ev.quad.normals[:, 0], ev.quad.normals[:, 1]
    # D^2 u nu from the Hessian channels (xx, xy, yy)
    hess = ev.hessians
    hess_n = np.stack(
        [hess[:, :, 0] * nx + hess[:, :, 1] * ny, hess[:, :, 1] * nx + hess[:, :, 2] * ny],
        axis=2,
    )
    A = (hess_n * w[:, None]).reshape(m, -1) @ ev.gradients.reshape(m, -1).T
    A += (ev.fluxes * w) @ ev.values.T
    B = (ev.values * w) @ ev.values.T
    return 0.5 * (A + A.T), 0.5 * (B + B.T)


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
    # near-degenerate groups: split where the gap exceeds the relative threshold.
    # lambda_1 = 0.0 exactly (the constant), so it is split off from any lambda_2 > 0
    clusters = []
    lo = 0
    for i in range(len(lam) - 1):
        gap = lam[i + 1] - lam[i]
        if gap > _CLUSTER_RELGAP * lam[i + 1]:
            clusters.append((lo + 1, i + 1))
            lo = i + 1
    clusters.append((lo + 1, len(lam)))
    return tuple(clusters)


def solve(forms: AssembledForms) -> EigenSolution:
    """Solve the pencil a(u, v) = lambda b(u, v) on the span of the assembled basis.

    Pipeline: symmetric diagonal scaling of both matrices, spectral filtering of the
    combined Gram matrix g = a + b at relative threshold 1e-12 and whitening, then one
    eigen-step on the whitened boundary form, whose eigenvalues mu ~ 1 / (1 + lambda)
    lie in [0, 1].  Directions with mu below 1e-12 of the largest carry no boundary
    trace (infinite Steklov eigenvalues; counted in the diagnostics) and are dropped.
    Each eigenvalue is the Rayleigh quotient of its own column on the assembled forms,
    an upper bound with relative accuracy at every tau (lambda read off mu has an
    absolute error); lambda_1 = 0.0 exactly, the constant, and the other columns are
    b-orthogonal to it.  Coefficients are returned in the original basis with b-norm 1;
    within a cluster whose mu eigh cannot separate (tau <= 1e-12) they are b-orthogonal
    only to 3.9e-10 (the disk pair at tau = 1e-12) or 2.3e-5 (at 1e-14).
    """
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

    Bp = P.T @ Bs @ P
    mu, Z = np.linalg.eigh(0.5 * (Bp + Bp.T))
    keep_b = mu > 1e-12 * mu[-1]
    n_bnull = int((~keep_b).sum())
    if not np.any(keep_b):
        raise NumericalError("boundary form is numerically zero on the filtered space")
    X = (P @ Z[:, keep_b][:, ::-1]) / d[:, None]
    # the top mu is the constant: row 0 is h_0 = 1, with no gradient, Hessian or flux,
    # so it is taken exactly, and the other columns are made b-orthogonal to it
    X[:, 0] = 0.0
    X[0, 0] = 1.0
    X[0, 1:] -= (B[0] @ X[:, 1:]) / B[0, 0]
    norm2 = np.einsum("ij,ij->j", X, B @ X)
    lam = np.einsum("ij,ij->j", X, A @ X) / norm2
    order = np.argsort(lam, kind="stable")
    lam, X = lam[order], (X / np.sqrt(norm2))[:, order]

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


def eigenfunction_boundary_data(solution: EigenSolution, which: tuple[int, ...]) -> BoundaryEvaluation:
    """Values, gradients, Hessians and fluxes of the selected eigenfunctions on the boundary.

    which holds 1-based eigenvalue indexes, matching the ordering in the solution.
    The traces live on the assembly rule and combine the basis evaluation the
    solution carries, so no trial function is evaluated again.
    """
    n_modes = solution.coefficients.shape[1]
    for j in which:
        if not (1 <= j <= n_modes):
            raise DomainValidationError(f"eigenvalue index {j} outside 1..{n_modes}")
    return _combine(solution.boundary, solution.coefficients[:, [j - 1 for j in which]])
