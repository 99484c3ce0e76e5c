"""Free plate vibration on the unit disk with mass concentrated near the boundary.

The density takes a small bulk value and a large value on a collar of width eps
against the boundary, keeping total mass fixed.  As eps shrinks, the Neumann
plate eigenvalues approach the Steklov eigenvalues of the same operator, with the
surviving mass acting as a boundary measure.  Rotational symmetry splits the
problem into angular modes; each mode is discretized with cubic Hermite elements
in the radius, so values and radial derivatives are both nodal unknowns and the
bending energy is represented exactly within the element space.  Assembly is
vectorised per mesh, over all elements at once, straight into each mode's lower
band (half-bandwidth 3), and its pencil is solved from one banded Cholesky factor
of S + M, by Lanczos iteration for only the few eigenvalues the merged spectrum keeps.

scipy serves only this plate solver, so it is imported inside the two functions
that use it and loads on the first plate solve: importing the package, and every
other part of it, needs numpy alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .ball_spectrum import sorted_spectrum
from .errors import DomainValidationError, NumericalError

_DEFAULT_MASS = 2.0 * math.pi  # boundary length of the unit disk
_GAUSS_PER_ELEMENT = 10
_BAND = 4  # diagonals in the lower band of a mode matrix: element e owns DOFs 2e .. 2e + 3


@dataclass(frozen=True)
class DensityProfile:
    """Two-level radial density: eps in the bulk, a large constant on the collar (1-eps, 1).

    The collar value is chosen so the total mass over the disk equals M exactly.
    """

    eps: float
    M: float = _DEFAULT_MASS

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0 and 1.0 - self.eps < 1.0):
            raise DomainValidationError(f"eps must lie in (0, 1) with 1 - eps < 1, got {self.eps}")
        if not (self.M > 0.0):
            raise DomainValidationError(f"total mass must be positive, got {self.M}")
        if self.collar_value <= 0.0:
            raise DomainValidationError(
                f"mass M={self.M} too small for bulk density at eps={self.eps}"
            )

    @property
    def bulk_value(self) -> float:
        return self.eps

    @property
    def collar_value(self) -> float:
        r_in = 1.0 - self.eps
        bulk_mass = self.eps * math.pi * r_in * r_in
        collar_area = math.pi * (1.0 - r_in * r_in)
        return (self.M - bulk_mass) / collar_area

    def value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.0 - self.eps, self.bulk_value, self.collar_value)


@dataclass(frozen=True)
class RadialMesh:
    """Strictly increasing nodes on [0, 1]; the collar interface 1-eps is a node."""

    nodes: np.ndarray
    eps: float

    @property
    def n_elements(self) -> int:
        return len(self.nodes) - 1

    @property
    def n_collar_elements(self) -> int:
        return int(np.sum(self.nodes > 1.0 - self.eps + 1e-15))


def make_radial_mesh(eps: float, n_bulk: int = 40, n_collar: int = 8) -> RadialMesh:
    """Mesh with a uniform collar [1-eps, 1] and a bulk graded toward the interface.

    Bulk element sizes grow geometrically away from the interface, starting at the
    collar element size; if the collar elements are already coarser than a uniform
    bulk would be, the bulk stays uniform.
    """
    # imported on every call, graded or not, so that any first plate solve
    # loads all of the plate path's scipy at once
    from scipy.optimize import brentq

    if not (0.0 < eps < 1.0):
        raise DomainValidationError(f"eps must lie in (0, 1), got {eps}")
    if n_bulk < 1 or n_collar < 1:
        raise DomainValidationError("need at least one element in each region")
    h_c = eps / n_collar
    L = 1.0 - eps

    # sizes h_c * g^j for j = 0..n-1 moving from the interface toward the center;
    # solve sum = L for the growth ratio g
    def total(g: float) -> float:
        return h_c * (g**n_bulk - 1.0) / (g - 1.0) - L

    # a single bulk element, or collar elements coarser than a uniform bulk, leave
    # nothing to grade; nor does a ratio g^n below 1 + 1e-6, where total is noise
    if n_bulk == 1 or h_c * n_bulk >= L or total(1.0 + 1e-6 / n_bulk) >= 0.0:
        bulk = np.linspace(0.0, L, n_bulk + 1)
    else:
        g_hi = min(1e3, 10.0 ** (300 / n_bulk))  # g**n_bulk finite; 1e3 up to n_bulk = 100
        if total(g_hi) < 0.0:  # root beyond: the largest size h_c g^(n-1) alone bounds it
            g_hi = (L / h_c) ** (1.0 / (n_bulk - 1))
        g = brentq(total, 1.0 + 1e-12, g_hi)
        sizes = h_c * g ** np.arange(n_bulk)
        bulk = L - np.concatenate(([0.0], np.cumsum(sizes)))[::-1]
        bulk[0] = 0.0
        bulk[-1] = L
    collar = np.linspace(L, 1.0, n_collar + 1)
    nodes = np.concatenate([bulk, collar[1:]])
    if not np.all(np.diff(nodes) > 0.0):  # elements below the spacing of floats near 1
        raise DomainValidationError(f"eps={eps} too small for {n_collar} collar elements")
    return RadialMesh(nodes=nodes, eps=eps)


def _mesh_forms(profile: DensityProfile, mesh: RadialMesh) -> SimpleNamespace:
    """What every angular mode of one mesh shares.

    Cubic Hermite shapes H, H1 = H', H2 = H'' at each element's Gauss points as
    (n_elements, 4, n_gauss) arrays (rows: value and slope left, value and slope
    right; physical derivatives), radii r and weights w of r dr, and the element
    mass matrices.  No n_dof x n_dof matrix is built: each mode assembles its bands.
    """
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_PER_ELEMENT)
    h = np.diff(mesh.nodes)[:, None]
    xi = np.broadcast_to(0.5 * (gx + 1.0), (len(h), len(gx)))
    r = mesh.nodes[:-1, None] + xi * h
    w = 0.5 * gw * h * r
    H = np.stack([1.0 - 3.0 * xi**2 + 2.0 * xi**3, h * (xi - 2.0 * xi**2 + xi**3),
                  3.0 * xi**2 - 2.0 * xi**3, h * (-(xi**2) + xi**3)], axis=1)
    H1 = np.stack([(-6.0 * xi + 6.0 * xi**2) / h, 1.0 - 4.0 * xi + 3.0 * xi**2,
                   (6.0 * xi - 6.0 * xi**2) / h, -2.0 * xi + 3.0 * xi**2], axis=1)
    H2 = np.stack([(-6.0 + 12.0 * xi) / h**2, (-4.0 + 6.0 * xi) / h,
                   (6.0 - 12.0 * xi) / h**2, (-2.0 + 6.0 * xi) / h], axis=1)
    mass = _element_gram(H, w * profile.value(r))
    return SimpleNamespace(H=H, H1=H1, H2=H2, r=r, w=w, mass=mass)


def _element_gram(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Element matrices sum_g t[e, a, g] w[e, g] t[e, b, g], shape (n_elements, 4, 4)."""
    return np.einsum("eag,eg,ebg->eab", t, w, t)


def _assemble(Ae: np.ndarray, k: int) -> np.ndarray:
    """Lower band of mode k's global matrix, shape (n, 4): row i holds A[i, i] .. A[i + 3, i].

    Element e owns DOFs 2e .. 2e + 3, so its column b adds Ae[e, b:, b] to band row 2e + b.
    Center regularity drops DOF 1 for k = 0, DOF 0 for k = 1 and both for k >= 2.
    """
    b = np.arange(_BAND)[:, None]
    cols = np.pad(Ae, ((0, 0), (0, _BAND - 1), (0, 0)))[:, b + b.T, b]  # Ae[e, b + d, b]
    B = np.zeros((2 * len(Ae) + 2, _BAND))
    B[:-2] += cols[:, :2].reshape(-1, _BAND)
    B[2:] += cols[:, 2:].reshape(-1, _BAND)
    if k == 0:  # DOF 0 keeps its couplings to DOFs 2 and 3
        B[1] = B[0, 0], B[0, 2], B[0, 3], 0.0
    return B[1:] if k <= 1 else B[2:]


def _mode_matrices(k: int, tau: float, profile: DensityProfile, mesh: RadialMesh,
                   forms: SimpleNamespace | None = None):
    """Lower bands (see `_assemble`) of stiffness and mass for angular mode k.

    The energy density per unit radius for u = f(r) trig(k theta) is the sum of
    squares

        f''^2 + 2 k^2 ((f' - f/r)/r)^2 + (f'/r - k^2 f/r^2)^2
        + tau (f'^2 + k^2 (f/r)^2),

    integrated against r dr (angular factor normalized away; it is common to both
    matrices).  Center regularity removes f'(0) for k = 0, f(0) for k = 1, and both
    for k >= 2.  Each term is formed on all elements at once (`forms`, from
    `_mesh_forms`, is built if not given) and the terms are added in the order
    written; a global entry sums at most two element entries, in either order.
    """
    f = _mesh_forms(profile, mesh) if forms is None else forms
    H, H1, r, w = f.H, f.H1, f.r[:, None], f.w
    k2 = float(k * k)
    Se = _element_gram(f.H2, w)
    if k >= 1:
        Se += 2.0 * k2 * _element_gram((H1 - H / r) / r, w)
    Se += _element_gram(H1 / r - k2 * H / r**2, w)
    Se += tau * _element_gram(H1, w)
    if k >= 1:
        Se += tau * k2 * _element_gram(H / r, w)
    return _assemble(Se, k), _assemble(f.mass, k)


def _solve_pencil(S: np.ndarray, M: np.ndarray, count: int, deflate: np.ndarray | None):
    """Smallest eigenvalues of S x = lambda M x, S >= 0 and M > 0 as (n, 4) lower bands.

    Works on the shifted inverse: with the banded Cholesky factor K = S + M = L L^T,
    the operator C = L^-1 M L^-T has eigenvalues mu = 1/(lambda+1), so the smallest
    lambda are read off the LARGEST mu.  This keeps the small end of the spectrum
    accurate even when the stiffness scale is enormous, which dense solves on
    (S, M) do not.  C is never formed: Lanczos (ARPACK) finds only the `count`
    largest mu, applying C by two banded triangular solves and a banded product
    with M, from a fixed start vector so that repeated runs at fixed BLAS thread
    settings agree bit for bit.  An optional known eigenvector c with S c = 0 is
    deflated exactly: y = L^T c is the eigenvector of C with mu = 1, it is
    projected out of the operator, and an exact 0 is prepended.  Meshes too small
    for a Lanczos basis form C instead.
    """
    from scipy.linalg import cholesky_banded, eigh
    from scipy.linalg.blas import dsbmv
    from scipy.linalg.lapack import dtbtrs
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = len(S)
    try:
        L = cholesky_banded((S + M).T, lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil factorization failed: {exc}") from exc
    # max/min of the squared pivots is a lower bound on cond(S + M)
    pivots = L[0] ** 2
    if pivots.max() * np.finfo(float).eps >= pivots.min():
        raise NumericalError(
            "pencil matrix S + M is singular to working precision "
            f"(squared pivots span {pivots.max() / pivots.min():.1e})"
        )

    def triangular_solve(x: np.ndarray, trans: str) -> np.ndarray:
        """L^-1 x (trans "N") or L^-T x (trans "T")."""
        y, info = dtbtrs(L, x[:, None], uplo="L", trans=trans)
        if info != 0:
            raise NumericalError(f"banded triangular solve failed (info {info})")
        return y[:, 0]

    def apply(x: np.ndarray) -> np.ndarray:
        y = triangular_solve(x, "T")
        return triangular_solve(dsbmv(_BAND - 1, 1.0, M.T, y, lower=1), "N")

    matvec = apply
    if deflate is not None:
        y = L[0] * deflate  # L^T c from the band
        for d in range(1, _BAND):
            y[:n - d] += L[d, :n - d] * deflate[d:]
        u = y / np.linalg.norm(y)

        def matvec(x: np.ndarray) -> np.ndarray:
            x = apply(x - (u @ x) * u)
            return x - (u @ x) * u

    # the deflated direction gives the prepended 0 and, projected, a mu = 0 of C
    need = min(count, n) - (deflate is not None)
    if need < 1:
        mu = np.empty(0)
    elif need >= n - 2:  # ARPACK needs a basis of need < ncv <= n - 2 vectors: form C
        C = np.column_stack([matvec(e) for e in np.eye(n)])
        mu = eigh(0.5 * (C + C.T), eigvals_only=True)[::-1][:need]
    else:
        v0 = np.ones(n)
        if deflate is not None:
            v0 -= (u @ v0) * u
        op = LinearOperator((n, n), matvec=matvec, dtype=float)
        try:
            mu = eigsh(op, k=need, which="LA", ncv=min(n - 2, max(2 * need + 1, 20)), tol=0,
                       v0=v0, return_eigenvectors=False)
        except ArpackNoConvergence as exc:
            raise NumericalError(f"pencil Lanczos iteration did not converge: {exc}") from exc
        mu = np.sort(mu)[::-1]
    lam = 1.0 / mu - 1.0
    return np.concatenate([[0.0], lam]) if deflate is not None else lam


def neumann_mode_eigenvalues(
    k: int,
    tau: float,
    profile: DensityProfile,
    mesh: RadialMesh,
    count: int = 6,
) -> np.ndarray:
    """Lowest eigenvalues of the free plate in angular mode k with the given density.

    For k = 0 the constant function is an exact eigenfunction with eigenvalue 0 in
    both the continuous and the discrete problem; it is deflated explicitly so the
    returned leading eigenvalue is exactly 0.
    """
    if k < 0:
        raise DomainValidationError(f"angular mode must be nonnegative, got {k}")
    if count < 1:
        raise DomainValidationError(f"count must be >= 1, got {count}")
    _check_mesh(profile, mesh)
    return _mode_eigenvalues(k, tau, profile, mesh, count, _mesh_forms(profile, mesh))


def _check_mesh(profile: DensityProfile, mesh: RadialMesh) -> None:
    """Reject a mesh built for another eps; warn, at the caller's caller, on a coarse collar."""
    if abs(mesh.eps - profile.eps) > 1e-14:
        raise DomainValidationError(
            f"mesh was built for eps={mesh.eps}, profile has eps={profile.eps}"
        )
    if mesh.n_collar_elements < 4:
        warnings.warn(
            f"collar resolved by only {mesh.n_collar_elements} elements; "
            "eigenvalues may be inaccurate",
            stacklevel=3,
        )


def _mode_eigenvalues(k: int, tau: float, profile: DensityProfile, mesh: RadialMesh,
                      count: int, forms: SimpleNamespace) -> np.ndarray:
    """neumann_mode_eigenvalues on checked arguments; `forms` is `_mesh_forms(profile, mesh)`."""
    S, M = _mode_matrices(k, tau, profile, mesh, forms)
    # k = 0 deflates the constant: value DOFs 0, 2, 4, ... are 0, 1, 3, ... without f'(0)
    deflate = np.r_[1.0, np.resize([1.0, 0.0], len(S) - 1)] if k == 0 else None
    return _solve_pencil(S, M, count, deflate)


def merged_spectrum(
    tau: float,
    profile: DensityProfile,
    mesh: RadialMesh,
    j_max: int,
    k_cap: int = 8,
) -> np.ndarray:
    """First j_max plate eigenvalues over all angular modes, multiplicity two for k >= 1."""
    if j_max < 1:
        raise DomainValidationError(f"j_max must be >= 1, got {j_max}")
    _check_mesh(profile, mesh)
    vals: list[float] = []
    forms = _mesh_forms(profile, mesh)
    for k in range(k_cap + 1):
        ev = _mode_eigenvalues(k, tau, profile, mesh, j_max, forms)
        vals.extend([float(lam) for lam in ev] * (1 if k == 0 else 2))
    vals.sort()
    if len(vals) < j_max:
        raise NumericalError("angular mode cap too small for requested index range")
    return np.array(vals[:j_max])


@dataclass(frozen=True)
class SweepRow:
    eps: float
    j: int
    lambda_eps: float
    lambda_limit: float
    abs_error: float


def convergence_sweep(
    tau: float,
    eps_list,
    j_list,
    M: float = _DEFAULT_MASS,
    n_bulk: int = 40,
    n_collar: int = 8,
    k_cap: int = 8,
) -> list[SweepRow]:
    """Plate eigenvalues against their Steklov limits for a decreasing sequence of eps.

    Returns one row per (eps, j) pair with the concentrated-mass eigenvalue, the
    limiting ball eigenvalue, and their absolute difference.  Every limit up to
    the largest j must have angular order at most k_cap (j <= 17 at k_cap = 8).
    """
    eps_list = [float(e) for e in eps_list]
    if not eps_list:
        raise DomainValidationError("no eps values given")
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise DomainValidationError(f"eps values must decrease strictly, got {eps_list}")
    j_list = sorted(int(j) for j in j_list)
    if not j_list:
        raise DomainValidationError("no eigenvalue indexes requested")
    if j_list[0] < 1:
        raise DomainValidationError(f"eigenvalue indexes must be >= 1, got {j_list}")
    j_max = j_list[-1]
    limit = sorted_spectrum(2, tau, j_max)
    # merged_spectrum holds angular modes up to k_cap only; a limit of higher
    # order would be paired with a plate eigenvalue of another mode
    order = max(o for _, _, o in limit.flatten())
    if order > k_cap:
        raise DomainValidationError(
            f"limit eigenvalue {j_max} has angular order {order}, above the plate's "
            f"mode cap {k_cap}"
        )
    rows = []
    for eps in eps_list:
        profile = DensityProfile(eps, M)
        mesh = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=n_collar)
        spec = merged_spectrum(tau, profile, mesh, j_max, k_cap=k_cap)
        for j in j_list:
            lam_eps = float(spec[j - 1])
            lam_lim = limit.eigenvalue(j)
            rows.append(SweepRow(eps, j, lam_eps, lam_lim, abs(lam_eps - lam_lim)))
    return rows
