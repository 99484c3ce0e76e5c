"""Free plate vibration on the unit disk with mass concentrated near the boundary.

The density takes a small bulk value and a large value on a collar of width eps
against the boundary, keeping the total mass at 2 pi.  As eps shrinks, the Neumann
plate eigenvalues approach the Steklov eigenvalues of the same operator, with the
surviving mass acting as a boundary measure.  Rotational symmetry splits the
problem into angular modes; each mode is discretized with cubic Hermite elements
in the radius, so values and radial derivatives are both nodal unknowns and the
bending energy is represented exactly within the element space.  Assembly is
vectorised per mesh, over all elements at once, straight into each mode's lower
band (half-bandwidth 3), with the mode-independent Grams formed once per mesh.
All modes' pencils are solved together: one banded Cholesky factor of the
block-diagonal S + M, and one Lanczos loop that advances every mode's Krylov
sequence in the same step, for only the few eigenvalues the merged spectrum keeps.

scipy serves only this plate solver, and only `scipy.linalg`, imported inside the
pencil solve: importing the package, and every other part of it, needs numpy
alone.  The mesh grading ports scipy's Brent root finder instead.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .ball_spectrum import sorted_spectrum
from .errors import DomainValidationError, NumericalError

_MASS = 2.0 * math.pi  # total mass: the boundary length of the unit disk, which the limit carries
_GAUSS_PER_ELEMENT = 10
_K_CAP = 8  # highest angular mode of the plate spectrum
_EPS = np.finfo(float).eps
_BAND = 4  # diagonals in the lower band of a mode matrix: element e owns DOFs 2e .. 2e + 3


@dataclass(frozen=True)
class DensityProfile:
    """Two-level radial density: eps in the bulk, a large constant on the collar (1-eps, 1).

    The collar value is chosen so the total mass over the disk is 2 pi, the boundary
    length the Steklov limit puts it on; the bulk holds at most 4 pi/27 of it.
    """

    eps: float

    def __post_init__(self):
        if not (0.0 < self.eps < 1.0 and 1.0 - self.eps < 1.0):
            raise DomainValidationError(f"eps must lie in (0, 1) with 1 - eps < 1, got {self.eps}")

    @property
    def bulk_value(self) -> float:
        return self.eps

    @property
    def collar_value(self) -> float:
        r_in = 1.0 - self.eps
        bulk_mass = self.eps * math.pi * r_in * r_in
        collar_area = math.pi * (1.0 - r_in * r_in)
        return (_MASS - bulk_mass) / collar_area

    def value(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.where(r < 1.0 - self.eps, self.bulk_value, self.collar_value)


@dataclass(frozen=True)
class RadialMesh:
    """Strictly increasing nodes on [0, 1]; the collar interface 1-eps is a node."""

    nodes: np.ndarray
    eps: float

    @property
    def n_collar_elements(self) -> int:
        return int(np.sum(self.nodes > 1.0 - self.eps + 1e-15))


def make_radial_mesh(eps: float, n_bulk: int = 40, n_collar: int = 8) -> RadialMesh:
    """Mesh with a uniform collar [1-eps, 1] and a bulk graded toward the interface.

    Bulk element sizes grow geometrically away from the interface, starting at the
    collar element size; if the collar elements are already coarser than a uniform
    bulk would be, the bulk stays uniform.
    """
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
        g = _brentq(total, 1.0 + 1e-12, g_hi)
        sizes = h_c * g ** np.arange(n_bulk)
        bulk = L - np.concatenate(([0.0], np.cumsum(sizes)))[::-1]
        bulk[0] = 0.0
        bulk[-1] = L
    collar = np.linspace(L, 1.0, n_collar + 1)
    nodes = np.concatenate([bulk, collar[1:]])
    if not np.all(np.diff(nodes) > 0.0):  # elements below the spacing of floats near 1
        raise DomainValidationError(f"eps={eps} too small for {n_collar} collar elements")
    return RadialMesh(nodes=nodes, eps=eps)


def _brentq(f, xpre: float, xcur: float) -> float:
    """A root of f between xpre and xcur, where f changes sign.

    Brent's method step for step as the C routine of `scipy.optimize.brentq`, at
    its default tolerances, so the root is the same to the last bit.
    """
    xtol, rtol = 2e-12, 4.0 * _EPS
    xpre, xcur = np.float64(xpre), np.float64(xcur)
    with np.errstate(all="ignore"):  # as in C, an overflowing trial step just fails its test
        fpre, fcur = f(xpre), f(xcur)
        if fpre == 0.0 or fcur == 0.0:
            return xpre if fpre == 0.0 else xcur
        if (fpre < 0.0) == (fcur < 0.0):
            raise NumericalError("root bracket does not change sign")
        xblk = fblk = spre = scur = 0.0
        for _ in range(100):
            if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
                xblk, fblk, spre = xpre, fpre, xcur - xpre
                scur = spre
            if abs(fblk) < abs(fcur):  # keep the better end as xcur
                xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
            delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2
            if fcur == 0.0 or abs(sbis) < delta:
                return xcur
            step = (sbis, sbis)  # bisect, unless interpolation takes a good short step
            if abs(spre) > delta and abs(fcur) < abs(fpre):
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                    step = (scur, stry)
            (spre, scur), xpre, fpre = step, xcur, fcur
            xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
            fcur = f(xcur)
    raise NumericalError("root finder did not converge in 100 steps")


def _mesh_forms(profile: DensityProfile, mesh: RadialMesh) -> SimpleNamespace:
    """What every angular mode of one mesh shares.

    Cubic Hermite shapes H, H1 = H', H2 = H'' at each element's Gauss points as
    (n_elements, 4, n_gauss) arrays (rows: value and slope left, value and slope
    right; physical derivatives), radii r and weights w of r dr.  From them, once
    per mesh: the element Grams of the four energy terms that do not depend on the
    mode (see `_mode_matrices`) and the mass bands of k = 0, k = 1 and k >= 2.  No
    n_dof x n_dof matrix is built: each mode assembles its bands.
    """
    gx, gw = _gauss_rule()
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
    r = r[:, None]
    return SimpleNamespace(
        H=H, H1_r=H1 / r, r2=r**2, w=w,
        bend=_element_gram(H2, w), twist=_element_gram((H1 - H / r) / r, w),
        slope=_element_gram(H1, w), value=_element_gram(H / r, w),
        mass=[_assemble(mass, k) for k in range(3)],
    )


@functools.cache
def _gauss_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [-1, 1], built on first use: at import it would slow every start."""
    return np.polynomial.legendre.leggauss(_GAUSS_PER_ELEMENT)


def _element_gram(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Element matrices sum_g t[e, a, g] w[e, g] t[e, b, g], shape (n_elements, 4, 4)."""
    return np.einsum("eag,eg,ebg->eab", t, w, t)


def _assemble(Ae: np.ndarray, k: int) -> np.ndarray:
    """Lower band of mode k's global matrix, shape (n, 4): row i holds A[i, i] .. A[i + 3, i].

    Element e owns DOFs 2e .. 2e + 3, so its column b adds Ae[e, b:, b] to band row 2e + b.
    Center regularity drops DOF 1 for k = 0, DOF 0 for k = 1 and both for k >= 2.
    """
    b = np.arange(_BAND)[:, None]
    cols = np.concatenate([Ae, np.zeros_like(Ae[:, 1:])], axis=1)[:, b + b.T, b]  # Ae[e, b + d, b]
    B = np.zeros((2 * len(Ae) + 2, _BAND))
    B[:-2] += cols[:, :2].reshape(-1, _BAND)
    B[2:] += cols[:, 2:].reshape(-1, _BAND)
    if k == 0:  # DOF 0 keeps its couplings to DOFs 2 and 3
        B[1] = B[0, 0], B[0, 2], B[0, 3], 0.0
    return B[1:] if k <= 1 else B[2:]


def _mode_matrices(k: int, tau: float, forms: SimpleNamespace):
    """Lower bands (see `_assemble`) of stiffness and mass for angular mode k.

    The energy density per unit radius for u = f(r) trig(k theta) is the sum of
    squares

        f''^2 + 2 k^2 ((f' - f/r)/r)^2 + (f'/r - k^2 f/r^2)^2
        + tau (f'^2 + k^2 (f/r)^2),

    integrated against r dr (angular factor normalized away; it is common to both
    matrices).  Center regularity removes f'(0) for k = 0, f(0) for k = 1, and both
    for k >= 2.  Each term is formed on all elements at once, the four that do not
    depend on k taken from `forms` (`_mesh_forms` of the mesh), and the terms are
    added in the order written; a global entry sums at most two element entries, in
    either order.  The mass band is the one `forms` holds for k.
    """
    k2 = float(k * k)
    Se = forms.bend + 2.0 * k2 * forms.twist if k >= 1 else forms.bend.copy()
    Se += _element_gram(forms.H1_r - k2 * forms.H / forms.r2, forms.w)
    Se += tau * forms.slope
    if k >= 1:
        Se += tau * k2 * forms.value
    return _assemble(Se, k), forms.mass[min(k, 2)]


def _solve_pencil(S: np.ndarray, M: np.ndarray, count: int, deflate):
    """Smallest eigenvalues of S x = lambda M x per mode, S >= 0 and M > 0 as lower bands.

    The modes come stacked as (modes, n, 4) bands (see `_assemble`), shorter ones
    padded at the end by decoupled DOFs (S = 1, M = 0), with one `deflate` entry per
    mode; one spectrum per mode is returned.  With K = S + M = L L^T (banded
    Cholesky), C = L^-1 M L^-T has eigenvalues mu = 1/(lambda+1), so the smallest
    lambda, accurate even when the stiffness scale is enormous, are read off the
    LARGEST mu.  C is never formed: one factor of the block-diagonal S + M, and one
    Lanczos loop with full reorthogonalisation (two classical Gram-Schmidt passes)
    that advances every mode per step by two banded triangular solves and a banded
    product with M.  A mode starts from ones on its DOFs, checks its Ritz values
    after min(dim, max(2 need + 1, 20)) steps and every 4 more, and stops, frozen,
    once beta |y_last| <= eps |theta| for every value it needs (ARPACK's tol = 0) or
    its Krylov space is exhausted.  Each operation acts on each mode's rows alone,
    so a mode's values are the bits it gets solved alone.  A c with S c = 0 is
    deflated exactly: y = L^T c, C's eigenvector with mu = 1, is projected out of
    the start and the operator, and an exact 0 is prepended.
    """
    from scipy.linalg import cholesky_banded
    from scipy.linalg.lapack import dtbtrs

    m, n = S.shape[:2]
    dims = np.count_nonzero(M[:, :, 0], axis=1)  # each mode's DOFs, ahead of its pads
    D = M.transpose(2, 0, 1).copy()  # M's diagonals
    try:
        L = cholesky_banded((S + M).reshape(-1, _BAND).T, lower=True).T.reshape(m, n, _BAND)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil factorization failed: {exc}") from exc
    for p in (Li[:dim, 0] ** 2 for Li, dim in zip(L, dims)):  # max/min <= cond(S + M)
        if p.max() * _EPS >= p.min():
            raise NumericalError("pencil matrix S + M is singular to working precision "
                                 f"(squared pivots span {p.max() / p.min():.1e})")
    U = np.zeros((m, n))  # unit L^T c per deflated mode, 0 elsewhere
    for Ui, Li, c in zip(U, L, deflate):
        if c is not None:
            c = np.r_[c, np.zeros(n - len(c))]
            y = Li[:, 0] * c
            for d in range(1, _BAND):
                y[:n - d] += Li[:n - d, d] * c[d:]
            Ui[:] = y / np.linalg.norm(y)

    def dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]

    def project(X: np.ndarray) -> np.ndarray:
        return X - dot(U, X)[:, None] * U

    def solve(X: np.ndarray, trans: str) -> np.ndarray:
        """L^-1 X (trans "N") or L^-T X (trans "T"), as one vector over all modes."""
        # the pivot check above leaves no zero on L's diagonal for dtbtrs to report
        return dtbtrs(L.reshape(-1, _BAND).T, X.reshape(-1, 1), uplo="L", trans=trans)[0][:, 0]

    def apply(X: np.ndarray) -> np.ndarray:
        # M's diagonals run on across modes: the couplings past a mode's end are 0
        Y, Dd = solve(project(X), "T"), D.reshape(_BAND, -1)
        Z = Dd[0] * Y
        for d in range(1, _BAND):
            Z[d:] += Dd[d, :-d] * Y[:-d]
            Z[:-d] += Dd[d, :-d] * Y[d:]
        return project(solve(Z, "N").reshape(X.shape))

    has = np.array([c is not None for c in deflate])
    size, need = dims - has, np.minimum(count, dims) - has  # the deflated 0 is prepended
    first = np.minimum(size, np.maximum(2 * need + 1, 20))
    mu, live = [np.empty(0)] * m, np.flatnonzero(need >= 1)
    L, D, U = L[live], D[:, live], U[live]
    v = project((np.arange(n) < dims[live, None]).astype(float))
    V = np.zeros((len(live), 24, n))  # grown by chunks of 24 steps
    V[:, 0] = v / np.sqrt(dot(v, v))[:, None]
    alpha, beta = np.zeros((2, len(live), size.max()))
    for t in range(1, size.max() + 1):  # t: steps taken, the basis size
        if not len(live):
            break
        w = apply(V[:, t - 1])
        for _ in range(2):
            h = (V[:, :t] @ w[:, :, None])[:, :, 0]
            w = w - (h[:, None, :] @ V[:, :t])[:, 0]
            alpha[:, t - 1] += h[:, -1]
        beta[:, t - 1] = b = np.sqrt(dot(w, w))
        f = first[live]
        check = np.flatnonzero((t == size[live]) | (b == 0.0) | ((t >= f) & ((t - f) % 4 == 0)))
        done = np.zeros(len(live), dtype=bool)
        if len(check):
            T, i = np.zeros((len(check), t, t)), np.arange(t)
            T[:, i, i], T[:, i[1:], i[:-1]] = alpha[check, :t], beta[check, :t - 1]
            for c, theta, Y in zip(check, *np.linalg.eigh(T)):
                j = live[c]
                theta, last = theta[::-1][:need[j]], Y[-1, ::-1][:need[j]]
                if t == size[j] or b[c] == 0.0 or np.all(b[c] * np.abs(last) <= _EPS * theta):
                    mu[j], done[c] = theta, True  # frozen
            live, L, U, V, alpha, beta, w, b = (
                a[~done] for a in (live, L, U, V, alpha, beta, w, b))
            D = D[:, ~done]
        if t == V.shape[1]:
            V = np.concatenate([V, np.zeros_like(V[:, :24])], axis=1)
        V[:, t] = w / b[:, None]
    lam = [1.0 / x - 1.0 for x in mu]
    return [np.r_[0.0, x] if c is not None else x for x, c in zip(lam, deflate)]


def _check_mesh(mesh: RadialMesh) -> None:
    """Warn, at the caller's caller, on a collar of fewer than four elements."""
    if mesh.n_collar_elements < 4:
        warnings.warn(
            f"collar resolved by only {mesh.n_collar_elements} elements; "
            "eigenvalues may be inaccurate",
            stacklevel=3,
        )


def _constant(n: int) -> np.ndarray:
    """The constant function among mode 0's n DOFs: value DOFs 0, 2, 4, ... are 0, 1, 3, ...

    It spans the kernel of mode 0's stiffness, which `_solve_pencil` deflates.
    """
    return np.r_[1.0, np.resize([1.0, 0.0], n - 1)]


def merged_spectrum(tau: float, mesh: RadialMesh, j_max: int) -> np.ndarray:
    """First j_max plate eigenvalues over angular modes 0.._K_CAP, multiplicity two for k >= 1,
    at the density DensityProfile(mesh.eps)."""
    if j_max < 1:
        raise DomainValidationError(f"j_max must be >= 1, got {j_max}")
    _check_mesh(mesh)
    forms = _mesh_forms(DensityProfile(mesh.eps), mesh)
    bands = [_mode_matrices(k, tau, forms) for k in range(_K_CAP + 1)]
    # every mode in one pencil solve, padded to mode 0's length by DOFs with S = 1, M = 0
    S, M = np.zeros((2, len(bands), len(bands[0][0]), _BAND))
    S[:, :, 0] = 1.0
    for Si, Mi, (Sk, Mk) in zip(S, M, bands):
        Si[:len(Sk)], Mi[:len(Mk)] = Sk, Mk
    spectra = _solve_pencil(S, M, j_max, [_constant(len(bands[0][0]))] + [None] * _K_CAP)
    vals: list[float] = []
    for k, ev in enumerate(spectra):
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
    n_bulk: int = 40,
    n_collar: int = 8,
) -> list[SweepRow]:
    """Plate eigenvalues against their Steklov limits for a decreasing sequence of eps.

    Returns one row per (eps, j) pair with the concentrated-mass eigenvalue, the
    limiting ball eigenvalue, and their absolute difference.  Every limit up to
    the largest j must have angular order at most _K_CAP = 8 (j <= 17).
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
    # merged_spectrum holds angular modes up to _K_CAP only; a limit of higher
    # order would be paired with a plate eigenvalue of another mode
    order = max(o for _, _, o in limit.flatten())
    if order > _K_CAP:
        raise DomainValidationError(
            f"limit eigenvalue {j_max} has angular order {order}, above the plate's "
            f"mode cap {_K_CAP}"
        )
    rows = []
    for eps in eps_list:
        mesh = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=n_collar)
        spec = merged_spectrum(tau, mesh, j_max)
        for j in j_list:
            lam_eps = float(spec[j - 1])
            lam_lim = limit.eigenvalue(j)
            rows.append(SweepRow(eps, j, lam_eps, lam_lim, abs(lam_eps - lam_lim)))
    return rows
