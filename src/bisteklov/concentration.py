"""Free plate vibration on the unit disk with mass concentrated near the boundary.

The density takes a small bulk value and a large value on a collar of width eps
against the boundary, keeping the total mass at 2 pi.  As eps shrinks, the Neumann
plate eigenvalues approach the Steklov eigenvalues of the same operator, with the
surviving mass acting as a boundary measure.  Rotational symmetry splits the
problem into angular modes; each mode is discretized with cubic Hermite elements
in the radius, so values and radial derivatives are both nodal unknowns and the
bending energy is represented exactly within the element space.  A plate is named
by tau, eps and the element counts of the bulk and the collar: `merged_spectrum`
builds the graded mesh, whose nodes include the collar interface 1 - eps, and the
density from them, so the two cannot disagree.  Assembly is
vectorised per mesh, over all elements at once, straight into each mode's lower
band (half-bandwidth 3), with the mode-independent Grams formed once per mesh.
All modes' pencils are solved together: one banded Cholesky factor of the
block-diagonal S + M, and one Lanczos loop that advances every mode's Krylov
sequence in the same step and freezes each mode at its own check, once the few
eigenvalues the merged spectrum keeps have converged.  Mode 0's constant spans the
kernel of its stiffness: that eigenvalue, the top of its pencil, is returned as 0.0.

The banded factor and solves are LAPACK's, called from numpy's own OpenBLAS
(`_util.cholesky_band`, which returns both): the plate solver runs on numpy alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._util import cholesky_band
from .ball_spectrum import sorted_spectrum
from .errors import DomainValidationError, NumericalError

_MASS = 2.0 * math.pi  # total mass: the boundary length of the unit disk, which the limit carries
_GAUSS_PER_ELEMENT = 10
_K_CAP = 8  # highest angular mode of the plate spectrum
_EPS = np.finfo(float).eps
_BAND = 4  # diagonals in the lower band of a mode matrix: element e owns DOFs 2e .. 2e + 3


def _density(eps: float):
    """Two-level radial density r -> rho(r): eps in the bulk, a large constant on the collar (1-eps, 1).

    The collar value is chosen so the total mass over the disk is 2 pi, the boundary
    length the Steklov limit puts it on; the bulk holds at most 4 pi/27 of it.
    """
    r_in = 1.0 - eps
    bulk_mass = eps * math.pi * r_in * r_in
    collar_area = math.pi * (1.0 - r_in * r_in)
    collar_value = (_MASS - bulk_mass) / collar_area
    return lambda r: np.where(r < r_in, eps, collar_value)


def make_radial_mesh(eps: float, n_bulk: int = 40, n_collar: int = 8) -> np.ndarray:
    """Nodes rising strictly from 0 to 1: a uniform collar [1-eps, 1] and a bulk graded toward it.

    The interface 1-eps is a node, so no Gauss rule integrates across the density
    jump.  With collar elements q > 1 times finer than a uniform bulk's, bulk sizes
    shrink geometrically toward the interface by R = q (1 + ln q) in all: for many
    elements a bulk that starts at the collar size needs q = (R - 1) / ln R, which
    this R meets to first order as q falls to 1 and to leading order as q grows.
    """
    if not (0.0 < eps < 1.0):
        raise DomainValidationError(f"eps must lie in (0, 1), got {eps}")
    if n_bulk < 1 or n_collar < 1:
        raise DomainValidationError("need at least one element in each region")
    L = 1.0 - eps
    q = L * n_collar / (eps * n_bulk)
    if n_bulk == 1 or q <= 1.0:
        bulk = np.linspace(0.0, L, n_bulk + 1)
    else:  # sizes from 1 at the center down to 1/R (0 once it underflows) at the interface
        sizes = (q * (1.0 + math.log(q))) ** (-np.arange(n_bulk) / (n_bulk - 1))
        bulk = np.concatenate(([0.0], np.cumsum(sizes))) * (L / sizes.sum())
        bulk[-1] = L
    nodes = np.concatenate([bulk, np.linspace(L, 1.0, n_collar + 1)[1:]])
    if not np.all(np.diff(nodes) > 0.0):  # elements below the spacing of floats near 1
        raise DomainValidationError(f"eps={eps} too small for {n_collar} collar elements")
    return nodes


def _mesh_forms(density, nodes: np.ndarray) -> SimpleNamespace:
    """What every angular mode of one mesh shares, at the radial density r -> density(r).

    Cubic Hermite shapes H, H1 = H', H2 = H'' at each element's Gauss points as
    (n_elements, 4, n_gauss) arrays (rows: value and slope left, value and slope
    right; physical derivatives), radii r and weights w of r dr.  From them, once
    per mesh: the element Grams of the four energy terms that do not depend on the
    mode (see `_mode_matrices`) and the mass bands of k = 0, k = 1 and k >= 2.  No
    n_dof x n_dof matrix is built: each mode assembles its bands.
    """
    gx, gw = _gauss_rule()
    h = np.diff(nodes)[:, None]
    xi = np.broadcast_to(0.5 * (gx + 1.0), (len(h), len(gx)))
    r = nodes[:-1, None] + xi * h
    w = 0.5 * gw * h * r
    H = np.stack([1.0 - 3.0 * xi**2 + 2.0 * xi**3, h * (xi - 2.0 * xi**2 + xi**3),
                  3.0 * xi**2 - 2.0 * xi**3, h * (-(xi**2) + xi**3)], axis=1)
    H1 = np.stack([(-6.0 * xi + 6.0 * xi**2) / h, 1.0 - 4.0 * xi + 3.0 * xi**2,
                   (6.0 * xi - 6.0 * xi**2) / h, -2.0 * xi + 3.0 * xi**2], axis=1)
    H2 = np.stack([(-6.0 + 12.0 * xi) / h**2, (-4.0 + 6.0 * xi) / h,
                   (6.0 - 12.0 * xi) / h**2, (-2.0 + 6.0 * xi) / h], axis=1)
    mass = _element_gram(H, w * density(r))
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


def _solve_pencil(S: np.ndarray, M: np.ndarray, count: int, zeros):
    """Smallest eigenvalues of S x = lambda M x per mode, S >= 0 and M > 0 as lower bands.

    The modes come stacked as (modes, n, 4) bands (see `_assemble`), shorter ones
    padded at the end by decoupled DOFs (S = 1, M = 0); one spectrum per mode is
    returned.  With K = S + M = L L^T, C = L^-1 M L^-T has eigenvalues
    mu = 1/(lambda+1), so the smallest lambda, accurate even when the stiffness scale
    is enormous, are read off the LARGEST mu.  C is never formed: one banded factor of
    the block-diagonal S + M, and one Lanczos loop with full reorthogonalisation (two
    classical Gram-Schmidt passes) that advances every mode per step by two banded
    triangular solves and a banded product with M; the factor and the solves are
    LAPACK's dpbtrf and dtbtrs from numpy's OpenBLAS (`_util`).  A mode starts from
    ones on its DOFs, checks its Ritz values after min(dim, max(2 count + 1, 20))
    steps and every 4 more, and is frozen at the first check where beta |y_last| <=
    eps |theta| for every value it returns (ARPACK's tol = 0) or its Krylov space is
    exhausted; the loop ends once every mode is frozen.  Each operation acts on each
    mode's rows alone, so a mode's values are the bits it gets solved alone.  Where
    `zeros[i]`, S annihilates a vector of mode i: C's exact top eigenvalue mu = 1,
    which Lanczos finds first, is returned as lambda = 0.0.  A computed lambda
    carries an error near eps times its mode's squared-pivot spread max/min L_ii^2:
    any other value below 100 times that, a negative one among them, raises
    NumericalError, as does a spread of 1/eps or more (S + M singular).
    """
    m, n = S.shape[:2]
    dims = np.count_nonzero(M[:, :, 0], axis=1)  # each mode's DOFs, ahead of its pads
    D = M.transpose(2, 0, 1).reshape(_BAND, -1)  # M's diagonals, run on across modes
    try:
        L, solve = cholesky_band((S + M).reshape(-1, _BAND))  # solve waits for the pivot check
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"pencil factorization failed: {exc}") from exc
    spread = []  # of each mode's squared pivots: max/min <= cond(S + M)
    for p in (Li[:dim, 0] ** 2 for Li, dim in zip(L.reshape(m, n, _BAND), dims)):
        hi, lo = p.max(), p.min()
        if hi * _EPS >= lo:
            raise NumericalError("pencil matrix S + M is singular to working precision "
                                 f"(squared pivots span {hi / lo:.1e})")
        spread.append(hi / lo)

    def dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]

    def apply(X: np.ndarray) -> np.ndarray:
        # one vector over all modes; the couplings of M past a mode's end are 0
        Y = solve(X.reshape(-1), "T")
        Z = D[0] * Y
        for d in range(1, _BAND):
            Z[d:] += D[d, :-d] * Y[:-d]
            Z[:-d] += D[d, :-d] * Y[d:]
        return solve(Z, "N").reshape(X.shape)

    need, first = np.minimum(count, dims), np.minimum(dims, max(2 * count + 1, 20))
    mu, frozen = [np.empty(0)] * m, np.zeros(m, dtype=bool)
    v = (np.arange(n) < dims[:, None]).astype(float)
    V = np.zeros((m, 24, n))  # grown by chunks of 24 steps
    V[:, 0] = v / np.sqrt(dot(v, v))[:, None]
    alpha, beta = np.zeros((2, m, dims.max()))
    for t in range(1, dims.max() + 1):  # t: steps taken, the basis size
        w = apply(V[:, t - 1])
        for _ in range(2):
            h = (V[:, :t] @ w[:, :, None])[:, :, 0]
            w = w - (h[:, None, :] @ V[:, :t])[:, 0]
            alpha[:, t - 1] += h[:, -1]
        beta[:, t - 1] = b = np.sqrt(dot(w, w))
        due = (t == dims) | (b == 0.0) | ((t >= first) & ((t - first) % 4 == 0))
        check = np.flatnonzero(due & ~frozen)
        if len(check):
            T, i = np.zeros((len(check), t, t)), np.arange(t)
            T[:, i, i], T[:, i[1:], i[:-1]] = alpha[check, :t], beta[check, :t - 1]
            for j, theta, Y in zip(check, *np.linalg.eigh(T)):
                theta, last = theta[::-1][:need[j]], Y[-1, ::-1][:need[j]]
                if t == dims[j] or b[j] == 0.0 or np.all(b[j] * np.abs(last) <= _EPS * theta):
                    mu[j], frozen[j] = theta, True
            if frozen.all():
                break
        if t == V.shape[1]:
            V = np.concatenate([V, np.zeros_like(V[:, :24])], axis=1)
        # an exhausted mode keeps a zero row: a NaN would reach every mode through
        # the stacked solves, as 0 * NaN = NaN where the blocks meet
        V[:, t] = w / np.where(b > 0.0, b, 1.0)[:, None]
    lam = [np.r_[0.0, 1.0 / x[1:] - 1.0] if z else 1.0 / x - 1.0 for x, z in zip(mu, zeros)]
    # a value's roundoff is near eps times its mode's squared-pivot spread: refuse
    # values it could swamp, naming the worst (a negative one first); each mode's
    # values ascend, as its mu descend
    worst = min(((x[z] / s, x[z], s) for x, s, z in zip(lam, spread, map(int, zeros))
                 if len(x) > z), default=None)
    if worst is not None and worst[0] < 100.0 * _EPS:
        _, x, s = worst
        raise NumericalError(
            f"plate eigenvalue {x:.3e} {'< 0' if x < 0.0 else 'is under 100 times its roundoff'}: "
            f"eps times its mode's squared-pivot spread is {_EPS * s:.1e}")
    return lam


def merged_spectrum(tau: float, eps: float, j_max: int, n_bulk: int = 40,
                    n_collar: int = 8) -> np.ndarray:
    """First j_max plate eigenvalues over angular modes 0.._K_CAP, multiplicity two for k >= 1,
    for a collar of width eps on `make_radial_mesh(eps, n_bulk, n_collar)`."""
    if j_max < 1:
        raise DomainValidationError(f"j_max must be >= 1, got {j_max}")
    nodes = make_radial_mesh(eps, n_bulk, n_collar)
    if n_collar < 4:
        warnings.warn(f"collar resolved by only {n_collar} elements; eigenvalues may be inaccurate",
                      stacklevel=2)
    forms = _mesh_forms(_density(eps), nodes)
    bands = [_mode_matrices(k, tau, forms) for k in range(_K_CAP + 1)]
    # every mode in one pencil solve, padded to mode 0's length by DOFs with S = 1, M = 0
    S, M = np.zeros((2, len(bands), len(bands[0][0]), _BAND))
    S[:, :, 0] = 1.0
    for Si, Mi, (Sk, Mk) in zip(S, M, bands):
        Si[:len(Sk)], Mi[:len(Mk)] = Sk, Mk
    spectra = _solve_pencil(S, M, j_max, [True] + [False] * _K_CAP)
    vals = np.sort(np.concatenate([spectra[0], *(np.repeat(ev, 2) for ev in spectra[1:])]))
    if len(vals) < j_max:
        raise NumericalError("angular mode cap too small for requested index range")
    return vals[:j_max]


def _check_mode_cap(j_max: int) -> None:
    """Refuse a limit index j of angular order j // 2 (order l >= 1 holds 2l and 2l + 1) above
    _K_CAP: it would be paired with a plate eigenvalue of another mode."""
    if j_max // 2 > _K_CAP:
        raise DomainValidationError(f"limit eigenvalue {j_max} has angular order {j_max // 2}, "
                                    f"above the plate's mode cap {_K_CAP}")


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
    _check_mode_cap(j_max)
    limit = sorted_spectrum(2, tau, j_max)
    rows = []
    for eps in eps_list:
        spec = merged_spectrum(tau, eps, j_max, n_bulk, n_collar)
        for j in j_list:
            lam_eps = float(spec[j - 1])
            lam_lim = limit.eigenvalue(j)
            rows.append(SweepRow(eps, j, lam_eps, lam_lim, abs(lam_eps - lam_lim)))
    return rows
