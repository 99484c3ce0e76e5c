"""Independent brute-force references used by several test modules.

Everything here deliberately avoids the reduced formulas under test: energies are
expanded in full Cartesian second derivatives and integrated over the interior on a
two-dimensional polar grid, so agreement with the package's radial and boundary
reductions is meaningful evidence.  The trial basis is also evaluated through
polar coordinates, and the Bessel derivatives through order-raising recurrences
with their own series loop, as references for the package's Cartesian evaluator
and its single normalised series.  The plate mode matrices are also assembled
element by element into dense matrices, whose lower bands (`lower_band`) the
package's all-elements band assembly must match bit for bit, and their pencil is
solved densely, every eigenvalue at once, as a reference for the package's
banded Lanczos solve.  Trigonometric series are summed mode by mode at any angle,
as a reference for the package's inverse-FFT sampler on the uniform grid.
The plate eigenvalues are also found with no mesh at all, as roots of the exact
determinant of each angular mode in Bessel functions (mpmath), as a reference
for the element discretisation.
Shape derivatives are also differenced eigenvalue by eigenvalue, re-solving each
perturbed domain and matching its eigenvalues to the cluster by index, and as the
difference of the full assembled pencils of the perturbed domains, each on a rule
sized for it, as references for the package's difference of the cluster's forms.
The ball's radial eigenprofiles and their Rayleigh quotient give a second route
to the closed-form ball eigenvalues, and two boundary inequalities are evaluated
on centroid-centred domains: the inverse-sum bound on 1/lambda_2 + 1/lambda_3 and
the weighted boundary moments against the equal-area disk.  The small-tau limits
of lambda_2 / tau and lambda_3 / tau follow from the same boundary moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp
from scipy.linalg import cholesky, eigh, solve_triangular

from bisteklov.ball_spectrum import eigenvalue_of_order, multiplicity_of_order
from bisteklov.concentration import _GAUSS_PER_ELEMENT
from bisteklov.errors import DomainValidationError, NumericalError
from bisteklov.geometry import StarDomain, area, boundary_geometry, interior_quadrature
from bisteklov.shape_calculus import FDResult, realize_perturbation, symmetric_function
from bisteklov.special_functions import (
    BesselEval,
    _check_tau,
    leading_term,
    scaled_derivatives,
    series_derivatives,
    ultraspherical_i_tail,
)
from bisteklov.steklov_solver import (
    _eval_all,
    assemble,
    boundary_rule_size,
    make_trial_basis,
    solve,
)


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


def basis_tags(basis: TrialBasis) -> tuple[tuple[str, int, str], ...]:
    """(family, angular order k, parity) of every row of a trial basis.

    Each block holds order 0 (cos), then the cos and sin rows of orders 1..k_max;
    the harmonic block comes before the Bessel one.
    """
    block = [(0, "cos")] + [(k, p) for k in range(1, basis.k_max + 1) for p in ("cos", "sin")]
    return tuple((family, k, p) for family in ("harmonic", "bessel") for k, p in block)


def polar_eval_all(
    basis: TrialBasis, pts: np.ndarray, center: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values, gradients and Hessians of every basis function, through polar coordinates.

    Reference for the solver's Cartesian `_eval_all`: Bessel rows are the tail
    i_k(s r) - c_0 (s r)^k times cos/sin(k theta), divided by c_0 s^k and
    differentiated by the full polar-to-Cartesian chain rule.  The radius is clamped away from 0, so points
    at the center are out of scope.  Same shapes and channels as `_eval_all`.
    """

    x = pts[:, 0] - center[0]
    y = pts[:, 1] - center[1]
    npts = pts.shape[0]
    nb = basis.size
    val = np.zeros((nb, npts))
    grad = np.zeros((nb, npts, 2))
    hess = np.zeros((nb, npts, 3))

    s = math.sqrt(basis.tau)
    # polar data; radius clamped away from 0 so Bessel chain-rule quotients stay
    # finite (the k = 0 tail starts at r^2, making the clamped limits exact)
    r = np.hypot(x, y)
    r = np.maximum(r, 1e-12)
    ct, st = x / r, y / r

    w = x + 1j * y
    # complex powers w^k for k = 0..k_max, shared across parities
    powers = [np.ones_like(w)]
    for _ in range(basis.k_max):
        powers.append(powers[-1] * w)

    tail_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    for i, (family, k, parity) in enumerate(basis_tags(basis)):
        if family == "harmonic":
            pk = powers[k]
            pk1 = powers[k - 1] if k >= 1 else None
            pk2 = powers[k - 2] if k >= 2 else None
            if parity == "cos":
                val[i] = pk.real
                if k >= 1:
                    grad[i, :, 0] = k * pk1.real
                    grad[i, :, 1] = -k * pk1.imag
                if k >= 2:
                    kk = k * (k - 1)
                    hess[i, :, 0] = kk * pk2.real
                    hess[i, :, 1] = -kk * pk2.imag
                    hess[i, :, 2] = -kk * pk2.real
            else:
                val[i] = pk.imag
                if k >= 1:
                    grad[i, :, 0] = k * pk1.imag
                    grad[i, :, 1] = k * pk1.real
                if k >= 2:
                    kk = k * (k - 1)
                    hess[i, :, 0] = kk * pk2.imag
                    hess[i, :, 1] = kk * pk2.real
                    hess[i, :, 2] = -kk * pk2.imag
        else:
            if k not in tail_cache:
                lead = leading_term(k, k, s)
                tail_cache[k] = [d / lead for d in ultraspherical_i_tail(k, 2, s * r)]
            tv, td1, td2 = tail_cache[k]
            f = tv
            fp = s * td1
            fpp = s * s * td2
            kt = k * np.arctan2(y, x)
            if parity == "cos":
                T, Tp = np.cos(kt), -k * np.sin(kt)
            else:
                T, Tp = np.sin(kt), k * np.cos(kt)
            Tpp = -(k * k) * T
            u_r = fp * T
            u_t = f * Tp
            u_rr = fpp * T
            u_rt = fp * Tp
            u_tt = f * Tpp
            val[i] = f * T
            grad[i, :, 0] = u_r * ct - u_t * st / r
            grad[i, :, 1] = u_r * st + u_t * ct / r
            cs = ct * st
            hess[i, :, 0] = (
                u_rr * ct**2 - 2 * u_rt * cs / r + u_tt * st**2 / r**2
                + u_r * st**2 / r + 2 * u_t * cs / r**2
            )
            hess[i, :, 2] = (
                u_rr * st**2 + 2 * u_rt * cs / r + u_tt * ct**2 / r**2
                + u_r * ct**2 / r - 2 * u_t * cs / r**2
            )
            hess[i, :, 1] = (
                u_rr * cs + u_rt * (ct**2 - st**2) / r - u_tt * cs / r**2
                - u_r * cs / r - u_t * (ct**2 - st**2) / r**2
            )
    return val, grad, hess


def trig_series(const, cos_coeffs, sin_coeffs, theta, derivatives: bool = False):
    """const + sum_k (cos_coeffs[k-1] cos k theta + sin_coeffs[k-1] sin k theta) at theta.

    Returns the value, or (value, first, second theta-derivative) when derivatives
    is set.  Modes are added one at a time, cosines first, in increasing order.
    """
    theta = np.asarray(theta, dtype=float)
    f = np.full_like(theta, const)
    f1, f2 = np.zeros_like(theta), np.zeros_like(theta)
    for coeffs, main_fn, other_fn, sign in (
        (cos_coeffs, np.cos, np.sin, -1.0),
        (sin_coeffs, np.sin, np.cos, 1.0),
    ):
        for k, c in enumerate(coeffs, start=1):
            if c != 0.0:
                main = main_fn(k * theta)
                f += c * main
                if derivatives:
                    f1 += sign * (c * k * other_fn(k * theta))
                    f2 -= c * k * k * main
    return (f, f1, f2) if derivatives else f


def recurrence_derivatives(l: int, N: int, z: float) -> BesselEval:
    """Derivatives of i_l by order-raising recurrences, each i_q from its own series loop.

    Uses i_l'(z) = i_(l+1)(z) + (l/z) i_l(z) and its iterates, independently of the
    package's normalised series core, so `ultraspherical_i` can be cross-checked.
    """

    def ival(q: int) -> float:
        nu = N / 2.0 - 1.0 + q
        t = math.exp(-nu * math.log(2.0) - math.lgamma(nu + 1.0) + q * math.log(z))
        total = 0.0
        for m in range(200):
            total += t
            if m >= 3 and t < 1e-17 * total:
                return total
            t *= z * z / (4.0 * (m + 1.0) * (m + nu + 1.0))
        raise ArithmeticError(f"series did not converge for order {q}, z={z}")

    i0, i1, i2, i3 = ival(l), ival(l + 1), ival(l + 2), ival(l + 3)
    d1 = i1 + l / z * i0
    d2 = i2 + (2 * l + 1) / z * i1 + l * (l - 1) / z**2 * i0
    d3 = i3 + 3 * (l + 1) / z * i2 + 3 * l**2 / z**2 * i1 + l * (l - 1) * (l - 2) / z**3 * i0
    return BesselEval(i0, d1, d2, d3)


def _hermite_shapes(h: float, xi: np.ndarray):
    """Cubic Hermite shape functions on an element of length h at local points xi in [0, 1].

    Rows are the four DOFs (value left, slope left, value right, slope right);
    returns (H, H', H'') with derivatives in the physical coordinate.
    """
    one = np.ones_like(xi)
    H = np.stack(
        [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (-(xi**2) + xi**3),
        ]
    )
    H1 = np.stack(
        [
            (-6.0 * xi + 6.0 * xi**2) / h,
            one - 4.0 * xi + 3.0 * xi**2,
            (6.0 * xi - 6.0 * xi**2) / h,
            -2.0 * xi + 3.0 * xi**2,
        ]
    )
    H2 = np.stack(
        [
            (-6.0 + 12.0 * xi) / h**2,
            (-4.0 + 6.0 * xi) / h,
            (6.0 - 12.0 * xi) / h**2,
            (-2.0 + 6.0 * xi) / h,
        ]
    )
    return H, H1, H2


def elementwise_mode_matrices(k: int, tau: float, density, nodes):
    """Plate stiffness, mass and kept DOFs for angular mode k, one element at a time.

    Reference for `concentration._mode_matrices`, whose bands must equal
    `lower_band` of these dense matrices: the same energy terms in the same order
    (bend, shear, ring, tau H1, tau k^2 H/r), each element matrix added into the
    global one by its own scatter.
    """
    n_nodes = len(nodes)
    ndof = 2 * n_nodes
    S = np.zeros((ndof, ndof))
    Mm = np.zeros((ndof, ndof))
    gx, gw = np.polynomial.legendre.leggauss(_GAUSS_PER_ELEMENT)
    xi = 0.5 * (gx + 1.0)
    wq = 0.5 * gw
    k2 = float(k * k)
    for e in range(len(nodes) - 1):
        a, b = nodes[e], nodes[e + 1]
        h = b - a
        r = a + xi * h
        w = wq * h * r
        H, H1, H2 = _hermite_shapes(h, xi)
        t_bend = H2
        t_shear = (H1 - H / r) / r
        t_ring = H1 / r - k2 * H / r**2
        Se = np.einsum("ag,g,bg->ab", t_bend, w, t_bend)
        if k >= 1:
            Se += 2.0 * k2 * np.einsum("ag,g,bg->ab", t_shear, w, t_shear)
        Se += np.einsum("ag,g,bg->ab", t_ring, w, t_ring)
        Se += tau * np.einsum("ag,g,bg->ab", H1, w, H1)
        if k >= 1:
            Se += tau * k2 * np.einsum("ag,g,bg->ab", H / r, w, H / r)
        Me = np.einsum("ag,g,bg->ab", H, w * density(r), H)
        idx = [2 * e, 2 * e + 1, 2 * e + 2, 2 * e + 3]
        S[np.ix_(idx, idx)] += Se
        Mm[np.ix_(idx, idx)] += Me

    if k == 0:
        drop = [1]
    elif k == 1:
        drop = [0]
    else:
        drop = [0, 1]
    keep = [i for i in range(ndof) if i not in drop]
    return S[np.ix_(keep, keep)], Mm[np.ix_(keep, keep)], keep


def exact_plate_modes(tau: float, eps: float, k: int, guesses, dps: int = 30) -> list[float]:
    """Eigenvalues of angular mode k of the two-level plate, one root of its exact determinant per guess.

    Reference for `concentration.merged_spectrum`, with no mesh.  On each level of
    the density rho (eps in the bulk r < r0 = 1 - eps, the `_density` collar value
    above it) the mode's ODE factors as (D_k - c1)(D_k - c2) f = 0, with
    D_k f = f'' + f'/r - k^2 f / r^2 and c1 > 0 > c2 the roots of
    c^2 - tau c - lambda rho = 0.  So f is a sum of I_k(sqrt(c1) r) and
    J_k(sqrt(-c2) r) in the bulk (the regular solutions), and of I_k, K_k, J_k and
    Y_k of the same arguments in the collar.  The six coefficients solve a 6 x 6
    system: f to f''' continuous at r0, and the free-edge conditions f''(1) = 0
    and (2 k^2 + tau + 1) f'(1) - 3 k^2 f(1) - f''(1) - f'''(1) = 0.  Its
    determinant, columns normalised, vanishes at the eigenvalues; `mp.findroot`
    starts from each guess at `dps` digits.  Radial derivatives come from the
    order recurrences 2 Z'_n = Z_(n-1) - Z_(n+1) for J and Y, I_(n-1) + I_(n+1)
    and -(K_(n-1) + K_(n+1)): mpmath's besselk ignores its `derivative` argument.
    """
    # per kind: the function, Z_(-n) = reflect^n Z_n, and 2 Z'_n = lo Z_(n-1) + hi Z_(n+1)
    kinds = {"I": (mp.besseli, 1, 1, 1), "K": (mp.besselk, 1, -1, -1),
             "J": (mp.besselj, -1, 1, -1), "Y": (mp.bessely, -1, 1, -1)}

    def derivatives(kind: str, a, r) -> list:
        """Z_k(a r) and its first three derivatives in r."""
        fn, reflect, lo, hi = kinds[kind]
        z = {n: fn(abs(n), a * r) * (reflect ** abs(n) if n < 0 else 1) for n in range(k - 3, k + 4)}
        out = []
        for m in range(4):
            out.append(a**m * z[k])
            z = {n: (lo * z[n - 1] + hi * z[n + 1]) / 2 for n in z if n - 1 in z and n + 1 in z}
        return out

    with mp.workdps(dps):
        tau_, r0 = mp.mpf(tau), 1 - mp.mpf(eps)
        levels = ((mp.mpf(eps), "IJ"), ((2 - eps * r0**2) / (1 - r0**2), "IKJY"))  # bulk, collar

        def determinant(lam):
            columns = []
            for rho, region in levels:
                root = mp.sqrt(tau_**2 + 4 * lam * rho)  # c1, c2 = (tau +- root) / 2
                for kind in region:
                    a = mp.sqrt((tau_ + root) / 2 if kind in "IK" else (root - tau_) / 2)
                    at_r0 = derivatives(kind, a, r0)
                    if region == "IJ":
                        columns.append(at_r0 + [0, 0])
                        continue
                    f, f1, f2, f3 = derivatives(kind, a, mp.mpf(1))
                    edge = (2 * k * k + tau_ + 1) * f1 - 3 * k * k * f - f2 - f3
                    columns.append([-x for x in at_r0] + [f2, edge])
            A = mp.matrix(columns).T
            for j in range(6):
                A[:, j] /= mp.norm(A[:, j])
            return mp.det(A)

        return [float(mp.findroot(determinant, mp.mpf(float(g)))) for g in guesses]


def lower_band(A: np.ndarray) -> np.ndarray:
    """Lower band of a mode matrix in the storage of `concentration._mode_matrices`.

    Shape (n, 4): row i holds A[i, i], A[i + 1, i], A[i + 2, i], A[i + 3, i], with
    zeros past the end of the matrix.
    """
    return np.stack([np.concatenate([np.diagonal(A, -d), np.zeros(d)]) for d in range(4)], axis=1)


def band_to_dense(B: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose lower band (see `lower_band`) is B."""
    n = len(B)
    A = np.zeros((n, n))
    for d in range(B.shape[1]):
        i = np.arange(n - d)
        A[i + d, i] = A[i, i + d] = B[: n - d, d]
    return A


def density_mass(density, eps: float) -> float:
    """Total mass of a two-level density with its jump at 1 - eps, exact for the two levels."""
    r_in = 1.0 - eps
    bulk, collar = density(np.array([0.0, 1.0]))
    return bulk * math.pi * r_in**2 + collar * math.pi * (1.0 - r_in**2)


def dense_pencil(S: np.ndarray, M: np.ndarray, count: int, deflate: np.ndarray | None):
    """The `count` smallest eigenvalues of S x = lambda M x from a dense shifted inverse.

    Reference for `concentration._solve_pencil`: with K = S + M = L L^T and
    M = R R^T, every eigenvalue mu = 1/(lambda + 1) of C = (L^-1 R)(L^-1 R)^T is
    computed by a full `eigh` and the largest are kept.  A known eigenvector with
    eigenvalue 0 is deflated through a Householder complement and an exact 0 is
    prepended.
    """
    prepend_zero = False
    if deflate is not None:
        u = M @ deflate
        u /= np.linalg.norm(u)
        v = u.copy()
        v[0] += math.copysign(1.0, u[0] if u[0] != 0.0 else 1.0)
        v /= np.linalg.norm(v)
        Z = (np.eye(len(u)) - 2.0 * np.outer(v, v))[:, 1:]
        S = Z.T @ S @ Z
        M = Z.T @ M @ Z
        S = 0.5 * (S + S.T)
        M = 0.5 * (M + M.T)
        prepend_zero = True
        count -= 1
    L = cholesky(S + M, lower=True)
    Y = solve_triangular(L, cholesky(M, lower=True), lower=True)
    C = Y @ Y.T
    mu = eigh(0.5 * (C + C.T), eigvals_only=True)
    lam = 1.0 / mu[::-1][:max(count, 0)] - 1.0
    return np.concatenate([[0.0], lam]) if prepend_zero else lam


def tracked_fd_derivative(
    domain,
    solution,
    basis,
    F: tuple[int, ...],
    s: int,
    field,
    steps: tuple[float, ...] = (1e-3, 5e-4),
) -> FDResult:
    """Central finite differences of e_s over the cluster F along the field, per step.

    Reference for `shape_calculus.fd_derivative`.  solution is the base domain's,
    solved with this basis; each perturbed domain is assembled on a rule at least as
    large as the base one, larger where its own modes need it (boundary_rule_size),
    and solved.  Eigenvalues of the perturbed domains are
    matched to the base cluster by index; if any tracked eigenvalue moves by more
    than 0.45 of the gap separating the cluster from its neighbors, tracking is
    ambiguous and NumericalError is raised.  The two smallest steps are
    Richardson-combined into the extrapolated estimate.
    """
    steps = tuple(float(t) for t in steps)
    if not steps or not all(math.isfinite(t) and t > 0.0 for t in steps):
        raise DomainValidationError(f"steps must be positive and finite, got {steps}")
    if len(set(steps)) != len(steps):
        raise DomainValidationError(f"steps must be distinct, got {steps}")
    steps = tuple(sorted(steps, reverse=True))
    F = tuple(sorted(F))
    tau, n_boundary = basis.tau, solution.boundary.quad.weights.size

    def eigs_of(dom: StarDomain) -> np.ndarray:
        n = max(n_boundary, boundary_rule_size(dom, basis))
        return solve(assemble(dom, tau, basis, n_boundary=n)).eigenvalues

    base = solution.eigenvalues
    if F[-1] >= len(base):
        raise DomainValidationError(f"F={F} needs more eigenvalues than computed ({len(base)})")
    cluster_vals = base[[j - 1 for j in F]]
    # admissible tracking radius: half the gap to the nearest eigenvalue outside F
    outside = [base[F[0] - 2]] if F[0] >= 2 else []
    outside.append(base[F[-1]])
    gap = min(abs(cluster_vals.mean() - o) for o in outside)

    estimates = []
    for t in steps:
        vals = {}
        for sign in (+1.0, -1.0):
            dom_t = realize_perturbation(domain, field, sign * t)
            ev = eigs_of(dom_t)
            moved = np.abs(ev[[j - 1 for j in F]] - cluster_vals)
            if moved.max() > 0.45 * gap:
                raise NumericalError(
                    f"eigenvalue tracking ambiguous at step {sign * t}: cluster moved "
                    f"{moved.max():.3e} against a separating gap of {gap:.3e}"
                )
            vals[sign] = symmetric_function(ev, F, s)
        estimates.append((vals[+1.0] - vals[-1.0]) / (2.0 * t))

    if len(steps) >= 2:
        t1, t2 = steps[-2], steps[-1]
        d1, d2 = estimates[-2], estimates[-1]
        extrapolated = (t1 * t1 * d2 - t2 * t2 * d1) / (t1 * t1 - t2 * t2)
    else:
        extrapolated = estimates[-1]
    return FDResult(steps=steps, estimates=tuple(estimates), extrapolated=extrapolated)


def assembled_fd_derivative(
    solution, F: tuple[int, ...], s: int, field, steps: tuple[float, ...] = (1e-3, 5e-4)
) -> FDResult:
    """Central differences of e_s over the cluster F from the full assembled pencils.

    Reference for `shape_calculus.fd_derivative`, which forms only the cluster's
    |F| x |F| forms on the solution's rule.  Here the domains realized at +t and -t
    are assembled in full, basis by basis, on one rule at least the solution's and
    large enough for either domain (boundary_rule_size), and the differences of
    their stiffness and mass are contracted with the cluster coefficients x_i:

        sum_i w_i x_i^T (dA - lambda_i dB) x_i / (2 t),

    with w_i = e_(s-1) of the other members of F.  The two smallest steps are
    Richardson-combined into the extrapolated estimate.
    """
    steps = tuple(sorted((float(t) for t in steps), reverse=True))
    F = tuple(sorted(F))
    ev = solution.boundary
    domain, basis, n_boundary = ev.domain, ev.basis, ev.quad.weights.size
    lam = solution.eigenvalues
    lam_of_f = lam[[j - 1 for j in F]]
    X = solution.coefficients[:, [j - 1 for j in F]]
    w = np.array([1.0 if s == 1 else symmetric_function(lam, tuple(k for k in F if k != j), s - 1)
                  for j in F])
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


def rayleigh_quotient(
    radial,
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


def center_boundary_centroid(domain: StarDomain, n_nodes: int = 1024) -> StarDomain:
    """Translate the domain so the arc-length centroid of its boundary sits at the origin.

    The translation subtracts the quadrature centroid exactly, so one application
    suffices at the resolution used.
    """
    bq = boundary_geometry(domain, n_nodes)
    length = bq.weights.sum()
    centroid = bq.weights @ bq.points / length
    return StarDomain(
        a0=domain.a0,
        cos_coeffs=domain.cos_coeffs,
        sin_coeffs=domain.sin_coeffs,
        center=(domain.center[0] - centroid[0], domain.center[1] - centroid[1]),
    )


def inverse_sum_bound(
    domain: StarDomain, tau: float, k_max: int = 10, n_nodes: int = 1024
) -> tuple[float, float, float]:
    """Check 1/lambda_2 + 1/lambda_3 against its boundary-moment lower bound.

    Returns (lhs, rhs, gap) with rhs the second boundary moment divided by tau
    times the area, and gap = lhs - rhs; the bound holds when gap >= 0, with
    equality on the disk.  Centroid centering is applied first, which makes the
    coordinate trial functions admissible.
    """
    dom = center_boundary_centroid(domain)
    sol = solve(assemble(dom, tau, make_trial_basis(k_max, tau)))
    lam2, lam3 = float(sol.eigenvalues[1]), float(sol.eigenvalues[2])
    lhs = 1.0 / lam2 + 1.0 / lam3
    bq = boundary_geometry(dom, n_nodes)
    moment = float(np.dot(bq.weights, np.einsum("nc,nc->n", bq.points, bq.points)))
    rhs = moment / (tau * area(dom))
    return lhs, rhs, lhs - rhs


def small_tau_limit(domain: StarDomain, n_nodes: int = 1024) -> tuple[float, float]:
    """Limits of lambda_2 / tau and lambda_3 / tau as tau -> 0: |Omega| / mu_max,min(M).

    An eigenfunction with lambda = O(tau) has D^2 u -> 0, so it tends to an affine
    function, b-orthogonal to the constants: u = b . (x - c) with c the boundary
    centroid, whose Rayleigh quotient is tau |Omega| |b|^2 / (b^T M b) with
    M = boundary integral of (x - c)(x - c)^T ds.  The affine functions are trial
    functions, so the computed lambda_2,3 / tau do not exceed these limits.
    """
    bq = boundary_geometry(domain, n_nodes)
    d = bq.points - bq.weights @ bq.points / bq.weights.sum()
    mu_min, mu_max = np.linalg.eigvalsh((d * bq.weights[:, None]).T @ d)
    return area(domain) / mu_max, area(domain) / mu_min


_WEIGHT_CATALOG = {
    "t": lambda t: t,
    "t2": lambda t: t**2,
    "t4": lambda t: t**4,
}


def weighted_boundary_inequality_check(
    domain: StarDomain, f: str = "t2", n_nodes: int = 1024
) -> tuple[float, float, bool]:
    """Check the moment inequality for f(|x|) against the equal-area disk.

    For the admissible increasing convex weights in the catalog (f = t, t^2, t^4),
    the boundary integral of f(|x|) on a centered star-shaped domain is at least
    its value on the disk of equal area, f(R) 2 pi R.  Returns (lhs, rhs, verdict)
    with verdict true when lhs >= rhs - 1e-9.
    """
    if f not in _WEIGHT_CATALOG:
        raise DomainValidationError(
            f"weight {f!r} not in the admissible catalog {sorted(_WEIGHT_CATALOG)}"
        )
    fn = _WEIGHT_CATALOG[f]
    dom = center_boundary_centroid(domain)
    bq = boundary_geometry(dom, n_nodes)
    lhs = float(np.dot(bq.weights, fn(np.hypot(bq.points[:, 0], bq.points[:, 1]))))
    R = math.sqrt(area(dom) / math.pi)
    rhs = fn(R) * 2.0 * math.pi * R
    return lhs, rhs, lhs >= rhs - 1e-9
