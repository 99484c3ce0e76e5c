"""Tests for the concentrated-mass plate problem and its Steklov limit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisteklov import (
    DomainValidationError,
    NumericalError,
    _util,
    convergence_sweep,
    make_radial_mesh,
    merged_spectrum,
    sorted_spectrum,
)
from bisteklov.concentration import _MASS, _density, _mesh_forms, _mode_matrices, _solve_pencil

from oracles import (
    band_to_dense,
    cartesian_energy_2d,
    dense_pencil,
    density_mass,
    elementwise_mode_matrices,
    exact_plate_modes,
    lower_band,
)

# lambda_2 .. lambda_17 per (tau, eps): roots of the exact determinant
# (`oracles.exact_plate_modes`, 30 digits) started from the 40/8 values
EXACT_PLATE = {
    (0.1, 0.2): (
        0.12686593737344765, 0.12686593737344765, 10.605666760506903, 10.605666760506903,
        49.19026030735232, 49.19026030735232, 124.44659678282785, 138.1017804231203,
        138.1017804231203, 304.2685970207782, 304.2685970207782, 579.4378958367329,
        579.4378958367329, 721.4269109202854, 721.4269109202854, 1000.2834255550254,
    ),
    (0.1, 0.05): (
        0.10638407510382188, 0.10638407510382188, 8.1362112934643, 8.1362112934643,
        35.21694109619606, 35.21694109619606, 93.21789581292967, 93.21789581292967,
        194.94981279639956, 194.94981279639956, 354.17688174782484, 354.17688174782484,
        434.2593939087146, 585.6189886920889, 585.6189886920889, 904.9541233963447,
    ),
    (0.1, 0.025): (
        0.10315905774070545, 0.10315905774070545, 7.7629614581682365, 7.7629614581682365,
        33.15004795716131, 33.15004795716131, 86.67451441544398, 86.67451441544398,
        179.1915413802944, 179.1915413802944, 322.014927042352, 322.014927042352,
        526.9185817075148, 526.9185817075148, 806.1363605855449, 806.1363605855449,
    ),
    (1.0, 0.2): (
        1.2654987927862333, 1.2654987927862333, 13.202192612647924, 13.202192612647924,
        53.56020688862058, 53.56020688862058, 144.56260656454577, 144.56260656454577,
        156.50838136431608, 313.14128032060944, 313.14128032060944, 591.0487794501254,
        591.0487794501254, 774.3373021430144, 774.3373021430144, 1014.9649704024038,
    ),
    (1.0, 0.05): (
        1.0636337775335436, 1.0636337775335436, 10.136449674215353, 10.136449674215353,
        38.355428069184974, 38.355428069184974, 97.58121657168729, 97.58121657168729,
        200.6181779592057, 200.6181779592057, 361.22668490548386, 361.22668490548386,
        546.1540190933085, 594.1243559579075, 594.1243559579075, 914.9878318366796,
    ),
    (1.0, 0.025): (
        1.0315387498322195, 1.0315387498322195, 9.670608243092802, 9.670608243092802,
        36.09909162703437, 36.09909162703437, 90.71749139734659, 90.71749139734659,
        184.3742023391162, 184.3742023391162, 328.3789731500817, 328.3789731500817,
        534.5032507555351, 534.5032507555351, 814.9793292706446, 814.9793292706446,
    ),
    (20.0, 0.2): (
        24.719536382916832, 24.719536382916832, 67.33334549898746, 67.33334549898746,
        145.09629429036056, 145.09629429036056, 280.2228988728865, 280.2228988728865,
        499.7220106798565, 499.7220106798565, 830.9015472254753, 835.4579022214693,
        835.4579022214693, 1324.2346486239653, 1324.2346486239653, 1873.821749809709,
    ),
    (20.0, 0.05): (
        21.22831321848622, 21.22831321848622, 52.300855359332026, 52.300855359332026,
        104.41081892128257, 104.41081892128257, 189.35354001556524, 189.35354001556524,
        319.8329657623276, 319.8329657623276, 509.52970314815985, 509.52970314815985,
        773.1066356476023, 773.1066356476023, 1126.2049120089096, 1126.2049120089096,
    ),
    (20.0, 0.025): (
        20.619364403290685, 20.619364403290685, 49.85903104249241, 49.85903104249241,
        98.0818990714631, 98.0818990714631, 175.621922932122, 175.621922932122,
        293.21416664671614, 293.21416664671614, 462.07795387447305, 462.07795387447305,
        693.9217092671308, 693.9217092671308, 1000.9351009253593, 1000.9351009253593,
    ),
}

# largest relative errors of the 40/8 mesh against EXACT_PLATE, about twice those
# measured: (lambda_2 and lambda_3, lambda_4 .. lambda_17).  The first pair at
# tau <= 1, eps <= 0.05 carries the pencil's roundoff (ROADMAP item 15): moving the
# nodes by 2 ulp moves its error by up to 4.8e-6, so it gets at least 1e-6
DEFAULT_MESH_RTOL = {
    (0.1, 0.2): (1e-6, 2.3e-6), (0.1, 0.05): (2e-6, 8e-8), (0.1, 0.025): (1e-5, 1.5e-7),
    (1.0, 0.2): (1e-6, 2.4e-6), (1.0, 0.05): (1e-6, 8e-8), (1.0, 0.025): (1.5e-6, 1.5e-7),
    (20.0, 0.2): (1e-6, 6e-6), (20.0, 0.05): (1e-6, 8e-8), (20.0, 0.025): (1e-6, 7e-8),
}

# second eigenvalues at tau = 1, M = 2 pi: roots of the exact determinant
LAMBDA2_CONVERGED = {0.1: 1.1293445376} | {eps: EXACT_PLATE[1.0, eps][0] for eps in (0.2, 0.05, 0.025)}


def _constrained(k, full):
    """The entries of a vector over all mesh DOFs that mode k keeps at the center.

    Center regularity drops f'(0) (DOF 1) for k = 0, f(0) (DOF 0) for k = 1, both
    for k >= 2.
    """
    return np.delete(full, {0: [1], 1: [0]}.get(k, [0, 1]))


def _oracle_kernel(k, nodes):
    """The kernel vector `oracles.dense_pencil` deflates for mode k: the constant for k = 0."""
    if k:
        return None
    full = np.zeros(2 * len(nodes))
    full[0::2] = 1.0  # value 1, slope 0 at every node
    return _constrained(0, full)


def _mode_eigenvalues(k, tau, density, nodes, count=6):
    """Lowest eigenvalues of angular mode k alone, solved as a stack of one mode."""
    S, M = _mode_matrices(k, tau, _mesh_forms(density, nodes))
    return _solve_pencil(S[None], M[None], count, [k == 0])[0]


class TestDensity:
    def test_mass_is_exact(self):
        for eps in (0.2, 0.05, 0.4):
            assert density_mass(_density(eps), eps) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_collar_dominates_for_small_eps(self):
        bulk, collar = _density(0.05)(np.array([0.0, 1.0]))
        assert collar > 10.0 * bulk

    def test_piecewise_values(self):
        v = _density(0.2)(np.array([0.0, 0.5, 0.79, 0.81, 1.0]))
        assert np.all(v[:3] == 0.2)
        assert np.all(v[3:] == v[-1])
        assert v[-1] > 1.0


class TestRadialMesh:
    def test_structure(self):
        nodes = make_radial_mesh(0.2, n_bulk=40, n_collar=8)
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0.0)
        assert np.any(nodes == 1.0 - 0.2)
        assert len(nodes) - 1 == 48
        assert np.count_nonzero(nodes > 1.0 - 0.2) == 8

    def test_bulk_grades_toward_interface(self):
        nodes = make_radial_mesh(0.1, n_bulk=40, n_collar=8)
        bulk_sizes = np.diff(nodes[:41])
        # elements shrink monotonically while approaching the collar, by q (1 + ln q)
        # in all, q = 1.8 the uniform bulk element size over the collar's
        assert np.all(np.diff(bulk_sizes) < 0.0)
        assert bulk_sizes[0] / bulk_sizes[-1] == pytest.approx(1.8 * (1.0 + math.log(1.8)), rel=1e-12)
        h_c = 0.1 / 8
        assert bulk_sizes[-1] == pytest.approx(h_c, rel=0.05)
        assert np.allclose(np.diff(nodes[40:]), 0.1 / 8, rtol=1e-12, atol=0)

    def test_uniform_fallback(self):
        # collar elements no finer than a uniform bulk's, or a single bulk element:
        # nothing to grade, so the bulk is the uniform one
        for eps, n_bulk, n_collar in ((0.8, 2, 2), (0.2, 40, 8), (0.01, 1, 8)):
            nodes = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=n_collar)
            assert np.array_equal(nodes[:n_bulk + 1], np.linspace(0.0, 1.0 - eps, n_bulk + 1))

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            make_radial_mesh(0.0)
        with pytest.raises(DomainValidationError):
            make_radial_mesh(0.2, n_bulk=0)

    @pytest.mark.parametrize("eps,n_bulk", [(0.025, 103), (1e-3, 500), (1e-4, 5000)])
    def test_many_bulk_elements(self, eps, n_bulk):
        # however many elements, the sizes fall monotonically by q (1 + ln q), to
        # about the collar element size
        nodes = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=8)
        bulk_sizes = np.diff(nodes[: n_bulk + 1])
        assert np.all(np.diff(bulk_sizes) < 0.0)
        q = (1.0 - eps) * 8 / (eps * n_bulk)
        assert bulk_sizes[0] / bulk_sizes[-1] == pytest.approx(q * (1.0 + math.log(q)), rel=1e-9)
        assert bulk_sizes[-1] == pytest.approx(eps / 8, rel=0.15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=0.99),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=1000),
    )
    @example(0.125, 2, 144)  # collar elements 504 times finer than a uniform bulk's
    @example(0.11818181818181815, 97, 13)  # q just above 1: a barely graded bulk
    @example(0.9970089730807575, 3, 1000)  # the same, with few bulk elements
    @example(1e-6, 5000, 1000)  # bulk sizes falling by q (1 + ln q) = 2.6e6
    def test_nodes_or_clean_refusal(self, eps, n_bulk, n_collar):
        try:
            nodes = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=n_collar)
        except DomainValidationError:
            return
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0.0)
        assert np.any(nodes == 1.0 - eps)


class TestModeAssembly:
    def test_constant_spans_the_kernel(self):
        density = _density(0.1)
        nodes = make_radial_mesh(0.1)
        bands = _mode_matrices(0, 1.0, _mesh_forms(density, nodes))
        S, M = map(band_to_dense, bands)
        c = _oracle_kernel(0, nodes)
        assert np.abs(S @ c).max() <= 1e-12 * np.abs(S).max()
        assert c @ M @ c == pytest.approx(_MASS / (2.0 * math.pi), rel=1e-12)

    @pytest.mark.parametrize(
        "k,coeffs",
        [
            (0, (1.0, 0.0, 1.0, -0.2)),  # f = 1 + r^2 - 0.2 r^3, f'(0) = 0
            (1, (0.0, 1.0, 0.0, 0.5)),  # f = r + 0.5 r^3, f(0) = 0
            (2, (0.0, 0.0, 1.0, 0.3)),  # f = r^2 + 0.3 r^3, f(0) = f'(0) = 0
        ],
    )
    def test_energy_matches_cartesian_oracle(self, k, coeffs):
        # cubic test functions are represented exactly by the Hermite elements,
        # so the radial quadratic form must match the full 2-D energy integral
        c0, c1, c2, c3 = coeffs

        def f(r):
            return c0 + c1 * r + c2 * r**2 + c3 * r**3

        def fp(r):
            return c1 + 2 * c2 * r + 3 * c3 * r**2

        def fpp(r):
            return 2 * c2 + 6 * c3 * r

        tau = 1.3
        density = _density(0.3)
        nodes = make_radial_mesh(0.3, n_bulk=20, n_collar=6)
        S, _ = _mode_matrices(k, tau, _mesh_forms(density, nodes))
        full = np.zeros(2 * len(nodes))
        full[0::2] = f(nodes)
        full[1::2] = fp(nodes)
        x = _constrained(k, full)
        angular = 2.0 * math.pi if k == 0 else math.pi
        got = angular * float(x @ band_to_dense(S) @ x)
        want = cartesian_energy_2d(f, fp, fpp, k, tau, n_r=240, n_t=512)
        assert got == pytest.approx(want, rel=1e-9)


# bulk/collar element counts of the plate sweeps; defect (b) spoils the 40/200
# eigenvalues, but they must not change either
ORACLE_MESHES = [(40, 8), (40, 40), (100, 100), (40, 200)]


class TestElementwiseOracle:
    """The all-elements assembly must reproduce the element-by-element one bit for bit."""

    @pytest.mark.parametrize("eps", [0.2, 0.025])
    @pytest.mark.parametrize("n_bulk,n_collar", ORACLE_MESHES)
    def test_mode_matrices_identical(self, eps, n_bulk, n_collar):
        density = _density(eps)
        nodes = make_radial_mesh(eps, n_bulk, n_collar)
        forms = _mesh_forms(density, nodes)
        for tau in (0.1, 1.0, 20.0):
            for k in range(9):
                S, M = _mode_matrices(k, tau, forms)
                S_ref, M_ref, _ = elementwise_mode_matrices(k, tau, density, nodes)
                assert np.array_equal(S, lower_band(S_ref)), (tau, k)
                assert np.array_equal(M, lower_band(M_ref)), (tau, k)

    @pytest.mark.parametrize(
        "n_bulk,n_collar,tau",
        [(40, 8, 0.1), (40, 8, 1.0), (40, 8, 20.0), (40, 40, 0.1), (40, 40, 20.0),
         (100, 100, 1.0), (40, 200, 1.0)],
    )
    def test_merged_spectrum_identical(self, n_bulk, n_collar, tau):
        # reference sweep: oracle matrices, one pencil solve per mode
        density = _density(0.025)
        nodes = make_radial_mesh(0.025, n_bulk, n_collar)
        want = []
        for k in range(9):
            S, M, _ = elementwise_mode_matrices(k, tau, density, nodes)
            ev = _solve_pencil(lower_band(S)[None], lower_band(M)[None], 6, [k == 0])[0]
            want.extend([float(v) for v in ev] * (1 if k == 0 else 2))
        want.sort()
        assert np.array_equal(merged_spectrum(tau, 0.025, 6, n_bulk, n_collar), want[:6])


class TestPencil:
    """The banded Lanczos pencil against the dense one it replaced (`oracles.dense_pencil`)."""

    @staticmethod
    def _both(n_bulk, n_collar, eps, tau, k, count=6):
        density = _density(eps)
        nodes = make_radial_mesh(eps, n_bulk, n_collar)
        S, M = _mode_matrices(k, tau, _mesh_forms(density, nodes))
        return (_solve_pencil(S[None], M[None], count, [k == 0])[0],
                dense_pencil(band_to_dense(S), band_to_dense(M), count, _oracle_kernel(k, nodes)))

    @pytest.mark.parametrize("eps", [0.2, 0.025])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    def test_matches_dense_oracle(self, eps, tau):
        for k in range(9):
            got, want = self._both(40, 8, eps, tau, k)
            assert len(got) == len(want) == 6
            if k == 0:
                assert got[0] == want[0] == 0.0
            assert np.allclose(got, want, rtol=1e-7, atol=0), (k, got, want)

    @pytest.mark.parametrize("n_bulk,n_collar", [(1, 1), (2, 2)])
    @pytest.mark.parametrize("count", [6, 30])
    def test_tiny_meshes(self, n_bulk, n_collar, count):
        # 3 to 9 DOFs: Lanczos runs until the Krylov space is exhausted, and
        # every eigenvalue the mesh has is returned when more are asked for
        for k in range(9):
            got, want = self._both(n_bulk, n_collar, 0.2, 1.0, k, count)
            assert len(got) == len(want), k
            if k == 0:
                assert got[0] == 0.0
            assert np.allclose(got, want, rtol=1e-9, atol=0), (k, got, want)

    @pytest.mark.parametrize(
        "n_bulk,n_collar,eps,count",
        [(40, 8, 0.025, 6), (100, 100, 0.025, 6), (1, 1, 0.2, 30), (2, 2, 0.2, 30),
         (40, 8, 0.1, 17)],
    )
    @pytest.mark.parametrize("modes", [range(9), [8, 3, 0, 5], range(2, 9)])
    def test_stacked_modes_match_each_alone(self, n_bulk, n_collar, eps, count, modes):
        # one stacked solve gives every mode the bits it gets solved alone.  k <= 1
        # modes have one more DOF than k >= 2, which are padded to their length;
        # the tiny meshes exhaust their Krylov spaces before count values exist, and
        # at 40/8, eps 0.1 seven modes freeze at step 39 and two at 43, the frozen
        # ones riding along while the rest iterate
        density = _density(eps)
        nodes = make_radial_mesh(eps, n_bulk, n_collar)
        forms = _mesh_forms(density, nodes)
        bands = [_mode_matrices(k, 1.0, forms) for k in modes]
        S, M = np.zeros((2, len(bands), max(len(Sk) for Sk, _ in bands), 4))
        S[:, :, 0] = 1.0  # decoupled pads: S = 1, M = 0
        for Si, Mi, (Sk, Mk) in zip(S, M, bands):
            Si[:len(Sk)], Mi[:len(Mk)] = Sk, Mk
        stacked = _solve_pencil(S, M, count, [k == 0 for k in modes])
        assert len(stacked) == len(bands)
        for k, (Sk, Mk), got in zip(modes, bands, stacked):
            alone = _solve_pencil(Sk[None], Mk[None], count, [k == 0])[0]
            assert len(alone) == min(count, len(Sk)), k
            assert np.array_equal(got, alone), k

    def test_no_less_accurate_than_dense_oracle(self):
        # against a 40-digit eigen-solve of the same float S and M.  Both pencils
        # carry the conditioning error of defect (b) in a mode's leading values
        # (up to 4e-7 here); the rest agree with the reference to roundoff, whose
        # size varies from solve to solve, so each mode is judged by its largest
        # error.  n is 56-57: the reference takes about 1.4 s per mode
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        density = _density(0.025)
        nodes = make_radial_mesh(0.025, 20, 8)
        forms = _mesh_forms(density, nodes)
        for k in range(3):
            S, M = _mode_matrices(k, 1.0, forms)
            Sd, Md = band_to_dense(S), band_to_dense(M)
            Ri = mp.inverse(mp.cholesky(mp.matrix(Md.tolist())))
            A = Ri * mp.matrix(Sd.tolist()) * Ri.T
            ref = sorted(mp.eigsy((A + A.T) / 2, eigvals_only=True))[:6]
            ref = np.array([float(x) for x in ref])
            errors = []
            for ev in (_solve_pencil(S[None], M[None], 6, [k == 0])[0],
                       dense_pencil(Sd, Md, 6, _oracle_kernel(k, nodes))):
                skip = 1 if k == 0 else 0  # the exact 0 against a roundoff-sized reference
                errors.append(np.max(np.abs(ev[skip:] - ref[skip:]) / ref[skip:]))
            assert errors[0] <= 2.0 * errors[1], (k, errors)


def _stacked_band(n_bulk, n_collar, eps, tau=1.0):
    """S + M of all nine modes stacked as `merged_spectrum` stacks them, as one (n, 4) lower band."""
    forms = _mesh_forms(_density(eps), make_radial_mesh(eps, n_bulk, n_collar))
    bands = [_mode_matrices(k, tau, forms) for k in range(9)]
    K = np.zeros((9, len(bands[0][0]), 4))
    K[:, :, 0] = 1.0  # decoupled pads: S = 1, M = 0
    for Ki, (Sk, Mk) in zip(K, bands):
        Ki[:len(Sk)] = Sk + Mk
    return K.reshape(-1, 4)


class TestBandLapack:
    """dpbtrf and dtbtrs from numpy's OpenBLAS, and scipy's in their place where it has none."""

    @pytest.mark.parametrize("n_bulk,n_collar", [(40, 8), (100, 100)])
    def test_binding_matches_scipy(self, n_bulk, n_collar):
        from scipy.linalg import cholesky_banded
        from scipy.linalg.lapack import dtbtrs

        if _util._banded_lapack() is None:
            pytest.skip("numpy's BLAS exports no 64-bit integer dpbtrf and dtbtrs")
        K = _stacked_band(n_bulk, n_collar, 0.2)
        want = cholesky_banded(K.T, lower=True).T
        L, solve = _util.cholesky_band(K.copy())
        assert np.array_equal(L, want)
        b = np.random.default_rng(1).standard_normal(len(K))
        b0 = b.copy()
        for trans in "NT":
            x = solve(b, trans)
            assert np.array_equal(x, dtbtrs(want.T, b0[:, None], uplo="L", trans=trans)[0][:, 0])
            assert np.array_equal(b, b0)

    def test_scipy_fallback_gives_the_same_bits(self, monkeypatch):
        cases = [(tau, eps, mesh) for tau in (0.1, 1.0, 20.0) for eps in (0.2, 0.025)
                 for mesh in ((40, 8), (100, 100))]
        default = [merged_spectrum(tau, eps, 17, *mesh) for tau, eps, mesh in cases]
        monkeypatch.setattr(_util, "_banded_lapack", lambda: None)
        for (tau, eps, mesh), want in zip(cases, default):
            assert np.array_equal(merged_spectrum(tau, eps, 17, *mesh), want), (tau, eps, mesh)

    @pytest.mark.parametrize("fallback", [False, True])
    def test_failed_factor_raises(self, monkeypatch, fallback):
        # defect (b): the k = 0 block of S + M on 100/400 at eps = 0.025
        if fallback:
            monkeypatch.setattr(_util, "_banded_lapack", lambda: None)
        with pytest.raises(NumericalError, match=r"^pencil factorization failed: "
                                                 r"\d+-th leading minor not positive definite$"):
            merged_spectrum(1.0, 0.025, 2, 100, 400)


class TestModeEigenvalues:
    def test_uniform_density_reference(self):
        # rho = 2 everywhere, k = 1: frozen value from a polynomial Galerkin method
        nodes = make_radial_mesh(0.5, n_bulk=40, n_collar=20)
        ev = _mode_eigenvalues(1, 1.0, lambda r: np.full_like(r, 2.0), nodes, count=2)
        assert ev[0] == pytest.approx(1.97650753, abs=1e-6)

    def test_axisymmetric_leading_eigenvalue_is_exactly_zero(self):
        density = _density(0.1)
        nodes = make_radial_mesh(0.1)
        ev = _mode_eigenvalues(0, 1.0, density, nodes, count=4)
        assert ev[0] == 0.0
        assert ev[1] > 1.0

    def test_converged_second_eigenvalues(self):
        for eps, want in LAMBDA2_CONVERGED.items():
            spec = merged_spectrum(1.0, eps, 2)
            assert spec[1] == pytest.approx(want, abs=5e-6), eps

    def test_mesh_halving_stability(self):
        a = merged_spectrum(1.0, 0.05, 2, 40, 8)[1]
        b = merged_spectrum(1.0, 0.05, 2, 80, 16)[1]
        assert abs(a - b) < 1e-6

    def test_coarse_collar_warns(self):
        with pytest.warns(UserWarning, match="only 2 elements") as record_merged:
            merged_spectrum(1.0, 0.2, 2, n_bulk=10, n_collar=2)
        # attributed to the caller, not to the module
        assert record_merged[0].filename == __file__


class TestExactModes:
    """The element spectrum against the exact modes of the two-level plate, which need no mesh."""

    @pytest.mark.parametrize("tau,eps", list(EXACT_PLATE))
    def test_default_mesh_matches_exact_modes(self, tau, eps):
        spec = merged_spectrum(tau, eps, 17)
        assert spec[0] == 0.0
        err = np.abs(spec[1:] / EXACT_PLATE[tau, eps] - 1.0)
        first_pair, rest = DEFAULT_MESH_RTOL[tau, eps]
        assert err[:2].max() <= first_pair, err[:2]
        assert err[2:].max() <= rest, err[2:]

    @pytest.mark.parametrize("tau,eps,j,k", [(1.0, 0.025, 2, 1), (0.1, 0.025, 2, 1), (20.0, 0.05, 4, 2)])
    def test_oracle_reproduces_the_constants(self, tau, eps, j, k):
        # lambda_j is the lowest value of mode k; about 1 s per root at 20 digits
        guess = merged_spectrum(tau, eps, j)[j - 1]
        want = EXACT_PLATE[tau, eps][j - 2]
        assert exact_plate_modes(tau, eps, k, [guess], dps=20) == pytest.approx([want], rel=1e-13, abs=0)


class TestMergedSpectrum:
    def test_nonaxisymmetric_modes_come_in_pairs(self):
        spec = merged_spectrum(1.0, 0.2, 5)
        assert spec[0] == 0.0
        assert spec[1] == spec[2]  # k = 1 pair, duplicated exactly
        assert np.all(np.diff(spec) >= 0.0)

    def test_matches_per_mode_union(self):
        density = _density(0.2)
        nodes = make_radial_mesh(0.2)
        vals = []
        for k in range(9):
            ev = _mode_eigenvalues(k, 1.0, density, nodes, count=6)
            vals.extend([float(v) for v in ev] * (1 if k == 0 else 2))
        vals.sort()
        spec = merged_spectrum(1.0, 0.2, 6)
        assert np.allclose(spec, vals[:6], rtol=0, atol=0)

    def test_insufficient_modes_detected(self):
        # modes 0..8 of the 1/1 mesh hold 5 + 2 * 5 + 7 * 2 * 4 = 71 values
        with pytest.warns(UserWarning):  # deliberately tiny mesh
            with pytest.raises(NumericalError):
                merged_spectrum(1.0, 0.2, 72, n_bulk=1, n_collar=1)

    @pytest.mark.parametrize("tau,j_max", [(1e-9, 3), (1e-300, 2)])
    def test_negative_eigenvalue_refused(self, tau, j_max):
        # S >= 0, so no plate eigenvalue is negative; at these tau the pencil's
        # roundoff once printed lambda_1 = lambda_2 = -1.7e-10 and -7.7e-10
        with pytest.raises(NumericalError, match="< 0"):
            merged_spectrum(tau, 0.2, j_max)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    def test_lowest_eigenvalue_is_the_exact_zero(self, tau):
        for eps in (0.2, 0.025):
            assert merged_spectrum(tau, eps, 17)[0] == 0.0

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            merged_spectrum(1.0, 0.2, 0)
        for eps in (0.0, 1.0, 1e-300):  # no collar width, no bulk, a collar below 1's ulp
            with pytest.raises(DomainValidationError, match="eps"):
                merged_spectrum(1.0, eps, 2)


class TestConvergenceSweep:
    @pytest.mark.parametrize("tau", [1.0, 5.0])
    def test_errors_decrease(self, tau):
        rows = convergence_sweep(tau, (0.2, 0.1, 0.05), (2,))
        assert len(rows) == 3
        errors = [r.abs_error for r in rows]
        assert errors[0] > errors[1] > errors[2]
        for r in rows:
            assert r.lambda_limit == pytest.approx(tau, rel=1e-12)
            assert r.j == 2

    def test_row_contents(self):
        rows = convergence_sweep(1.0, (0.2, 0.1), (1, 2))
        assert [(r.eps, r.j) for r in rows] == [(0.2, 1), (0.2, 2), (0.1, 1), (0.1, 2)]
        for r in rows:
            if r.j == 1:
                assert r.lambda_limit == 0.0
                assert abs(r.lambda_eps) < 1e-8

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            convergence_sweep(1.0, (0.1, 0.2), (2,))
        with pytest.raises(DomainValidationError):
            convergence_sweep(1.0, (0.2, 0.1), (0,))
        with pytest.raises(DomainValidationError):
            convergence_sweep(1.0, (0.2, 0.1), ())

    def test_limits_within_mode_cap(self):
        # the limits up to index 17 have angular orders 0..8, index 18 has order 9
        rows = convergence_sweep(1.0, (0.2,), (17,))
        assert rows[0].lambda_limit == pytest.approx(sorted_spectrum(2, 1.0, 17).eigenvalue(17))
        with pytest.raises(DomainValidationError, match="angular order 9"):
            convergence_sweep(1.0, (0.2,), (18,))
