"""Tests for the concentrated-mass plate problem and its Steklov limit."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisteklov import (
    DensityProfile,
    DomainValidationError,
    NumericalError,
    RadialMesh,
    convergence_sweep,
    make_radial_mesh,
    merged_spectrum,
    sorted_spectrum,
)
from bisteklov.concentration import _MASS, _mesh_forms, _mode_matrices, _solve_pencil

from oracles import (
    band_to_dense,
    brentq_mesh_nodes,
    cartesian_energy_2d,
    dense_pencil,
    elementwise_mode_matrices,
    lower_band,
    profile_mass,
)

# converged second eigenvalues at tau = 1, M = 2 pi, obtained from mesh sequences
# refined well past the default resolution
LAMBDA2_CONVERGED = {
    0.2: 1.2654987952,
    0.1: 1.1293445393,
    0.05: 1.0636337793,
    0.025: 1.0315387513,
}


def _constrained(k, full):
    """The entries of a vector over all mesh DOFs that mode k keeps at the center.

    Center regularity drops f'(0) (DOF 1) for k = 0, f(0) (DOF 0) for k = 1, both
    for k >= 2.
    """
    return np.delete(full, {0: [1], 1: [0]}.get(k, [0, 1]))


def _deflation(k, mesh):
    """The deflation vector mode k is solved with: the constant for k = 0."""
    if k:
        return None
    full = np.zeros(2 * len(mesh.nodes))
    full[0::2] = 1.0  # value 1, slope 0 at every node
    return _constrained(0, full)


def _mode_eigenvalues(k, tau, profile, mesh, count=6):
    """Lowest eigenvalues of angular mode k alone, solved as a stack of one mode."""
    S, M = _mode_matrices(k, tau, _mesh_forms(profile, mesh))
    return _solve_pencil(S[None], M[None], count, [_deflation(k, mesh)])[0]


class ConstantDensity:
    """Uniform-density stand-in satisfying the profile interface."""

    def __init__(self, eps: float, value: float):
        self.eps = eps
        self._value = value

    def value(self, r):
        return np.full_like(np.asarray(r, dtype=float), self._value)


class TestDensityProfile:
    def test_mass_is_exact(self):
        for eps in (0.2, 0.05, 0.4):
            p = DensityProfile(eps)
            assert profile_mass(p) == pytest.approx(2.0 * math.pi, rel=1e-12)

    def test_collar_dominates_for_small_eps(self):
        p = DensityProfile(0.05)
        assert p.collar_value > 10.0 * p.bulk_value

    def test_piecewise_values(self):
        p = DensityProfile(0.2)
        r = np.array([0.0, 0.5, 0.79, 0.81, 1.0])
        v = p.value(r)
        assert np.all(v[:3] == p.bulk_value)
        assert np.all(v[3:] == p.collar_value)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            DensityProfile(0.0)
        with pytest.raises(DomainValidationError):
            DensityProfile(1.0)


class TestRadialMesh:
    def test_structure(self):
        mesh = make_radial_mesh(0.2, n_bulk=40, n_collar=8)
        nodes = mesh.nodes
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0.0)
        assert np.any(nodes == 1.0 - 0.2)
        assert len(nodes) - 1 == 48
        assert mesh.n_collar_elements == 8

    def test_bulk_grades_toward_interface(self):
        mesh = make_radial_mesh(0.1, n_bulk=40, n_collar=8)
        bulk_sizes = np.diff(mesh.nodes[:41])
        # elements shrink monotonically while approaching the collar
        assert np.all(np.diff(bulk_sizes) < 0.0)
        h_c = 0.1 / 8
        assert bulk_sizes[-1] == pytest.approx(h_c, rel=0.05)

    def test_uniform_fallback(self):
        # coarse collar: a geometric bulk would overshoot, so it stays uniform
        mesh = make_radial_mesh(0.8, n_bulk=2, n_collar=2)
        bulk_sizes = np.diff(mesh.nodes[:3])
        assert bulk_sizes[0] == pytest.approx(bulk_sizes[1], rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            make_radial_mesh(0.0)
        with pytest.raises(DomainValidationError):
            make_radial_mesh(0.2, n_bulk=0)

    @pytest.mark.parametrize("eps,n_bulk", [(0.025, 103), (1e-3, 500), (1e-4, 5000)])
    def test_many_bulk_elements(self, eps, n_bulk):
        # the growth-ratio bracket once reached g**n_bulk = 1e3**n_bulk, which
        # overflows a float beyond about 102 elements
        mesh = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=8)
        bulk_sizes = np.diff(mesh.nodes[: n_bulk + 1])
        assert np.all(np.diff(bulk_sizes) < 0.0)
        assert bulk_sizes[-1] == pytest.approx(eps / 8, rel=1e-6)

    @pytest.mark.parametrize("n_bulk", [2, 3, 7, 40, 101, 200])
    def test_nodes_match_brentq(self, n_bulk):
        # the growth ratio comes from a port of Brent's method, which must give
        # scipy's brentq nodes to the last bit: moving them by 6e-13 once moved
        # lambda_2 on the 80/16 mesh by 8e-7
        for eps in np.geomspace(1e-4, 0.9, 25):
            for n_collar in (1, 2, 5, 8, 16, 40, 144, 400):
                want = brentq_mesh_nodes(eps, n_bulk, n_collar)
                assert np.array_equal(make_radial_mesh(eps, n_bulk, n_collar).nodes, want)

    def test_nodes_match_brentq_beyond_growth_cap(self):
        # a growth ratio above 1e3 takes the bracket from the largest element size
        eps, n_bulk, n_collar = 0.125, 2, 144
        h_c = eps / n_collar
        assert h_c * (1e3**n_bulk - 1.0) / (1e3 - 1.0) < 1.0 - eps  # the fallback bracket
        nodes = make_radial_mesh(eps, n_bulk, n_collar).nodes
        assert np.array_equal(nodes, brentq_mesh_nodes(eps, n_bulk, n_collar))
        assert nodes[1] / (nodes[2] - nodes[1]) > 1e3

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=1e-6, max_value=0.99),
        st.integers(min_value=1, max_value=5000),
        st.integers(min_value=1, max_value=1000),
    )
    @example(0.125, 2, 144)  # growth ratio above 1e3
    @example(0.11818181818181815, 97, 13)  # just short of uniform: total is noise near 1
    @example(0.9970089730807575, 3, 1000)  # the same, with few bulk elements
    def test_nodes_or_clean_refusal(self, eps, n_bulk, n_collar):
        try:
            nodes = make_radial_mesh(eps, n_bulk=n_bulk, n_collar=n_collar).nodes
        except DomainValidationError:
            return
        assert nodes[0] == 0.0
        assert nodes[-1] == 1.0
        assert np.all(np.diff(nodes) > 0.0)
        assert np.any(nodes == 1.0 - eps)


class TestModeAssembly:
    def test_constant_spans_the_kernel(self):
        profile = DensityProfile(0.1)
        mesh = make_radial_mesh(0.1)
        bands = _mode_matrices(0, 1.0, _mesh_forms(profile, mesh))
        S, M = map(band_to_dense, bands)
        c = _deflation(0, mesh)
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
        profile = DensityProfile(0.3)
        mesh = make_radial_mesh(0.3, n_bulk=20, n_collar=6)
        S, _ = _mode_matrices(k, tau, _mesh_forms(profile, mesh))
        full = np.zeros(2 * len(mesh.nodes))
        full[0::2] = f(mesh.nodes)
        full[1::2] = fp(mesh.nodes)
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
        profile = DensityProfile(eps)
        mesh = make_radial_mesh(eps, n_bulk, n_collar)
        forms = _mesh_forms(profile, mesh)
        for tau in (0.1, 1.0, 20.0):
            for k in range(9):
                S, M = _mode_matrices(k, tau, forms)
                S_ref, M_ref, _ = elementwise_mode_matrices(k, tau, profile, mesh)
                assert np.array_equal(S, lower_band(S_ref)), (tau, k)
                assert np.array_equal(M, lower_band(M_ref)), (tau, k)

    @pytest.mark.parametrize(
        "n_bulk,n_collar,tau",
        [(40, 8, 0.1), (40, 8, 1.0), (40, 8, 20.0), (40, 40, 0.1), (40, 40, 20.0),
         (100, 100, 1.0), (40, 200, 1.0)],
    )
    def test_merged_spectrum_identical(self, n_bulk, n_collar, tau):
        # reference sweep: oracle matrices, one pencil solve per mode
        profile = DensityProfile(0.025)
        mesh = make_radial_mesh(0.025, n_bulk, n_collar)
        want = []
        for k in range(9):
            S, M, keep = elementwise_mode_matrices(k, tau, profile, mesh)
            deflate = np.asarray([1.0 if i % 2 == 0 else 0.0 for i in keep]) if k == 0 else None
            ev = _solve_pencil(lower_band(S)[None], lower_band(M)[None], 6, [deflate])[0]
            want.extend([float(v) for v in ev] * (1 if k == 0 else 2))
        want.sort()
        assert np.array_equal(merged_spectrum(tau, mesh, 6), want[:6])


class TestPencil:
    """The banded Lanczos pencil against the dense one it replaced (`oracles.dense_pencil`)."""

    @staticmethod
    def _both(n_bulk, n_collar, eps, tau, k, count=6):
        profile = DensityProfile(eps)
        mesh = make_radial_mesh(eps, n_bulk, n_collar)
        S, M = _mode_matrices(k, tau, _mesh_forms(profile, mesh))
        deflate = _deflation(k, mesh)
        return (_solve_pencil(S[None], M[None], count, [deflate])[0],
                dense_pencil(band_to_dense(S), band_to_dense(M), count, deflate))

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
        [(40, 8, 0.025, 6), (100, 100, 0.025, 6), (1, 1, 0.2, 30), (2, 2, 0.2, 30)],
    )
    @pytest.mark.parametrize("modes", [range(9), [8, 3, 0, 5], range(2, 9)])
    def test_stacked_modes_match_each_alone(self, n_bulk, n_collar, eps, count, modes):
        # one stacked solve gives every mode the bits it gets solved alone.  k <= 1
        # modes have one more DOF than k >= 2, which are padded to their length;
        # the tiny meshes exhaust their Krylov spaces before count values exist
        profile = DensityProfile(eps)
        mesh = make_radial_mesh(eps, n_bulk, n_collar)
        forms = _mesh_forms(profile, mesh)
        bands = [_mode_matrices(k, 1.0, forms) for k in modes]
        S, M = np.zeros((2, len(bands), max(len(Sk) for Sk, _ in bands), 4))
        S[:, :, 0] = 1.0  # decoupled pads: S = 1, M = 0
        for Si, Mi, (Sk, Mk) in zip(S, M, bands):
            Si[:len(Sk)], Mi[:len(Mk)] = Sk, Mk
        deflate = [_deflation(k, mesh) for k in modes]
        stacked = _solve_pencil(S, M, count, deflate)
        assert len(stacked) == len(bands)
        for k, (Sk, Mk), c, got in zip(modes, bands, deflate, stacked):
            alone = _solve_pencil(Sk[None], Mk[None], count, [c])[0]
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
        profile = DensityProfile(0.025)
        mesh = make_radial_mesh(0.025, 20, 8)
        forms = _mesh_forms(profile, mesh)
        for k in range(3):
            S, M = _mode_matrices(k, 1.0, forms)
            deflate = _deflation(k, mesh)
            Sd, Md = band_to_dense(S), band_to_dense(M)
            Ri = mp.inverse(mp.cholesky(mp.matrix(Md.tolist())))
            A = Ri * mp.matrix(Sd.tolist()) * Ri.T
            ref = sorted(mp.eigsy((A + A.T) / 2, eigvals_only=True))[:6]
            ref = np.array([float(x) for x in ref])
            errors = []
            for ev in (_solve_pencil(S[None], M[None], 6, [deflate])[0],
                       dense_pencil(Sd, Md, 6, deflate)):
                skip = 1 if k == 0 else 0  # the exact 0 against a roundoff-sized reference
                errors.append(np.max(np.abs(ev[skip:] - ref[skip:]) / ref[skip:]))
            assert errors[0] <= 2.0 * errors[1], (k, errors)


class TestModeEigenvalues:
    def test_uniform_density_reference(self):
        # rho = 2 everywhere, k = 1: frozen value from a polynomial Galerkin method
        mesh = make_radial_mesh(0.5, n_bulk=40, n_collar=20)
        ev = _mode_eigenvalues(1, 1.0, ConstantDensity(0.5, 2.0), mesh, count=2)
        assert ev[0] == pytest.approx(1.97650753, abs=1e-6)

    def test_axisymmetric_leading_eigenvalue_is_exactly_zero(self):
        profile = DensityProfile(0.1)
        mesh = make_radial_mesh(0.1)
        ev = _mode_eigenvalues(0, 1.0, profile, mesh, count=4)
        assert ev[0] == 0.0
        assert ev[1] > 1.0

    def test_converged_second_eigenvalues(self):
        for eps, want in LAMBDA2_CONVERGED.items():
            mesh = make_radial_mesh(eps)
            spec = merged_spectrum(1.0, mesh, 2)
            assert spec[1] == pytest.approx(want, abs=5e-6), eps

    def test_mesh_halving_stability(self):
        a = merged_spectrum(1.0, make_radial_mesh(0.05, 40, 8), 2)[1]
        b = merged_spectrum(1.0, make_radial_mesh(0.05, 80, 16), 2)[1]
        assert abs(a - b) < 1e-6

    def test_coarse_collar_warns(self):
        mesh = make_radial_mesh(0.2, n_bulk=10, n_collar=2)
        with pytest.warns(UserWarning) as record_merged:
            merged_spectrum(1.0, mesh, 2)
        # attributed to the caller, not to the module
        assert record_merged[0].filename == __file__


class TestMergedSpectrum:
    def test_nonaxisymmetric_modes_come_in_pairs(self):
        mesh = make_radial_mesh(0.2)
        spec = merged_spectrum(1.0, mesh, 5)
        assert spec[0] == 0.0
        assert spec[1] == spec[2]  # k = 1 pair, duplicated exactly
        assert np.all(np.diff(spec) >= 0.0)

    def test_matches_per_mode_union(self):
        profile = DensityProfile(0.2)
        mesh = make_radial_mesh(0.2)
        vals = []
        for k in range(9):
            ev = _mode_eigenvalues(k, 1.0, profile, mesh, count=6)
            vals.extend([float(v) for v in ev] * (1 if k == 0 else 2))
        vals.sort()
        spec = merged_spectrum(1.0, mesh, 6)
        assert np.allclose(spec, vals[:6], rtol=0, atol=0)

    def test_insufficient_modes_detected(self):
        # modes 0..8 of the 1/1 mesh hold 5 + 2 * 5 + 7 * 2 * 4 = 71 values
        with pytest.warns(UserWarning):  # deliberately tiny mesh
            mesh = make_radial_mesh(0.2, n_bulk=1, n_collar=1)
            with pytest.raises(NumericalError):
                merged_spectrum(1.0, mesh, 72)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            merged_spectrum(1.0, make_radial_mesh(0.2), 0)


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
