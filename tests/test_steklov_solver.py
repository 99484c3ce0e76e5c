"""Tests for the Galerkin eigensolver on star-shaped planar domains."""

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bisteklov import (
    DomainValidationError,
    PerturbationField,
    StarDomain,
    area,
    assemble,
    boundary_geometry,
    boundary_rule_size,
    eigenfunction_boundary_data,
    eigenvalue_of_order,
    make_family,
    make_trial_basis,
    realize_perturbation,
    solve,
    sorted_spectrum,
)
from bisteklov import _util
from bisteklov._util import single_blas_thread
from bisteklov.cli import run
from bisteklov.geometry import interior_quadrature, min_nodes
from bisteklov.special_functions import leading_term, ultraspherical_i_tail
from bisteklov.steklov_solver import (
    TrialBasis, _block_layout, _combine, _eval_all, _evaluate, _trefftz_forms,
)
from oracles import basis_tags, center_boundary_centroid, interior_stiffness, polar_eval_all

ROOT = Path(__file__).resolve().parents[1]
DISK = StarDomain(a0=1.0)
ORACLE_DOMAINS = [
    DISK,
    StarDomain(**json.loads((ROOT / "domains" / "perturbed.json").read_text())),
    StarDomain(
        a0=1.0,
        cos_coeffs=(0.03, 0.05, 0.0, 0.02),
        sin_coeffs=(0.0, 0.04, 0.03),
        center=(0.2, -0.15),
    ),
]


def disk_reference(tau: float, count: int) -> np.ndarray:
    """First `count` disk eigenvalues (multiplicities included) from the closed form."""
    flat = sorted_spectrum(2, tau, count).flatten()
    return np.array([lam for _, lam, _ in flat])


def eval_one(basis, index: int, point, center=(0.0, 0.0)):
    """Value, gradient and Hessian (2, 2) of one trial function at one point."""
    val, grad, hess = _eval_all(basis, np.asarray(point, dtype=float).reshape(1, 2), center)
    hxx, hxy, hyy = hess[index, 0]
    return float(val[index, 0]), grad[index, 0], np.array([[hxx, hxy], [hxy, hyy]])


def solve_domain(domain: StarDomain, tau: float, k_max: int = 10, **kw):
    basis = make_trial_basis(k_max, tau)
    forms = assemble(domain, tau, basis, **kw)
    return solve(forms), basis


class TestTrialBasis:
    def test_size_and_ordering(self):
        basis = make_trial_basis(3, 1.0)
        assert basis.size == 2 * (2 * 3 + 1)
        tags = basis_tags(basis)
        assert len(tags) == basis.size
        assert tags[0] == ("harmonic", 0, "cos")
        assert tags[1] == ("harmonic", 1, "cos")
        assert tags[2] == ("harmonic", 1, "sin")
        assert tags[7] == ("bessel", 0, "cos")
        families = {f for f, _, _ in tags}
        assert families == {"harmonic", "bessel"}
        # the row layout the solver's evaluator uses, block by block
        order, is_sin = _block_layout(3)
        layout = [(k, "sin" if s else "cos") for k, s in zip(order, is_sin)]
        assert [(k, p) for _, k, p in tags] == 2 * layout

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            make_trial_basis(0, 1.0)
        with pytest.raises(DomainValidationError):
            make_trial_basis(3, -1.0)

    def test_kmax_ceiling(self):
        # the largest basis still fits the 2048-node rule ceiling; from k_max 512 the
        # rule grew to basis.size (2050 nodes at 512, 20002 at 5000) and the
        # evaluation with it, as k_max^2
        top = make_trial_basis(511, 1.0)
        assert top.size == 2046
        assert boundary_rule_size(DISK, top) <= 2048
        assert 2 * (2 * 512 + 1) > 2048
        with pytest.raises(DomainValidationError, match=r"k_max must lie in 1\.\.511"):
            TrialBasis(1.0, 512)
        for k_max in (512, 5000, 10**6):
            with pytest.raises(DomainValidationError, match=r"k_max must lie in 1\.\.511"):
                make_trial_basis(k_max, 1.0)

    @pytest.mark.parametrize("tau, k_max", [(1.0, 512), (1.0, 0), (0.0, 10)])
    def test_direct_construction_is_checked(self, tau, k_max):
        # the public dataclass applies the same bounds as make_trial_basis
        with pytest.raises(DomainValidationError):
            TrialBasis(tau, k_max)


class TestEvalBasis:
    def test_harmonic_closed_forms(self):
        basis = make_trial_basis(3, 1.0)
        # index 1 is Re(w) = x
        v, g, H = eval_one(basis, 1, (0.3, 0.4))
        assert v == pytest.approx(0.3, abs=1e-15)
        assert np.allclose(g, [1.0, 0.0], atol=1e-15)
        assert np.allclose(H, 0.0, atol=1e-15)
        # index 4 is Im(w^2) = 2xy
        v, g, H = eval_one(basis, 4, (0.3, 0.4))
        assert v == pytest.approx(2 * 0.3 * 0.4, rel=1e-14)
        assert np.allclose(g, [2 * 0.4, 2 * 0.3], rtol=1e-14)
        assert np.allclose(H, [[0.0, 2.0], [2.0, 0.0]], atol=1e-14)

    def test_center_offset(self):
        basis = make_trial_basis(2, 1.0)
        v, g, _ = eval_one(basis, 1, (1.3, 0.4), center=(1.0, 0.0))
        assert v == pytest.approx(0.3, abs=1e-15)
        assert np.allclose(g, [1.0, 0.0], atol=1e-15)

    def test_bessel_derivatives_by_differencing(self):
        basis = make_trial_basis(3, 2.0)
        idx = next(i for i, t in enumerate(basis_tags(basis)) if t == ("bessel", 2, "cos"))
        p = np.array([0.55, -0.35])
        h = 1e-5
        v, g, H = eval_one(basis, idx, p)

        def val(q):
            return eval_one(basis, idx, q)[0]

        for c in range(2):
            e = np.zeros(2)
            e[c] = h
            fd = (val(p + e) - val(p - e)) / (2 * h)
            assert g[c] == pytest.approx(fd, rel=1e-8, abs=1e-10)
            fd2 = (val(p + e) - 2 * v + val(p - e)) / h**2
            assert H[c, c] == pytest.approx(fd2, rel=1e-5, abs=1e-6)
        ex, ey = np.array([h, 0.0]), np.array([0.0, h])
        fd_xy = (val(p + ex + ey) - val(p + ex - ey) - val(p - ex + ey) + val(p - ex - ey)) / (
            4 * h * h
        )
        assert H[0, 1] == pytest.approx(fd_xy, rel=1e-5, abs=1e-6)
        assert H[1, 0] == H[0, 1]

    def test_center_is_regular(self):
        tau, h = 2.0, 1e-5
        basis = make_trial_basis(3, tau)
        zero = np.zeros(2)
        v, g, H = eval_one(basis, basis_tags(basis).index(("bessel", 0, "cos")), zero)
        assert v == 0.0
        assert np.all(g == 0.0)
        assert np.allclose(H, 0.5 * tau * np.eye(2), rtol=1e-15, atol=0.0)
        for idx, (family, k, _) in enumerate(basis_tags(basis)):
            if family != "bessel" or k == 0:
                continue
            v, g, H = eval_one(basis, idx, zero)
            assert np.all(np.isfinite(g)) and np.all(np.isfinite(H)) and math.isfinite(v)

            def val(q):
                return eval_one(basis, idx, q)[0]

            for c in range(2):
                e = np.zeros(2)
                e[c] = h
                assert g[c] == pytest.approx((val(e) - val(-e)) / (2 * h), abs=1e-10)
                assert H[c, c] == pytest.approx((val(e) - 2 * v + val(-e)) / h**2, abs=1e-6)
            ex, ey = np.array([h, 0.0]), np.array([0.0, h])
            fd_xy = (val(ex + ey) - val(ex - ey) - val(-ex + ey) + val(-ex - ey)) / (4 * h * h)
            assert H[0, 1] == pytest.approx(fd_xy, abs=1e-6)

    @pytest.mark.parametrize("k_max", [10, 20, 30])
    @pytest.mark.parametrize("tau", [1e-3, 0.01, 0.1, 1.0, 5.0, 20.0, 1e3, 5e3])
    def test_matches_polar_oracle(self, tau, k_max):
        basis = make_trial_basis(k_max, tau)
        for domain in ORACLE_DOMAINS:
            interior, _ = interior_quadrature(domain, 8, 64)
            for pts in (boundary_geometry(domain, 256).points, interior):
                got = _eval_all(basis, pts, domain.center)
                want = polar_eval_all(basis, pts, domain.center)
                for a, b in zip(got, want):
                    a, b = a.reshape(basis.size, -1), b.reshape(basis.size, -1)
                    scale = np.abs(b).max(axis=1)
                    assert np.all(np.abs(a - b).max(axis=1) <= 1e-13 * scale)


class TestAssemble:
    def test_boundary_mass_block_structure(self):
        tau = 1.0
        basis = make_trial_basis(3, tau)
        forms = assemble(DISK, tau, basis, n_boundary=256)
        B = forms.boundary_mass
        s = math.sqrt(tau)

        def trace(tag):
            family, k, _ = tag
            if family == "harmonic":
                return 1.0
            return float(ultraspherical_i_tail(k, 2, np.array([s]))[0][0] / leading_term(k, k, s))

        tags = basis_tags(basis)
        for i, ti in enumerate(tags):
            for j, tj in enumerate(tags):
                if (ti[1], ti[2]) != (tj[1], tj[2]):
                    assert abs(B[i, j]) < 1e-13, (ti, tj)
                else:
                    ang = 2.0 * np.pi if ti[1] == 0 else np.pi
                    want = trace(ti) * trace(tj) * ang
                    assert B[i, j] == pytest.approx(want, rel=1e-12), (ti, tj)

    def test_stiffness_basic_properties(self):
        tau = 2.0
        basis = make_trial_basis(4, tau)
        forms = assemble(DISK, tau, basis)
        A = forms.stiffness
        assert np.allclose(A, A.T, atol=0)
        w = np.linalg.eigvalsh(A)
        assert w.min() > -1e-10 * w.max()
        # the constant trial function has zero energy
        assert np.abs(A[0]).max() < 1e-12 * np.abs(A).max()
        # Re(w) has zero Hessian and unit gradient: energy tau * area
        assert A[1, 1] == pytest.approx(tau * np.pi, rel=1e-12)

    # each entry takes the Hessian and flux of its earlier row, so the constant's row
    # is exactly 0 and x, y meet the other rows only through tau int dx/dnu u, which is
    # O(tau); averaged with the later row's order the three tests below read 4.3e-31,
    # 2.6e-14 and 1.3e-32 on the unit disk at tau = 1e-16
    @pytest.fixture(scope="class")
    def small_tau_disk(self):
        """The stiffness of the unit disk at tau = 1e-16, k_max 10, and its rows' tags."""
        basis = make_trial_basis(10, 1e-16)
        return assemble(DISK, 1e-16, basis).stiffness, basis_tags(basis)

    def test_constant_row_is_exactly_zero(self, small_tau_disk):
        A, _ = small_tau_disk
        assert not A[0].any()

    def test_rigid_rows_against_harmonic_rows(self, small_tau_disk):
        A, tags = small_tau_disk
        harmonic = [j for j, (family, k, _) in enumerate(tags) if family == "harmonic" and k >= 2]
        assert np.abs(A[1:3][:, harmonic]).max() < 1e-30

    def test_rigid_rows_against_the_order_0_bessel_row(self, small_tau_disk):
        A, tags = small_tau_disk
        assert np.abs(A[1:3, tags.index(("bessel", 0, "cos"))]).max() < 1e-40

    @pytest.mark.parametrize("k_max, n_boundary", [(3, 64), (10, 224), (14, 400)])
    @pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=["disk", "perturbed", "offcentre"])
    def test_projected_forms_match_the_assembled_forms(self, domain, k_max, n_boundary):
        # the cluster's forms of the shape-derivative check: combining the rows first
        # and contracting after gives X^T A X and X^T B X of the full forms
        tau = 2.5
        basis = make_trial_basis(k_max, tau)
        X = np.random.default_rng(k_max).standard_normal((basis.size, 3))
        forms = assemble(domain, tau, basis, n_boundary=n_boundary)
        A, B = _trefftz_forms(_combine(_evaluate(domain, basis, n_boundary), X))
        column_norm = np.abs(X).sum(axis=0).max()
        for got, full in ((A, forms.stiffness), (B, forms.boundary_mass)):
            assert got.shape == (3, 3)
            assert np.array_equal(got, got.T)
            err = np.abs(got - X.T @ full @ X).max()
            assert err <= 1e-15 * np.abs(full).max() * column_norm**2

    @pytest.mark.parametrize("k_max", [10, 20])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    def test_eigenfunction_forms_are_the_pencil(self, tau, k_max):
        # the columns carry their fluxes: the Trefftz forms of b-orthonormal
        # eigenfunctions are (diag lambda, I)
        sol, _ = solve_domain(ORACLE_DOMAINS[1], tau, k_max=k_max)
        A, B = _trefftz_forms(eigenfunction_boundary_data(sol, tuple(range(1, 9))))
        lam = sol.eigenvalues[:8]
        scale = max(1.0, lam[-1])
        assert np.abs(A - np.diag(lam)).max() <= 1e-12 * scale
        assert np.abs(B - np.eye(8)).max() <= 1e-12 * scale

    def test_combine_with_the_identity_is_exact(self):
        ev = _evaluate(ORACLE_DOMAINS[2], make_trial_basis(6, 2.0), 128)
        rows = _combine(ev, np.eye(ev.basis.size))
        assert rows.domain is ev.domain and rows.basis is ev.basis and rows.quad is ev.quad
        for name in ("values", "gradients", "hessians", "fluxes"):
            assert np.array_equal(getattr(rows, name), getattr(ev, name)), name

    def test_tau_mismatch_rejected(self):
        basis = make_trial_basis(3, 1.0)
        with pytest.raises(DomainValidationError):
            assemble(DISK, 2.0, basis)

    def test_solution_carries_its_problem(self):
        # shape derivatives read the domain, basis and tau from the solution alone
        basis = make_trial_basis(3, 1.0)
        forms = assemble(ORACLE_DOMAINS[2], 1.0, basis)
        assert forms.boundary.domain is ORACLE_DOMAINS[2]
        assert forms.boundary.basis is basis
        assert solve(forms).boundary is forms.boundary

    @pytest.mark.parametrize("k_max", [10, 20])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    @pytest.mark.parametrize(
        "domain", ORACLE_DOMAINS, ids=["disk", "perturbed", "offcentre"]
    )
    def test_boundary_stiffness_matches_interior_oracle(self, domain, tau, k_max):
        basis = make_trial_basis(k_max, tau)
        A = assemble(domain, tau, basis).stiffness
        ref = interior_stiffness(domain, basis)
        assert np.abs(A - ref).max() <= 1e-12 * np.abs(ref).max()


def low_spectrum_error(domain, tau, basis, ref, **kw):
    """Largest relative deviation of lambda_2..lambda_8 from ref."""
    lam = solve(assemble(domain, tau, basis, **kw)).eigenvalues[1:8]
    return float(np.max(np.abs(lam - ref) / np.abs(ref)))


# star domains as the benchmark seeds them: modes <= 6, amplitude <= 0.1, centre offset <= 0.05
SEEDED_STARS = [
    StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.0, 0.1), sin_coeffs=(0.0, 0.08),
               center=(0.05, -0.04)),
    StarDomain(a0=1.0, sin_coeffs=(0.0, 0.0, 0.0, 0.1), center=(-0.03, 0.05)),
]
RULE_DOMAINS = [
    DISK,
    ORACLE_DOMAINS[1],
    *SEEDED_STARS,
    StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.3)),
    make_family("ellipse_like", [1.5])[0][1],
]
RULE_IDS = ["disk", "perturbed", "star6", "star4", "cos3", "ellipse1.5"]


class TestBoundaryRuleSize:
    @pytest.mark.parametrize("k_max", [10, 20])
    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    @pytest.mark.parametrize("domain", RULE_DOMAINS, ids=RULE_IDS)
    def test_as_accurate_as_the_512_node_rule(self, domain, tau, k_max):
        basis = make_trial_basis(k_max, tau)
        ref = solve(assemble(domain, tau, basis, n_boundary=4096)).eigenvalues[1:8]
        err = low_spectrum_error(domain, tau, basis, ref)
        err_512 = low_spectrum_error(domain, tau, basis, ref, n_boundary=512)
        assert err <= max(2.0 * err_512, 1e-13), (boundary_rule_size(domain, basis), err, err_512)

    def test_benchmark_domains_need_at_most_512_nodes(self):
        members = make_family("ellipse_like", [1.5])
        for mode in range(2, 7):
            members += make_family("perturbed_disk", [0.12], mode=mode)
        iso_members = [center_boundary_centroid(dom) for _, dom in members]
        for tau in (0.1, 0.5, 1.0, 5.0, 20.0):
            for dom in iso_members:
                assert boundary_rule_size(dom, make_trial_basis(10, tau)) <= 512
            for dom in RULE_DOMAINS:
                for k_max in (10, 14, 20):
                    assert boundary_rule_size(dom, make_trial_basis(k_max, tau)) <= 512

    @pytest.mark.parametrize("tau", [0.1, 20.0])
    def test_resolves_a_deep_star(self, tau):
        # 512 nodes leave lambda_2..lambda_8 of this domain about 1e-8 off
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.0, 0.0, 0.0, 0.6))
        basis = make_trial_basis(10, tau)
        ref = solve(assemble(domain, tau, basis, n_boundary=4096)).eigenvalues[1:8]
        assert low_spectrum_error(domain, tau, basis, ref) <= 1e-11

    def test_floors_and_ceiling(self):
        basis = make_trial_basis(40, 1.0)
        assert boundary_rule_size(DISK, basis) >= basis.size
        assert boundary_rule_size(DISK, make_trial_basis(1, 1.0)) == 64
        wavy = StarDomain(a0=1.0, cos_coeffs=(0.0,) * 99 + (1e-3,))
        basis = make_trial_basis(10, 1.0)
        assert boundary_rule_size(wavy, basis) >= min_nodes(wavy)
        assert boundary_rule_size(wavy, basis, field_modes=200) >= min_nodes(wavy, 200)
        assert boundary_rule_size(DISK, basis, field_modes=600) == 2048

    def test_reach_checked_before_the_series(self):
        # radius 1.05 at tau = 1e4: sqrt(tau) rho_max = 105 is refused where the rule is
        # sized and where the basis is evaluated, in terms of tau and the domain
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05))
        basis = make_trial_basis(10, 1e4)
        with pytest.raises(DomainValidationError, match=r"rho_max=1\.05 .*tau <= 9070\.29"):
            boundary_rule_size(domain, basis)
        with pytest.raises(DomainValidationError, match=r"rho_max=1\.05 .*tau <= 9070\.29"):
            assemble(domain, 1e4, basis, n_boundary=256)
        assert boundary_rule_size(domain, make_trial_basis(10, 9070.0)) >= 64

    def test_explicit_rule_wins(self):
        basis = make_trial_basis(4, 1.0)
        forms = assemble(ORACLE_DOMAINS[1], 1.0, basis)
        assert forms.boundary.quad.weights.size == boundary_rule_size(ORACLE_DOMAINS[1], basis)
        forms = assemble(ORACLE_DOMAINS[1], 1.0, basis, n_boundary=1000)
        assert forms.boundary.quad.weights.size == 1000


class TestDiskSpectrum:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 5.0])
    def test_matches_closed_form(self, tau):
        sol, _ = solve_domain(DISK, tau)
        ref = disk_reference(tau, 9)
        assert abs(sol.eigenvalues[0]) <= 1e-8 * max(1.0, tau)
        got = sol.eigenvalues[1:9]
        assert np.allclose(got, ref[1:9], rtol=1e-8), (tau, got - ref[1:9])

    def test_orthonormality_and_diagonalization(self):
        tau = 1.0
        basis = make_trial_basis(10, tau)
        forms = assemble(DISK, tau, basis)
        sol = solve(forms)
        X = sol.coefficients
        G = X.T @ forms.boundary_mass @ X
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-8
        H = X.T @ forms.stiffness @ X
        scale = max(1.0, abs(sol.eigenvalues).max())
        assert np.abs(H - np.diag(sol.eigenvalues)).max() < 1e-8 * scale

    @pytest.mark.parametrize("tau", [1e-3, 0.1, 1.0])
    def test_high_angular_orders(self, tau):
        # rows of order 100 once carried c_0 s^k, whose square underflowed on the
        # unit disk and left the solve an identically zero basis direction
        sol, _ = solve_domain(DISK, tau, k_max=100)
        ref = disk_reference(tau, 21)
        assert abs(sol.eigenvalues[0]) <= 1e-8 * max(1.0, tau)
        assert np.allclose(sol.eigenvalues[1:21], ref[1:21], rtol=1e-10, atol=0.0)

    # the threshold is relative at every tau: the pair's spread is 1.3e-15 at 1e-14
    @pytest.mark.parametrize("tau", [1e-14, 1e-9, 1.0, 1000.0])
    def test_cluster_detection(self, tau):
        sol, _ = solve_domain(DISK, tau)
        assert sol.cluster_of(1) == (1, 1)
        assert sol.cluster_of(2) == (2, 3)
        assert sol.cluster_of(3) == (2, 3)
        assert sol.cluster_of(4) == (4, 5)

    @pytest.mark.parametrize("tau", [1e-9, 1e-12, 1e-14])
    def test_small_tau_relative_accuracy(self, tau):
        # lambda_2 = lambda_3 = tau; read off mu = 1 / (1 + lambda) they were off by
        # 6.9e-7, 2.4e-4 and 2.1e-2 relative
        sol, _ = solve_domain(DISK, tau)
        assert sol.eigenvalues[0] == 0.0
        assert np.abs(sol.eigenvalues[1:3] / tau - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("threads", [contextlib.nullcontext, single_blas_thread],
                             ids=["caller-threads", "one-thread"])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (0.03, -0.02)])
    @pytest.mark.parametrize("k_max", [10, 14, 20])
    def test_pair_at_tau_1e16(self, k_max, center, threads):
        # the forms' rigid rows are exact (test_rigid_rows_exact_at_small_tau), so what
        # is left is eigh's: 3.8e-12 at worst, against 3.6e-10 with the forms averaged
        tau = 1e-16
        with threads():
            sol, _ = solve_domain(StarDomain(a0=1.0, center=center), tau, k_max=k_max)
        assert np.abs(sol.eigenvalues[1:3] / tau - 1.0).max() <= 2e-11

    def test_diagnostics(self):
        sol, basis = solve_domain(DISK, 1.0)
        d = sol.diagnostics
        assert d.basis_size == basis.size
        assert d.filtered_dimension <= basis.size
        # boundary traces span only 2 k_max + 1 angular functions
        assert d.filtered_dimension - d.b_null_count == len(sol.eigenvalues)
        assert len(sol.eigenvalues) <= 2 * basis.k_max + 1


class TestInvariances:
    def test_rotation(self):
        alpha = 0.37
        base = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.1))
        rotated = StarDomain(
            a0=1.0,
            cos_coeffs=(0.0, 0.0, 0.1 * math.cos(3 * alpha)),
            sin_coeffs=(0.0, 0.0, 0.1 * math.sin(3 * alpha)),
        )
        s1, _ = solve_domain(base, 1.0, k_max=8)
        s2, _ = solve_domain(rotated, 1.0, k_max=8)
        assert np.allclose(s1.eigenvalues[:8], s2.eigenvalues[:8], rtol=1e-9)

    def test_translation(self):
        base = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05))
        moved = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05), center=(0.3, -0.2))
        s1, _ = solve_domain(base, 1.0, k_max=8)
        s2, _ = solve_domain(moved, 1.0, k_max=8)
        assert np.allclose(s1.eigenvalues[:8], s2.eigenvalues[:8], rtol=1e-9)

    @pytest.mark.parametrize("t", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 20.0])
    def test_dilation_law(self, tau, t):
        # lambda_j(t Omega, tau) = t^-3 lambda_j(Omega, t^2 tau): u(x / t) maps the problem
        # on Omega at t^2 tau onto t Omega at tau, centre included
        domains = [*ORACLE_DOMAINS[1:],
                   StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05, 0.03), center=(0.02, -0.01))]
        for dom in domains:
            scaled = StarDomain(a0=t * dom.a0, cos_coeffs=tuple(t * c for c in dom.cos_coeffs),
                                sin_coeffs=tuple(t * c for c in dom.sin_coeffs),
                                center=(t * dom.center[0], t * dom.center[1]))
            sol, _ = solve_domain(scaled, tau, k_max=14)
            ref, _ = solve_domain(dom, t * t * tau, k_max=14)
            rel = np.abs(sol.eigenvalues[1:12] * t**3 / ref.eigenvalues[1:12] - 1.0)
            assert rel.max() <= 1e-12, (dom, rel.max())

    def test_quadrature_refinement_stability(self):
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05))
        s1, _ = solve_domain(domain, 1.0, n_boundary=512)
        s2, _ = solve_domain(domain, 1.0, n_boundary=1024)
        assert np.allclose(s1.eigenvalues[1:9], s2.eigenvalues[1:9], rtol=1e-8)

    @pytest.mark.parametrize("k_max", [10, 20])
    @pytest.mark.parametrize("tau", [0.1, 1.0])
    def test_constant_mode_is_exact(self, tau, k_max):
        domain = StarDomain(
            a0=1.0,
            cos_coeffs=(-0.0243, 0.0182, 0.0241, 0.0229),
            sin_coeffs=(-0.0176, 0.0236, 0.0195, 0.0161),
            center=(-0.002, -0.027),
        )
        sol, _ = solve_domain(domain, tau, k_max=k_max)
        assert abs(sol.eigenvalues[0]) <= 1e-12 * max(1.0, tau)

    def test_congruent_realized_perturbations(self):
        # cos 5 theta changes sign under rotation by pi, which fixes the cos 2 theta base
        base = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05))
        field = PerturbationField(cos_coeffs=(0.0, 0.0, 0.0, 0.0, 1.0))
        plus, _ = solve_domain(realize_perturbation(base, field, 1e-3), 0.1)
        minus, _ = solve_domain(realize_perturbation(base, field, -1e-3), 0.1)
        assert np.allclose(plus.eigenvalues[1:9], minus.eigenvalues[1:9], rtol=1e-10)

    @pytest.mark.parametrize("tau", [1e-6, 1.0, 20.0])
    def test_eigenvalues_are_quotients(self, tau):
        # each value is the Rayleigh quotient of its own b-normalised column
        forms = assemble(StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05, 0.03), center=(0.02, -0.01)),
                         tau, make_trial_basis(14, tau))
        sol = solve(forms)
        X, lam = sol.coefficients, sol.eigenvalues
        A, B = forms.stiffness, forms.boundary_mass
        num, den = np.diag(X.T @ A @ X), np.diag(X.T @ B @ X)
        assert lam[0] == 0.0 and num[0] == 0.0
        assert np.all(np.diff(lam) >= 0.0)
        # to the roundoff of the two forms, which the top columns of an ill-conditioned
        # basis raise far above 1e-16 of their values
        aX = np.abs(X)
        size = np.diag(aX.T @ np.abs(A) @ aX) + lam * np.diag(aX.T @ np.abs(B) @ aX)
        assert np.all(np.abs(num - lam * den) <= 1e-14 * size)
        assert np.abs(den[:12] - 1.0).max() <= 1e-14
        assert np.abs(num[1:12] / den[1:12] / lam[1:12] - 1.0).max() <= 1e-14

    def test_variational_upper_bound(self):
        # u = x - mean(x) is admissible for the first nonzero eigenvalue
        tau = 1.0
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.07))
        bq = boundary_geometry(domain, 512)
        length = bq.weights.sum()
        xs = bq.points[:, 0] - (bq.weights @ bq.points[:, 0]) / length
        bound = tau * area(domain) / float(bq.weights @ xs**2)
        sol, _ = solve_domain(domain, tau)
        assert sol.eigenvalues[1] <= bound * (1.0 + 1e-10)


class TestBoundaryData:
    def test_orthonormal_traces(self):
        sol, _ = solve_domain(DISK, 1.0)
        traces = eigenfunction_boundary_data(sol, which=(2, 3))
        w = traces.quad.weights
        assert float(w @ traces.values[0] ** 2) == pytest.approx(1.0, abs=1e-8)
        assert float(w @ traces.values[1] ** 2) == pytest.approx(1.0, abs=1e-8)
        assert float(w @ (traces.values[0] * traces.values[1])) == pytest.approx(0.0, abs=1e-8)

    def test_constant_mode(self):
        sol, _ = solve_domain(DISK, 1.0)
        traces = eigenfunction_boundary_data(sol, which=(1,))
        want = 1.0 / math.sqrt(2.0 * np.pi)
        assert np.allclose(np.abs(traces.values[0]), want, atol=1e-9)
        assert np.abs(traces.normal_derivatives[0]).max() < 1e-8

    def test_normal_derivative_consistency(self):
        # values, gradients, Hessians and fluxes are the coefficient columns applied to
        # the basis evaluation the solution carries; dv/dnu is the gradient along the normal
        which = (2, 3, 5)
        for domain in ORACLE_DOMAINS:
            sol, _ = solve_domain(domain, 1.0, k_max=14)
            traces = eigenfunction_boundary_data(sol, which=which)
            manual = np.einsum("mnc,nc->mn", traces.gradients, traces.quad.normals)
            assert np.allclose(traces.normal_derivatives, manual, atol=1e-14)
            C = sol.coefficients[:, [j - 1 for j in which]]
            for got, table in (
                (traces.values, sol.boundary.values),
                (traces.gradients, sol.boundary.gradients),
                (traces.hessians, sol.boundary.hessians),
                (traces.fluxes, sol.boundary.fluxes),
            ):
                want = np.einsum("bm,bn...->mn...", C, table)
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_index_validation(self):
        sol, _ = solve_domain(DISK, 1.0)
        with pytest.raises(DomainValidationError):
            eigenfunction_boundary_data(sol, which=(0,))
        with pytest.raises(DomainValidationError):
            eigenfunction_boundary_data(sol, which=(len(sol.eigenvalues) + 1,))


class TestBlasThreads:
    """Each CLI job runs on one OpenBLAS thread; library calls run on the caller's count."""

    @staticmethod
    def fake_openblas(monkeypatch, count: int):
        state, calls = {"count": count}, []

        def set_count(n):
            calls.append(n)
            state["count"] = n

        monkeypatch.setattr(_util, "_openblas_thread_calls", lambda: (lambda: state["count"], set_count))
        return state, calls

    @pytest.mark.parametrize("code, argv", [
        (0, ("solve", "--domain", str(ROOT / "domains" / "perturbed.json"), "--tau", "1", "--kmax", "10")),
        (0, ("solve", "--domain", str(ROOT / "domains" / "perturbed.json"), "--tau", "1", "--kmax", "40")),
        (0, ("iso-scan", "--family", "perturbed_disk", "--tau", "1", "--params", "0.0,0.05")),
        (0, ("concentration", "--tau", "1", "--eps", "0.2", "--modes", "2")),
        (2, ("solve", "--domain", str(ROOT / "domains" / "missing.json"), "--tau", "1")),
        (1, ("concentration", "--tau", "1", "--eps", "1e-10", "--modes", "2")),
    ], ids=["solve-10", "solve-40", "iso-scan", "concentration", "exit-2", "exit-1"])
    def test_each_cli_job_runs_on_one_thread(self, monkeypatch, capsys, code, argv):
        state, calls = self.fake_openblas(monkeypatch, 2)
        assert run(list(argv)) == code
        capsys.readouterr()
        assert calls == [1, 2]  # set once around the job, restored however it ends
        assert state["count"] == 2

    def test_library_calls_keep_the_thread_count(self, monkeypatch):
        state, calls = self.fake_openblas(monkeypatch, 2)
        for k_max in (10, 40):
            sol, _ = solve_domain(ORACLE_DOMAINS[1], 1.0, k_max=k_max)
            eigenfunction_boundary_data(sol, which=(2,))
        assert calls == []
        assert state["count"] == 2

    def test_one_thread_caller_is_left_alone(self, monkeypatch):
        _, calls = self.fake_openblas(monkeypatch, 1)
        solve_domain(ORACLE_DOMAINS[1], 1.0, k_max=10)
        assert calls == []

    def test_count_restored_after_an_error(self, monkeypatch):
        state, _ = self.fake_openblas(monkeypatch, 4)
        with pytest.raises(RuntimeError):
            with single_blas_thread():
                assert state["count"] == 1
                raise RuntimeError("inside the block")
        assert state["count"] == 4

    def test_numpy_openblas(self):
        calls = _util._openblas_thread_calls()
        if calls is None:
            pytest.skip("numpy's BLAS does not export OpenBLAS thread calls")
        before = calls[0]()
        with single_blas_thread():
            assert calls[0]() == 1
        assert calls[0]() == before
