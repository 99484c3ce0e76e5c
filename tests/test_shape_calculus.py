"""Tests for eigenvalue shape derivatives: densities, clusters, finite differences."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    DomainValidationError,
    NumericalError,
    PerturbationField,
    StarDomain,
    area,
    assemble,
    criticality_residual,
    fd_derivative,
    hadamard_derivative,
    is_volume_preserving,
    make_trial_basis,
    realize_perturbation,
    rescale_to_area,
    solve,
    symmetric_function,
    volume_preserving_projection,
)

DISK = StarDomain(a0=1.0)
# area-normalized second-mode bump; its lambda_2 cluster is a singleton
PERTURBED = rescale_to_area(StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05)), np.pi)

# derivative of lambda_2 on PERTURBED along g = cos(2 theta), frozen from this solver
# and confirmed below against central differences
PERTURBED_COS2_DERIVATIVE = -1.4606622125405107


def solved(domain: StarDomain, tau: float, k_max: int = 10):
    basis = make_trial_basis(k_max, tau)
    return solve(assemble(domain, tau, basis)), basis


class TestSymmetricFunction:
    def test_examples(self):
        lam = [2.0, 3.0, 5.0]
        assert symmetric_function(lam, (1, 2, 3), 1) == pytest.approx(10.0)
        assert symmetric_function(lam, (1, 2, 3), 2) == pytest.approx(31.0)
        assert symmetric_function(lam, (1, 2, 3), 3) == pytest.approx(30.0)
        assert symmetric_function(lam, (2, 3), 1) == pytest.approx(8.0)
        assert symmetric_function(lam, (2, 3), 2) == pytest.approx(15.0)

    def test_validation(self):
        lam = [1.0, 2.0]
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (), 1)
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (1, 1), 1)
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (1, 2), 3)
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (1, 2), 0)
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (0, 1), 1)
        with pytest.raises(DomainValidationError):
            symmetric_function(lam, (2, 3), 1)

    @settings(deadline=None, derandomize=True, max_examples=50)
    @given(
        values=st.lists(st.floats(min_value=-5.0, max_value=5.0), min_size=1, max_size=6),
        s=st.integers(min_value=1, max_value=6),
    )
    def test_matches_subset_expansion(self, values, s):
        n = len(values)
        F = tuple(range(1, n + 1))
        if s > n:
            with pytest.raises(DomainValidationError):
                symmetric_function(values, F, s)
            return
        want = math.fsum(
            math.prod(combo) for combo in itertools.combinations(values, s)
        )
        got = symmetric_function(values, F, s)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestVolumePreservation:
    def test_pure_trig_on_disk(self):
        f = PerturbationField(cos_coeffs=(0.0, 1.0))
        assert is_volume_preserving(f, DISK)

    def test_constant_is_not(self):
        f = PerturbationField(const=1.0)
        assert not is_volume_preserving(f, DISK)
        proj = volume_preserving_projection(f, DISK)
        assert proj.const == pytest.approx(0.0, abs=1e-14)
        assert is_volume_preserving(proj, DISK)

    def test_trig_on_bumpy_domain_needs_projection(self):
        # the arc element weights cos(2 theta) unevenly once the boundary is bumpy
        f = PerturbationField(cos_coeffs=(0.0, 1.0))
        assert not is_volume_preserving(f, PERTURBED)
        proj = volume_preserving_projection(f, PERTURBED)
        assert is_volume_preserving(proj, PERTURBED)
        assert proj.cos_coeffs == f.cos_coeffs

    def test_unresolved_field(self):
        # 512 nodes resolve modes below 128 of domain and field together
        f = PerturbationField(cos_coeffs=(0.0,) * 511 + (1.0,))
        with pytest.raises(DomainValidationError):
            is_volume_preserving(f, DISK)
        with pytest.raises(DomainValidationError):
            volume_preserving_projection(f, DISK)
        assert is_volume_preserving(f, DISK, n_nodes=4 * 513)


class TestRealizePerturbation:
    def test_disk_constant_field(self):
        moved = realize_perturbation(DISK, PerturbationField(const=1.0), 0.1)
        assert moved.a0 == pytest.approx(1.1, rel=1e-14)
        assert moved.cos_coeffs == ()
        assert moved.sin_coeffs == ()

    def test_disk_trig_field_is_exact(self):
        # on the disk the normal correction factor is 1, so modes map through
        moved = realize_perturbation(DISK, PerturbationField(cos_coeffs=(0.0, 0.0, 1.0)), 1e-3)
        assert len(moved.cos_coeffs) == 3
        assert moved.cos_coeffs[2] == pytest.approx(1e-3, rel=1e-12)
        assert moved.a0 == pytest.approx(1.0, rel=1e-12)

    def test_pointwise_radius(self):
        field = PerturbationField(const=0.3, cos_coeffs=(1.0,))
        t = 2e-3
        moved = realize_perturbation(PERTURBED, field, t)
        r, r1, _ = PERTURBED.samples(63, derivatives=True)
        want = r + t * field.samples(63) * np.sqrt(r * r + r1 * r1) / r
        assert np.allclose(moved.samples(63), want, atol=1e-10)

    def test_area_rate_matches_boundary_integral(self):
        t = 1e-4
        moved = realize_perturbation(DISK, PerturbationField(const=1.0), t)
        rate = (area(moved) - area(DISK)) / t
        assert rate == pytest.approx(2.0 * np.pi, rel=1e-3)

    def test_destroys_positivity(self):
        with pytest.raises(DomainValidationError):
            realize_perturbation(DISK, PerturbationField(const=-1.0), 1.0)


class TestHadamardDerivative:
    def test_disk_dilation(self):
        # lambda_2 = lambda_3 = tau / R, so e_1 and e_2 shrink at known exact rates
        for tau in (1.0, 2.5):
            sol, basis = solved(DISK, tau)
            g = PerturbationField(const=1.0)
            d1 = hadamard_derivative(DISK, sol, basis, (2, 3), 1, g)
            assert d1 == pytest.approx(-2.0 * tau, rel=1e-9)
            d2 = hadamard_derivative(DISK, sol, basis, (2, 3), 2, g)
            assert d2 == pytest.approx(-2.0 * tau**2, rel=1e-9)

    def test_trivial_cluster_returns_zero(self):
        sol, basis = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        assert hadamard_derivative(DISK, sol, basis, (1,), 1, g) == 0.0

    def test_trig_fields_are_neutral_on_disk(self):
        # disk criticality: pure oscillations do not move symmetric functions
        for tau in (1.0, 2.5):
            sol, basis = solved(DISK, tau)
            for s in (1, 2):
                for k in (1, 2, 3, 4):
                    g = PerturbationField(cos_coeffs=(0.0,) * (k - 1) + (1.0,))
                    d = hadamard_derivative(DISK, sol, basis, (2, 3), s, g)
                    assert abs(d) <= 1e-7 * max(1.0, tau**s), (tau, s, k)

    def test_linearity_in_field(self):
        sol, basis = solved(PERTURBED, 1.0)
        g1 = PerturbationField(const=0.7)
        g2 = PerturbationField(cos_coeffs=(0.0, 1.0))
        both = PerturbationField(const=0.7, cos_coeffs=(0.0, 1.0))
        d1 = hadamard_derivative(PERTURBED, sol, basis, (2,), 1, g1)
        d2 = hadamard_derivative(PERTURBED, sol, basis, (2,), 1, g2)
        d12 = hadamard_derivative(PERTURBED, sol, basis, (2,), 1, both)
        assert d12 == pytest.approx(d1 + d2, rel=1e-10)

    def test_frozen_regression(self):
        sol, basis = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        d = hadamard_derivative(PERTURBED, sol, basis, (2,), 1, g)
        assert d == pytest.approx(PERTURBED_COS2_DERIVATIVE, rel=1e-6)

    def test_cluster_validation(self):
        sol, basis = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        with pytest.raises(DomainValidationError):
            # half of a degenerate pair
            hadamard_derivative(DISK, sol, basis, (2,), 1, g)
        with pytest.raises(DomainValidationError):
            # contiguous but straddling two clusters
            hadamard_derivative(DISK, sol, basis, (3, 4), 1, g)
        with pytest.raises(DomainValidationError):
            hadamard_derivative(DISK, sol, basis, (2, 4), 1, g)
        with pytest.raises(DomainValidationError):
            hadamard_derivative(DISK, sol, basis, (2, 3), 3, g)
        with pytest.raises(DomainValidationError, match="outside"):
            # index 0 once read the last eigenvalue
            hadamard_derivative(DISK, sol, basis, (0, 1), 1, g)

    def test_unresolved_field(self):
        # on 512 nodes cos(512 theta) aliases to the constant: the disk is critical,
        # yet the aliased integral read -2 tau, the dilation rate
        sol, basis = solved(DISK, 1.0)
        g = PerturbationField(cos_coeffs=(0.0,) * 511 + (1.0,))
        with pytest.raises(DomainValidationError):
            hadamard_derivative(DISK, sol, basis, (2, 3), 1, g)
        fine = solve(assemble(DISK, 1.0, basis, n_boundary=4 * 513))
        d = hadamard_derivative(DISK, fine, basis, (2, 3), 1, g)
        assert abs(d) <= 1e-7


class TestCriticality:
    def test_disk_is_critical(self):
        sol, basis = solved(DISK, 1.0)
        c_best, residual = criticality_residual(sol, basis, (2, 3))
        assert residual < 1e-7
        assert c_best != 0.0

    def test_trivial_cluster(self):
        sol, basis = solved(DISK, 1.0)
        assert criticality_residual(sol, basis, (1,)) == (0.0, 0.0)

    def test_threefold_symmetric_domain_is_not_critical(self):
        # cos(3 theta) bump keeps the first pair degenerate but not critical
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.1))
        sol, basis = solved(domain, 1.0)
        assert sol.cluster_of(2) == (2, 3)
        _, residual = criticality_residual(sol, basis, (2, 3))
        assert residual > 0.1


class TestFiniteDifferences:
    def test_matches_hadamard_with_quadratic_decay(self):
        sol, basis = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        had = hadamard_derivative(PERTURBED, sol, basis, (2,), 1, g)
        fd = fd_derivative(PERTURBED, sol, basis, (2,), 1, g, steps=(2e-3, 1e-3))
        assert fd.extrapolated == pytest.approx(had, rel=1e-8)
        e_coarse = fd.estimates[0] - had
        e_fine = fd.estimates[1] - had
        assert 2.5 < e_coarse / e_fine < 6.0

    def test_field_domain_matrix(self):
        cases = [
            (DISK, 1.0, (2, 3), 1, PerturbationField(const=1.0), -2.0),
            (DISK, 1.0, (2, 3), 2, PerturbationField(const=1.0), -2.0),
            (
                StarDomain(a0=1.0, cos_coeffs=(0.04,), sin_coeffs=(0.0, 0.0, 0.06)),
                2.0,
                (2,),
                1,
                PerturbationField(sin_coeffs=(1.0,)),
                None,
            ),
        ]
        for domain, tau, F, s, g, exact in cases:
            sol, basis = solved(domain, tau)
            had = hadamard_derivative(domain, sol, basis, F, s, g)
            fd = fd_derivative(domain, sol, basis, F, s, g, steps=(2e-3, 1e-3))
            assert abs(had - fd.extrapolated) <= 1e-6 * max(1.0, abs(had)), (F, s)
            if exact is not None:
                assert had == pytest.approx(exact * tau**s, rel=1e-9)

    def test_tracking_ambiguity_raises(self):
        sol, basis = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        with pytest.raises(NumericalError):
            fd_derivative(PERTURBED, sol, basis, (2,), 1, g, steps=(0.4, 0.2))

    def test_step_validation(self):
        sol, basis = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        # a repeated step once divided by zero in the Richardson step, and a
        # non-finite one was reported as destroying star-shapedness
        for steps in ((0.0,), (-1e-3, 1e-3), (), (1e-3, 1e-3), (math.nan,), (math.inf,),
                      (1e-3, math.nan)):
            with pytest.raises(DomainValidationError, match="steps"):
                fd_derivative(DISK, sol, basis, (2, 3), 1, g, steps=steps)

    def test_result_record(self):
        sol, basis = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        fd = fd_derivative(DISK, sol, basis, (2, 3), 1, g, steps=(1e-3, 2e-3))
        assert fd.steps == (2e-3, 1e-3)  # sorted large to small
        assert len(fd.estimates) == 2
