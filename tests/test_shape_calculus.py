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
    boundary_rule_size,
    criticality_residual,
    fd_derivative,
    hadamard_derivative,
    make_trial_basis,
    realize_perturbation,
    rescale_to_area,
    solve,
    symmetric_function,
)
from oracles import tracked_fd_derivative

DISK = StarDomain(a0=1.0)
# area-normalized second-mode bump; its lambda_2 cluster is a singleton
PERTURBED = rescale_to_area(StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05)), np.pi)

# derivative of lambda_2 on PERTURBED along g = cos(2 theta), frozen from this solver
# and confirmed below against central differences
PERTURBED_COS2_DERIVATIVE = -1.4606622125405107


def solved(domain: StarDomain, tau: float, k_max: int = 10):
    return solve(assemble(domain, tau, make_trial_basis(k_max, tau)))


def solved_for_field(domain: StarDomain, tau: float, k_max: int, field: PerturbationField):
    """Solve on a rule that also resolves the field, as the shape-derivative subcommand does."""
    basis = make_trial_basis(k_max, tau)
    n = boundary_rule_size(domain, basis, field.max_mode)
    return solve(assemble(domain, tau, basis, n_boundary=n))


def seeded_star(cos_modes: dict, sin_modes: dict, center) -> StarDomain:
    """A unit star of the benchmark's seeded kind: modes 1..6, the given ones nonzero."""
    return StarDomain(a0=1.0, cos_coeffs=tuple(cos_modes.get(k, 0.0) for k in range(1, 7)),
                      sin_coeffs=tuple(sin_modes.get(k, 0.0) for k in range(1, 7)), center=center)


# (domain, tau, k_max, field) of the seeded benchmark stars on which a step of 1e-3
# moves lambda_2 by more than 0.45 of its gap to lambda_1 or lambda_3
SEEDED_TRACKING_FAILURES = [
    (seeded_star({4: 0.014411749021848741}, {3: 0.04786219435099912},
                 (0.001633451896232152, -0.029478499329845934)),
     20.0, 14, PerturbationField(cos_coeffs=(0.0, 1.0))),
    (seeded_star({4: 0.0318525568337694}, {5: 0.04038097511166047},
                 (-0.048051707194760686, 0.0054050247808328025)),
     5.0, 20, PerturbationField(const=1.0)),
    (seeded_star({}, {4: 0.01778998842129287, 5: 0.02058715469387236},
                 (0.03036789448422425, 0.049449898489153946)),
     0.1, 10, PerturbationField(const=1.0)),
    (seeded_star({5: 0.00035904716697302555}, {3: 0.04054193295683789},
                 (-0.008381880563527247, -0.012389385464729341)),
     0.1, 14, PerturbationField(const=1.0)),
]


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
            sol = solved(DISK, tau)
            g = PerturbationField(const=1.0)
            d1 = hadamard_derivative(sol, (2, 3), 1, g)
            assert d1 == pytest.approx(-2.0 * tau, rel=1e-9)
            d2 = hadamard_derivative(sol, (2, 3), 2, g)
            assert d2 == pytest.approx(-2.0 * tau**2, rel=1e-9)

    def test_trivial_cluster_returns_zero(self):
        sol = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        assert hadamard_derivative(sol, (1,), 1, g) == 0.0

    def test_trig_fields_are_neutral_on_disk(self):
        # disk criticality: pure oscillations do not move symmetric functions
        for tau in (1.0, 2.5):
            sol = solved(DISK, tau)
            for s in (1, 2):
                for k in (1, 2, 3, 4):
                    g = PerturbationField(cos_coeffs=(0.0,) * (k - 1) + (1.0,))
                    d = hadamard_derivative(sol, (2, 3), s, g)
                    assert abs(d) <= 1e-7 * max(1.0, tau**s), (tau, s, k)

    def test_linearity_in_field(self):
        sol = solved(PERTURBED, 1.0)
        g1 = PerturbationField(const=0.7)
        g2 = PerturbationField(cos_coeffs=(0.0, 1.0))
        both = PerturbationField(const=0.7, cos_coeffs=(0.0, 1.0))
        d1 = hadamard_derivative(sol, (2,), 1, g1)
        d2 = hadamard_derivative(sol, (2,), 1, g2)
        d12 = hadamard_derivative(sol, (2,), 1, both)
        assert d12 == pytest.approx(d1 + d2, rel=1e-10)

    def test_frozen_regression(self):
        sol = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        d = hadamard_derivative(sol, (2,), 1, g)
        assert d == pytest.approx(PERTURBED_COS2_DERIVATIVE, rel=1e-6)

    def test_cluster_validation(self):
        sol = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        with pytest.raises(DomainValidationError):
            # half of a degenerate pair
            hadamard_derivative(sol, (2,), 1, g)
        with pytest.raises(DomainValidationError):
            # contiguous but straddling two clusters
            hadamard_derivative(sol, (3, 4), 1, g)
        with pytest.raises(DomainValidationError):
            hadamard_derivative(sol, (2, 4), 1, g)
        with pytest.raises(DomainValidationError):
            hadamard_derivative(sol, (2, 3), 3, g)
        with pytest.raises(DomainValidationError, match="outside"):
            # index 0 once read the last eigenvalue
            hadamard_derivative(sol, (0, 1), 1, g)

    @pytest.mark.parametrize("tau", [0.1, 1.0, 20.0])
    def test_tau_and_basis_come_from_the_solution(self, tau):
        # a tau = 20 basis passed next to a tau = 1 solution once read -0.664 for
        # -1.459; the re-solving oracle is given the domain and a basis of its own
        sol = solved(PERTURBED, tau)
        lo, hi = sol.cluster_of(2)
        F = tuple(range(lo, hi + 1))
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        had = hadamard_derivative(sol, F, 1, g)
        ref = tracked_fd_derivative(PERTURBED, sol, make_trial_basis(10, tau), F, 1, g)
        assert abs(had - ref.extrapolated) <= 1e-6 * max(abs(had), tau)

    def test_unresolved_field(self):
        # on 512 nodes cos(512 theta) aliases to the constant: the disk is critical,
        # yet the aliased integral read -2 tau, the dilation rate
        sol = solved(DISK, 1.0)
        g = PerturbationField(cos_coeffs=(0.0,) * 511 + (1.0,))
        with pytest.raises(DomainValidationError):
            hadamard_derivative(sol, (2, 3), 1, g)
        fine = solve(assemble(DISK, 1.0, sol.boundary.basis, n_boundary=4 * 513))
        d = hadamard_derivative(fine, (2, 3), 1, g)
        assert abs(d) <= 1e-7


class TestCriticality:
    def test_disk_is_critical(self):
        sol = solved(DISK, 1.0)
        c_best, residual = criticality_residual(sol, (2, 3))
        assert residual < 1e-7
        assert c_best != 0.0

    def test_trivial_cluster(self):
        sol = solved(DISK, 1.0)
        assert criticality_residual(sol, (1,)) == (0.0, 0.0)

    def test_threefold_symmetric_domain_is_not_critical(self):
        # cos(3 theta) bump keeps the first pair degenerate but not critical
        domain = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.0, 0.1))
        sol = solved(domain, 1.0)
        assert sol.cluster_of(2) == (2, 3)
        _, residual = criticality_residual(sol, (2, 3))
        assert residual > 0.1


class TestFiniteDifferences:
    def test_matches_hadamard_with_quadratic_decay(self):
        sol = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        had = hadamard_derivative(sol, (2,), 1, g)
        fd = fd_derivative(sol, (2,), 1, g, steps=(2e-3, 1e-3))
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
            sol = solved(domain, tau)
            had = hadamard_derivative(sol, F, s, g)
            fd = fd_derivative(sol, F, s, g, steps=(2e-3, 1e-3))
            assert abs(had - fd.extrapolated) <= 1e-6 * max(1.0, abs(had)), (F, s)
            if exact is not None:
                assert had == pytest.approx(exact * tau**s, rel=1e-9)

    def test_tracking_ambiguity_raises(self):
        # the re-solve-and-track oracle refuses steps that move the cluster past its gap
        sol = solved(PERTURBED, 1.0)
        g = PerturbationField(cos_coeffs=(0.0, 1.0))
        with pytest.raises(NumericalError):
            tracked_fd_derivative(PERTURBED, sol, sol.boundary.basis, (2,), 1, g, steps=(0.4, 0.2))

    def test_partial_cluster_rejected(self):
        # index 2 alone is half of the disk's pair: its difference would depend on
        # the basis chosen inside the pair
        sol = solved(DISK, 1.0)
        with pytest.raises(DomainValidationError, match="cluster"):
            fd_derivative(sol, (2,), 1, PerturbationField(const=1.0))

    @pytest.mark.parametrize("domain, tau, k_max, field", SEEDED_TRACKING_FAILURES,
                             ids=["star16", "star34", "star40", "star57"])
    def test_no_tracking_on_crowded_spectra(self, domain, tau, k_max, field):
        # steps of 1e-3 move lambda_2 of these stars across more than 0.45 of its gap,
        # which defeated tracking re-solved eigenvalues by index
        sol = solved_for_field(domain, tau, k_max, field)
        with pytest.raises(NumericalError, match="tracking ambiguous"):
            tracked_fd_derivative(domain, sol, sol.boundary.basis, (2,), 1, field)
        had = hadamard_derivative(sol, (2,), 1, field)
        fd = fd_derivative(sol, (2,), 1, field).extrapolated
        assert abs(fd - had) <= 1e-9 * max(abs(fd), tau)

    def test_agrees_with_tracked_eigenvalues(self):
        rng = np.random.default_rng(16)
        tracked = 0
        for _ in range(12):
            modes = ({}, {})
            for _ in range(rng.integers(1, 3)):
                modes[rng.integers(0, 2)][int(rng.integers(2, 7))] = rng.uniform(0.0, 0.1)
            domain = seeded_star(*modes, center=tuple(rng.uniform(-0.05, 0.05, 2)))
            tau = float(rng.choice([0.1, 0.5, 1.0, 5.0, 20.0]))
            k = int(rng.integers(0, 7))
            coeffs = (0.0,) * (k - 1) + (1.0,)
            field = (PerturbationField(const=1.0) if k == 0 else
                     PerturbationField(cos_coeffs=coeffs) if rng.random() < 0.5 else
                     PerturbationField(sin_coeffs=coeffs))
            sol = solved_for_field(domain, tau, 10, field)
            F = tuple(range(sol.cluster_of(2)[0], sol.cluster_of(2)[1] + 1))
            fd = fd_derivative(sol, F, 1, field).extrapolated
            scale = max(abs(fd), tau)
            had = hadamard_derivative(sol, F, 1, field)
            assert abs(fd - had) <= 1e-9 * scale, (domain, tau, field)
            try:
                ref = tracked_fd_derivative(domain, sol, sol.boundary.basis, F, 1, field).extrapolated
            except NumericalError:
                continue
            tracked += 1
            assert abs(fd - ref) <= 1e-6 * scale, (domain, tau, field)
        assert tracked >= 8

    def test_step_validation(self):
        sol = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        # a repeated step once divided by zero in the Richardson step, and a
        # non-finite one was reported as destroying star-shapedness
        for steps in ((0.0,), (-1e-3, 1e-3), (), (1e-3, 1e-3), (math.nan,), (math.inf,),
                      (1e-3, math.nan)):
            with pytest.raises(DomainValidationError, match="steps"):
                fd_derivative(sol, (2, 3), 1, g, steps=steps)

    def test_s_validation(self):
        # s is checked against |F| before any perturbed domain is assembled
        sol = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        for s in (0, 3):
            with pytest.raises(DomainValidationError, match="s must lie in"):
                fd_derivative(sol, (2, 3), s, g)

    def test_result_record(self):
        sol = solved(DISK, 1.0)
        g = PerturbationField(const=1.0)
        fd = fd_derivative(sol, (2, 3), 1, g, steps=(1e-3, 2e-3))
        assert fd.steps == (2e-3, 1e-3)  # sorted large to small
        assert len(fd.estimates) == 2
