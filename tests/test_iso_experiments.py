"""Tests for the fixed-area eigenvalue comparisons and boundary inequalities."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from bisteklov import (
    DomainValidationError,
    StarDomain,
    area,
    assemble,
    iso_scan,
    lambda2_of,
    make_family,
    make_trial_basis,
    rescale_to_area,
    solve,
)

from oracles import (
    center_boundary_centroid,
    inverse_sum_bound,
    small_tau_limit,
    weighted_boundary_inequality_check,
)
from test_shape_calculus import SEEDED_BENCHMARK_CASES

DISK = StarDomain(a0=1.0)
DOMAIN_FILES = sorted((Path(__file__).resolve().parents[1] / "domains").glob("*.json"))


class TestLambda2Of:
    def test_unit_disk(self):
        assert lambda2_of(DISK, 1.0) == pytest.approx(1.0, rel=1e-8)

    def test_disk_radius_scaling(self):
        # lambda_2 of a disk of radius R is tau / R
        assert lambda2_of(StarDomain(a0=2.0), 1.0) == pytest.approx(0.5, rel=1e-8)
        assert lambda2_of(StarDomain(a0=0.5), 3.0) == pytest.approx(6.0, rel=1e-8)

    def test_off_center_disk(self):
        moved = StarDomain(a0=1.0, center=(0.7, -0.4))
        assert lambda2_of(moved, 1.0) == pytest.approx(1.0, rel=1e-8)
        # a star whose boundary centroid is far from its centre: the basis moves
        # with the domain, so solving it uncentred gives its centred copy's lambda_2
        star = StarDomain(a0=1.0, cos_coeffs=(0.2,), center=(0.3, -0.1))
        centred = center_boundary_centroid(star)
        assert np.hypot(*np.subtract(centred.center, star.center)) > 0.1
        assert lambda2_of(star, 1.0) == pytest.approx(lambda2_of(centred, 1.0), rel=1e-13)

    def test_area_scaling_law(self):
        # scaling area by c scales lambda_2 by 1/sqrt(c)
        tau = 1.0
        for target in (math.pi / 2.0, math.pi, 2.0 * math.pi):
            dom = rescale_to_area(DISK, target)
            want = tau / math.sqrt(target / math.pi)
            assert lambda2_of(dom, tau) == pytest.approx(want, rel=1e-8)


class TestMakeFamily:
    def test_areas_are_normalized(self):
        for family in ("perturbed_disk", "ellipse_like"):
            for _, dom in make_family(family):
                assert area(dom) == pytest.approx(math.pi, rel=1e-12)

    def test_disk_members(self):
        members = make_family("perturbed_disk", parameters=(0.0, 0.1))
        assert members[0][1].cos_coeffs == ()
        assert members[0][1].a0 == pytest.approx(1.0, rel=1e-14)
        ellipse = make_family("ellipse_like", parameters=(1.0,))
        assert ellipse[0][1].a0 == pytest.approx(1.0, rel=1e-10)
        assert all(abs(c) < 1e-10 for c in ellipse[0][1].cos_coeffs)

    def test_mode_parameter(self):
        members = make_family("perturbed_disk", parameters=(0.1,), mode=4)
        dom = members[0][1]
        assert len(dom.cos_coeffs) == 4
        assert dom.cos_coeffs[3] != 0.0

    def test_ellipse_symmetry(self):
        # even function of theta with period pi: only even cosine modes survive
        members = make_family("ellipse_like", parameters=(1.3,))
        dom = members[0][1]
        assert all(abs(s) < 1e-13 for s in dom.sin_coeffs)
        for k, c in enumerate(dom.cos_coeffs, start=1):
            if k % 2 == 1:
                assert abs(c) < 1e-13

    def test_validation(self):
        for aspect in (0.8, 10.5, math.inf, math.nan):
            with pytest.raises(DomainValidationError, match="aspect ratio"):
                make_family("ellipse_like", parameters=(aspect,))
        assert make_family("ellipse_like", parameters=(10.0,))[0][0] == 10.0
        with pytest.raises(DomainValidationError):
            make_family("hexagon")
        for family in ("perturbed_disk", "ellipse_like"):
            with pytest.raises(DomainValidationError):
                make_family(family, parameters=())
        for mode in (0, -1):
            with pytest.raises(DomainValidationError):
                make_family("perturbed_disk", parameters=(0.1,), mode=mode)
        for mode in (0, 3, 100000):  # the family has no mode to set
            with pytest.raises(DomainValidationError, match="takes no mode"):
                make_family("ellipse_like", parameters=(1.2,), mode=mode)

    def test_mode_beyond_boundary_rule(self):
        # mode M needs 4 (M + 1) boundary nodes, more than the 2048 of the largest
        # rule from M = 512 on; 10^19 once overflowed building the coefficients
        [(_, member)] = make_family("perturbed_disk", parameters=(0.01,), mode=511)
        assert len(member.cos_coeffs) == 511
        for mode in (512, 10**19):
            with pytest.raises(DomainValidationError):
                make_family("perturbed_disk", parameters=(0.01,), mode=mode)


class TestIsoScan:
    def test_perturbed_disk_scan(self):
        result = iso_scan("perturbed_disk", parameters=(0.0, 0.05, 0.1), tau=1.0)
        assert result.verdict
        assert len(result.rows) == 3
        margins = {row.parameter: row.margin for row in result.rows}
        assert abs(margins[0.0]) <= 1e-7
        assert margins[0.05] > 1e-6
        assert margins[0.1] > margins[0.05]
        for row in result.rows:
            assert row.area == pytest.approx(math.pi, rel=1e-12)
            assert row.ball_bound == pytest.approx(1.0, rel=1e-8)

    def test_ellipse_scan(self):
        result = iso_scan("ellipse_like", parameters=(1.0, 1.2, 1.4), tau=2.0)
        assert result.verdict
        margins = [row.margin for row in result.rows]
        assert margins == sorted(margins)  # deficit grows with eccentricity

    def test_verdict_rejects_fake_tie(self):
        # a non-disk member whose margin sits inside the tolerance band must fail;
        # amplitude 1e-6 costs only O(amp^2) eigenvalue, far below 1e-7
        result = iso_scan("perturbed_disk", parameters=(0.0, 1e-6), tau=1.0)
        assert not result.verdict

    @pytest.mark.parametrize("tau", [1e-5, 1e-6, 1e-8])
    @pytest.mark.parametrize("family", ["perturbed_disk", "ellipse_like"])
    def test_small_tau_passes(self, family, tau):
        # margins scale with tau: every non-disk member lies at least 1.2e-3 tau
        # below the disk, far outside the tie band 1e-7 tau, while at tau <= 1e-5
        # all of them lie within the absolute 1e-7 that the band used to be
        result = iso_scan(family, tau=tau)
        assert result.verdict
        disk = 0.0 if family == "perturbed_disk" else 1.0
        assert all(row.margin > 1e-7 * tau for row in result.rows if row.parameter != disk)

    def test_tie_band_scales_with_tau(self):
        # at tau = 20 amplitude 1e-4 costs a margin of 1.2e-6 = 6.1e-8 tau, inside
        # the band 1e-7 tau; amplitude 2e-4 (4.8e-6) clears it
        assert not iso_scan("perturbed_disk", parameters=(0.0, 1e-4), tau=20.0).verdict
        assert iso_scan("perturbed_disk", parameters=(0.0, 2e-4), tau=20.0).verdict


class TestInverseSumBound:
    def test_disk_equality(self):
        lhs, rhs, gap = inverse_sum_bound(DISK, 1.0)
        assert lhs == pytest.approx(2.0, rel=1e-8)
        assert rhs == pytest.approx(2.0, rel=1e-12)
        assert abs(gap) <= 1e-8

    def test_perturbed_domain_strict(self):
        dom = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.08))
        _, _, gap = inverse_sum_bound(dom, 1.0)
        assert gap > 1e-4

    def test_tau_scaling_on_disk(self):
        lhs, rhs, gap = inverse_sum_bound(DISK, 4.0)
        assert lhs == pytest.approx(0.5, rel=1e-8)
        assert abs(gap) <= 1e-8


class TestSmallTauLimit:
    """lambda_2 / tau and lambda_3 / tau tend to small_tau_limit, first order in tau."""

    CASES = (
        [(p.name, StarDomain(**json.loads(p.read_text())), 14) for p in DOMAIN_FILES]
        + [(f"{family}-{param:g}", dom, 14)
           for family in ("perturbed_disk", "ellipse_like") for param, dom in make_family(family)]
        + [(f"star-{i}", dom, k_max) for i, (dom, _, k_max, _) in enumerate(SEEDED_BENCHMARK_CASES)]
    )

    @pytest.mark.parametrize("domain, k_max", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_first_order_approach(self, domain, k_max):
        taus = np.array([1e-2, 1e-3, 1e-4])[:, None]
        gaps = np.array([solve(assemble(domain, tau, make_trial_basis(k_max, tau))).eigenvalues[1:3]
                         for tau in taus[:, 0]]) / taus - np.array(small_tau_limit(domain))
        # roundoff of lambda / tau: the eigenvalues carry an absolute error near 1e-15
        noise = 1e-14 / taus
        assert np.all(np.abs(gaps[-1]) <= 1e-6)
        # from below, as the affine functions are trial functions, and tenfold smaller
        # per decade of tau; on a disk the gap is roundoff alone
        assert np.all(gaps < noise)
        first_order = gaps[0] * taus / taus[0]
        assert np.all(np.abs(gaps - first_order) <= 0.01 * np.abs(first_order) + noise), gaps

    def test_flat_below_roundoff_of_mu(self):
        # lambda_2 / tau of the non-disk perturbed_disk members holds its tau = 1e-12
        # value further down; read off mu = 1 / (1 + lambda) it moved by up to 1.1e-1
        for _, dom in make_family("perturbed_disk")[1:]:
            r = [solve(assemble(dom, tau, make_trial_basis(10, tau))).eigenvalues[1] / tau
                 for tau in (1e-12, 1e-13, 1e-14)]
            assert abs(r[1] - r[0]) <= 1e-12 and abs(r[2] - r[0]) <= 1e-12, r

    def test_upper_bounds_below_roundoff_of_mu(self):
        # lambda_2 / tau is nonincreasing in tau, and the quotient of a column made
        # b-orthogonal to the constant is at least the discrete lambda_2: where eigh
        # mixes an ellipse's unequal pair (tau <= 1e-12) the value may only rise.
        # Read off mu it fell by up to 1.4e-1
        for _, dom in make_family("ellipse_like")[1:]:
            r = [solve(assemble(dom, tau, make_trial_basis(10, tau))).eigenvalues[1] / tau
                 for tau in (1e-9, 1e-11, 1e-12, 1e-13, 1e-14)]
            assert all(b >= r[0] * (1.0 - 1e-12) for b in r[1:]), r

    def test_measured_limits(self):
        # rho = 1 + 0.1 cos 3 theta at area pi is isotropic; the aspect-1.3 ellipse is not
        (_, pd), = make_family("perturbed_disk", (0.1,))
        (_, el), = make_family("ellipse_like", (1.3,))
        assert small_tau_limit(pd) == pytest.approx((0.97143667, 0.97143667), abs=1e-8)
        assert small_tau_limit(el) == pytest.approx((0.81204838, 1.20532149), abs=1e-8)


class TestEveryTau:
    """Two Rayleigh-Ritz facts at every tau on TestSmallTauLimit's domains.

    The span {1, b . (x - c)} of the affine trial pair gives lambda_2 / tau <=
    |Omega| / mu_max(M) and {1, x, y} gives lambda_3 / tau <= |Omega| / mu_min(M),
    the small_tau_limit values.  And lambda_j / tau is nonincreasing in tau: for a
    fixed u the quotient (int |D^2 u|^2 + tau int |grad u|^2) / (tau int u^2 ds) is,
    and the admissible space does not depend on tau.
    """

    TAUS = np.array([1e-3, 0.1, 1.0, 10.0, 100.0, 1000.0, 5000.0])

    @pytest.fixture(scope="class")
    def spectra(self):
        """The eigenvalues at each of TAUS, a list per case name."""
        return {
            name: [solve(assemble(dom, tau, make_trial_basis(k_max, tau))).eigenvalues
                   for tau in self.TAUS]
            for name, dom, k_max in TestSmallTauLimit.CASES
        }

    @pytest.fixture(scope="class")
    def ratios(self, spectra):
        """lambda_j / tau, j = 2..9, an array (tau, j) per case name."""
        return {name: np.array([lam[1:9] for lam in s]) / self.TAUS[:, None]
                for name, s in spectra.items()}

    def test_constant_exact_and_ascending(self, spectra):
        for name, s in spectra.items():
            for lam in s:
                assert lam[0] == 0.0, name
                assert np.all(np.diff(lam) >= 0.0), name

    def test_affine_bound(self, ratios):
        # equality on the disk; roundoff allowed a decade above the worst measured
        # relative excess, 8.6e-13 (on the disk, at one OpenBLAS thread)
        excess = {name: float((ratios[name][:, :2] / small_tau_limit(dom) - 1.0).max())
                  for name, dom, _ in TestSmallTauLimit.CASES}
        assert max(excess.values()) <= 1e-11, {k: v for k, v in excess.items() if v > 1e-11}

    def test_monotone_in_tau(self, ratios):
        # roundoff allowed a decade above the worst measured relative rise, 4.8e-13
        # (on the disk, at two OpenBLAS threads)
        rise = {name: float((r[1:] / r[:-1] - 1.0).max()) for name, r in ratios.items()}
        assert max(rise.values()) <= 5e-12, {k: v for k, v in rise.items() if v > 5e-12}

    def test_disk_bounds_lambda2_at_area_pi(self):
        # at area pi, mu_max(M) >= tr M / 2 >= pi, so |Omega| / mu_max(M) <= 1 = the
        # disk's lambda_2 / tau, with equality on the disk; with test_affine_bound,
        # lambda_2 <= tau at every tau
        for family, disk in (("perturbed_disk", 0.0), ("ellipse_like", 1.0)):
            for param, dom in make_family(family):
                limit = small_tau_limit(dom)[0]
                if param == disk:
                    assert limit == pytest.approx(1.0, abs=1e-13)
                else:
                    assert limit < 1.0 - 1e-4


class TestHigherClusters:
    """The disk stops maximising the k = 2 and k = 3 clusters at a finite tau.

    The second difference (e_1(a) - e_1(0)) / a^2 of the pair's mean along
    rho = 1 + a cos(m theta) at area pi changes sign between the two tau: the disk
    turns from a local maximum of that cluster into a saddle.  Measured
    (a = 0.02 / 0.01, the same at k_max 20 and 28): -6.234 / -6.198 and
    +4.606 / +4.675 for (4, 5) along cos 3 theta at tau 4 and 6; -36.66 / -35.68
    and +96.87 / +99.24 for (6, 7) along cos 5 theta at tau 10 and 14.
    """

    @pytest.mark.parametrize("k_max", [20, 28])
    @pytest.mark.parametrize("pair, mode, tau, sign", [
        ((4, 5), 3, 4.0, -1.0), ((4, 5), 3, 6.0, 1.0),
        ((6, 7), 5, 10.0, -1.0), ((6, 7), 5, 14.0, 1.0),
    ])
    def test_second_difference_sign(self, pair, mode, tau, sign, k_max):
        basis = make_trial_basis(k_max, tau)

        def pair_mean(amp):
            [(_, dom)] = make_family("perturbed_disk", (amp,), mode=mode)
            sol = solve(assemble(dom, tau, basis))
            assert pair in sol.clusters
            return sol.eigenvalues[pair[0] - 1: pair[1]].mean()

        e0 = pair_mean(0.0)
        d2 = [(pair_mean(amp) - e0) / amp**2 for amp in (0.02, 0.01)]
        assert all(np.sign(d) == sign for d in d2), d2
        assert d2[0] == pytest.approx(d2[1], rel=0.05)


class TestWeightedBoundaryInequality:
    def test_disk_equality(self):
        for f in ("t", "t2", "t4"):
            lhs, rhs, ok = weighted_boundary_inequality_check(DISK, f)
            assert ok
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_perturbed_strict(self):
        dom = StarDomain(a0=1.0, cos_coeffs=(0.0, 0.1))
        for f in ("t", "t2", "t4"):
            lhs, rhs, ok = weighted_boundary_inequality_check(dom, f)
            assert ok
            assert lhs > rhs + 1e-6

    def test_off_center_is_recentred(self):
        moved = StarDomain(a0=1.0, center=(0.5, 0.2))
        lhs, rhs, ok = weighted_boundary_inequality_check(moved, "t2")
        assert ok
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_unknown_weight(self):
        with pytest.raises(DomainValidationError):
            weighted_boundary_inequality_check(DISK, "t3")
