"""Tests for the fixed-area eigenvalue comparisons and boundary inequalities."""

import math

import numpy as np
import pytest

from bisteklov import (
    DomainValidationError,
    StarDomain,
    area,
    iso_scan,
    lambda2_of,
    make_family,
    rescale_to_area,
)

from oracles import center_boundary_centroid, inverse_sum_bound, weighted_boundary_inequality_check

DISK = StarDomain(a0=1.0)


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
        with pytest.raises(DomainValidationError):
            make_family("ellipse_like", parameters=(0.8,))
        with pytest.raises(DomainValidationError):
            make_family("hexagon")
        for family in ("perturbed_disk", "ellipse_like"):
            with pytest.raises(DomainValidationError):
                make_family(family, parameters=())
        for mode in (0, -1):
            with pytest.raises(DomainValidationError):
                make_family("perturbed_disk", parameters=(0.1,), mode=mode)

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
