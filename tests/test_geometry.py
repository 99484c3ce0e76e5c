"""Tests for star-shaped domains and their boundary and interior quadrature."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bisteklov import (
    DomainValidationError,
    StarDomain,
    area,
    boundary_geometry,
    interior_quadrature,
    rescale_to_area,
)
from bisteklov.geometry import _POSITIVITY_GRID, fourier_projection, grid_series
from oracles import center_boundary_centroid, trig_series

DISK = StarDomain(a0=1.0)
WOBBLY = StarDomain(a0=1.0, cos_coeffs=(0.05, 0.0, 0.08), sin_coeffs=(0.0, 0.03), center=(0.2, -0.1))


class TestStarDomain:
    def test_positivity_rejected(self):
        with pytest.raises(DomainValidationError):
            StarDomain(a0=1.0, cos_coeffs=(1.2,))
        with pytest.raises(DomainValidationError):
            StarDomain(a0=0.0)

    @pytest.mark.parametrize("center", [(0.0, 0.0, 5.0), (1.0,), ()])
    def test_center_holds_two_numbers(self, center):
        # a third number was once dropped silently, and a single one raised IndexError
        with pytest.raises(DomainValidationError, match="exactly two numbers"):
            StarDomain(a0=1.0, center=center)

    @pytest.mark.parametrize("kw", [
        {"a0": np.inf}, {"a0": np.nan}, {"a0": 1.0, "cos_coeffs": (0.0, np.inf)},
        {"a0": 1.0, "sin_coeffs": (-np.inf,)}, {"a0": np.inf, "cos_coeffs": (np.inf,)},
    ], ids=["a0-inf", "a0-nan", "cos-inf", "sin-minus-inf", "all-inf"])
    def test_non_finite_radius_rejected(self, kw):
        # an infinite a0 once passed as positive samples
        with pytest.raises(DomainValidationError, match="finite"):
            StarDomain(**kw)

    @pytest.mark.parametrize("n_cos,n_sin", [(0, 0), (1, 0), (0, 3), (34, 34), (2049, 2047), (6200, 6150)])
    def test_positivity_grid_matches_trig_series(self, n_cos, n_sin):
        # modes above n/2 alias on the grid and are folded
        rng = np.random.default_rng(n_cos + n_sin)
        a = 0.1 * rng.standard_normal(n_cos) / np.arange(1, n_cos + 1) ** 1.5
        b = 0.1 * rng.standard_normal(n_sin) / np.arange(1, n_sin + 1) ** 1.5
        for n in (_POSITIVITY_GRID, 513):
            th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
            want, want1, want2 = trig_series(1.0, a, b, th, derivatives=True)
            got, got1, got2 = grid_series(1.0, a, b, n, derivatives=True)
            assert np.array_equal(grid_series(1.0, a, b, n), got)
            assert abs(got.min() - want.min()) <= 1e-14
            assert np.abs(got - want).max() <= 5e-14
            # the oracle's angles k theta carry rounding of order k theta 1e-16,
            # which the derivatives scale by k and k^2
            for g, w in ((got1, want1), (got2, want2)):
                assert np.abs(g - w).max() <= 1e-11 * np.abs(w).max()
            if n_cos + n_sin == 0:
                assert np.all(got == 1.0) and np.all(got1 == 0.0) and np.all(got2 == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=2.0),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=6),
        st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=6),
    )
    # subnormal sine coefficients once vanished in the FFT sampler, so a series
    # negative on the grid was accepted
    @example(5e-324, [], [5e-324, 5e-324])
    def test_accepts_exactly_the_series_positive_on_the_grid(self, a0, cos, sin):
        th = np.linspace(0.0, 2.0 * np.pi, _POSITIVITY_GRID, endpoint=False)
        r_min = trig_series(a0, cos, sin, th).min()
        # within rounding of zero either answer is right: the FFT and the
        # mode-by-mode sum round differently
        assume(abs(r_min) > 1e-14 * (abs(a0) + sum(map(abs, cos + sin))))
        positive = bool(r_min > 0.0)
        try:
            StarDomain(a0=a0, cos_coeffs=cos, sin_coeffs=sin)
        except DomainValidationError:
            assert not positive
        else:
            assert positive

    def test_positivity_rejected_above_half_grid(self):
        # mode 3000 aliases to mode 1096, which reaches -1 on the grid
        with pytest.raises(DomainValidationError):
            StarDomain(a0=0.5, cos_coeffs=(0.0,) * 2999 + (0.6,))

    def test_coercion(self):
        d = StarDomain(a0=1, cos_coeffs=[0.1], center=[1, 2])
        assert d.a0 == 1.0
        assert d.cos_coeffs == (0.1,)
        assert d.center == (1.0, 2.0)

    def test_max_mode(self):
        assert DISK.max_mode == 0
        assert WOBBLY.max_mode == 3

    @pytest.mark.parametrize("n", [7, 8, 9, 16, 33, 64])
    def test_fourier_projection_interpolates(self, n):
        # an even grid's Nyquist mode is counted once, not doubled like the others
        samples = 1.0 + 0.2 * (np.random.default_rng(n).random(n) - 0.5)
        dom = fourier_projection(samples, center=(0.1, -0.2))
        assert dom.center == (0.1, -0.2)
        assert np.abs(dom.samples(n) - samples).max() <= 1e-14

    def test_rho_derivatives_consistency(self):
        n = 17
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        r, r1, r2 = WOBBLY.samples(n, derivatives=True)
        assert np.allclose(r, WOBBLY.samples(n), rtol=0, atol=0)

        def rho(theta):
            return trig_series(WOBBLY.a0, WOBBLY.cos_coeffs, WOBBLY.sin_coeffs, theta)

        h = 1e-6
        fd1 = (rho(th + h) - rho(th - h)) / (2 * h)
        assert np.allclose(r1, fd1, atol=1e-8)
        h = 1e-4  # second difference loses ~h^-2 digits to roundoff
        fd2 = (rho(th + h) - 2 * r + rho(th - h)) / h**2
        assert np.allclose(r2, fd2, atol=1e-6)


class TestBoundaryGeometry:
    def test_unit_circle(self):
        bq = boundary_geometry(DISK, 64)
        assert np.allclose(np.linalg.norm(bq.points, axis=1), 1.0, atol=1e-14)
        assert np.allclose(bq.normals, bq.points, atol=1e-14)
        assert bq.weights.sum() == pytest.approx(2.0 * np.pi, rel=1e-14)
        assert np.allclose(bq.curvatures, 1.0, atol=1e-14)

    def test_normals_are_unit_and_outward(self):
        bq = boundary_geometry(WOBBLY, 256)
        assert np.allclose(np.linalg.norm(bq.normals, axis=1), 1.0, atol=1e-13)
        # outward: positive component along the ray from the center
        rays = bq.points - np.array(WOBBLY.center)
        assert np.all(np.sum(bq.normals * rays, axis=1) > 0.0)

    def test_divergence_identity(self):
        # integral of x . nu over the boundary equals twice the area
        bq = boundary_geometry(WOBBLY, 256)
        shifted = bq.points - np.array(WOBBLY.center)
        got = float(np.sum(bq.weights * np.sum(shifted * bq.normals, axis=1)))
        assert got == pytest.approx(2.0 * area(WOBBLY), rel=1e-12)

    def test_total_curvature(self):
        for d in (DISK, WOBBLY):
            bq = boundary_geometry(d, 512)
            total = float(np.sum(bq.weights * bq.curvatures))
            assert total == pytest.approx(2.0 * np.pi, rel=1e-12)

    def test_node_doubling_stability(self):
        # the trapezoidal rule is spectrally accurate for these integrands
        def length(n):
            return boundary_geometry(WOBBLY, n).weights.sum()

        assert abs(length(256) - length(512)) < 1e-12

    def test_node_count_validation(self):
        with pytest.raises(DomainValidationError):
            boundary_geometry(WOBBLY, 8)


class TestAreaAndNormalization:
    def test_closed_form_area(self):
        assert area(DISK) == pytest.approx(np.pi, rel=1e-15)
        want = np.pi * (1.0 + 0.5 * (0.05**2 + 0.08**2 + 0.03**2))
        assert area(WOBBLY) == pytest.approx(want, rel=1e-15)

    def test_rescale_exact(self):
        scaled = rescale_to_area(WOBBLY, 2.0)
        assert area(scaled) == pytest.approx(2.0, rel=1e-14)
        assert scaled.center == WOBBLY.center
        ratio = scaled.a0 / WOBBLY.a0
        assert scaled.cos_coeffs[2] == pytest.approx(ratio * WOBBLY.cos_coeffs[2], rel=1e-14)

    def test_rescale_validation(self):
        with pytest.raises(DomainValidationError):
            rescale_to_area(DISK, 0.0)

    def test_centering(self):
        centered = center_boundary_centroid(WOBBLY)
        bq = boundary_geometry(centered, 1024)
        length = bq.weights.sum()
        centroid = bq.weights @ bq.points / length
        assert np.linalg.norm(centroid) <= 1e-10 * length

    def test_centering_fixes_disk(self):
        centered = center_boundary_centroid(StarDomain(a0=1.0, center=(0.4, 0.7)))
        assert abs(centered.center[0]) < 1e-14
        assert abs(centered.center[1]) < 1e-14


class TestInteriorQuadrature:
    def test_weights_sum_to_area(self):
        for d in (DISK, WOBBLY):
            pts, wts = interior_quadrature(d, 32, 128)
            assert wts.sum() == pytest.approx(area(d), rel=1e-12)
            assert pts.shape == (32 * 128, 2)

    def test_disk_moments(self):
        pts, wts = interior_quadrature(DISK, 32, 64)
        assert float(wts @ pts[:, 0] ** 2) == pytest.approx(np.pi / 4.0, rel=1e-12)
        assert float(wts @ (pts[:, 0] * pts[:, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_translation_moves_points_only(self):
        moved = StarDomain(a0=1.0, center=(2.0, 0.0))
        pts, wts = interior_quadrature(moved, 16, 32)
        ref_pts, ref_wts = interior_quadrature(DISK, 16, 32)
        assert np.allclose(pts[:, 0] - 2.0, ref_pts[:, 0], atol=1e-14)
        assert np.allclose(wts, ref_wts, atol=1e-15)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            interior_quadrature(DISK, 4, 64)
        with pytest.raises(DomainValidationError):
            interior_quadrature(WOBBLY, 16, 8)


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    a1=st.floats(min_value=-0.1, max_value=0.1),
    b2=st.floats(min_value=-0.1, max_value=0.1),
    a3=st.floats(min_value=-0.1, max_value=0.1),
)
def test_area_formula_matches_quadrature(a1, b2, a3):
    d = StarDomain(a0=1.0, cos_coeffs=(a1, 0.0, a3), sin_coeffs=(0.0, b2))
    _, wts = interior_quadrature(d, 16, 64)
    assert wts.sum() == pytest.approx(area(d), rel=1e-10)
