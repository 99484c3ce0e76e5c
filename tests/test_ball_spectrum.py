"""Tests for the ball spectrum: closed-form eigenvalues, profiles, enumeration."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisteklov import (
    DomainValidationError,
    NumericalError,
    eigenvalue_of_order,
    multiplicity_of_order,
    sorted_spectrum,
)
from bisteklov.special_functions import ultraspherical_i

from oracles import BallMode, cartesian_quotient_2d, radial_profile, rayleigh_quotient

# Frozen outputs of an independent Rayleigh-quotient minimization over the
# two-dimensional trial space {r^l, i_l(sqrt(tau) r)}, which agrees with the
# closed-form expression to ~1e-14 relative.  Keyed by (l, N, tau).
EIGENVALUE_REFERENCE = {
    (2, 2, 0.5): 8.20981620006762,
    (3, 2, 0.5): 32.3934671882510,
    (4, 2, 0.5): 82.0735154155032,
    (2, 2, 1.0): 9.21927901686503,
    (3, 2, 1.0): 33.9289906435861,
    (4, 2, 1.0): 84.1459321284893,
    (2, 2, 5.0): 17.2843833438495,
    (3, 2, 5.0): 46.1875157419885,
    (4, 2, 5.0): 100.688792631237,
    (2, 3, 1.0): 11.2172222993705,
    (3, 3, 1.0): 39.9226271593179,
    (2, 4, 1.0): 13.2155599000407,
    (2, 3, 0.1): 9.40177205118564,
    (2, 2, 20.0): 47.4329157734006,
    (5, 2, 20.0): 267.527614508876,
}


class TestEigenvalueFormula:
    def test_frozen_reference_values(self):
        for (l, N, tau), expected in EIGENVALUE_REFERENCE.items():
            got = eigenvalue_of_order(l, N, tau)
            assert got == pytest.approx(expected, rel=1e-12), (l, N, tau)

    def test_order_zero_vanishes(self):
        for N in (2, 3, 4):
            for tau in (0.1, 1.0, 25.0):
                assert eigenvalue_of_order(0, N, tau) == 0.0

    def test_order_one_equals_tension(self):
        # the num/den cancellation is exact for l = 1, so this holds to roundoff
        for N in (2, 3, 4, 5):
            for tau in (0.1, 0.5, 1.0, 5.0, 20.0, 100.0):
                assert eigenvalue_of_order(1, N, tau) == pytest.approx(tau, rel=1e-13)

    def test_rayleigh_consistency(self):
        # the eigenprofile's Rayleigh quotient must reproduce the formula value
        for N in (2, 3):
            for tau in (0.5, 2.0):
                for l in range(1, 6):
                    mode = radial_profile(l, N, tau)
                    q = rayleigh_quotient(mode.evaluate, l, N, tau)
                    assert q == pytest.approx(mode.eigenvalue, rel=1e-8), (l, N, tau)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            eigenvalue_of_order(2, 2, 0.0)
        with pytest.raises(DomainValidationError):
            eigenvalue_of_order(2, 2, -1.0)
        with pytest.raises(DomainValidationError):
            eigenvalue_of_order(2, 2, 2.0e4)
        with pytest.raises(DomainValidationError):
            eigenvalue_of_order(-1, 2, 1.0)
        # beyond 2^53, N (2 l + 1) wrapped round int64 or overflowed a C long
        for N in (1, 2**53 + 1, 10**20):
            with pytest.raises(DomainValidationError):
                eigenvalue_of_order(2, N, 1.0)
        with pytest.raises(DomainValidationError, match=r"2\.\.2\^53"):
            sorted_spectrum(2**53 + 1, 1.0, 4)

    @pytest.mark.parametrize("N", [2, 5])
    @pytest.mark.parametrize("tau", [1e-3, 1.0, 1e4])
    def test_against_mpmath(self, N, tau):
        # the unreduced formula of the docstring, in 60 digits with mpmath's Bessel
        # function and numerical derivatives
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            t = mp.mpf(tau)
            s = mp.sqrt(t)
            for l in (2, 20, 60, 150):
                nu = mp.mpf(N) / 2 - 1 + l
                i_l = lambda z: z ** (1 - mp.mpf(N) / 2) * mp.besseli(nu, z)  # noqa: E731
                i = [mp.diff(i_l, s, n) for n in range(4)]
                den = (1 - l) * l * i[0] + t * i[2]
                num = (
                    3 * (l - 1) * l * (l + N - 2) * i[0]
                    - (l - 1) * s * (N - 1 + 2 * N * l + 2 * l * (l - 2) + t) * i[1]
                    + t * ((l - 1) * (l + 2 * N - 3) + t) * i[2]
                    + (l - 1) * t * s * i[3]
                )
                want = float(l * num / den)
                assert eigenvalue_of_order(l, N, tau) == pytest.approx(want, rel=1e-8), l

    @settings(deadline=None, derandomize=True, max_examples=40)
    @given(
        l=st.integers(min_value=2, max_value=12),
        N=st.integers(min_value=2, max_value=5),
        tau=st.floats(min_value=0.05, max_value=50.0),
    )
    def test_positive_and_increasing_in_order(self, l, N, tau):
        lam = eigenvalue_of_order(l, N, tau)
        assert lam > 0.0
        assert eigenvalue_of_order(l + 1, N, tau) > lam


class TestMultiplicity:
    def test_known_dimensions(self):
        assert multiplicity_of_order(0, 2) == 1
        assert multiplicity_of_order(0, 5) == 1
        for l in range(1, 8):
            assert multiplicity_of_order(l, 2) == 2
            assert multiplicity_of_order(l, 3) == 2 * l + 1
        assert multiplicity_of_order(1, 4) == 4
        assert multiplicity_of_order(2, 3) == 5
        assert multiplicity_of_order(3, 4) == 16

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            multiplicity_of_order(-1, 2)
        with pytest.raises(DomainValidationError):
            multiplicity_of_order(2, 1)


class TestRadialProfile:
    def test_low_orders_are_pure_powers(self):
        for l in (0, 1):
            mode = radial_profile(l, 2, 1.0)
            assert mode.coeff_bessel == 0.0
            assert mode.coeff_power == 1.0

    def test_free_edge_residual(self):
        # R''(1) = 0 is built into the Bessel coefficient; check it survives evaluation
        for N in (2, 3):
            for tau in (0.5, 1.0, 5.0):
                for l in range(2, 7):
                    mode = radial_profile(l, N, tau)
                    r2 = mode.evaluate(np.array([1.0]))[2][0]
                    assert abs(r2) <= 1e-10 * l * (l - 1), (l, N, tau)

    def test_evaluate_matches_scalar_series(self):
        # the vectorized normalised-series evaluation against scalar series calls
        mode = radial_profile(3, 2, 2.0)
        s = math.sqrt(2.0)
        radii = np.array([0.05, 0.3, 0.7, 1.0])
        R, R1, R2 = mode.evaluate(radii)
        for j, r in enumerate(radii):
            ie = ultraspherical_i(3, 2, s * r)
            want = r**3 + mode.coeff_bessel * ie.value
            want1 = 3 * r**2 + mode.coeff_bessel * s * ie.d1
            want2 = 6 * r + mode.coeff_bessel * 2.0 * ie.d2
            assert R[j] == pytest.approx(want, rel=1e-12)
            assert R1[j] == pytest.approx(want1, rel=1e-12)
            assert R2[j] == pytest.approx(want2, rel=1e-12, abs=1e-12)

    def test_unrepresentable_bessel_coefficient(self):
        # c_0 s^3 underflows at tau = 1e-300, so the i_l coefficient has no double value
        assert eigenvalue_of_order(3, 2, 1e-300) > 0.0
        with pytest.raises(NumericalError):
            radial_profile(3, 2, 1e-300)

    def test_constant_mode(self):
        mode = radial_profile(0, 3, 1.0)
        R, R1, R2 = mode.evaluate(np.linspace(0.1, 1.0, 5))
        assert np.all(R == 1.0)
        assert np.all(R1 == 0.0)
        assert np.all(R2 == 0.0)

    def test_multiplicity_field(self):
        mode = radial_profile(2, 3, 1.0)
        assert mode.multiplicity == multiplicity_of_order(2, 3)

    def test_record_fields(self):
        mode = radial_profile(2, 2, 1.0)
        assert isinstance(mode, BallMode)
        assert mode.eigenvalue == eigenvalue_of_order(2, 2, 1.0)


class TestRayleighQuotient:
    def test_against_cartesian_oracle(self):
        # non-eigenprofile trial functions, radial reduction vs full 2-D chain rule
        for l in (1, 2, 3):

            def f(r, l=l):
                return r**l * (1.0 - r**2 / 3.0)

            def fp(r, l=l):
                return l * r ** (l - 1) * (1.0 - r**2 / 3.0) + r**l * (-2.0 * r / 3.0)

            def fpp(r, l=l):
                return (
                    l * (l - 1) * r ** (l - 2) * (1.0 - r**2 / 3.0)
                    + 2.0 * l * r ** (l - 1) * (-2.0 * r / 3.0)
                    - 2.0 / 3.0 * r**l
                )

            def radial(r, f=f, fp=fp, fpp=fpp):
                return f(r), fp(r), fpp(r)

            for tau in (0.5, 3.0):
                got = rayleigh_quotient(radial, l, 2, tau)
                want = cartesian_quotient_2d(f, fp, fpp, l, tau)
                assert got == pytest.approx(want, rel=1e-6), (l, tau)

    def test_lower_bound_property(self):
        # every admissible trial profile sits at or above the class eigenvalue
        lam = eigenvalue_of_order(2, 2, 1.0)

        def radial(r):
            f = r**2 * (1.0 - r**2 / 3.0)
            fp = 2.0 * r - 4.0 * r**3 / 3.0
            fpp = 2.0 - 4.0 * r**2
            return f, fp, fpp

        q = rayleigh_quotient(radial, 2, 2, 1.0)
        assert q > lam * (1.0 + 1e-9)

    def test_validation(self):
        def radial(r):
            return np.ones_like(r), np.zeros_like(r), np.zeros_like(r)

        with pytest.raises(DomainValidationError):
            rayleigh_quotient(radial, -1, 2, 1.0)
        with pytest.raises(DomainValidationError):
            rayleigh_quotient(radial, 0, 1, 1.0)
        with pytest.raises(DomainValidationError):

            def vanishing(r):
                return r - 1.0, np.ones_like(r), np.zeros_like(r)

            rayleigh_quotient(vanishing, 0, 2, 1.0)


class TestSortedSpectrum:
    def test_leading_structure(self):
        for N in (2, 3, 4):
            spec = sorted_spectrum(N, 1.5, 10)
            lam, orders = spec.eigenvalues, spec.angular_orders
            assert len(lam) == len(orders) == 10
            # index 1 is order 0 alone, indexes 2..N+1 share order 1, and index N+2 opens order 2
            assert lam[0] == 0.0 and orders[0] == 0
            assert np.all(orders[1:N + 1] == 1) and orders[N + 1] == 2
            assert np.all(lam[1:N + 1] == lam[1]) and lam[N + 1] > lam[N]
            assert spec.eigenvalue(1) == 0.0
            assert spec.eigenvalue(2) == pytest.approx(1.5, rel=1e-13)

    def test_matches_brute_force_enumeration(self):
        for N, tau, j_max in ((2, 1.0, 25), (3, 0.5, 40)):
            rows = []
            for l in range(0, 60):
                lam = eigenvalue_of_order(l, N, tau)
                rows.extend([(lam, l)] * multiplicity_of_order(l, N))
            rows.sort()
            spec = sorted_spectrum(N, tau, j_max)
            flat = spec.flatten()
            assert len(flat) == j_max
            for (j, lam, order), (want_lam, want_order) in zip(flat, rows[:j_max]):
                assert lam == want_lam
                assert order == want_order
            assert [row[0] for row in flat] == list(range(1, j_max + 1))

    def test_many_orders_in_linear_time(self):
        # the multiplicities are counted as they are added, not re-summed per order
        start = time.perf_counter()
        spec = sorted_spectrum(2, 1.0, 200_000)
        assert time.perf_counter() - start < 5.0
        assert len(spec.eigenvalues) == len(spec.angular_orders) == 200_000
        assert spec.angular_orders[-1] == 100_000

    def test_ascending(self):
        flat = sorted_spectrum(2, 5.0, 30).flatten()
        vals = [lam for _, lam, _ in flat]
        assert vals == sorted(vals)

    def test_index_queries(self):
        spec = sorted_spectrum(2, 1.0, 8)
        with pytest.raises(DomainValidationError):
            spec.eigenvalue(0)
        with pytest.raises(DomainValidationError):
            spec.eigenvalue(9)

    def test_validation(self):
        with pytest.raises(DomainValidationError):
            sorted_spectrum(2, 1.0, 0)
        with pytest.raises(DomainValidationError):
            sorted_spectrum(2, -1.0, 5)


class TestMonotonicity:
    def test_holds_on_parameter_grid(self):
        # lambda_(1) < lambda_(2), then strictly increasing in l up to 10
        for N in (2, 3, 4):
            for tau in (0.1, 1.0, 5.0, 20.0, 100.0):
                vals = eigenvalue_of_order(np.arange(1, 11), N, tau)
                assert vals[0] < vals[1] and np.all(np.diff(vals[1:]) > 0.0), (N, tau)
                assert vals[0] == pytest.approx(tau, rel=1e-13)
