import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bisteklov.errors import DomainValidationError
from bisteklov.special_functions import (
    BesselEval,
    integer_order_tails,
    leading_term,
    series_tail,
    ultraspherical_i,
    ultraspherical_i_tail,
)
from oracles import recurrence_derivatives

# reference values frozen from a 60-digit series evaluation
I_REFERENCE = {
    (0.5, 1.0): 0.93767488824548765,
    (0.0, 1.0): 1.2660658777520083,
    (3.0, 2.0): 0.21273995923985266,
    (2.0, 0.3): 0.011334612660978456,
    (2.5, 7.0): 104.61336757234871,
    (6.0, 50.0): 2.0393892819968647e20,
    (0.0, 100.0): 1.0737517071310738e42,
}

ULTRA_REFERENCE = {
    (0, 2, 1.0): 1.2660658777520083,
    (2, 2, 1.5): 0.33783461833568073,
    (1, 3, 1.0): 0.2935253263474798,
    (3, 4, 2.5): 0.055190866700751547,
    (2, 3, 0.7): 0.026988986330243535,
}


def bessel_I(order, z):
    """I_order(z) = c_0 z^order S_order(z^2/4), from the package's series."""
    return leading_term(order, order, z) * (1.0 + series_tail(order, z * z / 4.0))


class TestModifiedBessel:
    def test_frozen_references(self):
        for (order, z), ref in I_REFERENCE.items():
            assert_allclose(bessel_I(order, z), ref, rtol=1e-12)

    def test_half_order_closed_form(self):
        # I_{1/2}(z) = sqrt(2/(pi z)) sinh z
        for z in (0.2, 1.0, 3.0, 10.0, 40.0):
            exact = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
            assert_allclose(bessel_I(0.5, z), exact, rtol=1e-13)

    def test_against_scipy(self):
        for order in (0.0, 1.0, 2.0, 3.5, 6.0, 10.0):
            for z in (0.05, 0.5, 1.0, 4.0, 15.0, 60.0, 100.0):
                assert_allclose(
                    bessel_I(order, z),
                    scipy.special.iv(order, z),
                    rtol=1e-12,
                    err_msg=f"order={order}, z={z}",
                )


class TestUltraspherical:
    def test_frozen_references(self):
        for (l, N, z), ref in ULTRA_REFERENCE.items():
            assert_allclose(ultraspherical_i(l, N, z).value, ref, rtol=1e-12)

    def test_matches_scaled_bessel(self):
        # i_l(z) = z^(1-N/2) I_(N/2-1+l)(z) by definition
        for l in range(0, 7):
            for N in (2, 3, 4):
                for z in (0.1, 1.0, 5.0, 20.0):
                    nu = N / 2 - 1 + l
                    expect = z ** (1 - N / 2) * scipy.special.iv(nu, z)
                    assert_allclose(ultraspherical_i(l, N, z).value, expect, rtol=1e-10)

    def test_frozen_derivative_references(self):
        # 60-digit derivatives of i_1 for N=3 at z=1
        ev = ultraspherical_i(1, 3, 1.0)
        assert_allclose(ev.d1, 0.35062423555052805, rtol=1e-12)
        assert_allclose(ev.d2, 0.17932750794138331, rtol=1e-12)
        assert_allclose(ev.d3, 0.22036485647995443, rtol=1e-12)

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("l", range(0, 7))
    def test_series_vs_recurrence(self, l, N):
        for z in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            a = ultraspherical_i(l, N, z)
            b = recurrence_derivatives(l, N, z)
            assert_allclose(a.value, b.value, rtol=1e-10)
            assert_allclose(a.d1, b.d1, rtol=1e-10)
            assert_allclose(a.d2, b.d2, rtol=1e-10)
            assert_allclose(a.d3, b.d3, rtol=1e-10)

    def test_finite_difference_consistency(self):
        # five-point central stencils on the value chain, step 1e-4 * max(1, z)
        def stencil(vals, h):
            return (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]) / (12 * h)

        for l, N, z in [(0, 2, 0.5), (2, 2, 1.0), (1, 3, 2.0), (3, 4, 5.0), (5, 2, 10.0)]:
            h = 1e-4 * max(1.0, z)
            evs = [ultraspherical_i(l, N, z + i * h) for i in (-2, -1, 0, 1, 2)]
            ev = evs[2]
            assert_allclose(stencil([e.value for e in evs], h), ev.d1, rtol=1e-6)
            assert_allclose(stencil([e.d1 for e in evs], h), ev.d2, rtol=1e-6)
            assert_allclose(stencil([e.d2 for e in evs], h), ev.d3, rtol=1e-6)

    def test_positivity(self):
        for l in range(0, 7):
            for N in (2, 3, 4):
                for z in (1e-6, 0.1, 1.0, 10.0, 90.0):
                    ev = ultraspherical_i(l, N, z)
                    assert ev.value > 0.0
                    assert ev.d1 > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainValidationError):
            ultraspherical_i(-1, 2, 1.0)
        with pytest.raises(DomainValidationError):
            ultraspherical_i(0, 1, 1.0)
        with pytest.raises(DomainValidationError):
            ultraspherical_i(0, 2, 0.0)
        with pytest.raises(DomainValidationError):
            ultraspherical_i(0, 2, 101.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        l=st.integers(min_value=0, max_value=6),
        N=st.integers(min_value=2, max_value=4),
        z=st.floats(min_value=0.01, max_value=50.0),
    )
    def test_positivity_and_route_agreement_property(self, l, N, z):
        a = ultraspherical_i(l, N, z)
        assert a.value > 0.0 and a.d1 > 0.0
        b = recurrence_derivatives(l, N, z)
        assert_allclose(a.d1, b.d1, rtol=1e-10)
        assert_allclose(a.d2, b.d2, rtol=1e-10)
        assert_allclose(a.d3, b.d3, rtol=1e-10)


class TestTail:
    def test_tail_is_value_minus_leading(self):
        for l in (0, 1, 3, 6):
            for N in (2, 3):
                nu = N / 2 - 1 + l
                c0 = math.exp(-nu * math.log(2.0) - math.lgamma(nu + 1.0))
                z = np.array([0.05, 0.3, 1.0, 4.0, 9.0])
                tv, td1, td2 = ultraspherical_i_tail(l, N, z)
                for i, zz in enumerate(z):
                    full = ultraspherical_i(l, N, float(zz))
                    assert_allclose(tv[i], full.value - c0 * zz**l, rtol=1e-10)
                    lead1 = c0 * l * zz ** (l - 1) if l >= 1 else 0.0
                    lead2 = c0 * l * (l - 1) * zz ** (l - 2) if l >= 2 else 0.0
                    assert_allclose(td1[i], full.d1 - lead1, rtol=1e-9, atol=1e-14)
                    assert_allclose(td2[i], full.d2 - lead2, rtol=1e-9, atol=1e-14)

    def test_shape_and_errors(self):
        z = np.linspace(0.1, 2.0, 7).reshape(7, 1)
        tv, td1, td2 = ultraspherical_i_tail(2, 2, z)
        assert tv.shape == td1.shape == td2.shape == z.shape
        with pytest.raises(DomainValidationError):
            ultraspherical_i_tail(2, 2, np.array([0.5, -1.0]))
        with pytest.raises(DomainValidationError):
            ultraspherical_i_tail(2, 2, np.array([120.0]))


def test_bessel_eval_is_plain_record():
    ev = BesselEval(1.0, 2.0, 3.0, 4.0)
    assert (ev.value, ev.d1, ev.d2, ev.d3) == (1.0, 2.0, 3.0, 4.0)


class TestIntegerOrderTails:
    @pytest.mark.parametrize("top", [1, 12, 22])
    def test_recurrence_against_mpmath(self, top):
        # T_nu(q) = 0F1(; nu + 1; q) - 1 for nu = 0..top, q from 0 to the z = 100 limit
        mpmath = pytest.importorskip("mpmath")
        q = np.concatenate([[0.0], np.geomspace(1e-10, 2500.0, 40)])
        got = integer_order_tails(top, q)
        assert got.shape == (top + 1, q.size)
        assert np.all(got[:, 0] == 0.0)
        with mpmath.workdps(40):
            want = np.array(
                [[float(mpmath.hyp0f1(nu + 1, mpmath.mpf(x)) - 1) for x in q[1:]]
                 for nu in range(top + 1)]
            )
        assert_allclose(got[:, 1:], want, rtol=2e-15, atol=0)
