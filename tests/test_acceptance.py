"""Acceptance suite: one test per advertised guarantee, one printed line each.

Every test prints `ACCEPTANCE n: PASS/FAIL - detail` regardless of outcome, then
asserts.  Tolerances and runtime budgets are part of the guarantees.
"""

import math
import time

import numpy as np
import pytest

from bisteklov import (
    PerturbationField,
    StarDomain,
    area,
    assemble,
    boundary_geometry,
    criticality_residual,
    eigenvalue_of_order,
    fd_derivative,
    hadamard_derivative,
    iso_scan,
    lambda2_of,
    make_radial_mesh,
    make_trial_basis,
    merged_spectrum,
    rescale_to_area,
    solve,
    sorted_spectrum,
)

from oracles import (
    inverse_sum_bound,
    radial_profile,
    rayleigh_quotient,
    weighted_boundary_inequality_check,
)

TAU_GRID = (0.1, 1.0, 5.0, 20.0)
DIM_GRID = (2, 3, 4)


def report(capsys, n: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


@pytest.fixture(scope="module")
def default_scans():
    """Shared family scans for the isoperimetric criteria."""
    start = time.perf_counter()
    scans = {
        (family, tau): iso_scan(family, tau=tau)
        for family in ("perturbed_disk", "ellipse_like")
        for tau in (0.5, 1.0, 5.0)
    }
    return scans, time.perf_counter() - start


def test_criterion_1_first_positive_ball_eigenvalue(capsys):
    start = time.perf_counter()
    worst = 0.0
    mult_ok = True
    for N in DIM_GRID:
        for tau in TAU_GRID:
            spec = sorted_spectrum(N, tau, N + 2)
            lam2 = spec.eigenvalue(2)
            worst = max(worst, abs(lam2 - tau) / tau)
            # indexes 2..N+1 hold order 1, and index N+2 opens order 2 above tau
            if spec.angular_orders.tolist() != [0, *[1] * N, 2] or spec.eigenvalue(N + 2) <= tau:
                mult_ok = False
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and mult_ok and elapsed < 1.0
    report(capsys, 1, ok, f"max rel err {worst:.2e}, multiplicity N confirmed, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert mult_ok
    assert elapsed < 1.0


def test_criterion_2_formula_vs_rayleigh(capsys):
    start = time.perf_counter()
    worst = 0.0
    for l in (2, 3, 4):
        for tau in (0.5, 1.0, 5.0):
            mode = radial_profile(l, 2, tau)
            q = rayleigh_quotient(mode.evaluate, l, 2, tau)
            worst = max(worst, abs(q - mode.eigenvalue) / abs(mode.eigenvalue))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(capsys, 2, ok, f"max rel discrepancy {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_3_solver_vs_analytic_disk(capsys):
    start = time.perf_counter()
    disk = StarDomain(a0=1.0)
    worst = 0.0
    for tau in (0.5, 1.0, 5.0):
        basis = make_trial_basis(10, tau)
        sol = solve(assemble(disk, tau, basis))
        ref = [lam for _, lam, _ in sorted_spectrum(2, tau, 9).flatten()]
        got = sol.eigenvalues[1:9]
        worst = max(worst, float(np.max(np.abs(got - np.array(ref[1:9])) / np.array(ref[1:9]))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(capsys, 3, ok, f"first 8 nonzero, max rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_4_order_monotonicity(capsys):
    failures = []
    for N in DIM_GRID:
        for tau in TAU_GRID:
            vals = eigenvalue_of_order(np.arange(1, 11), N, tau)
            if not (vals[0] < vals[1] and np.all(np.diff(vals[1:]) > 0.0)):
                failures.append((N, tau))
    ok = not failures
    report(capsys, 4, ok, f"l = 1..10 over N in {DIM_GRID}, tau in {TAU_GRID}, failures: {failures}")
    assert not failures


def test_criterion_5_hadamard_vs_finite_differences(capsys):
    start = time.perf_counter()
    tau = 1.0
    domain = rescale_to_area(StarDomain(a0=1.0, cos_coeffs=(0.0, 0.05)), math.pi)
    basis = make_trial_basis(10, tau)
    sol = solve(assemble(domain, tau, basis))
    field = PerturbationField(cos_coeffs=(0.0, 1.0))
    analytic = hadamard_derivative(sol, (2,), 1, field)
    fd = fd_derivative(sol, (2,), 1, field, steps=(4e-3, 2e-3, 1e-3))
    rel = abs(analytic - fd.extrapolated) / abs(fd.extrapolated)
    decay = abs(fd.estimates[0] - fd.estimates[1]) / abs(fd.estimates[1] - fd.estimates[2])
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-3 and 2.5 < decay < 6.0 and elapsed < 30.0
    report(
        capsys, 5, ok,
        f"analytic {analytic:.6f}, FD {fd.extrapolated:.6f}, rel {rel:.2e}, "
        f"step decay x{decay:.2f}, {elapsed:.1f}s",
    )
    assert rel <= 1e-3
    assert 2.5 < decay < 6.0
    assert elapsed < 30.0


def test_criterion_6_ball_criticality(capsys):
    start = time.perf_counter()
    tau = 1.0
    disk = StarDomain(a0=1.0)
    basis = make_trial_basis(10, tau)
    sol = solve(assemble(disk, tau, basis))
    worst = 0.0
    for s in (1, 2):
        for k in range(1, 5):
            for trig in ("cos", "sin"):
                coeffs = (0.0,) * (k - 1) + (1.0,)
                field = (
                    PerturbationField(cos_coeffs=coeffs)
                    if trig == "cos"
                    else PerturbationField(sin_coeffs=coeffs)
                )
                d = hadamard_derivative(sol, (2, 3), s, field)
                worst = max(worst, abs(d) / tau**s)
    _, residual = criticality_residual(sol, (2, 3))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-7 and residual <= 1e-7 and elapsed < 30.0
    report(
        capsys, 6, ok,
        f"max |derivative|/lambda^s {worst:.2e}, residual {residual:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-7
    assert residual <= 1e-7
    assert elapsed < 30.0


def test_criterion_7_concentration_convergence(capsys):
    start = time.perf_counter()
    tau = 1.0
    eps_seq = (0.2, 0.1, 0.05, 0.025)
    errors = []
    lam1_worst = 0.0
    for eps in eps_seq:
        spec = merged_spectrum(tau, eps, 2)
        errors.append(abs(spec[1] - tau))
        lam1_worst = max(lam1_worst, abs(spec[0]))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    final_ok = errors[-1] < 0.02
    elapsed = time.perf_counter() - start
    ok = decreasing and final_ok and lam1_worst <= 1e-8 and elapsed < 60.0
    report(
        capsys, 7, ok,
        f"|lambda2 - tau| = {', '.join(f'{e:.4f}' for e in errors)} "
        f"(strictly decreasing: {decreasing}; final < 0.02: {final_ok}), "
        f"max |lambda1| {lam1_worst:.1e}, {elapsed:.1f}s",
    )
    assert decreasing
    assert lam1_worst <= 1e-8
    assert elapsed < 60.0
    assert final_ok, (
        "convergence at eps = 0.025 reaches |lambda2 - 1| = "
        f"{errors[-1]:.4f}; the approach is first order in eps and has not yet "
        "passed 0.02 at this eps"
    )


def test_criterion_8_isoperimetric_scan(capsys, default_scans):
    scans, scan_time = default_scans
    bad_margin = []
    fake_ties = []
    for (family, tau), result in scans.items():
        for row in result.rows:
            is_disk = row.parameter == (0.0 if family == "perturbed_disk" else 1.0)
            if row.margin < -1e-7:
                bad_margin.append((family, tau, row.parameter, row.margin))
            if is_disk and abs(row.margin) > 1e-7:
                bad_margin.append((family, tau, row.parameter, row.margin))
            if not is_disk and abs(row.margin) <= 1e-7:
                fake_ties.append((family, tau, row.parameter))
        if not result.verdict:
            bad_margin.append((family, tau, "verdict", False))
    ok = not bad_margin and not fake_ties and scan_time < 120.0
    report(
        capsys, 8, ok,
        f"6 scans ({len(scans)} family/tau pairs), disk maximal in all, {scan_time:.1f}s",
    )
    assert not bad_margin, bad_margin
    assert not fake_ties, fake_ties
    assert scan_time < 120.0


def test_criterion_9_boundary_inequalities(capsys, default_scans):
    start = time.perf_counter()
    from bisteklov import make_family

    worst_gap = math.inf
    disk_gap = None
    for family in ("perturbed_disk", "ellipse_like"):
        for param, domain in make_family(family):
            _, _, gap = inverse_sum_bound(domain, 1.0)
            worst_gap = min(worst_gap, gap)
            if param == (0.0 if family == "perturbed_disk" else 1.0):
                disk_gap = gap if disk_gap is None else max(disk_gap, abs(gap))
    weighted_ok = all(
        weighted_boundary_inequality_check(StarDomain(a0=1.0, cos_coeffs=(0.0, 0.1)), f)[2]
        and weighted_boundary_inequality_check(StarDomain(a0=1.0), f)[2]
        for f in ("t", "t2", "t4")
    )
    elapsed = time.perf_counter() - start
    ok = worst_gap >= -1e-8 and abs(disk_gap) <= 1e-8 and weighted_ok and elapsed < 30.0
    report(
        capsys, 9, ok,
        f"min inverse-sum gap {worst_gap:.2e}, disk equality gap {abs(disk_gap):.2e}, "
        f"weighted checks {'PASS' if weighted_ok else 'FAIL'}, {elapsed:.1f}s",
    )
    assert worst_gap >= -1e-8
    assert abs(disk_gap) <= 1e-8
    assert weighted_ok
    assert elapsed < 30.0


def test_criterion_10_scaling_oracle(capsys):
    tau = 1.0
    worst_solver = 0.0
    worst_analytic = 0.0
    for R in (0.5, 1.0, 2.0):
        disk = StarDomain(a0=R)
        want = tau / R
        got = lambda2_of(disk, tau)
        worst_solver = max(worst_solver, abs(got - want) / want)
        # coordinate trial function: tau * area / boundary second moment
        bq = boundary_geometry(disk, 512)
        analytic = tau * area(disk) / float(bq.weights @ bq.points[:, 0] ** 2)
        worst_analytic = max(worst_analytic, abs(analytic - want) / want)
    ok = worst_solver <= 1e-8 and worst_analytic <= 1e-8
    report(
        capsys, 10, ok,
        f"solver rel err {worst_solver:.2e}, coordinate-function rel err {worst_analytic:.2e}",
    )
    assert worst_solver <= 1e-8
    assert worst_analytic <= 1e-8
