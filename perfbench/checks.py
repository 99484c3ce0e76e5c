"""Output checks for benchmark jobs, and the known defects a failed job may match.

A check returns None when the output is right and a one-line reason otherwise.
Where the closed-form reference is the order-1 ball eigenvalue, it is tau
itself (`eigenvalue_of_order(1, N, tau) = tau`), taken from the job's
parameters.  The full closed-form spectrum comes from `spectrum`, the
program's `sorted_spectrum(N, tau, j_max)`; tests pass a deliberately wrong
one, or a job whose tau is wrong, to show that every check can fail.
Tolerances are the acceptance suite's.
"""

from __future__ import annotations

import json
import math


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _csv_rows(out: str, header: str) -> list[list[str]]:
    lines = out.splitlines()
    if not lines or lines[0] != header:
        raise ValueError("missing CSV header")
    return [line.split(",") for line in lines[1:]]


def check_ball_spectrum(params: dict, out: str, spectrum) -> str | None:
    """Criterion 1: lambda_2 = tau to 1e-10 relative, with multiplicity N."""
    dim, count, tau = params["dim"], params["count"], params["tau"]
    rows = _csv_rows(out, "index,eigenvalue,angular_order")
    if len(rows) != count:
        return f"{len(rows)} rows, expected {count}"
    lam = [float(r[1]) for r in rows]
    if any(b < a for a, b in zip(lam, lam[1:])):
        return "eigenvalues not sorted"
    for j in range(2, min(dim + 1, count) + 1):
        if _rel(lam[j - 1], tau) > 1e-10 or rows[j - 1][2] != "1":
            return f"lambda_{j} = {lam[j - 1]!r}, expected tau = {tau!r} of order 1"
    if count >= dim + 2 and lam[dim + 1] <= tau * (1.0 + 1e-10):
        return f"lambda_{dim + 2} = {lam[dim + 1]!r} extends the tau cluster beyond multiplicity {dim}"
    return None


def check_iso_scan(params: dict, out: str, spectrum) -> str | None:
    """Disk bound = eigenvalue_of_order(1, 2, tau) = tau to 1e-8; acceptance scans must pass."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("verdict,"):
        return "missing verdict line"
    rows = _csv_rows("\n".join(lines[:-1]), "family,parameter,area,tau,lambda2,ball_bound,margin")
    if "members" in params and len(rows) != params["members"]:
        return f"{len(rows)} members, expected {params['members']}"
    bound = params["tau"]
    for r in rows:
        if _rel(float(r[5]), bound) > 1e-8:
            return f"disk bound {r[5]} differs from {bound!r}"
    if params["acceptance"] and lines[-1] != "verdict,PASS":
        return "acceptance scan did not pass"
    return None


def check_solve(params: dict, out: str, spectrum) -> str | None:
    """Ascending spectrum from 0; on the disk, criterion 3 (first 8 nonzero to 1e-8)."""
    doc = json.loads(out)
    lam = doc["eigenvalues"]
    if doc["diagnostics"]["basis_size"] != 2 * (2 * params["kmax"] + 1):
        return "unexpected basis size"
    if any(b < a for a, b in zip(lam, lam[1:])):
        return "eigenvalues not ascending"
    if abs(lam[0]) > 1e-8 * max(1.0, params["tau"]):
        return f"lambda_1 = {lam[0]!r} is not 0"
    if params["disk"]:
        ref = [v for _, v, _ in spectrum(2, params["tau"], 9).flatten()]
        worst = max(_rel(lam[j], ref[j]) for j in range(1, 9))
        if worst > 1e-8:
            return f"disk eigenvalues off by {worst:.2e} relative"
    return None


def check_criticality(params: dict, out: str, spectrum) -> str | None:
    """Finite residual; on the disk, criterion 6 (residual <= 1e-7) at lambda_F = tau."""
    doc = json.loads(out)
    residual, lam_f = doc["residual"], doc["lambda_F"]
    if not (math.isfinite(residual) and residual >= 0.0 and math.isfinite(lam_f) and lam_f > 0.0):
        return f"residual {residual!r}, lambda_F {lam_f!r}"
    if params["disk"]:
        tau = params["tau"]
        if _rel(lam_f, tau) > 1e-8:
            return f"disk lambda_F = {lam_f!r}, expected {tau!r}"
        if residual > 1e-7:
            return f"disk criticality residual {residual:.2e} > 1e-7"
    return None


def check_shape_derivative(params: dict, out: str, spectrum) -> str | None:
    """Hadamard derivative within 1e-3 of max(|FD|, tau^s) of its FD estimate.

    The scale keeps derivatives that vanish by symmetry (about 1e-13) from
    counting as misses.
    """
    doc = json.loads(out)
    fd = doc["fd_extrapolated"]
    scale = max(abs(fd), params["tau"] ** params["s"])
    miss = abs(doc["hadamard"] - fd)
    if not miss <= 1e-3 * scale:
        return f"Hadamard {doc['hadamard']!r} vs FD {fd!r}: miss {miss:.2e} > 1e-3 * {scale:.3g}"
    return None


def check_concentration(params: dict, out: str, spectrum) -> str | None:
    """Criterion 7 without its final threshold: lambda_1 <= 1e-8, |lambda_2 - tau| decreasing."""
    rows = _csv_rows(out, "eps,j,lambda_eps,lambda_limit,abs_error")
    modes = params["modes"]
    if len(rows) != modes * len(params["eps"]):
        return f"{len(rows)} rows, expected {modes * len(params['eps'])}"
    limit = spectrum(2, params["tau"], modes)
    errors = []
    for r in rows:
        j, lam, lim = int(r[1]), float(r[2]), float(r[3])
        ref = limit.eigenvalue(j)
        if (ref == 0.0 and lim != 0.0) or (ref != 0.0 and _rel(lim, ref) > 1e-10):
            return f"limit of lambda_{j} is {lim!r}, expected {ref!r}"
        if j == 1 and abs(lam) > 1e-8:
            return f"lambda_1 = {lam!r} at eps {r[0]}"
        if j == 2:
            errors.append(abs(lam - ref))
    if not all(a > b for a, b in zip(errors, errors[1:])):
        return "|lambda_2 - tau| not strictly decreasing: " + ", ".join(f"{e:.4f}" for e in errors)
    return None


CHECKS = {
    "ball-spectrum": check_ball_spectrum,
    "iso-scan": check_iso_scan,
    "solve": check_solve,
    "criticality": check_criticality,
    "shape-derivative": check_shape_derivative,
    "concentration": check_concentration,
}


def check(job, rc: int, out: str, spectrum) -> str | None:
    """None when the job exited 0 and its output passed its check, else the reason."""
    if rc != 0:
        return f"exit {rc}"
    try:
        return CHECKS[job.kind](job.params, out, spectrum)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


# Defects present when the benchmark was defined.  Jobs that hit them count as
# failed.  (a)-(c) were known beforehand; (d) and (e) were found by these checks.
# Each matcher excuses only the range in which the defect was measured, so a
# failure outside it is a wrong answer.
KNOWN_DEFECTS = {
    "a": "shape-derivative --validate-fd exits 2: fd_derivative assembles with n_theta=256 "
         "while realize_perturbation keeps more modes than that resolves",
    "b": "plate error |lambda_2 - tau| not monotone in eps on the 40/200 collar mesh "
         "(ROADMAP item 3: S = G^T G loses relative accuracy)",
    "c": "ball-spectrum exits 1 in 2D at counts >= 182 and tau <= 1.1: the Bessel series "
         "underflows (ROADMAP item 5)",
    "d": "solve on seeded star domains: lambda_1 drifts from 0 beyond 1e-8 max(1, tau), "
         "measured up to ~3e-6 at tau <= 0.5",
    "e": "shape-derivative --validate-fd on seeded star domains: exits 1 (eigenvalue tracking "
         "ambiguous), or the Hadamard derivative misses an FD estimate whose two step estimates "
         "disagree by more than the tolerance, or misses by at most twice the tolerance",
}
# Largest excused sizes, with margin over what was measured: (c) counts from
# 182 and tau up to 1.1; (d) |lambda_1| up to ~3e-6; (e) misses up to 1.04 scale.
C_MIN_COUNT, C_MAX_TAU = 180, 1.2
D_MAX_LAMBDA1 = 1e-5
E_MAX_MISS = 2.0


def _fd_miss_is_known(params: dict, out: str) -> bool:
    """Defect (e) for a Hadamard-vs-FD miss: the FD reference is itself
    unconverged (its step estimates differ by more than the tolerance), or the
    miss is marginal; in both cases the miss stays within E_MAX_MISS * scale."""
    doc = json.loads(out)
    fd, estimates = doc["fd_extrapolated"], doc["fd_estimates"]
    scale = max(abs(fd), params["tau"] ** params["s"])
    miss = abs(doc["hadamard"] - fd)
    spread = max(estimates) - min(estimates)
    return miss <= E_MAX_MISS * scale and (spread > 1e-3 * scale or miss <= 2e-3 * scale)


def known_defect(job, reason: str, out: str, err: str) -> str | None:
    """The KNOWN_DEFECTS key a failed job matches, or None."""
    kind, params = job.kind, job.params
    if kind == "shape-derivative" and reason == "exit 2" and "too small for mode content" in err:
        return "a"
    if (kind == "concentration" and reason.startswith("|lambda_2 - tau| not strictly decreasing")
            and tuple(params["mesh"]) == (40, 200)):
        return "b"
    if (kind == "ball-spectrum" and reason == "exit 1" and params["dim"] == 2 and "did not converge" in err
            and params["count"] >= C_MIN_COUNT and params["tau"] <= C_MAX_TAU):
        return "c"
    if (kind == "solve" and reason.startswith("lambda_1 =") and params["seeded"]
            and abs(json.loads(out)["eigenvalues"][0]) <= D_MAX_LAMBDA1):
        return "d"
    if kind == "shape-derivative" and params["seeded"]:
        if reason == "exit 1" and "tracking ambiguous" in err:
            return "e"
        if reason.startswith("Hadamard ") and _fd_miss_is_known(params, out):
            return "e"
    return None



def empty_strata(strata: list[dict]) -> list[int]:
    """Round positions with no completed job, as a wrong result.

    Such a stratum drops out of the timing metrics and makes them read faster.
    Only the one the baseline never completed may do so: the 40/200 plate job,
    every run of which fails on defect (b).  `strata` holds, per position, the
    number of completed jobs and the set of defects its failed jobs matched.
    """
    return [p for p, s in enumerate(strata) if not s["completed"] and s["defects"] != {"b"}]
