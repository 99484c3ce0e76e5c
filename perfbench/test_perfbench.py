"""Self-tests of the benchmark: generators, checks, tracing and a smoke run.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bisteklov import ball_spectrum, cli  # noqa: E402
from workloads import Job  # noqa: E402

SPECTRUM = ball_spectrum.sorted_spectrum


class _ScaledSpectrum:
    def __init__(self, spectrum, factor):
        self._spectrum, self._factor = spectrum, factor

    def flatten(self):
        return [(j, v * self._factor, o) for j, v, o in self._spectrum.flatten()]

    def eigenvalue(self, j):
        return self._spectrum.eigenvalue(j) * self._factor


def WRONG_SPECTRUM(N, tau, j_max):
    return _ScaledSpectrum(SPECTRUM(N, tau, j_max), 1 + 1e-6)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(list(argv))
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(workload, tmp_path):
    first = workloads.make_rounds(workload, 7, 5, tmp_path, ROOT)
    again = workloads.make_rounds(workload, 7, 5, tmp_path, ROOT)
    other = workloads.make_rounds(workload, 8, 5, tmp_path, ROOT)
    assert first == again
    assert len(first[0]) == 5 and first != other
    assert workloads.make_rounds(workload, 7, 3, tmp_path, ROOT)[0] == first[0][:3]
    assert all(job.kind in checks.CHECKS for round_ in first[0] for job in round_)
    assert len({len(round_) for round_ in first[0]}) == 1


DISK = str(ROOT / "domains" / "disk.json")
PERTURBED = str(ROOT / "domains" / "perturbed.json")
CHECKED_JOBS = [
    Job("ball-spectrum", ("ball-spectrum", "--dim", "3", "--tau", "2.0", "--count", "12"),
        {"dim": 3, "tau": 2.0, "count": 12}),
    Job("iso-scan", ("iso-scan", "--family", "perturbed_disk", "--tau", "1.0", "--params", "0,0.05"),
        {"tau": 1.0, "acceptance": True, "members": 2}),
    Job("solve", ("solve", "--domain", DISK, "--tau", "5.0"),
        {"tau": 5.0, "kmax": 10, "disk": True, "seeded": False}),
    Job("criticality", ("criticality", "--domain", DISK, "--tau", "1.0"),
        {"tau": 1.0, "kmax": 10, "disk": True, "seeded": False}),
    Job("shape-derivative",
        ("shape-derivative", "--domain", PERTURBED, "--tau", "1.0", "--field", "cos2", "--validate-fd"),
        {"tau": 1.0, "kmax": 10, "disk": False, "seeded": False, "s": 1}),
    Job("concentration", ("concentration", "--tau", "1.0", "--eps", "0.2,0.1", "--modes", "3"),
        {"tau": 1.0, "eps": [0.2, 0.1], "modes": 3, "mesh": (40, 8)}),
]


@pytest.mark.parametrize("job", CHECKED_JOBS, ids=lambda job: job.kind)
def test_check_accepts_output_and_rejects_wrong_reference(job):
    rc, out, _ = _cli(job.argv)
    assert checks.check(job, rc, out, SPECTRUM) is None
    if job.kind == "shape-derivative":
        # the FD estimate is this check's reference
        doc = json.loads(out)
        doc["fd_extrapolated"] *= 1.01
        out = json.dumps(doc)
        wrong = checks.check(job, rc, out, SPECTRUM)
    elif job.kind in ("solve", "concentration"):
        wrong = checks.check(job, rc, out, WRONG_SPECTRUM)
    else:
        # the closed-form reference is tau itself
        wrong_tau = Job(job.kind, job.argv, job.params | {"tau": job.params["tau"] * (1 + 1e-6)})
        wrong = checks.check(wrong_tau, rc, out, SPECTRUM)
    assert wrong is not None
    assert checks.known_defect(job, wrong, out, "") is None


def test_failed_exit_is_classified_against_known_defects(tmp_path):
    domain = tmp_path / "defect-a.json"
    domain.write_text(json.dumps({"a0": 1, "cos_coeffs": [0, 0, 0, 0, 0.08]}))
    argv = ("shape-derivative", "--domain", str(domain), "--tau", "1", "--field", "cos5", "--validate-fd")
    job = Job("shape-derivative", argv, {"tau": 1.0, "s": 1, "seeded": True})
    rc, out, err = _cli(argv)
    reason = checks.check(job, rc, out, SPECTRUM)
    assert reason == "exit 2"
    assert checks.known_defect(job, reason, out, err) == "a"
    assert checks.known_defect(job, reason, out, "some other error") is None


def test_known_defects_excuse_only_their_measured_range():
    not_monotone = "|lambda_2 - tau| not strictly decreasing: 1, 2"
    for mesh, defect in (((40, 200), "b"), ((40, 40), None), ((100, 100), None), ((40, 8), None)):
        assert checks.known_defect(Job("concentration", (), {"mesh": mesh}), not_monotone, "", "") == defect
    underflow = "numerical failure: ultraspherical series did not converge"
    for dim, tau, count, defect in ((2, 0.01, 250, "c"), (2, 0.01, 100, None), (2, 5.0, 300, None),
                                    (3, 0.01, 300, None)):
        job = Job("ball-spectrum", (), {"dim": dim, "tau": tau, "count": count})
        assert checks.known_defect(job, "exit 1", "", underflow) == defect
    solve = Job("solve", (), {"tau": 0.5, "seeded": True})
    for lam1, defect in ((3e-6, "d"), (1e-3, None)):
        out = json.dumps({"eigenvalues": [lam1, 1.0]})
        assert checks.known_defect(solve, f"lambda_1 = {lam1!r} is not 0", out, "") == defect
    fd_job = Job("shape-derivative", (), {"tau": 1.0, "s": 1, "seeded": True})
    for hadamard, estimates, defect in (
            (-0.204, [-0.018, -0.036], "e"),   # FD reference unconverged
            (-0.0402, [-0.04, -0.04], "e"),    # marginal miss, 2.2e-3 * scale
            (-0.05, [-0.04, -0.04], None),     # clear miss of a converged FD reference
            (3.0, [-0.018, -0.036], None)):    # beyond twice the scale
        out = json.dumps({"hadamard": hadamard, "fd_extrapolated": -0.04, "fd_estimates": estimates})
        assert checks.known_defect(fd_job, "Hadamard ...", out, "") == defect
    assert checks.known_defect(fd_job, "exit 1", "", "eigenvalue tracking ambiguous at step 0.001") == "e"
    assert checks.known_defect(fd_job, "exit 1", "", "other failure") is None
    assert checks.known_defect(Job("solve", (), {"seeded": True}), "exit 2", "", "") is None


def test_stratum_without_completed_jobs_is_wrong():
    strata = [{"completed": 3, "defects": {"a"}}, {"completed": 0, "defects": {"b"}},
              {"completed": 0, "defects": {"a"}}, {"completed": 0, "defects": {"b", None}}]
    assert checks.empty_strata(strata) == [2, 3]


def test_tracer_attributes_pool_spans_to_their_scan():
    tracer = tracing.Tracer()
    original = cli.run
    tracer.install()
    try:
        assert cli.run is not original
        with tracer.job(5):
            rc = _cli(("iso-scan", "--family", "perturbed_disk", "--tau", "1", "--params", "0,0.05,0.1"))[0]
        assert rc == 0
        _cli(("ball-spectrum", "--tau", "1", "--count", "6"))  # outside a job: not recorded
    finally:
        tracer.uninstall()
    assert cli.run is original
    rec = tracer.records()
    assert set(rec[:, 3]) == {5.0}
    names = [tracer.names[int(i)] for i in rec[:, 0]]
    pool = [row[1] for row, n in zip(rec, names) if n == "_util.parallel_map"]
    in_pool = [row for row, n in zip(rec, names) if n == "iso_experiments.lambda2_of" and row[2] in pool]
    assert len(pool) == 1 and len(in_pool) == 3
    metrics = tracer.layer_metrics(1)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["iso_experiments.pool_stretch"] > 0.0
    assert metrics["steklov_solver.basis_eval_ms"] > 0.0
    assert metrics["cli.self_ms"] > 0.0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run():
    spans = ROOT / "perfbench" / "_out" / "spans-ball_spectra-3.npz"
    spans.unlink(missing_ok=True)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ball_spectra", "--seed", "3",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT,
                          capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    assert set(_last_json(proc.stdout)["metrics"]) == set(tracing.LAYER_METRICS)
    assert spans.is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ball_spectra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
