"""Tests for the command line interface: output formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisteklov import StarDomain, assemble, make_family, make_trial_basis, solve
from bisteklov.cli import run

DOMAINS = Path(__file__).resolve().parents[1] / "domains"


@pytest.fixture
def disk_file(tmp_path):
    p = tmp_path / "disk.json"
    p.write_text('{"a0": 1.0}\n')
    return str(p)


@pytest.fixture
def perturbed_file(tmp_path):
    p = tmp_path / "perturbed.json"
    p.write_text('{"a0": 1.0, "cos_coeffs": [0.0, 0.05]}\n')
    return str(p)


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBallSpectrum:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "ball-spectrum", "--tau", "1.0", "--count", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,eigenvalue,angular_order"
        assert len(lines) == 6
        j, lam, order = lines[2].split(",")
        assert (j, order) == ("2", "1")
        assert float(lam) == pytest.approx(1.0, rel=1e-12)

    def test_dimension_flag(self, capsys):
        code, out, _ = run_cli(capsys, "ball-spectrum", "--dim", "3", "--tau", "2.0", "--count", "4")
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        # lambda = tau has multiplicity N = 3
        assert [r[2] for r in rows] == ["0", "1", "1", "1"]

    @staticmethod
    def _eigenvalues(out):
        return [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]

    def test_many_orders(self, capsys):
        # 400 eigenvalues reach order 200, past both the old series underflow and order cap
        code, out, err = run_cli(capsys, "ball-spectrum", "--tau", "1", "--count", "400")
        assert code == 0, err
        lam = self._eigenvalues(out)
        assert len(lam) == 400
        assert lam[1] == pytest.approx(1.0, rel=1e-10)
        assert lam[2] == pytest.approx(1.0, rel=1e-10)

    def test_tiny_tau(self, capsys):
        code, out, err = run_cli(capsys, "ball-spectrum", "--tau", "1e-300", "--count", "4")
        assert code == 0, err
        lam = self._eigenvalues(out)
        assert lam[1] == pytest.approx(1e-300, rel=1e-10)
        assert lam[2] == pytest.approx(1e-300, rel=1e-10)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            capsys, "ball-spectrum", "--tau", "1.0", "--count", "3", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("index,eigenvalue")


class TestSolve:
    def test_json_document(self, capsys, disk_file):
        code, out, _ = run_cli(capsys, "solve", "--domain", disk_file, "--tau", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["domain", "tau", "k_max", "eigenvalues", "clusters", "diagnostics"]
        assert doc["tau"] == 1.0
        assert abs(doc["eigenvalues"][0]) < 1e-8
        assert doc["eigenvalues"][1] == pytest.approx(1.0, rel=1e-8)
        assert doc["clusters"][1] == [2, 3]
        assert doc["diagnostics"]["basis_size"] == 42

    def test_deterministic_bytes(self, capsys, perturbed_file):
        _, out1, _ = run_cli(capsys, "solve", "--domain", perturbed_file, "--tau", "1.0")
        _, out2, _ = run_cli(capsys, "solve", "--domain", perturbed_file, "--tau", "1.0")
        assert out1 == out2

    def test_high_mode_domain(self, capsys, tmp_path):
        # 150 modes need more than 512 boundary nodes
        raw = {"a0": 1.0, "cos_coeffs": [0.0] * 149 + [1e-4]}
        p = tmp_path / "wavy.json"
        p.write_text(json.dumps(raw))
        code, out, err = run_cli(capsys, "solve", "--domain", str(p), "--tau", "1.0")
        assert code == 0, err
        lam = np.array(json.loads(out)["eigenvalues"][1:8])
        basis = make_trial_basis(10, 1.0)
        ref = solve(assemble(StarDomain(**raw), 1.0, basis, n_boundary=4096)).eigenvalues[1:8]
        assert np.max(np.abs(lam - ref) / ref) <= 1e-12


class TestShapeDerivative:
    def test_disk_dilation(self, capsys, disk_file):
        code, out, _ = run_cli(
            capsys, "shape-derivative", "--domain", disk_file, "--tau", "1.0",
            "--field", "const",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["F"] == [2, 3]
        assert doc["hadamard"] == pytest.approx(-2.0, rel=1e-8)

    def test_fd_validation_branch(self, capsys, perturbed_file):
        code, out, _ = run_cli(
            capsys, "shape-derivative", "--domain", perturbed_file, "--tau", "1.0",
            "--F", "2", "--field", "cos2", "--validate-fd",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["fd_discrepancy"] < 1e-6
        assert len(doc["fd_estimates"]) == 2

    def test_fd_steps_are_fixed(self, capsys, perturbed_file):
        argv = ["shape-derivative", "--domain", perturbed_file, "--tau", "1.0",
                "--field", "cos2", "--validate-fd"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["fd_steps"] == [1e-3, 5e-4]
        code, out, err = run_cli(capsys, *argv, "--steps", "1e-3,5e-4")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --steps" in err

    def test_fd_validation_on_many_mode_perturbation(self, capsys, tmp_path):
        # the realized sin3 perturbations of this domain carry 95-99 Fourier modes,
        # more than a 256-node angular rule resolves
        p = tmp_path / "wobbly.json"
        p.write_text(json.dumps({
            "a0": 1.0,
            "cos_coeffs": [0, 0, 0, 0, 0, 0.06540493641798499],
            "sin_coeffs": [0, 0, 0, 0.09829965766759673, 0, 0],
            "center": [0.028603558980206167, 0.034418682473059056],
        }))
        code, out, err = run_cli(
            capsys, "shape-derivative", "--domain", str(p), "--tau", "1", "--kmax", "14",
            "--field", "sin3", "--s", "1", "--validate-fd",
        )
        assert code == 0, err
        doc = json.loads(out)
        fd = doc["fd_extrapolated"]
        assert abs(doc["hadamard"] - fd) <= 1e-3 * max(abs(fd), 1.0)

    def test_fd_validation_on_offcentre_star(self, capsys, tmp_path):
        # the realized perturbations carry about 100 modes, more than the base rule resolves
        p = tmp_path / "star6.json"
        p.write_text('{"a0": 1, "cos_coeffs": [0, 0, 0, 0, 0, 0.1], "center": [0.05, 0]}')
        code, out, err = run_cli(
            capsys, "shape-derivative", "--domain", str(p), "--tau", "1", "--kmax", "10",
            "--field", "cos6", "--s", "1", "--validate-fd",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["fd_discrepancy"] <= 1e-8

    def test_rule_resolves_the_field(self, capsys):
        # the disk is critical: every field's derivative vanishes, cos40 included,
        # once the rule resolves the field against the trace density
        code, out, err = run_cli(
            capsys, "shape-derivative", "--domain", str(DOMAINS / "disk.json"), "--tau", "1",
            "--kmax", "10", "--field", "cos40", "--s", "1",
        )
        assert code == 0, err
        assert abs(json.loads(out)["hadamard"]) <= 1e-9

    def test_fd_validation_where_steps_cross_the_gap(self, capsys, tmp_path):
        # a step of 1e-3 moves lambda_2 by 9.9e-5 against a gap of 1.3e-6 to lambda_3;
        # eigenvalues re-solved and tracked by index could not be differenced here
        p = tmp_path / "star.json"
        p.write_text('{"a0": 1.0, "cos_coeffs": [0,0,0,0,0,0], "sin_coeffs": '
                     '[0,0,0,0.01778998842129287,0.02058715469387236,0], '
                     '"center": [0.03036789448422425,0.049449898489153946]}')
        code, out, err = run_cli(
            capsys, "shape-derivative", "--domain", str(p), "--tau", "0.1", "--kmax", "10",
            "--field", "const", "--validate-fd",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["fd_discrepancy"] <= 1e-9 * max(abs(doc["fd_extrapolated"]), 0.1)


class TestCriticality:
    def test_disk_residual(self, capsys, disk_file):
        code, out, _ = run_cli(capsys, "criticality", "--domain", disk_file, "--tau", "1.0")
        assert code == 0
        doc = json.loads(out)
        assert doc["residual"] < 1e-7
        assert doc["lambda_F"] == pytest.approx(1.0, rel=1e-8)


class TestConcentration:
    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "concentration", "--tau", "1.0", "--eps", "0.2,0.1", "--modes", "2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "eps,j,lambda_eps,lambda_limit,abs_error"
        assert len(lines) == 5
        errs = {}
        for line in lines[1:]:
            eps, j, _, _, err = line.split(",")
            if j == "2":
                errs[float(eps)] = float(err)
        assert errs[0.1] < errs[0.2]

    def test_deterministic_bytes(self, capsys):
        # the pencil's Lanczos iteration starts from a fixed vector
        argv = ("concentration", "--tau", "1", "--eps", "0.2,0.05,0.025", "--modes", "6")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("modes", ["0", "-1"])
    def test_no_indexes(self, capsys, modes):
        code, out, err = run_cli(
            capsys, "concentration", "--tau", "1", "--eps", "0.2", "--modes", modes
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_unfactorable_pencil_exits_1(self, capsys):
        # defect (b): on the 100/400 mesh at eps = 0.025 the k = 0 matrix S + M is
        # not numerically positive definite
        code, out, err = run_cli(
            capsys, "concentration", "--tau", "1", "--eps", "0.025",
            "--mesh-bulk", "100", "--mesh-collar", "400",
        )
        assert code == 1
        assert out == ""
        assert "pencil factorization failed" in err

    def test_limit_beyond_mode_cap(self, capsys):
        # the plate modes stop at k = 8; index 18 of the limit has angular order 9
        code, out, err = run_cli(
            capsys, "concentration", "--tau", "1", "--eps", "0.2", "--modes", "18"
        )
        assert code == 2
        assert out == ""
        assert "angular order 9" in err

    def test_fine_bulk_mesh(self, capsys):
        # above 102 bulk elements the mesh grading once overflowed a float
        code, out, _ = run_cli(
            capsys, "concentration", "--tau", "1", "--eps", "0.05,0.025",
            "--mesh-bulk", "103", "--modes", "2",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5


class TestIsoScan:
    def test_verdict_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "iso-scan", "--family", "perturbed_disk", "--tau", "1.0",
            "--params", "0.0,0.08",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("family,parameter")
        assert lines[-1] == "verdict,PASS"

    def test_high_mode_member(self, capsys):
        # a mode-300 member needs more than 1024 boundary nodes; the scan must
        # solve it on the assembly rule, which sizes itself up to 2048 nodes
        code, out, err = run_cli(
            capsys, "iso-scan", "--family", "perturbed_disk", "--tau", "1",
            "--mode", "300", "--params", "0.01",
        )
        assert code == 0, err
        lam2 = float(out.strip().split("\n")[1].split(",")[4])
        [(_, member)] = make_family("perturbed_disk", (0.01,), mode=300)
        want = solve(assemble(member, 1.0, make_trial_basis(10, 1.0))).eigenvalues[1]
        assert lam2 == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("mode", ["100000", "3", "0"])
    def test_ellipse_family_takes_no_mode(self, capsys, mode):
        # ellipse_like ignores the cosine mode, so giving one is an input error
        code, out, err = run_cli(
            capsys, "iso-scan", "--family", "ellipse_like", "--tau", "1",
            "--params", "1.0,1.2", "--mode", mode,
        )
        assert code == 2
        assert out == ""
        assert "takes no mode" in err

    def test_perturbed_disk_default_mode(self, capsys):
        argv = ("iso-scan", "--family", "perturbed_disk", "--tau", "1", "--params", "0.0,0.05")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--mode", "3")


class TestExitCodes:
    def test_unknown_domain_key(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a0": 1.0, "radius": 2.0}\n')
        code, _, err = run_cli(capsys, "solve", "--domain", str(bad), "--tau", "1.0")
        assert code == 2
        assert "unknown domain fields" in err

    def test_bessel_argument_beyond_range(self, capsys, perturbed_file):
        # radius 1.05 at tau = 1e4 puts sqrt(tau) r past the series range of 100
        code, out, err = run_cli(capsys, "solve", "--domain", perturbed_file, "--tau", "10000")
        assert code == 2
        assert out == ""
        assert "outside supported range" in err

    def test_missing_a0(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"cos_coeffs": [0.1]}\n')
        code, _, err = run_cli(capsys, "solve", "--domain", str(bad), "--tau", "1.0")
        assert code == 2
        assert "a0" in err

    def test_unreadable_domain(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--domain", str(tmp_path / "nope.json"), "--tau", "1.0")
        assert code == 2

    def test_bad_field_syntax(self, capsys, disk_file):
        code, _, err = run_cli(
            capsys, "shape-derivative", "--domain", disk_file, "--tau", "1.0",
            "--field", "cos0",
        )
        assert code == 2
        assert "field" in err

    def test_increasing_eps(self, capsys):
        code, _, _ = run_cli(capsys, "concentration", "--tau", "1.0", "--eps", "0.1,0.2")
        assert code == 2

    @pytest.mark.parametrize("eps", ["", ","])
    def test_no_eps(self, capsys, eps):
        # an empty list once printed only the CSV header and exited 0
        code, out, err = run_cli(capsys, "concentration", "--tau", "1.0", "--eps", eps)
        assert code == 2
        assert out == ""
        assert "eps" in err

    @pytest.mark.parametrize("field", ["cos512", "sin10000000000000000000", "cos" + "9" * 5000],
                             ids=["cos512", "sin1e19", "cos5000digits"])
    def test_field_beyond_boundary_rule(self, capsys, disk_file, work_counts, field):
        # cosK needs a rule of 4 (K + 1) nodes, more than the 2048 the solver builds
        # from K = 512 on; it is refused before any solve (K = 1e19 once overflowed
        # building its coefficients, and 5000 digits exceed int()'s limit)
        code, out, err = run_cli(
            capsys, "shape-derivative", "--domain", disk_file, "--tau", "1.0",
            "--field", field,
        )
        assert code == 2
        assert out == ""
        assert "n_nodes" in err
        assert work_counts == {"assemble": 0, "_eval_all": 0, "solve": 0}

    @pytest.mark.parametrize("center", ["[NaN, 0]", "[0, Infinity]"])
    @pytest.mark.parametrize("command", [["solve"], ["criticality"], ["shape-derivative", "--field", "cos2"]],
                             ids=["solve", "criticality", "shape-derivative"])
    def test_non_finite_center(self, capsys, tmp_path, command, center):
        # once exit 1 from the Bessel series at argument nan
        bad = tmp_path / "bad.json"
        bad.write_text('{"a0": 1.0, "center": %s}\n' % center)
        code, out, err = run_cli(capsys, *command, "--domain", str(bad), "--tau", "1.0")
        assert code == 2
        assert out == ""
        assert "center" in err

    def test_infinite_radius(self, capsys, tmp_path):
        # once exit 1 from the Bessel series at argument nan
        bad = tmp_path / "bad.json"
        bad.write_text('{"a0": Infinity}\n')
        code, out, err = run_cli(capsys, "solve", "--domain", str(bad), "--tau", "1.0")
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."], ids=["missing-dir", "directory"])
    @pytest.mark.parametrize("command", [
        ["ball-spectrum", "--tau", "1.0", "--count", "3"],
        ["solve", "--domain", "DISK", "--tau", "1.0", "--kmax", "3"],
        ["shape-derivative", "--domain", "DISK", "--tau", "1.0", "--field", "const", "--kmax", "3"],
        ["criticality", "--domain", "DISK", "--tau", "1.0", "--kmax", "3"],
        ["concentration", "--tau", "1.0", "--eps", "0.1", "--modes", "2"],
        ["iso-scan", "--family", "perturbed_disk", "--tau", "1.0", "--params", "0.0", "--kmax", "3"],
    ], ids=lambda c: c[0])
    def test_unwritable_output(self, capsys, tmp_path, disk_file, command, target):
        # once a FileNotFoundError or IsADirectoryError traceback
        argv = [disk_file if a == "DISK" else a for a in command]
        code, out, err = run_cli(capsys, *argv, "--output", str(tmp_path / target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write output file") and err.count("\n") == 1

    @pytest.mark.parametrize("params", ["", ","])
    def test_iso_scan_no_params(self, capsys, params):
        # "," once printed an empty table with verdict PASS, "" scanned the default family
        code, out, err = run_cli(
            capsys, "iso-scan", "--family", "perturbed_disk", "--tau", "1.0", "--params", params,
        )
        assert code == 2
        assert out == ""
        assert "parameter" in err

    def test_concentration_singular_pencil(self, capsys):
        # the graded 40/8 mesh at eps 1e-10 once printed lambda_2 = 2.549e11 (limit 1)
        code, out, err = run_cli(
            capsys, "concentration", "--tau", "1", "--eps", "1e-10", "--modes", "2",
        )
        assert code == 1
        assert out == ""
        assert "singular" in err

    @pytest.mark.parametrize("mode", ["0", "-2"])
    def test_iso_scan_mode_below_one(self, capsys, mode):
        code, out, err = run_cli(
            capsys, "iso-scan", "--family", "perturbed_disk", "--tau", "1.0",
            "--params", "0.0,0.08", "--mode", mode,
        )
        assert code == 2
        assert out == ""
        assert "mode" in err

    @pytest.mark.parametrize("mode", ["512", "10000000000000000000"])
    def test_iso_scan_mode_beyond_boundary_rule(self, capsys, work_counts, mode):
        # refused before the disk reference is solved; 1e19 once overflowed
        code, out, err = run_cli(
            capsys, "iso-scan", "--family", "perturbed_disk", "--tau", "1.0",
            "--params", "0.0,0.08", "--mode", mode,
        )
        assert code == 2
        assert out == ""
        assert "n_nodes" in err
        assert work_counts["solve"] == 0

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "--domain", "x.json")
        assert code == 2

    def test_bad_index_set(self, capsys, disk_file):
        code, _, _ = run_cli(
            capsys, "shape-derivative", "--domain", disk_file, "--tau", "1.0",
            "--F", "2,x", "--field", "const",
        )
        assert code == 2

    def test_incomplete_cluster(self, capsys, disk_file):
        # index 2 alone is half of the disk's degenerate pair
        code, _, _ = run_cli(
            capsys, "shape-derivative", "--domain", disk_file, "--tau", "1.0",
            "--F", "2", "--field", "const",
        )
        assert code == 2


@pytest.fixture
def work_counts(monkeypatch):
    """Calls of the solver's assembly, basis evaluation and solve, in every module holding them."""
    import bisteklov.steklov_solver as solver

    counts = {}
    for name in ("assemble", "_eval_all", "solve"):
        original = getattr(solver, name)
        counts[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("bisteklov") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


class TestWorkCounts:
    def test_fd_check_solves_the_base_domain_once(self, capsys, perturbed_file, work_counts):
        # the base solve, then two perturbed assemblies per step and no perturbed
        # solve; the traces reuse the base assembly's evaluation
        code, _, _ = run_cli(
            capsys, "shape-derivative", "--domain", perturbed_file, "--tau", "1.0",
            "--field", "cos2", "--validate-fd",
        )
        assert code == 0
        assert work_counts == {"assemble": 5, "_eval_all": 5, "solve": 1}

    def test_criticality_evaluates_the_basis_once(self, capsys, perturbed_file, work_counts):
        code, _, _ = run_cli(capsys, "criticality", "--domain", perturbed_file, "--tau", "1.0")
        assert code == 0
        assert work_counts == {"assemble": 1, "_eval_all": 1, "solve": 1}


def test_installed_entry_point():
    proc = subprocess.run(
        ["bisteklov", "ball-spectrum", "--tau", "1.0", "--count", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("index,eigenvalue,angular_order")


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bisteklov", "ball-spectrum", "--tau", "1", "--count", "6"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "index,eigenvalue,angular_order"
    assert len(lines) == 7


def test_scipy_loads_only_on_the_plate_path():
    # scipy serves only the concentration plate solver, and only scipy.linalg:
    # the package and every other subcommand run on numpy alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    domain = str(DOMAINS / "perturbed.json")
    script = f"""
import contextlib, io, sys
import bisteklov, bisteklov.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = bisteklov.cli.run(list(argv))
    assert code == 0, argv
    return out.getvalue()

assert not scipy_loaded(), scipy_loaded()
run("ball-spectrum", "--tau", "1", "--count", "6")
run("solve", "--domain", {domain!r}, "--tau", "1")
run("criticality", "--domain", {domain!r}, "--tau", "1")
run("shape-derivative", "--domain", {domain!r}, "--tau", "1", "--field", "cos2", "--validate-fd")
run("iso-scan", "--family", "perturbed_disk", "--tau", "1", "--params", "0.0,0.05")
assert not scipy_loaded(), scipy_loaded()
# eps = 0.2 leaves the bulk mesh ungraded; eps = 0.05 grades it, by the
# package's own Brent root finder
for eps in ("0.2", "0.05"):
    out = run("concentration", "--tau", "1", "--eps", eps, "--modes", "2")
    assert out.startswith("eps,j,lambda_eps,lambda_limit,abs_error"), out
# the plate path needs scipy.linalg alone
loaded = scipy_loaded()
assert "scipy.linalg" in loaded, loaded
assert not [m for m in loaded if m.startswith(("scipy.sparse", "scipy.optimize"))], loaded
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# Robustness: any invocation on bounded inputs exits 0, 1 or 2 and never raises.
# Bounds: meshes of at most 200 elements, field modes up to 1000, --kmax up to 20
# and --count up to 300; beyond them a run may exhaust memory rather than fail.

_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-3, 50.0).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", "x", "1e-300", "1e300", "-0"]),
)
_LIST = st.lists(st.one_of(_NUMBER, st.floats(0.0, 1.0).map(repr)), max_size=4).map(",".join)
_COEFFS = st.tuples(
    st.sampled_from([0, 0, 3, 40, 200, 999]),  # zeros ahead of the nonzero tail
    st.lists(st.one_of(st.floats(-0.3, 0.3), st.floats(allow_nan=False)), max_size=5),
).map(lambda t: [0.0] * t[0] + t[1] if t[1] else [])
_DOMAIN = st.fixed_dictionaries(
    {"a0": st.one_of(st.floats(0.2, 3.0), st.floats(allow_nan=False), st.just("one"))},
    optional={
        "cos_coeffs": _COEFFS,
        "sin_coeffs": _COEFFS,
        "center": st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats()), min_size=1, max_size=3),
    },
)
_SOLVER = st.tuples(st.just("--kmax"), st.integers(-2, 20).map(str))
_FIELD = st.one_of(
    st.just("const"),
    st.builds("{}{}".format, st.sampled_from(["cos", "sin"]), st.integers(0, 1000)),
    st.text(max_size=4),
)
_INDEXES = st.one_of(
    st.just("AUTO"), st.lists(st.integers(-2, 30).map(str), max_size=4).map(",".join)
)


@st.composite
def _argv(draw):
    """One CLI invocation; {domain} stands for a domain file written per example."""
    command = draw(st.sampled_from(["ball-spectrum", "solve", "shape-derivative", "criticality",
                                    "concentration", "iso-scan"]))
    argv = [command, "--tau", draw(_NUMBER)]
    if command == "ball-spectrum":
        argv += ["--dim", str(draw(st.integers(-1, 8))),
                 "--count", str(draw(st.integers(-2, 300)))]
    elif command == "concentration":  # meshes of at most 200 elements
        argv += ["--eps", draw(_LIST), "--modes", str(draw(st.integers(-2, 20))),
                 "--mesh-bulk", str(draw(st.integers(-1, 100))),
                 "--mesh-collar", str(draw(st.integers(-1, 100)))]
    elif command == "iso-scan":
        argv += ["--family", draw(st.sampled_from(["perturbed_disk", "ellipse_like", "disk"])),
                 "--mode", str(draw(st.integers(-2, 1000))), *draw(_SOLVER)]
        if draw(st.booleans()):
            argv += ["--params", draw(_LIST)]
    else:
        argv += ["--domain", "{domain}", *draw(_SOLVER)]
        if command != "solve":
            argv += ["--F", draw(_INDEXES)]
        if command == "shape-derivative":
            argv += ["--field", draw(_FIELD), "--s", str(draw(st.integers(-1, 3)))]
            if draw(st.booleans()):
                argv.append("--validate-fd")
    return argv


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("robustness")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=_argv(), domain=_DOMAIN)
# eps below the rounding of 1.0: the collar area was 0 (ZeroDivisionError)
@example(argv=["concentration", "--tau", "1", "--eps", "7e-252"], domain={"a0": 1.0})
# coincident collar nodes: NaN element matrices reached cholesky_banded (ValueError)
@example(argv=["concentration", "--tau", "1", "--eps", "1e-15", "--mesh-collar", "100"],
         domain={"a0": 1.0})
# lambda_F was read before F was checked against the computed indexes (IndexError)
@example(argv=["criticality", "--tau", "3", "--domain", "{domain}", "--kmax", "1", "--F", "18"],
         domain={"a0": 0.45})
def test_any_invocation_exits_cleanly(scratch_dir, argv, domain):
    path = scratch_dir / "domain.json"
    path.write_text(json.dumps(domain))
    argv = [str(path) if a == "{domain}" else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    assert code in (0, 1, 2), argv
