"""The functions the benchmark traces keep their names and argument shapes.

`perfbench/tracing.py` wraps each `TARGETS` entry by looking it up in its
`bisteklov` module, and its counters read the arguments and results of the
calls.  A missing name, or a signature a counter no longer understands, stops
every traced benchmark run.
"""

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from bisteklov import cli

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"
DOMAIN = str(REPO / "domains" / "perturbed.json")

# one small job per subcommand
JOBS = (
    ("ball-spectrum", "--tau", "1", "--count", "6"),
    ("solve", "--domain", DOMAIN, "--tau", "1"),
    ("criticality", "--domain", DOMAIN, "--tau", "1"),
    ("shape-derivative", "--domain", DOMAIN, "--tau", "1", "--field", "cos2", "--validate-fd"),
    ("concentration", "--tau", "1", "--eps", "0.2,0.1", "--modes", "3"),
    ("iso-scan", "--family", "perturbed_disk", "--tau", "1", "--params", "0,0.05"),
)


def _tracing():
    # executed from its source text, so nothing is written next to it
    namespace = {}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace


TARGETS = [(module, name) for module, name, _ in _tracing()["TARGETS"]]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_trace_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"bisteklov.{module}"), name, None))


def test_traced_jobs_run_and_record_spans():
    tracing = _tracing()
    tracer = tracing["Tracer"]()
    tracer.install()
    try:
        codes = []
        for job_id, argv in enumerate(JOBS, start=1):
            with tracer.job(job_id), contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.run(list(argv)))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(JOBS)
    recorded = {tracer.names[int(i)] for i in tracer.records()[:, 0]}
    # the plate pencil, assembly, and the traced functions the subcommands call
    # with a solution or a mesh alone
    assert {
        "concentration._solve_pencil", "steklov_solver.assemble",
        "shape_calculus.hadamard_derivative", "shape_calculus.fd_derivative",
        "shape_calculus.criticality_residual", "concentration.merged_spectrum",
        "concentration._mode_matrices", "steklov_solver._eval_all",
        "steklov_solver.eigenfunction_boundary_data", "steklov_solver.solve",
    } <= recorded
    assert set(tracer.layer_metrics(len(JOBS))) == set(tracing["LAYER_METRICS"])
