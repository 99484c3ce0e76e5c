"""The functions the benchmark traces keep their names in the package.

`perfbench/tracing.py` wraps each `TARGETS` entry by looking it up in its
`bisteklov` module, and a missing name stops every traced benchmark run.
"""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _trace_targets():
    # executed from its source text, so nothing is written next to it
    namespace = {}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [(module, name) for module, name, _ in namespace["TARGETS"]]


TARGETS = _trace_targets()


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_trace_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"bisteklov.{module}"), name, None))
