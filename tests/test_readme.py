"""The README's library example runs as written."""

import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.match(r"\n((?:    .*\n|\n)+)", section).group(1)
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    assert namespace["sol"].eigenvalues[0] == 0.0
    assert len(namespace["plate"]) == 3
    assert namespace["plate"][0] == 0.0
