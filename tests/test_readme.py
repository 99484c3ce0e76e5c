"""The README's library example and CLI examples run as written."""

import re
import shlex
import textwrap
from pathlib import Path

import pytest

from bisteklov.cli import run

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_block_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.match(r"\n((?:    .*\n|\n)+)", section).group(1)
    namespace: dict = {}
    exec(textwrap.dedent(block), namespace)
    assert namespace["sol"].eigenvalues[0] == 0.0
    assert len(namespace["plate"]) == 3
    assert namespace["plate"][0] == 0.0


def _cli_examples() -> list[str]:
    """Every `bisteklov ...` line of the CLI section, backslash continuations joined."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    joined = re.sub(r"\\\n\s*", "", section)
    return re.findall(r"^    (bisteklov .*)$", joined, re.M)


CLI_EXAMPLES = _cli_examples()


def test_cli_section_has_examples():
    assert len(CLI_EXAMPLES) == 7


@pytest.mark.parametrize("line", CLI_EXAMPLES,
                         ids=[f"{n}-{line.split()[1]}" for n, line in enumerate(CLI_EXAMPLES, 1)])
def test_cli_example_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # an --output file lands here
    argv = [str(ROOT / a) if a.startswith("domains/") else a for a in shlex.split(line)[1:]]
    assert run(argv) == 0
    out = capsys.readouterr().out
    if "--output" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--output") + 1]).read_text()
    assert out.strip()
