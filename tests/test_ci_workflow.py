"""Every script and test file the CI workflow runs exists.

A step that names a deleted file would only fail on the CI runner; this
reads the ``run:`` steps of ``.github/workflows/ci.yml`` as text (one
line, or a ``|`` block) and checks each ``benchmarks/…`` and
``tests/…`` path they name against the tree.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

_RUN = re.compile(r"^(\s*)(?:-\s+)?run:\s*(.*)$")
_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|tests)/[\w./-]+)")


def run_steps(text):
    """The shell text of each ``run:`` step, in file order."""
    steps = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        match = _RUN.match(lines[i])
        i += 1
        if match is None:
            continue
        indent, rest = len(match.group(1)), match.group(2).strip()
        if rest not in ("|", ">"):
            steps.append(rest)
            continue
        block = []
        while i < len(lines) and (
                not lines[i].strip()
                or len(lines[i]) - len(lines[i].lstrip()) > indent):
            block.append(lines[i].strip())
            i += 1
        steps.append("\n".join(block))
    return steps


def named_paths():
    paths = []
    for step in run_steps(WORKFLOW.read_text()):
        for path in _PATH.findall(step):
            path = path.rstrip(".")
            if path not in paths:
                paths.append(path)
    return paths


PATHS = named_paths()


def test_the_workflow_names_the_ledger_bench():
    # guards the parser: a regex that finds nothing checks nothing
    assert "benchmarks/ledger/bench.py" in PATHS
    assert "tests/test_fanout.py" in PATHS


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (ROOT / path).exists(), f"ci.yml runs {path}, which is gone"
