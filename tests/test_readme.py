"""The README's Python examples run as written and print what it says."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# a python block, and the text block that follows it after "It prints:"
EXAMPLE = re.compile(r"^```python\n(.*?)^```\n"
                     r"(?:\nIt prints:\n\n```text\n(.*?)^```\n)?",
                     re.M | re.S)
EXAMPLES = EXAMPLE.findall((ROOT / "README.md").read_text(encoding="utf-8"))


def test_readme_has_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code,expected", EXAMPLES,
                         ids=[f"block-{i}" for i in range(len(EXAMPLES))])
def test_example_runs(code, expected):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    if expected:
        assert proc.stdout == expected
