"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "Regime.ROOTS_OF_INTEGER_EXPANDING"
    assert len(lines) == 3 + 7  # regime, tv, mixing time, then bounds rows n = 0..6
