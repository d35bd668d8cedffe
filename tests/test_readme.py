"""The README's library example runs as shown."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_quick_tour_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md: Library quick tour", "exec"), {"__name__": "readme_quick_tour"})
    score, report = capsys.readouterr().out.split(" ", 1)
    assert 0.0 <= float(score) <= 1.0
    assert report.startswith("RepairReport(")
