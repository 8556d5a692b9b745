"""The README's examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    exec(compile(block, f"{README} (Library quick start)", "exec"), {"__name__": "quick_start"})
