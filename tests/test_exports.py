"""Every name exported from `ultralip` is used by the program itself.

A name counts as used when a line other than its own `def` or `class`
line refers to it in a library module (not `__init__.py`), in the
acceptance suite, or in the benchmark under `perfbench/`.  Unit tests do
not count: a name only they call is code no construction or command runs.
"""

import inspect
import re
from pathlib import Path

import ultralip

ROOT = Path(__file__).resolve().parents[1]


def _user_lines() -> list[str]:
    files = [p for p in (ROOT / "src" / "ultralip").glob("*.py")
             if p.name != "__init__.py"]
    files += [ROOT / "tests" / "test_acceptance.py",
              *(ROOT / "perfbench").glob("*.py")]
    return [line for p in files for line in p.read_text().splitlines()]


def test_every_export_is_used_outside_unit_tests():
    lines = _user_lines()
    unused = []
    for name in ultralip.__all__:
        if inspect.ismodule(getattr(ultralip, name)):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not own.match(line)
                   for line in lines):
            unused.append(name)
    assert unused == []
