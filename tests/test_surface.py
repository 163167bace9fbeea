"""Every name `axiwave` exports is used by the package itself or by the
benchmark under bench/.  A public name that only tests reach is surface
kept for the tests alone.

The scan reads names only: a keyword argument that no caller sets is out
of its reach.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "axiwave"


def _exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_every_export_is_used_outside_tests():
    sources = [p for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"] + sorted((ROOT / "bench").glob("*.py"))
    lines = [ln for p in sources for ln in p.read_text().splitlines()]
    unused = []
    for name in _exported():
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(ln) and not own.match(ln) for ln in lines):
            unused.append(name)
    assert unused == []
