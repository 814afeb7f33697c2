"""Source hygiene: every imported name in the package and the tests is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "zhuforge").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by an import statement in `source` that nothing reads.

    `from __future__ import ...` is a compiler directive and binds no name.
    A name listed in `__all__` counts as read: a package re-exports exactly
    what its `__init__.py` lists there, so an `__init__.py` import missing
    from `__all__` is reported like any other.
    """
    tree = ast.parse(source)
    imported = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_import_scan_reports_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import sys as system\n"
              "from a import b, c, d as e\n"
              "__all__ = ['c']\n"
              "print(system.argv)\n")
    assert unused_imports(source) == ["os", "os", "b", "e"]
    assert unused_imports(source + "os.sep\ne\nb = 1\n") == ["b"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
