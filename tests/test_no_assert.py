"""python -O strips assert statements, so an assert in the library is not a
check.  Identity and certificate checks raise named errors instead."""

import ast
import pathlib

import pytest

PKG = pathlib.Path(__file__).parent.parent / "src" / "sexticlab"
MODULES = sorted(PKG.glob("*.py"))


def test_modules_found():
    assert {"poly.py", "witness.py", "density.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"
