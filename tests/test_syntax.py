"""Every Python file of the package and its tests parses as Python 3.10,
the requires-python floor, whatever interpreter runs the tests.

This guards syntax only: a standard-library name or behaviour that
differs between 3.10 and the running interpreter is not caught here."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
