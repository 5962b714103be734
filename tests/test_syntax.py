"""The package and its tests parse as Python 3.10, the oldest supported version.

``ast.parse(..., feature_version=(3, 10))`` rejects grammar added in 3.11,
such as ``except*``, when the tests run on a newer interpreter.  It is a
best-effort check of syntax only: it does not catch library calls or
modules added after 3.10 (``tomllib``, ``typing.Self``, ...), nor every
newer construct the parser accepts under an older ``feature_version``.
Only a run on Python 3.10 itself catches those.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(path for folder in ("src/isolect", "tests", "tools", "perfbench")
                 for path in (ROOT / folder).glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_rejects_python_3_11_syntax():
    text = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(text, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))
