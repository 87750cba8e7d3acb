import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "benchmarks")
                 for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    # pyproject.toml requires Python >= 3.10: syntax of a later version,
    # such as except*, must not slip into a file
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
