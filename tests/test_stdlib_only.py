"""The runtime imports nothing outside the standard library."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "contractlab").glob("*.py"))


def imported_modules(path):
    """The top-level name of every module ``path`` imports; "contractlab"
    for a relative import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "contractlab" if node.level else node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    assert SOURCES
    seen = set()
    for path in SOURCES:
        for name in imported_modules(path):
            seen.add(name)
            assert name == "contractlab" or name in sys.stdlib_module_names, \
                f"{path.name} imports {name}, which is not in the standard library"
    assert {"contractlab", "fractions", "math"} <= seen
