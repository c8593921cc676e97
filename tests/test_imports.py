"""Every name a package module imports is used in that module. The only
exceptions are names imported on a `# noqa: F401` line, and each of those
is an import site that the benchmark's traced run wraps (an entry of
perfbench/tracing.py's TRACE_POINTS)."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "aetlab").glob("*.py"))


def trace_sites() -> set[tuple[str, str]]:
    """The (module, attribute) import sites of TRACE_POINTS."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {(module, attr) for module, attr, *_ in tracing.TRACE_POINTS}


def unused_imports(source: str) -> tuple[set[str], set[str]]:
    """(names imported but never used, names imported on a noqa: F401
    line) of one module's source."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, exempt = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                noqa = "# noqa: F401" in lines[alias.lineno - 1]
                (exempt if noqa else imported).add(name)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - used, exempt


def test_finds_a_stale_import_and_the_exempt_names():
    source = (
        "import numpy as np\n"
        "from .core import similarity, matvec_rows\n"
        "from .encoders import encode_image  # noqa: F401\n"
        "x = np.zeros(3)\n"
        "def f(a: matvec_rows): pass\n"
    )
    assert unused_imports(source) == ({"similarity"}, {"encode_image"})


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used_or_traced(path):
    unused, exempt = unused_imports(path.read_text())
    assert unused == set()
    module = f"aetlab.{path.stem}"
    assert {(module, name) for name in exempt} <= trace_sites()
