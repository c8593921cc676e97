"""Every name a package module imports is used in that module. The only
exceptions are names imported on a `# noqa: F401` line, and each of those
is an import site that the benchmark's traced run wraps (an entry of
perfbench/tracing.py's TRACE_POINTS).

The package keeps no test-only functions: each public top-level function
is used in src/, is a TRACE_POINTS site, is called by
perfbench/workloads.py, or is on UNUSED_ALLOWED with its reason.

Nor does it keep one-call wrappers: a public top-level function whose body,
after the docstring, only returns one call of another public function of
src/ (optionally subscripted) is a TRACE_POINTS site or is on
WRAPPERS_ALLOWED with its reason."""
import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "aetlab").glob("*.py"))

# (module, function) -> why it stays although neither src/ nor the benchmark uses it
UNUSED_ALLOWED: dict[tuple[str, str], str] = {}

# (module, function) -> why this one-call wrapper stays although it is no trace site
WRAPPERS_ALLOWED: dict[tuple[str, str], str] = {}


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


def used_names(source: str) -> set[str]:
    """Every name one module's source reads, as a plain name or as an
    attribute; import lines and definitions do not count."""
    tree = ast.parse(source)
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def public_functions(source: str) -> list[str]:
    """The public top-level functions one module's source defines."""
    tree = ast.parse(source)
    return [n.name for n in tree.body if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


def workload_calls() -> set[tuple[str, str]]:
    """The (module, function) calls perfbench/workloads.py makes as
    `module.function(...)`."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    return {
        (n.func.value.id, n.func.attr)
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and isinstance(n.func.value, ast.Name)
    }


def unexplained_functions() -> set[tuple[str, str]]:
    """The (module, function) pairs of public top-level functions that no
    module of src/ uses, that are no TRACE_POINTS site and that
    perfbench/workloads.py does not call."""
    used = set().union(*(used_names(p.read_text()) for p in MODULES))
    unused = {
        (p.stem, name) for p in MODULES for name in public_functions(p.read_text()) if name not in used
    }
    sites = {(module.removeprefix("aetlab."), attr) for module, attr in trace_sites()}
    return unused - sites - workload_calls()


def test_finds_the_public_functions_and_their_uses():
    source = (
        "from .core import similarity\n"
        "def kept(x):\n    return helper(x)\n"
        "def helper(x):\n    return np.sum(x)\n"
        "def _private():\n    pass\n"
        "class Thing:\n    def method(self):\n        return core.linf_box\n"
    )
    assert public_functions(source) == ["kept", "helper"]
    assert used_names(source) == {"helper", "np", "x", "core", "sum", "linf_box"}


def test_no_test_only_functions():
    # and no stale allowlist entry: each is still unexplained otherwise
    assert unexplained_functions() == set(UNUSED_ALLOWED)


def one_call_wrappers(sources: dict[str, str]) -> set[tuple[str, str]]:
    """The (module, function) pairs of public top-level functions, over the
    sources of several modules by module name, whose body after the
    docstring is a single return of exactly one call (optionally
    subscripted) of another public top-level function of those modules,
    by name or as an attribute."""
    public = {name for source in sources.values() for name in public_functions(source)}
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            if len(body) != 1 or not isinstance(body[0], ast.Return) or body[0].value is None:
                continue
            value = body[0].value
            call = value.value if isinstance(value, ast.Subscript) else value
            if not isinstance(call, ast.Call):
                continue
            if sum(isinstance(n, ast.Call) for n in ast.walk(value)) != 1:
                continue
            func = call.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee in public and callee != node.name:
                found.add((module, node.name))
    return found


def test_finds_the_one_call_wrappers():
    sources = {
        "a": (
            "def kernel(x, n):\n    return x * n\n"
            "def row(x):\n    \"\"\"One row.\"\"\"\n    return kernel([x], 1)[0]\n"
            "def alias(x):\n    return b.other(x, k=x.size)\n"
            "def two_calls(x):\n    return kernel(np.asarray(x), 1)\n"
            "def checks(x):\n    check(x)\n    return kernel(x, 1)\n"
            "def private_callee(x):\n    return _helper(x)\n"
            "def outside_callee(x):\n    return np.sum(x)\n"
            "def _private(x):\n    return kernel(x, 1)\n"
        ),
        "b": "def other(x, k):\n    return x\n",
    }
    assert one_call_wrappers(sources) == {("a", "row"), ("a", "alias")}


def test_no_one_call_wrappers():
    # and no stale allowlist entry: each is still a wrapper and no trace site
    sites = {(module.removeprefix("aetlab."), attr) for module, attr in trace_sites()}
    wrappers = one_call_wrappers({p.stem: p.read_text() for p in MODULES})
    assert wrappers - sites == set(WRAPPERS_ALLOWED)


def seed_sequence_modules(sources: dict[str, str]) -> set[str]:
    """The modules, over several sources by module name, that construct a
    SeedSequence, as `SeedSequence(...)` or `np.random.SeedSequence(...)`."""
    return {
        module
        for module, source in sources.items()
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and (getattr(n.func, "id", None) or getattr(n.func, "attr", None)) == "SeedSequence"
    }


def test_finds_the_seed_sequence_builders():
    sources = {
        "a": "rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))\n",
        "b": "from numpy.random import SeedSequence\nss = SeedSequence(3)\n",
        "c": "rng = np.random.default_rng(seed)\n\"\"\"SeedSequence([seed, 2])\"\"\"\n",
    }
    assert seed_sequence_modules(sources) == {"a", "b"}


def test_every_seed_stream_is_derived_in_harness():
    # one module derives every stream, so harness's docstring can list them all
    assert seed_sequence_modules({p.stem: p.read_text() for p in MODULES}) == {"harness"}
