"""The package runs on the standard library alone, and its public names
all resolve."""

import ast
import sys
from collections import Counter
from pathlib import Path

import chibound

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chibound").glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_public_names_are_sorted_unique_and_resolve():
    names = chibound.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(chibound, name)] == []


def _package_imports(name: str) -> set[tuple[str, str | None]]:
    """(module, name) of each import from inside the package in one of its
    source files, the module named relative to the package; a whole module
    imported, as by ``from . import claims``, has the name None."""
    path = SOURCES[0].parent / name
    inside = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "chibound"]
            inside |= {(name.removeprefix("chibound."), None) for name in names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            inside |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "chibound"):
            module = node.module.removeprefix("chibound.")
            inside |= {(module, alias.name) for alias in node.names}
    return inside


def test_oracles_reuse_no_pipeline_code():
    # the oracles re-derive every property from raw adjacency, so that a
    # pipeline bug and an oracle bug would have to coincide to slip through:
    # from inside the package they take the errors, the graph type and the
    # view that unwraps a labeled graph, and nothing else
    inside = _package_imports("oracles.py")
    assert inside
    assert {(module, name) for module, name in inside if module != "errors"} <= {
        ("graphs", "OrientedGraph"),
        ("graphs", "oriented_view"),
    }
    # nor do they read the descent fact the pipeline caches on a graph, which
    # an induced subgraph copies from its parent: they test the edges themselves
    path = SOURCES[0].parent / "oracles.py"
    reads = [
        f"oracles.py:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_descends", "_desc")
    ]
    assert reads == []


def test_cli_decides_no_verdict():
    # every verdict is decided in claims.py: the cli takes the budget and
    # report types from the oracles, and nothing from the coloring or farey
    inside = _package_imports("cli.py")
    assert ("claims", None) in inside
    assert {(module, name) for module, name in inside if module == "oracles"} <= {
        ("oracles", "Budget"),
        ("oracles", "VerificationReport"),
    }
    assert [(module, name) for module, name in inside if module in ("coloring", "farey")] == []


def test_cli_looks_up_no_option_by_name():
    # which options a command reads is decided by the one table in cli.py;
    # a getattr or hasattr on the parsed arguments would decide it again
    path = SOURCES[0].parent / "cli.py"
    calls = [
        f"cli.py:{node.lineno} {node.func.id}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("getattr", "hasattr")
        and node.args
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "args"
    ]
    assert calls == []


def test_every_error_type_is_raised():
    # each exception class in errors.py is raised somewhere in the package,
    # or is the base of one that is; a dead error type fails here
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    types = [t for t in vars(chibound.errors).values() if isinstance(t, type) and t.__module__ == "chibound.errors"]
    assert types
    dead = [t.__name__ for t in types if not any(issubclass(r, t) for r in types if r.__name__ in raised)]
    assert dead == []


def _references(node: ast.AST) -> Counter:
    """How often each name is read, taken as an attribute or imported under ``node``."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def test_every_private_name_is_used():
    # each private top-level function, class or constant of the package is
    # referenced in the package outside its own definition; a helper that
    # only the tests still call fails here
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    everywhere = sum(map(_references, trees), Counter())
    private = []
    for path, tree in zip(SOURCES, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            private += [(path.name, name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    assert private
    dead = [f"{file} {name}" for file, name, node in private if everywhere[name] == _references(node)[name]]
    assert dead == []
