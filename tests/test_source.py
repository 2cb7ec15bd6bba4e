"""Static checks over the package source."""

import ast
import os

import itermap

SRC = os.path.dirname(os.path.abspath(itermap.__file__))


def _names(node: ast.AST) -> set[str]:
    """Identifiers a statement reads: names, attributes, and the strings of __all__."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        found |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return found


def _modules():
    """(file name, syntax tree) of each module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def unreferenced_defs(modules) -> set[str]:
    """Top-level functions and classes, public or private, that no live code reaches.

    modules yields (file name, syntax tree).  Every top-level statement
    that is not a def is live.  A def is live while some other live
    statement reads its name; drop the defs that none reads, and repeat
    until nothing more drops.
    """
    roots: list[set[str]] = []
    defs: dict[str, set[str]] = {}
    for name, tree in modules:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{name[:-3]}.{stmt.name}"] = _names(stmt)
            else:
                roots.append(_names(stmt))
    dropped: set[str] = set()
    while True:
        alive = {key: refs for key, refs in defs.items() if key not in dropped}
        more = {
            key
            for key in alive
            if not any(key.split(".")[1] in refs for refs in roots)
            and not any(key.split(".")[1] in refs for other, refs in alive.items() if other != key)
        }
        if not more:
            return dropped
        dropped |= more


def test_no_test_only_routes_in_src():
    # a route that only tests call belongs in tests/*_reference.py, and a helper
    # that no src/ statement reads any more belongs nowhere
    assert unreferenced_defs(_modules()) == set()


def test_unreferenced_defs_finds_left_over_helpers():
    source = """
def run():
    return _fold(1)

def _fold(x):
    return _Summary(x)

class _Summary:
    pass

class _Accum:
    pass

def _consume(acc: _Accum):
    acc.count += 1
"""
    dropped = unreferenced_defs([("m.py", ast.parse(source))])
    assert dropped == {"m.run", "m._fold", "m._Summary", "m._Accum", "m._consume"}
    dropped = unreferenced_defs([("m.py", ast.parse(source + "\nrun()\n"))])
    assert dropped == {"m._Accum", "m._consume"}


def test_no_environment_reads():
    # every setting is an option or a constant, so no module reads the environment
    readers = set()
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "os" and node.attr in ("environ", "getenv"):
                    readers.add(name)
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if {a.name for a in node.names} & {"environ", "getenv"}:
                    readers.add(name)
    assert readers == set()


def test_sampler_calls_the_cycle_kernel_whole():
    # the cyclic-set search and the cycle walk stay in mapping, behind one call
    private = set()
    for name, tree in _modules():
        if name != "montecarlo.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "mapping" and node.attr.startswith("_"):
                    private.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("mapping"):
                private |= {a.name for a in node.names if a.name.startswith("_")}
    assert private == {"_cycle_rows"}


def test_one_route_to_the_cyclic_set():
    # `analyze` and the sampler's `_cycle_rows` both read `_last_sets`, and only the
    # image-round loop `_images` takes images; no second cyclic-set routine is kept
    [tree] = [tree for name, tree in _modules() if name == "mapping.py"]
    calls = {
        stmt.name: {
            node.func.id
            for node in ast.walk(stmt)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef)
    }
    defined = {getattr(stmt, "name", None) for stmt in tree.body} | {
        target.id for stmt in tree.body if isinstance(stmt, ast.Assign) for target in stmt.targets
    }
    assert {caller for caller, callees in calls.items() if "_image" in callees} == {"_images"}
    assert "_last_sets" in calls["_cycle_rows"] & calls["analyze"]
    assert not defined & {"_cyclic_set", "SHRINK_ABOVE"}


def test_all_names_resolve():
    # a name left in __all__ after its definition went fails `from itermap import *`
    assert [name for name in itermap.__all__ if not hasattr(itermap, name)] == []


def test_invariant_error_sites():
    # InvariantError is raised only where computed data can be wrong: the cycle walk,
    # which tests/mapping_faults.py trips, and exact's cross-check of recorded sums.
    # A new site needs a fault test that trips it; a check no input can trip is not kept.
    sites = set()
    for name, tree in _modules():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, ast.Raise) and "InvariantError" in _names(node):
                        sites.add(f"{name[:-3]}.{func.name}")
    assert sites == {"mapping._cycles", "cli.cmd_exact"}
