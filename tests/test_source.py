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


def unreferenced_public_defs() -> set[str]:
    """Public top-level functions and classes that no live code in src/ reaches.

    Every top-level statement that is not a public def is live.  A public
    def is live while some other live statement reads its name; drop the
    defs that none reads, and repeat until nothing more drops.
    """
    roots: list[set[str]] = []
    defs: dict[str, set[str]] = {}
    for name, tree in _modules():
        for stmt in tree.body:
            defines = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if defines and not stmt.name.startswith("_"):
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
    # a route that only tests call belongs in tests/*_reference.py
    assert unreferenced_public_defs() == set()


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
    # the mask, the cycle walk and the reach check stay in mapping, behind one call
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
