"""Every defaulted parameter the package exports, and every export only the
tests call, each in one table; and every private name a module imports
from a sibling comes from the module that defines it.

A parameter with a default is a setting a caller may change without being
asked to.  The table lists every one on the callables exported from
``wiretapcodes`` and on the public methods of its exported classes, so a
new setting is added here on purpose.  Likewise an export that nothing in
the package, the demos or the benchmark calls is listed with the reason it
stays public.
"""

import ast
import inspect
import re
from pathlib import Path

import wiretapcodes

ROOT = Path(__file__).resolve().parents[1]

# name -> {parameter: repr(default)}; callables without defaults are absent
DEFAULTED = {
    "EquivocationEstimate": {"detail": "<factory>"},
    "LinearCode": {"span": "None"},
    "ThresholdResult": {"detail": "<factory>"},
    "bec_bp_threshold": {"tol": "1e-06"},
    "empirical_bp_threshold_awgn": {"max_iters": "200"},
}


def exported_callables():
    """``(name, callable)`` for each exported function and class, and for
    each public method of an exported class as ``Class.method``."""
    for name in dir(wiretapcodes):
        obj = getattr(wiretapcodes, name)
        if name.startswith("_") or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in inspect.getmembers(obj, callable):
                if not attr.startswith("_"):
                    yield f"{name}.{attr}", member


def defaulted(func) -> dict:
    params = inspect.signature(func).parameters.values()
    return {p.name: repr(p.default) for p in params if p.default is not p.empty}


def test_every_defaulted_parameter_is_in_the_table():
    found = {}
    for name, func in exported_callables():
        if params := defaulted(func):
            found[name] = params
    assert found == DEFAULTED


# name -> why it stays exported although only the tests call it
TEST_ONLY = {
    "write_alist": "read_alist's inverse, the README's alist file I/O",
}


def caller_sources():
    """The text that may call an export: the package's modules without
    their ``__all__`` lists (``__init__`` only re-exports), the demos and
    the benchmark's modules, not its tests."""
    for path in sorted((ROOT / "src" / "wiretapcodes").glob("*.py")):
        if path.name != "__init__.py":
            yield re.sub(r"__all__ = \[.*?\]", "", path.read_text(), flags=re.S)
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path.read_text()


def test_every_export_has_a_caller_outside_tests():
    sources = list(caller_sources())
    uncalled = set()
    for name, _ in exported_callables():
        if "." in name:
            continue
        # any mention but the name's own definition
        use = re.compile(rf"(?<!def )(?<!class )\b{name}\b")
        if not any(use.search(text) for text in sources):
            uncalled.add(name)
    assert uncalled == set(TEST_ONLY)


def test_enumeration_reaches_functions_classes_and_methods():
    names = {name for name, _ in exported_callables()}
    assert {"wilson_interval", "NestedCodePair", "RegionPolygon.contains",
            "BitMatrix.from_dense", "DegreeDistribution.regular"} <= names


def module_level_names(tree: ast.Module) -> set:
    """The names a module defines at its top level: by a def, a class or an
    assignment (imports are not definitions)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_private_imports_come_from_their_defining_module():
    # a private name imported from a module that only imports it itself is a
    # re-export; the importer should take it from where it is defined
    package = ROOT / "src" / "wiretapcodes"
    trees = {path.stem: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = {mod: module_level_names(tree) for mod, tree in trees.items()}
    relayed, checked = [], 0
    for mod, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module):
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    checked += 1
                    if alias.name not in defined[node.module]:
                        relayed.append(f"{mod}: from .{node.module} import {alias.name}")
    assert checked >= 10
    assert relayed == []


def test_the_pair_keeps_only_the_code_and_the_rank_plan():
    # the erasure-rank estimator's per-pair state is one slot, which only
    # secrecy reads or fills; codes only declares it and starts it at None
    private = [s for s in wiretapcodes.NestedCodePair.__slots__ if s.startswith("_")]
    assert private == ["_rank_plan"]
    package = ROOT / "src" / "wiretapcodes"
    naming = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "_rank_plan":
                store = isinstance(node.ctx, ast.Store)
                if not (path.stem == "codes" and store and ast.unparse(node.value) == "self"):
                    naming.add(path.stem)
    assert naming == {"secrecy"}


def test_only_bitlinalg_names_a_matrix_edge_keys():
    # a matrix's edge keys, like the words past its identity prefix, are a
    # private slot of BitMatrix, which only bitlinalg reads or fills; codes
    # packs and reads edges, and takes leading rows, through its helpers,
    # never extracting edges from the words itself
    package = ROOT / "src" / "wiretapcodes"
    naming, edges_in_codes = {"_keys": set(), "_tail": set()}, False
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in naming:
                naming[node.attr].add(path.stem)
            if path.stem == "codes" and (
                isinstance(node, ast.ImportFrom) and any(a.name == "_edges" for a in node.names)
                or isinstance(node, ast.Attribute) and node.attr == "_edges"
            ):
                edges_in_codes = True
    assert naming == {"_keys": {"bitlinalg"}, "_tail": {"bitlinalg"}}
    assert not edges_in_codes


def test_secrecy_chooses_the_peel_source_in_one_function():
    # the rank plan alone reads the coarse code's span and checks, so the
    # choice of what the erasure ranks peel is made in one place
    tree = ast.parse((ROOT / "src" / "wiretapcodes" / "secrecy.py").read_text())
    readers = {"span": set(), "checks": set()}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in readers:
                readers[node.attr].add(getattr(top, "name", None))
    assert readers == {"span": {"_rank_plan"}, "checks": {"_rank_plan"}}
