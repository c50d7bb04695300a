"""Every name a source module imports is used there or re-exported."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(
    (Path(__file__).resolve().parent.parent / "src" / "gluesem").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                names[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _app_calls(node: ast.AST) -> set[int]:
    return {n.lineno for n in ast.walk(node) if isinstance(n, ast.Call)
            and "App" in (getattr(n.func, "id", None),
                          getattr(n.func, "attr", None))}


def test_only_terms_app_builds_a_call():
    # app merges a call given as the head into one node, so while it is the
    # one builder no App has an App head
    stray = {}
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        lines = _app_calls(tree)
        if path.name == "terms.py":
            [builder] = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "app"]
            assert _app_calls(builder)
            lines -= _app_calls(builder)
        if lines:
            stray[path.name] = sorted(lines)
    assert not stray, f"App(...) built outside terms.app: {stray}"


def _definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {name: line for name, line in names.items()
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_private_helper_is_referenced():
    # a module-level name that no source module reads is dead code, unless
    # it is public and the package exports it
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exported = _exported(trees["__init__.py"])
    dead = {f"{name}:{line}": helper
            for name, tree in trees.items()
            for helper, line in _definitions(tree).items()
            if helper not in read
            and (helper.startswith("_") or helper not in exported)}
    assert not dead, f"unreferenced module-level names {dead}"


@pytest.mark.parametrize("name", ["prover.py", "oracle.py"])
def test_the_search_never_typechecks_a_term(name):
    # the unifier reads a solution's type off its spine; a full typecheck
    # on every flex solve was a measured share of the search
    [path] = [p for p in SOURCES if p.name == name]
    tree = ast.parse(path.read_text(), str(path))
    checkers = {"infer_type", "typecheck"}
    found = {n.lineno for n in ast.walk(tree)
             if isinstance(n, ast.Name) and n.id in checkers
             or isinstance(n, ast.Attribute) and n.attr in checkers
             or isinstance(n, ast.alias) and n.name in checkers}
    assert not found, f"{name} reaches a typechecker at lines {sorted(found)}"


def test_the_oracle_never_reads_the_search_index():
    # the oracle shares _State for its counter, limits and stats; the slot
    # table and head index stay the search's, so a bug in them cannot be
    # mirrored on the oracle's side
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in SOURCES
             if p.name in ("prover.py", "oracle.py")}
    [state] = [n for n in trees["prover.py"].body
               if isinstance(n, ast.ClassDef) and n.name == "_State"]
    members = {n.name for n in state.body if isinstance(n, ast.FunctionDef)}
    members |= {n.attr for n in ast.walk(state) if isinstance(n, ast.Attribute)
                and isinstance(n.ctx, ast.Store)}
    index = {"slots", "by_proj", "by_type", "needs", "candidates", "add"}
    assert index <= members
    found = {n.lineno for n in ast.walk(trees["oracle.py"])
             if isinstance(n, ast.Attribute) and n.attr in index}
    assert not found, f"oracle.py reads the search index at {sorted(found)}"
