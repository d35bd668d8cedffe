"""Every public name has a caller besides its own tests.

Parses the package modules (all but `__init__.py`) and the benchmark
scripts with `ast`, without importing the benchmark, and checks that each
name in `pcslpa.__all__`, and each module-level public function and class
of the package, is read somewhere outside its own definition. A name only
the tests reach should be deleted rather than kept. Each package module
must also read what it binds at module level: an import, a private
definition or an assignment that nothing reads is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pcslpa

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "pcslpa").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Module-level defs, classes and assignments, with their bodies."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                 ast.Assign, ast.AnnAssign))]


def _defined_names(node: ast.AST) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _reads(node: ast.AST) -> set[str]:
    """Names read in node: bare loads and attribute accesses."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def used_names() -> set[str]:
    used = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        inside = {id(node): _defined_names(node) for node in _definitions(tree)}
        reads = set()
        for node in tree.body:
            # a definition's own body (recursion, methods naming their class)
            # is no use of that definition
            reads |= _reads(node) - inside.get(id(node), set())
        # `from m import name as alias`: reading alias uses name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                reads |= {a.name for a in node.names if a.asname in reads}
        used |= reads
    return used


def test_every_public_name_is_used_outside_its_definition():
    unused = sorted(set(pcslpa.__all__) - used_names())
    assert unused == []


# Public names kept for a planned caller, each an item of ROADMAP.md.
WITHOUT_A_CALLER = {
    "load_constraints",  # item 4: `run --constraints FILE` will read it
    "nmi_max",  # item 1: `--score max` will report it
}


def public_definitions() -> set[str]:
    names = set()
    for path in SOURCES:
        if path.parent.name == "pcslpa":
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            names |= {node.name for node in tree.body
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not node.name.startswith("_")}
    return names


def test_every_public_function_and_class_is_used_outside_its_definition():
    assert sorted(public_definitions() - used_names()) == sorted(WITHOUT_A_CALLER)



DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound_names(node: ast.stmt) -> set[str]:
    """Names a module-level statement binds: imports, defs, classes and
    assignment targets (`from __future__` binds none)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return set()
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    if isinstance(node, DEFS):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}
    return set()


def unread_module_names(path: Path, elsewhere: set[str]) -> list[str]:
    """The names path binds at module level and does not read: its imports,
    its `_`-prefixed defs and classes, and its assignments, less the public
    assignments named in elsewhere. Public defs and classes are left to the
    caller checks above."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    reads: set[str] = set()
    bound: list[str] = []
    for node in tree.body:
        names = _bound_names(node)
        if isinstance(node, DEFS):
            # a definition's own body is no read of it
            reads |= _reads(node) - names
            bound += [name for name in names if name.startswith("_")]
            continue
        reads |= _reads(node)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += names
        else:
            bound += [name for name in names if name.startswith("_") or name not in elsewhere]
    return sorted(f"{path.stem}.{name}" for name in bound if name not in reads)


def test_every_module_level_name_is_read():
    """A module reads every import, private definition and assignment it
    binds; a public assignment may instead be imported, or read as an
    attribute, by another module or the bench."""
    elsewhere = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                elsewhere |= {a.name for a in node.names}
            elif isinstance(node, ast.Attribute):
                elsewhere.add(node.attr)
    unread = [name for path in SOURCES if path.parent.name == "pcslpa"
              for name in unread_module_names(path, elsewhere)]
    assert unread == []
