#!/usr/bin/env python
"""Forbid unused imports and unused locals in ``src/repro/``.

The stdlib stand-in for ruff's ``F401`` / ``F841``: dead names are how a
deleted feature keeps its import graph alive.  This checker walks the AST
of every module under ``src/repro/`` (``__init__.py`` files are exempt —
their imports *are* the re-export surface) and fails on:

* an imported name that is never read in the module, is not listed in
  ``__all__``, and is not used inside a string annotation;
* a local bound by a plain ``name = ...`` assignment (or ``except ... as
  name``) that is never read in its function.  Tuple unpacking, ``with
  ... as name`` and ``_``-prefixed names are deliberately allowed.

A line carrying ``# noqa`` is skipped.

Usage::

    python tools/check_unused.py            # checks src/repro
    python tools/check_unused.py PATH...    # explicit roots

Exits non-zero listing every violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_ROOT = REPO_ROOT / "src" / "repro"

FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

Finding = Tuple[int, str]


def _loaded_names(tree: ast.AST) -> Set[str]:
    """Every identifier the tree reads: ``Name`` loads/deletes, names
    inside string annotations, and the entries of ``__all__``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A quoted annotation ("Catalog", "Optional[Foo]") or an
            # ``__all__`` entry; prose fails to parse and is ignored.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(inner.id for inner in ast.walk(quoted)
                         if isinstance(inner, ast.Name))
    return names


def _unused_imports(tree: ast.Module, noqa: Set[int]) -> Iterator[Finding]:
    loaded = _loaded_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*" or node.lineno in noqa or alias.lineno in noqa:
                continue
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded:
                yield alias.lineno, f"unused import {bound!r}"


def _own_nodes(function: ast.AST) -> Iterator[ast.AST]:
    """The function's body without descending into nested functions or
    classes (their bindings are their own; their *reads* still count and
    are collected separately).  Lambdas cannot assign, so they need no
    special case."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTION_DEFS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _unused_locals(tree: ast.Module, noqa: Set[int]) -> Iterator[Finding]:
    for function in ast.walk(tree):
        if not isinstance(function, FUNCTION_DEFS):
            continue
        bound: Dict[str, int] = {}
        declared: Set[str] = set()
        for node in _own_nodes(function):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.setdefault(node.name, node.lineno)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, target.lineno)
        read = {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        if "locals" in read:
            continue
        for name, lineno in bound.items():
            if (name not in read and name not in declared
                    and not name.startswith("_") and lineno not in noqa):
                yield lineno, f"local {name!r} is assigned but never used"


def violations(path: Path) -> Iterator[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    noqa = {number for number, line in enumerate(source.splitlines(), 1)
            if "# noqa" in line}
    try:
        rel = path.relative_to(REPO_ROOT)
    except ValueError:
        rel = path
    for lineno, message in sorted([*_unused_imports(tree, noqa),
                                   *_unused_locals(tree, noqa)]):
        yield f"{rel}:{lineno}: {message}"


def main(argv: List[str]) -> int:
    roots = [Path(arg).resolve() for arg in argv] or [DEFAULT_ROOT]
    found = []
    checked = 0
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            checked += 1
            found.extend(violations(path))
    for message in found:
        print(message)
    if found:
        print(f"check_unused: {len(found)} violation(s) in "
              f"{checked} file(s)", file=sys.stderr)
        return 1
    print(f"check_unused: OK ({checked} files, 0 violations)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
