"""Find public names in a source tree that only tests reference.

A *definition* is a module-level function or class in the package, or a
method or property of such a class, whose name does not start with
``_``.  Classes registered through simlint's ``@register`` are skipped:
the rule registry reaches them.

A *reference* is a name that non-test code uses: ``Name`` ids,
``Attribute`` names, keyword-argument names, import aliases, and the
identifiers inside string literals (``perfbench/layers.py`` wraps
methods by string name).  Docstrings are not references, and neither are
the imports and ``__all__`` of an ``__init__.py``: a re-export keeps a
name importable, not used.

Matching is by name, so a method that shares its name with one that is
called elsewhere counts as reached.  The scan is a ratchet, not a proof.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


@dataclass(frozen=True)
class Definition:
    name: str
    path: Path
    line: int

    def where(self, root: Path) -> str:
        return f"{self.path.relative_to(root).as_posix()}:{self.line}"


def _python_files(roots: Iterable[Path]) -> Iterator[Path]:
    for root in roots:
        yield from sorted(p for p in root.rglob("*.py")
                          if "__pycache__" not in p.parts)


def _is_registered(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "register"
               for d in cls.decorator_list)


def definitions(package: Path) -> list[Definition]:
    """Public module-level functions and classes, and their methods."""
    found = []
    for path in _python_files([package]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if isinstance(node, ast.ClassDef) and _is_registered(node):
                continue
            found.append(Definition(node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                found.extend(
                    Definition(item.name, path, item.lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and not item.name.startswith("_"))
    return found


def _docstrings(tree: ast.Module) -> set[int]:
    """``id()`` of every docstring constant in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                found.add(id(first.value))
    return found


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def names_used(tree: ast.Module, *, reexports_count: bool = True) -> set[str]:
    """Every name ``tree`` references (see the module docstring)."""
    skipped: set[int] = set()
    if not reexports_count:
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
                skipped.update(id(n) for n in ast.walk(node))
    docstrings = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif isinstance(node, ast.alias):
            used.add((node.asname or node.name).rpartition(".")[2])
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and id(node) not in docstrings:
            used.update(_IDENTIFIER.findall(node.value))
    return used


def references(roots: Iterable[Path], markdown: Iterable[Path] = ()) -> set[str]:
    """Names used by the ``.py`` files under ``roots`` and by the
    ``python`` blocks of the ``markdown`` files."""
    used: set[str] = set()
    for path in _python_files(roots):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= names_used(tree, reexports_count=path.name != "__init__.py")
    for doc in markdown:
        for block in _PYTHON_BLOCK.findall(doc.read_text(encoding="utf-8")):
            used |= names_used(ast.parse(block))
    return used


def gate_failures(root: Path, package: Path, roots: Iterable[Path],
                  markdown: Iterable[Path],
                  allowlist: Mapping[str, str]) -> list[str]:
    """One line per failure: a definition in ``package`` that nothing
    under ``roots`` (or in the ``markdown`` python blocks) references, an
    allowlisted name that is referenced now, or one no longer defined.
    Locations print relative to ``root``."""
    used = references(roots, markdown)
    defined = definitions(package)
    failures = [
        f"{d.where(root)}: {d.name} is referenced only from tests"
        for d in defined if d.name not in used and d.name not in allowlist]
    names = {d.name for d in defined}
    for name in sorted(allowlist):
        if name not in names:
            failures.append(f"allowlisted {name} is no longer defined")
        elif name in used:
            failures.append(f"allowlisted {name} is referenced now")
    return failures
