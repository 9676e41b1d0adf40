"""The scanned tree, read and parsed once per run.

Every tier starts from the same thing — the ``*.py`` files under a root
as :mod:`ast` trees — and the two call-graph tiers (:mod:`txn`,
:mod:`dispatch`) from the same two views of it: the application modules
above the storage and analysis machinery, and an index from a
function's bare name to the qualified names that define it.
:class:`SourceTree` and :class:`FunctionIndex` are that common start.
What the tiers *do* with a function body differs on purpose (transaction
scopes and any ``name.m()`` call there, loop stacks and a filtered
method list here) and stays in their own visitors.

Every entry point that takes a ``root`` accepts a directory or an
already loaded :class:`SourceTree`, so one CLI run parses each file once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

#: Directories/files that *are* the storage and analysis machinery; the
#: call-graph tiers audit the layers above them.
_MACHINERY_PARTS = ("storage", "analysis")
_MACHINERY_FILES = ("database.py",)


@dataclass(frozen=True)
class Module:
    """One parsed source file; ``rel`` is its posix path under the root,
    so findings and baselines do not depend on the checkout location."""

    rel: str
    source: str
    tree: ast.Module


class SourceTree:
    """Every parseable ``*.py`` beneath ``root``, in path order."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.modules: List[Module] = []
        for path in sorted(self.root.rglob("*.py")):
            try:
                source = path.read_text()
                tree = ast.parse(source, filename=str(path))
            except (SyntaxError, UnicodeDecodeError):
                continue
            self.modules.append(Module(
                path.relative_to(self.root).as_posix(), source, tree))

    @classmethod
    def of(cls, root: Union[str, Path, "SourceTree"]) -> "SourceTree":
        return root if isinstance(root, cls) else cls(root)

    def module(self, rel: str) -> Optional[Module]:
        return next((m for m in self.modules if m.rel == rel), None)

    def application_modules(self, skip: Tuple[str, ...] = ()
                            ) -> List[Module]:
        """The modules above the storage/analysis machinery, less the
        files named in ``skip``."""
        kept = []
        for module in self.modules:
            path = PurePosixPath(module.rel)
            if any(part in _MACHINERY_PARTS for part in path.parts):
                continue
            if path.name in _MACHINERY_FILES + skip:
                continue
            kept.append(module)
        return kept


def functions_of(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """(qualname, node) for every function/method in ``tree``."""
    def walk(nodes, prefix):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{node.name}"
                yield name, node
                yield from walk(node.body, f"{name}.")
            elif isinstance(node, ast.ClassDef):
                yield from walk(node.body, f"{prefix}{node.name}.")
    yield from walk(tree.body, "")


@dataclass
class FunctionIndex:
    """Scanned functions by ``file:qualname``, plus the name-based
    call-resolution index both call-graph tiers resolve through."""

    functions: Dict[str, Any] = field(default_factory=dict)
    #: Bare name -> qualnames defining it.
    by_name: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, info: Any) -> None:
        self.functions[info.qualname] = info
        bare = info.qualname.rsplit(":", 1)[-1].rsplit(".", 1)[-1]
        self.by_name.setdefault(bare, []).append(info.qualname)

    def resolve(self, name: str) -> List[str]:
        return self.by_name.get(name, [])
