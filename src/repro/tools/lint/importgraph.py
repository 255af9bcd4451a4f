"""Project import graph over the linted file set.

The graph is the substrate the interprocedural rules stand on: nodes are
linted files (by root-relative path), edges point from an importer to the
file its import statement resolves to *within the linted set*.  Imports
that leave the set (numpy, scipy, the stdlib) produce no edge -- the
analyses are project-local.

File-to-module naming handles the repository's layouts without config:

* ``src/repro/network/capacity.py`` answers to ``repro.network.capacity``
  (and any shorter dotted suffix, longest match winning);
* ``tests/network/test_faults.py`` answers to
  ``tests.network.test_faults``;
* a package's ``__init__.py`` answers to the package path itself, so
  ``from repro.network import capacity`` resolves to the submodule when it
  is linted and falls back to the package ``__init__`` otherwise;
* relative imports (``from .capacity import Flow``, level >= 1) resolve
  against the importer's own package directory.

Ambiguous suffixes (two linted ``grid.py`` files) resolve only when a
longer, unique suffix is used; a genuinely ambiguous short import creates
no edge rather than a wrong one.
"""

from __future__ import annotations

import ast

__all__ = ["RawImport", "module_imports", "ImportGraph"]


class RawImport:
    """One import statement, unresolved: dotted name + relative level.

    ``from ..orbits import time`` inside ``src/repro/network/x.py`` is
    ``RawImport("orbits.time", 2)``; plain ``import numpy.random`` is
    ``RawImport("numpy.random", 0)``.
    """

    __slots__ = ("name", "level")

    def __init__(self, name: str, level: int = 0):
        self.name = name
        self.level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RawImport({self.name!r}, level={self.level})"


def module_imports(tree: ast.Module) -> list[RawImport]:
    """Extract every import of a module as :class:`RawImport` records.

    ``from x import a, b`` yields one record per alias (``x.a``, ``x.b``)
    so symbol-level imports can resolve to submodule files; ``import x.y``
    yields ``x.y``.  Star imports yield the bare module.
    """
    imports: list[RawImport] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports.append(RawImport(alias.name, 0))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    imports.append(RawImport(module, node.level))
                else:
                    dotted = f"{module}.{alias.name}" if module else alias.name
                    imports.append(RawImport(dotted, node.level))
    return imports


def _module_parts(rel_path: str) -> list[str]:
    """Dotted-name parts a file answers to (``__init__`` drops to package)."""
    parts = rel_path.split("/")
    parts[-1] = parts[-1][: -len(".py")] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return parts


class ImportGraph:
    """Importer -> imported-file edges over a set of linted files."""

    def __init__(self) -> None:
        #: suffix tuple -> set of files answering to it
        self._by_suffix: dict[tuple[str, ...], set[str]] = {}
        #: rel_path -> its full dotted parts
        self._parts: dict[str, tuple[str, ...]] = {}
        self.edges: dict[str, set[str]] = {}

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(cls, imports_by_file: dict[str, list[RawImport]]) -> "ImportGraph":
        """Build the graph for ``{rel_path: [RawImport, ...]}``."""
        graph = cls()
        for rel_path in imports_by_file:
            graph._register(rel_path)
        for rel_path, imports in imports_by_file.items():
            graph.edges[rel_path] = set()
            for raw in imports:
                target = graph.resolve(rel_path, raw)
                if target is not None and target != rel_path:
                    graph.edges[rel_path].add(target)
        return graph

    def _register(self, rel_path: str) -> None:
        parts = tuple(_module_parts(rel_path))
        self._parts[rel_path] = parts
        self.edges.setdefault(rel_path, set())
        for start in range(len(parts)):
            self._by_suffix.setdefault(parts[start:], set()).add(rel_path)

    # -- resolution --------------------------------------------------------------

    def resolve(self, importer: str, raw: RawImport) -> "str | None":
        """File a raw import points at, or ``None`` if it leaves the set.

        Symbol imports fall back segment by segment: ``repro.network.
        capacity.Flow`` tries the full chain, then ``repro.network.
        capacity``, then the package ``__init__``.  Each candidate must be
        *unique* among the registered suffixes to produce an edge.
        """
        name_parts = tuple(part for part in raw.name.split(".") if part)
        if raw.level > 0:
            base = self._parts.get(importer, ())
            # level 1 = importer's package, each extra level climbs one.
            package = base[: len(base) - raw.level] if len(base) >= raw.level else ()
            name_parts = package + name_parts
        for end in range(len(name_parts), 0, -1):
            candidate = name_parts[:end]
            matches = self._by_suffix.get(candidate, ())
            if len(matches) == 1:
                return next(iter(matches))
            if len(matches) > 1:
                # Prefer an exact full-path match among the ambiguous set.
                exact = [f for f in matches if self._parts[f] == candidate]
                if len(exact) == 1:
                    return exact[0]
                return None
        return None
