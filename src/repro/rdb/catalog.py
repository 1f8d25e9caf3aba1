"""Catalog: the registry of tables known to a database."""

from __future__ import annotations

from typing import Dict

from repro.errors import CatalogError
from repro.rdb.table import Table


class Catalog:
    """Name -> :class:`Table` registry with create/drop semantics."""

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def register(self, table: Table) -> None:
        """Register ``table``; raises :class:`CatalogError` if the name exists."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def get(self, name: str) -> Table:
        """Return the table called ``name``.

        Raises:
            CatalogError: for unknown names.
        """
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"table {name!r} does not exist") from exc

    def drop(self, name: str) -> None:
        """Forget the table called ``name``.

        Raises:
            CatalogError: for unknown names.
        """
        if name not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[name]

    def has(self, name: str) -> bool:
        """Whether a table called ``name`` exists."""
        return name in self._tables
