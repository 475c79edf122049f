"""The catalog: a registry of tables by name."""

from __future__ import annotations

from repro.dbms.table import Table
from repro.errors import CatalogError


class Catalog:
    """Name → table registry with duplicate protection."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    def register(self, table: Table) -> None:
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._tables))

    def tables(self) -> tuple[Table, ...]:
        return tuple(self._tables[name] for name in sorted(self._tables))

    def __len__(self) -> int:
        return len(self._tables)
