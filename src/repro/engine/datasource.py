"""Connections and data sources (§2–§3 of the paper).

A *connection* names a database TriggerMan can reach (here: an in-process
:class:`repro.sql.Database`, standing in for a local or remote Informix /
Oracle / Sybase server).  A *data source* normally corresponds to a table on
some connection — update-capture listeners on the table play the role of the
per-table Informix capture triggers — or to a *stream*: a schema-carrying
feed driven through the data source API by an application program.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import CatalogError, SchemaError
from ..network.nodes import RowLookup
from ..sql.database import Database, Table
from .descriptors import Operation, UpdateDescriptor


class Connection:
    """A named database connection; one connection is the default (§2)."""

    def __init__(self, name: str, database: Database, is_default: bool = False):
        self.name = name
        self.database = database
        self.is_default = is_default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        default = " (default)" if self.is_default else ""
        return f"Connection({self.name}{default})"


class DataSource:
    """Base class: a stream of update descriptors with a known schema."""

    kind = "abstract"

    def __init__(self, ds_id: int, name: str, columns: Sequence[str]):
        self.ds_id = ds_id
        self.name = name
        self.columns = tuple(columns)

    def has_column(self, column: str) -> bool:
        return column in self.columns

    def fetcher(self) -> Optional[Callable[[], Iterator[Dict[str, Any]]]]:
        """Row-fetch callback for virtual alpha memories; None when the
        source has no queryable current state (pure streams)."""
        return None


class TableDataSource(DataSource):
    """A data source over a local table; updates are captured by a table
    listener installed by the engine."""

    kind = "table"

    def __init__(
        self,
        ds_id: int,
        name: str,
        connection: Connection,
        table: Table,
    ):
        super().__init__(ds_id, name, table.schema.column_names())
        self.connection = connection
        self.table = table

    def fetcher(self) -> Callable[[], Iterator[Dict[str, Any]]]:
        table = self.table

        def fetch() -> Iterator[Dict[str, Any]]:
            for row in table.rows():
                yield table.schema.row_to_dict(row)

        return fetch

    def eq_lookup(self) -> RowLookup:
        """Equality-lookup callback for virtual alpha memories, beside
        :meth:`fetcher`: ``rows_eq(columns, key)`` returns the rows whose
        ``columns`` equal ``key`` through the table's lazy equality index,
        or None when the index cannot answer (the caller scans)."""
        table = self.table

        def rows_eq(columns, key) -> Optional[List[Dict[str, Any]]]:
            found = table.lookup_eq(columns, key)
            if found is None:
                return None
            to_dict = table.schema.row_to_dict
            return [to_dict(row) for _rid, row in found]

        return rows_eq

    def install_capture(self, sink: Callable[[UpdateDescriptor], None]) -> None:
        """Attach the update-capture listener (the Informix-trigger stand-in)."""
        source_name = self.name

        def listener(op: str, old_row, new_row) -> None:
            if op == Operation.UPDATE:
                descriptor = UpdateDescriptor.for_update(
                    source_name, old_row, new_row
                )
            else:
                descriptor = UpdateDescriptor(
                    data_source=source_name,
                    operation=op,
                    new=new_row,
                    old=old_row,
                )
            sink(descriptor)

        self.table.listeners.append(listener)


class StreamDataSource(DataSource):
    """A generic data source program: tuples arrive through the data source
    API (:meth:`descriptor_for`) and have no backing table."""

    kind = "stream"

    def __init__(self, ds_id: int, name: str, columns: Sequence[Tuple[str, str]]):
        super().__init__(ds_id, name, [c for c, _t in columns])
        self.column_types = tuple(columns)

    def descriptor_for(
        self,
        operation: str,
        new: Optional[Dict[str, Any]] = None,
        old: Optional[Dict[str, Any]] = None,
    ) -> UpdateDescriptor:
        for image in (new, old):
            if image is None:
                continue
            unknown = set(image) - set(self.columns)
            if unknown:
                raise SchemaError(
                    f"stream {self.name!r} has no columns {sorted(unknown)}"
                )
        if operation == Operation.UPDATE and new is not None and old is not None:
            return UpdateDescriptor.for_update(self.name, old, new)
        return UpdateDescriptor(
            data_source=self.name, operation=operation, new=new, old=old
        )


class DataSourceRegistry:
    """Name → data source lookup plus id assignment."""

    def __init__(self) -> None:
        self._sources: Dict[str, DataSource] = {}
        self._next_id = 1

    def next_id(self) -> int:
        ds_id = self._next_id
        self._next_id += 1
        return ds_id

    def add(self, source: DataSource) -> None:
        if source.name in self._sources:
            raise CatalogError(f"data source {source.name!r} already defined")
        self._sources[source.name] = source
        self._next_id = max(self._next_id, source.ds_id + 1)

    def get(self, name: str) -> DataSource:
        try:
            return self._sources[name]
        except KeyError:
            raise CatalogError(f"no such data source {name!r}")

    def drop(self, name: str) -> DataSource:
        source = self.get(name)
        del self._sources[name]
        return source

    def __contains__(self, name: str) -> bool:
        return name in self._sources

    def names(self) -> List[str]:
        return sorted(self._sources)
