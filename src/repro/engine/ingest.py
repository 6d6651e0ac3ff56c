"""The ingestion surface: connections, data sources, and update capture.

Everything upstream of the token pipeline — defining tables/streams as
data sources, the DML helpers that mutate captured tables, the data-source
program ``push`` API, and the §2 command dispatcher.  Mixed into
:class:`repro.engine.triggerman.TriggerMan`; methods here use only the
facade's public attributes (``registry``, ``catalog``, ``connections``,
``pipeline``)."""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple, Union

from ..errors import CatalogError, TriggerError
from ..lang import ast
from ..lang.parser import parse_command
from ..sql.database import Database
from ..sql.schema import schema as make_schema
from .datasource import Connection, StreamDataSource, TableDataSource
from .descriptors import Operation, UpdateDescriptor


class IngestionMixin:
    """Connections, data-source definition, and update ingestion."""

    # -- connections -------------------------------------------------------

    @property
    def default_connection(self) -> Connection:
        return self.connections["default"]

    def add_connection(self, name: str, database: Database) -> Connection:
        if name in self.connections:
            raise CatalogError(f"connection {name!r} already defined")
        connection = Connection(name, database)
        self.connections[name] = connection
        return connection

    def _connection(self, name: Optional[str]) -> Connection:
        if name is None:
            return self.default_connection
        try:
            return self.connections[name]
        except KeyError:
            raise CatalogError(f"no such connection {name!r}")

    # -- data sources ------------------------------------------------------

    def define_table(
        self,
        name: str,
        columns: Sequence[Tuple[str, str]],
        connection: Optional[str] = None,
    ):
        """Create a table on a connection and register it as a data source
        (update capture included).  Returns the data source."""
        conn = self._connection(connection)
        table = conn.database.create_table(
            make_schema(name, *columns, registry=conn.database.registry)
        )
        return self._register_table_source(name, conn, table, persist=True)

    def define_data_source_from_table(
        self, name: str, table_name: Optional[str] = None,
        connection: Optional[str] = None,
    ):
        """Register an *existing* table as a data source (the paper's
        ``define data source`` for local tables)."""
        conn = self._connection(connection)
        table = conn.database.table(table_name or name)
        return self._register_table_source(name, conn, table, persist=True)

    def _register_table_source(
        self, name: str, conn: Connection, table, persist: bool
    ) -> TableDataSource:
        source = TableDataSource(
            self.registry.next_id(), name, conn, table
        )
        source.install_capture(self._capture)
        self.registry.add(source)
        if persist:
            self.catalog.insert_data_source(
                source.ds_id, name, "table", conn.name, table.name
            )
        return source

    def define_stream(
        self, name: str, columns: Sequence[Tuple[str, str]]
    ) -> StreamDataSource:
        """Register a generic data-source program feed."""
        source = StreamDataSource(self.registry.next_id(), name, list(columns))
        self.registry.add(source)
        self.catalog.insert_data_source(
            source.ds_id, name, "stream", None, None, list(columns)
        )
        return source

    def drop_data_source(self, name: str) -> None:
        self.registry.get(name)  # raises for unknown sources
        for trigger in self.triggers():
            if name in trigger.tvar_sources.values():
                raise CatalogError(
                    f"data source {name!r} is used by trigger {trigger.name!r}"
                )
        self.registry.drop(name)
        self.catalog.delete_data_source(name)

    def _capture(self, descriptor: UpdateDescriptor) -> None:
        """Sink for table capture listeners and the data-source API."""
        self.pipeline.capture(descriptor)

    # -- command interface -------------------------------------------------

    def execute_command(self, text: str):
        """Parse and execute one TriggerMan command (§2 syntax)."""
        statement = parse_command(text)
        if isinstance(statement, ast.CreateTriggerStatement):
            return self.create_trigger_statement(statement, text)
        if isinstance(statement, ast.DropTriggerStatement):
            return self.drop_trigger(statement.name)
        if isinstance(statement, ast.CreateTriggerSetStatement):
            return self.catalog.create_trigger_set(
                statement.name, statement.comments
            )
        if isinstance(statement, ast.DropTriggerSetStatement):
            return self.catalog.drop_trigger_set(statement.name)
        if isinstance(statement, ast.AlterTriggerStatement):
            if statement.is_set:
                return self.set_trigger_set_enabled(
                    statement.name, statement.enabled
                )
            return self.set_trigger_enabled(statement.name, statement.enabled)
        if isinstance(statement, ast.DefineDataSourceStatement):
            if statement.stream_columns:
                return self.define_stream(
                    statement.name, list(statement.stream_columns)
                )
            return self.define_data_source_from_table(
                statement.name, statement.table, statement.connection
            )
        if isinstance(statement, ast.DropDataSourceStatement):
            return self.drop_data_source(statement.name)
        raise TriggerError(f"cannot execute {type(statement).__name__}")

    # -- update ingestion --------------------------------------------------

    def table(self, source_name: str):
        source = self.registry.get(source_name)
        if not isinstance(source, TableDataSource):
            raise CatalogError(f"data source {source_name!r} is not a table")
        return source.table

    def insert(
        self, source_name: str, values: Union[Dict[str, Any], Sequence[Any]]
    ):
        """Insert into a table source (captured) or push onto a stream."""
        source = self.registry.get(source_name)
        if isinstance(source, TableDataSource):
            return source.table.insert(values)
        if not isinstance(values, dict):
            raise TriggerError("stream tuples must be dicts")
        self._capture(source.descriptor_for(Operation.INSERT, new=values))
        return None

    def delete_rows(self, source_name: str, where: Dict[str, Any]) -> int:
        """Delete table rows matching the column-equality filter."""
        table = self.table(source_name)
        victims = self._matching_rids(table, where)
        for rid in victims:
            table.delete(rid)
        return len(victims)

    def update_rows(
        self,
        source_name: str,
        where: Dict[str, Any],
        changes: Dict[str, Any],
    ) -> int:
        table = self.table(source_name)
        targets = self._matching_rids(table, where)
        for rid in targets:
            table.update(rid, changes)
        return len(targets)

    @staticmethod
    def _matching_rids(table, where: Dict[str, Any]) -> list:
        """RIDs of the rows equal to ``where`` column by column, in heap
        order.  The table's equality index supplies the candidates when it
        can answer (every column known, every value non-NULL and hashable);
        otherwise every row is a candidate.  Each candidate is re-checked,
        so both paths return the same rows."""
        columns = tuple(sorted(where))
        candidates = table.lookup_eq(columns, [where[c] for c in columns])
        if candidates is None:
            candidates = table.scan()
        out = []
        for rid, row in candidates:
            row_dict = table.schema.row_to_dict(row)
            if all(row_dict.get(k) == v for k, v in where.items()):
                out.append(rid)
        return out

    def push(
        self,
        source_name: str,
        operation: str,
        new: Optional[Dict[str, Any]] = None,
        old: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Data source API: submit an update descriptor for a stream."""
        source = self.registry.get(source_name)
        if not isinstance(source, StreamDataSource):
            raise CatalogError(
                f"push() targets stream sources; {source_name!r} is a table"
            )
        self._capture(source.descriptor_for(operation, new=new, old=old))

    def execute_sql(self, sql: str, connection: Optional[str] = None):
        """Run SQL on a connection; table mutations are captured normally."""
        return self._connection(connection).database.execute(sql)
