"""The mini object-relational database: tables, indexes, catalog, SQL.

This is the substrate standing in for Informix (§3 of the paper): it hosts
the TriggerMan catalogs, the update-descriptor queue table, the per-signature
constant tables, and the user tables that ``execSQL`` trigger actions run
against.

A :class:`Database` owns one shared :class:`~repro.sql.buffer.BufferPool`;
each table's heap file and each B+tree index is a separate page file (disk
files under a directory, or memory pagers for ``path=None``).  Index
maintenance on insert/update/delete is automatic.  *Clustered* B+tree
indexes additionally carry the full row inline so that lookups return rows
without random heap I/O — the property §5.1 wants from the constant tables'
``[const1..constK]`` composite index.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import CatalogError, StorageError
from .btree import BPlusTree
from .buffer import BufferPool
from .hashindex import HashIndex
from .heap import RID, HeapFile
from .pager import FilePager, MemoryPager, Pager
from .schema import TableSchema
from .types import DEFAULT_REGISTRY, TypeRegistry


@dataclass
class IndexInfo:
    """Catalog entry plus the live index structure."""

    name: str
    table: str
    columns: Tuple[str, ...]
    clustered: bool
    using: str  # "btree" | "hash"
    structure: Union[BPlusTree, HashIndex]

    def key_positions(self, schema: TableSchema) -> List[int]:
        return [schema.position(c) for c in self.columns]


class Table:
    """A heap file plus its indexes."""

    def __init__(self, db: "Database", schema: TableSchema, heap: HeapFile):
        self._db = db
        self.schema = schema
        self.heap = heap
        self.indexes: Dict[str, IndexInfo] = {}
        #: Equality indexes behind :meth:`lookup_eq`: column tuple ->
        #: (key positions, HashIndex of RIDs), or None once a stored key
        #: turned out unhashable.  Built from the heap on the first lookup of
        #: a column tuple, maintained with the catalog indexes from then on;
        #: never in the catalog, so every open starts without them.
        self._eq_indexes: Dict[
            Tuple[str, ...], Optional[Tuple[List[int], HashIndex]]
        ] = {}
        #: Update-capture listeners (the stand-in for the paper's per-table
        #: Informix capture triggers, §3).  Each is called as
        #: ``listener(op, old_row_dict, new_row_dict)`` after the mutation.
        self.listeners: List = []

    @property
    def name(self) -> str:
        return self.schema.name

    def _notify(self, op: str, old_row, new_row) -> None:
        if not self.listeners:
            return
        old_dict = self.schema.row_to_dict(old_row) if old_row is not None else None
        new_dict = self.schema.row_to_dict(new_row) if new_row is not None else None
        for listener in self.listeners:
            listener(op, old_dict, new_dict)

    # -- index maintenance ----------------------------------------------------

    def _key_for(self, info: IndexInfo, row: Sequence[Any]) -> Optional[Tuple]:
        key = tuple(row[p] for p in info.key_positions(self.schema))
        if any(part is None for part in key):
            return None  # NULLs are not indexed
        return key

    def _index_insert(self, row: Tuple[Any, ...], rid: RID) -> None:
        for info in self.indexes.values():
            key = self._key_for(info, row)
            if key is None:
                continue
            if info.using == "hash":
                info.structure.insert(key, rid)
            elif info.clustered:
                info.structure.insert(key, (rid, row))
            else:
                info.structure.insert(key, rid)
        for columns, eq in self._eq_indexes.items():
            if eq is None:
                continue
            key = tuple(row[p] for p in eq[0])
            if any(part is None for part in key):
                continue
            try:
                eq[1].insert(key, rid)
            except TypeError:  # unhashable: this column tuple scans from now on
                self._eq_indexes[columns] = None

    def _index_delete(self, row: Tuple[Any, ...], rid: RID) -> None:
        for info in self.indexes.values():
            key = self._key_for(info, row)
            if key is None:
                continue
            if info.using == "hash":
                info.structure.delete(key, rid)
            elif info.clustered:
                info.structure.delete(key, (rid, row))
            else:
                info.structure.delete(key, rid)
        for eq in self._eq_indexes.values():
            if eq is not None:
                eq[1].delete(tuple(row[p] for p in eq[0]), rid)

    # -- row operations -----------------------------------------------------------

    def insert(self, values: Union[Sequence[Any], Dict[str, Any]]) -> RID:
        with self._db.lock:
            if isinstance(values, dict):
                row = self.schema.check_dict(values)
            else:
                row = self.schema.check_row(values)
            rid = self.heap.insert(row)
            self._index_insert(row, rid)
        # Listeners run outside the database lock: the capture path goes on
        # to take the update-queue lock, while the dequeue path takes the
        # queue lock *before* deleting the queue row (db lock) — notifying
        # under the db lock would invert that order (ABBA deadlock).
        self._notify("insert", None, row)
        return rid

    def delete(self, rid: RID) -> Tuple[Any, ...]:
        with self._db.lock:
            row = self.heap.read(rid)
            self.heap.delete(rid)
            self._index_delete(row, rid)
        self._notify("delete", row, None)
        return row

    def update(self, rid: RID, values: Union[Sequence[Any], Dict[str, Any]]) -> RID:
        with self._db.lock:
            old_row = self.heap.read(rid)
            if isinstance(values, dict):
                merged = self.schema.row_to_dict(old_row)
                merged.update(values)
                new_row = self.schema.check_dict(merged)
            else:
                new_row = self.schema.check_row(values)
            new_rid = self.heap.update(rid, new_row)
            self._index_delete(old_row, rid)
            self._index_insert(new_row, new_rid)
        self._notify("update", old_row, new_row)
        return new_rid

    def read(self, rid: RID) -> Tuple[Any, ...]:
        with self._db.lock:
            return self.heap.read(rid)

    def scan(self) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
        # Materialized under the lock so callers iterate a stable snapshot
        # even while concurrent drivers mutate the heap.
        with self._db.lock:
            return iter(list(self.heap.scan()))

    def rows(self) -> Iterator[Tuple[Any, ...]]:
        with self._db.lock:
            return iter([row for _, row in self.heap.scan()])

    def count(self) -> int:
        with self._db.lock:
            return self.heap.count()

    def truncate(self) -> None:
        with self._db.lock:
            self.heap.truncate()
            self._eq_indexes.clear()
            for info in self.indexes.values():
                if info.using == "hash":
                    info.structure.clear()
                else:
                    # Rebuild the B+tree fresh (cheaper than per-entry deletes).
                    self._db._reset_btree(self, info)

    # -- index-assisted access ------------------------------------------------------

    def index_lookup(
        self, index_name: str, key: Sequence[Any]
    ) -> List[Tuple[Optional[RID], Tuple[Any, ...]]]:
        """Equality lookup; returns ``(rid, row)`` pairs.

        For clustered indexes the rows come straight from the index leaves
        (no heap access); otherwise RIDs are resolved against the heap.
        """
        with self._db.lock:
            info = self._index(index_name)
            if info.using == "hash":
                return [
                    (rid, self.heap.read(rid)) for rid in info.structure.search(key)
                ]
            if info.clustered:
                return [(rid, row) for rid, row in info.structure.search(key)]
            return [(rid, self.heap.read(rid)) for rid in info.structure.search(key)]

    def lookup_eq(
        self, columns: Sequence[str], key: Sequence[Any]
    ) -> Optional[List[Tuple[RID, Tuple[Any, ...]]]]:
        """``(rid, row)`` pairs whose ``columns`` equal ``key`` under Python
        equality, in heap-scan order, through an in-memory equality index
        built on the first lookup of ``columns``.

        Returns None — scan instead — when a column is unknown, a key part
        is NULL or unhashable, or a stored key was unhashable.  The index
        holds RIDs only; rows are read from the heap per lookup.
        """
        columns = tuple(columns)
        if not columns or not all(self.schema.has_column(c) for c in columns):
            return None
        if any(part is None for part in key):
            return None
        with self._db.lock:
            if columns in self._eq_indexes:
                eq = self._eq_indexes[columns]
            else:
                index = HashIndex(columns)
                try:
                    index.rebuild(self.heap)
                    eq = ([self.schema.position(c) for c in columns], index)
                except TypeError:
                    eq = None
                self._eq_indexes[columns] = eq
            if eq is None:
                return None
            try:
                rids = eq[1].search(tuple(key))
            except TypeError:
                return None
            rids.sort()
            return [(rid, self.heap.read(rid)) for rid in rids]

    def index_range(
        self,
        index_name: str,
        low: Optional[Sequence[Any]] = None,
        high: Optional[Sequence[Any]] = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> Iterator[Tuple[Optional[RID], Tuple[Any, ...]]]:
        with self._db.lock:
            info = self._index(index_name)
            if info.using != "btree":
                raise StorageError(f"index {index_name!r} does not support ranges")
            results: List[Tuple[Optional[RID], Tuple[Any, ...]]] = []
            for _key, value in info.structure.range_scan(
                low, high, include_low, include_high
            ):
                if info.clustered:
                    results.append(value)
                else:
                    results.append((value, self.heap.read(value)))
        return iter(results)

    def _index(self, name: str) -> IndexInfo:
        try:
            return self.indexes[name]
        except KeyError:
            raise CatalogError(f"table {self.name!r} has no index {name!r}")

    def find_index(
        self, columns: Sequence[str], using: Optional[str] = None
    ) -> Optional[IndexInfo]:
        """First index whose column list starts with ``columns``."""
        columns = tuple(columns)
        for info in self.indexes.values():
            if using is not None and info.using != using:
                continue
            if info.columns[: len(columns)] == columns:
                return info
        return None


class Database:
    """Facade over the storage engine.

    ``path=None`` gives a fully in-memory database; a directory path gives a
    persistent one whose catalog (``catalog.json``) and page files live in
    that directory.

    Persistent databases keep a write-ahead log (``wal.log``) by default:
    every page mutation is logged before the page can be written back, and
    opening the database runs crash recovery (torn-tail repair, then redo
    of page images newer than each page's durable pageLSN — see
    :mod:`repro.wal.recovery`).  ``wal=False`` opts out; passing a
    :class:`~repro.wal.log.WriteAheadLog` instance supplies a custom log
    (the fault harness runs in-memory databases over simulated-disk logs
    this way, combined with ``pager_factory``).
    """

    CATALOG_FILE = "catalog.json"
    WAL_FILE = "wal.log"

    def __init__(
        self,
        path: Optional[str] = None,
        pool_capacity: int = 1024,
        registry: Optional[TypeRegistry] = None,
        *,
        wal: Any = "auto",
        wal_sync: str = "group",
        pager_factory: Optional[Callable[[str], Pager]] = None,
        catalog_store: Any = None,
        faults: Any = None,
    ):
        self.path = path
        self.registry = registry or DEFAULT_REGISTRY
        #: one database-wide mutex (reentrant: DDL saves the catalog, SQL
        #: statements touch several tables).  Table row operations hold it
        #: around heap+index mutation but release it before notifying
        #: capture listeners — see Table.insert for the ordering contract.
        self.lock = threading.RLock()
        self.pool = BufferPool(pool_capacity)
        self.tables: Dict[str, Table] = {}
        self._index_tables: Dict[str, str] = {}  # index name -> table name
        self._pager_factory = pager_factory
        self._catalog_store = catalog_store
        self._tmp_file_counter = 0
        self.faults = faults
        self.wal = None
        #: RecoveryResult of the redo pass run at open (None without a WAL)
        self.recovery = None
        #: optional hook: () -> in-flight token state for checkpoint records
        #: (installed by the trigger engine; see TriggerMan.checkpoint)
        self.checkpoint_state_provider: Optional[Callable[[], List[dict]]] = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
        if wal == "auto":
            wal = path is not None
        if wal:
            from ..wal.log import FileLogStorage, WriteAheadLog

            if isinstance(wal, WriteAheadLog):
                self.wal = wal
                if faults is not None and self.wal.faults is None:
                    self.wal.faults = faults
            else:
                assert path is not None, "a file-backed WAL needs a directory"
                self.wal = WriteAheadLog(
                    FileLogStorage(os.path.join(path, self.WAL_FILE)),
                    sync=wal_sync,
                    faults=faults,
                )
            self._recover()
            self.pool.attach_wal(self.wal)
        if path is not None or catalog_store is not None:
            self._load_catalog()

    # -- crash recovery -----------------------------------------------------

    def _recover(self) -> None:
        """Redo page images from the log before any pager is opened through
        the pool, so the catalog and every table open onto repaired files."""
        from ..wal.recovery import recover

        if self._pager_factory is not None:
            resolver, close = self._pager_factory, False
        else:
            assert self.path is not None

            def resolver(name: str) -> Pager:
                return FilePager(os.path.join(self.path, name))

            close = True
        self.recovery = recover(self.wal, resolver, close_pagers=close)

    # -- catalog persistence ----------------------------------------------------

    def _catalog_path(self) -> str:
        assert self.path is not None
        return os.path.join(self.path, self.CATALOG_FILE)

    def _save_catalog(self) -> None:
        if self.path is None and self._catalog_store is None:
            return
        desc = {
            "tables": [t.schema.to_catalog() for t in self.tables.values()],
            "indexes": [
                {
                    "name": i.name,
                    "table": i.table,
                    "columns": list(i.columns),
                    "clustered": i.clustered,
                    "using": i.using,
                }
                for t in self.tables.values()
                for i in t.indexes.values()
            ],
        }
        if self._catalog_store is not None:
            # The store's save is atomic-and-durable by contract, matching
            # the write-temp-then-rename semantics of the file path below.
            self._catalog_store.save(desc)
            return
        tmp = self._catalog_path() + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(desc, fh, indent=1)
        os.replace(tmp, self._catalog_path())

    def _load_catalog(self) -> None:
        if self._catalog_store is not None:
            desc = self._catalog_store.load()
            if desc is None:
                return
        elif not os.path.exists(self._catalog_path()):
            return
        else:
            with open(self._catalog_path()) as fh:
                desc = json.load(fh)
        for table_desc in desc.get("tables", []):
            schema = TableSchema.from_catalog(table_desc, self.registry)
            self._attach_table(schema)
        for index_desc in desc.get("indexes", []):
            self._attach_index(
                index_desc["name"],
                index_desc["table"],
                tuple(index_desc["columns"]),
                index_desc["clustered"],
                index_desc["using"],
            )

    # -- file management ------------------------------------------------------------

    def _open_file(self, filename: str) -> int:
        if self._pager_factory is not None:
            pager: Any = self._pager_factory(filename)
        elif self.path is None:
            pager = MemoryPager()
        else:
            pager = FilePager(os.path.join(self.path, filename))
        return self.pool.register(pager, name=filename)

    # -- table DDL ---------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        with self.lock:
            if schema.name in self.tables:
                raise CatalogError(f"table {schema.name!r} already exists")
            table = self._attach_table(schema)
            self._save_catalog()
            return table

    def _attach_table(self, schema: TableSchema) -> Table:
        file_id = self._open_file(f"{schema.name}.tbl")
        heap = HeapFile(schema, self.pool, file_id)
        table = Table(self, schema, heap)
        self.tables[schema.name] = table
        return table

    def drop_table(self, name: str) -> None:
        with self.lock:
            table = self.table(name)
            for index_name in list(table.indexes):
                self._index_tables.pop(index_name, None)
            del self.tables[name]
            self._save_catalog()
        # Page files are left on disk (dropped from the catalog); a vacuum
        # utility could reclaim them.  In-memory pagers are garbage collected.

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"no such table {name!r}")

    def has_table(self, name: str) -> bool:
        return name in self.tables

    # -- index DDL ------------------------------------------------------------------------

    def create_index(
        self,
        name: str,
        table_name: str,
        columns: Sequence[str],
        clustered: bool = False,
        using: str = "btree",
    ) -> IndexInfo:
        with self.lock:
            if name in self._index_tables:
                raise CatalogError(f"index {name!r} already exists")
            if using not in ("btree", "hash"):
                raise CatalogError(f"unknown index method {using!r}")
            if using == "hash" and clustered:
                raise CatalogError("hash indexes cannot be clustered")
            table = self.table(table_name)
            for column in columns:
                table.schema.position(column)  # validates
            info = self._attach_index(
                name, table_name, tuple(columns), clustered, using
            )
            # Backfill B+trees from existing rows (_attach_index already
            # rebuilt hash indexes from the heap).
            if using == "btree":
                positions = info.key_positions(table.schema)
                for rid, row in table.heap.scan():
                    key = tuple(row[p] for p in positions)
                    if any(part is None for part in key):
                        continue
                    if clustered:
                        info.structure.insert(key, (rid, row))
                    else:
                        info.structure.insert(key, rid)
            self._save_catalog()
            return info

    def _attach_index(
        self,
        name: str,
        table_name: str,
        columns: Tuple[str, ...],
        clustered: bool,
        using: str,
    ) -> IndexInfo:
        table = self.table(table_name)
        if using == "hash":
            structure: Union[BPlusTree, HashIndex] = HashIndex(columns)
            structure.rebuild(table.heap)
        else:
            file_id = self._open_file(f"{name}.idx")
            structure = BPlusTree(self.pool, file_id)
        info = IndexInfo(name, table_name, columns, clustered, using, structure)
        table.indexes[name] = info
        self._index_tables[name] = table_name
        return info

    def _reset_btree(self, table: Table, info: IndexInfo) -> None:
        """Replace a B+tree with a fresh empty one (used by truncate).  The
        replacement file name is a deterministic counter, not ``id()``, so
        crash-recovery replay regenerates the same file sequence."""
        self._tmp_file_counter += 1
        file_id = self._open_file(f"{info.name}.idx.tmp{self._tmp_file_counter}")
        info.structure = BPlusTree(self.pool, file_id)

    def drop_index(self, name: str) -> None:
        with self.lock:
            table_name = self._index_tables.pop(name, None)
            if table_name is None:
                raise CatalogError(f"no such index {name!r}")
            del self.tables[table_name].indexes[name]
            self._save_catalog()

    # -- SQL ---------------------------------------------------------------------------------

    def execute(self, sql: str, params: Optional[Dict[str, Any]] = None):
        """Parse and run one SQL statement.

        Returns a list of row tuples for SELECT, or an affected-row count /
        None for DML and DDL.  Import is deferred to dodge the circular
        dependency with the executor module.
        """
        from .executor import execute_statement
        from ..lang.sqlparser import parse_sql

        return execute_statement(self, parse_sql(sql), params or {})

    # -- lifecycle -------------------------------------------------------------------------------

    def flush(self) -> None:
        with self.lock:
            self.pool.flush()

    def flush_table(self, name: str) -> int:
        """Flush (and fsync) one table's heap file only — the targeted
        durability the update queue's ``sync_on_enqueue`` needs, instead of
        writing back every dirty page in the database."""
        with self.lock:
            return self.table(name).heap.flush()

    def checkpoint(self, compact: bool = True) -> Dict[str, int]:
        """Take a fuzzy checkpoint (see :mod:`repro.wal.checkpoint`): flush
        dirty pages under the WAL rule, log the page-LSN table plus any
        engine-provided in-flight token state, then compact the log."""
        if self.wal is None:
            return {"pages_flushed": self.pool.flush()}
        from ..wal.checkpoint import take_checkpoint

        # The state provider reads the engine's in-flight ledger (its own
        # lock, above the database in the hierarchy) — call it before taking
        # the database lock so lock order stays strictly downward.
        state = (
            self.checkpoint_state_provider()
            if self.checkpoint_state_provider is not None
            else None
        )
        if isinstance(state, dict):
            incomplete, max_seq = state.get("incomplete"), state.get("max_seq", 0)
            extra = (
                {"windows": state["windows"]} if "windows" in state else None
            )
        else:
            incomplete, max_seq, extra = state, 0, None
        with self.lock:
            return take_checkpoint(
                self.pool, self.wal, incomplete, compact=compact,
                max_seq=max_seq, extra=extra,
            )

    def close(self) -> None:
        with self.lock:
            self._save_catalog()
        if self.wal is not None:
            self.checkpoint(compact=True)
        with self.lock:
            self.pool.close()
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
