"""Nodes of the A-TREAT discrimination network (§3–§5.4 of the paper).

A trigger's network has one *alpha memory* per tuple variable and a single
*P-node*.  Selection predicates sit "above" the alpha memories — in
TriggerMan they are factored out into the shared predicate index, which on a
match forwards the token to ``nextNetworkNode``: the alpha node for
multi-source triggers, or directly to the P-node for single-source triggers.

Alpha memories come in two flavours, following A-TREAT's refinement of
TREAT [Hans96]:

* :class:`AlphaMemory` — materialized: matching rows are stored in the node.
* :class:`VirtualAlphaMemory` — virtual: no rows are stored; join processing
  queries the underlying base table with the node's selection predicate on
  demand.  This is A-TREAT's memory-saving device for large stable tables.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from ..lang import ast
from ..lang.compiler import SIG_UNHASHABLE
from ..lang.evaluator import Bindings, Evaluator

#: ``rows_eq(columns, key)`` -> the rows whose ``columns`` equal ``key``, or
#: None when the lookup cannot answer and the caller must scan
RowLookup = Callable[..., Optional[List[Dict[str, Any]]]]


class Node:
    """Base class: every node has a per-trigger-unique string id."""

    def __init__(self, node_id: str):
        self.node_id = node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.node_id})"


class AlphaMemory(Node):
    """A materialized alpha memory: the rows (for one tuple variable) that
    passed the tuple variable's selection predicate.

    Join edges may register *signature indexes* (``add_index``): each one
    buckets rows by an algebraic join-key signature so ``rows_for`` can
    hand the join search only the same-signature candidates instead of the
    whole memory.  The signature is a pre-filter — the caller still
    evaluates the real join predicate — so a key function may bail out
    with :data:`SIG_UNHASHABLE` and those rows stay visible to every probe
    via the per-index loose list.
    """

    def __init__(self, node_id: str, tvar: str):
        super().__init__(node_id)
        self.tvar = tvar
        self._rows: List[Dict[str, Any]] = []
        #: name -> (key_fn, signature buckets, unhashable-row loose list)
        self._indexes: Dict[
            str,
            tuple,
        ] = {}

    def add_index(
        self, name: str, key_fn: Callable[[Dict[str, Any]], Any]
    ) -> None:
        """Register (or rebuild) a signature index over the stored rows."""
        buckets: Dict[Any, List[Dict[str, Any]]] = {}
        loose: List[Dict[str, Any]] = []
        self._indexes[name] = (key_fn, buckets, loose)
        for row in self._rows:
            self._file(row, key_fn, buckets, loose)

    @staticmethod
    def _file(row, key_fn, buckets, loose) -> None:
        key = key_fn(row)
        if key is SIG_UNHASHABLE:
            loose.append(row)
        elif key is not None:
            # A None key is a NULL join key: the equality conjunct is
            # UNKNOWN against every probe, so the row is filed nowhere.
            buckets.setdefault(key, []).append(row)

    @staticmethod
    def _unfile(row, key_fn, buckets, loose) -> None:
        key = key_fn(row)
        if key is SIG_UNHASHABLE:
            bucket = loose
        elif key is None:
            return
        else:
            bucket = buckets.get(key, [])
        for i, existing in enumerate(bucket):
            if existing is row:
                del bucket[i]
                return

    def insert(self, row: Dict[str, Any]) -> None:
        stored = dict(row)
        self._rows.append(stored)
        for key_fn, buckets, loose in self._indexes.values():
            self._file(stored, key_fn, buckets, loose)

    def remove(self, row: Dict[str, Any]) -> bool:
        """Remove one row equal to ``row``; returns False when absent."""
        for i, existing in enumerate(self._rows):
            if existing == row:
                del self._rows[i]
                for key_fn, buckets, loose in self._indexes.values():
                    self._unfile(existing, key_fn, buckets, loose)
                return True
        return False

    def rows(self) -> Iterator[Dict[str, Any]]:
        return iter(self._rows)

    def rows_for(self, name: str, key: Any) -> Optional[Iterator[Dict[str, Any]]]:
        """The rows a probe with ``key`` must consider under index ``name``,
        or None when the index does not exist or the probe key is
        unhashable (caller falls back to a full scan).  A ``None`` key is a
        NULL probe key: only the loose rows are candidates (the equality
        conjunct cannot be TRUE, but unhashable rows are the scan-fallback
        set and stay visible to every probe)."""
        index = self._indexes.get(name)
        if index is None or key is SIG_UNHASHABLE:
            return None
        _key_fn, buckets, loose = index
        if key is None:
            return iter(loose)
        bucket = buckets.get(key)
        if bucket is None:
            return iter(loose)
        if not loose:
            return iter(bucket)
        return iter(bucket + loose)

    def __len__(self) -> int:
        return len(self._rows)

    def clear(self) -> None:
        self._rows.clear()
        for _key_fn, buckets, loose in self._indexes.values():
            buckets.clear()
            loose.clear()


class VirtualAlphaMemory(Node):
    """A virtual alpha memory: rows are fetched from the base table each
    time a join needs them, filtered by the selection predicate.  Saves
    memory for large, update-heavy tables at the price of a query per join
    activation (the A-TREAT trade-off).

    ``fetch()`` returns every row (the scan); the optional ``lookup(columns,
    key)`` returns only the rows whose ``columns`` equal ``key`` — the base
    table's equality index — or None when it cannot answer."""

    def __init__(
        self,
        node_id: str,
        tvar: str,
        fetch: Callable[[], Iterator[Dict[str, Any]]],
        selection: Optional[ast.Expr],
        evaluator: Evaluator,
        lookup: Optional[RowLookup] = None,
    ):
        super().__init__(node_id)
        self.tvar = tvar
        self._fetch = fetch
        self._selection = selection
        self._evaluator = evaluator
        self.lookup = lookup

    def rows(self) -> Iterator[Dict[str, Any]]:
        return self._select(self._fetch())

    def rows_eq(self, columns, key) -> Optional[Iterator[Dict[str, Any]]]:
        """The selected rows whose ``columns`` equal ``key``, or None when
        there is no lookup or it declines the key (the caller scans)."""
        if self.lookup is None:
            return None
        found = self.lookup(columns, key)
        if found is None:
            return None
        return self._select(found)

    def _select(self, rows) -> Iterator[Dict[str, Any]]:
        for row in rows:
            if self._selection is None:
                yield row
            else:
                bindings = Bindings(rows={self.tvar: row})
                if self._evaluator.matches(self._selection, bindings):
                    yield row

    def insert(self, row: Dict[str, Any]) -> None:
        """No-op: the base table already holds the row."""

    def remove(self, row: Dict[str, Any]) -> bool:
        """No-op: the base table already removed the row."""
        return True

    def clear(self) -> None:
        """No-op for virtual memories."""


class PNode(Node):
    """The production node: receives complete variable bindings for
    satisfied trigger conditions and hands them to the action sink."""

    def __init__(
        self,
        node_id: str,
        on_match: Optional[Callable[[Bindings], None]] = None,
    ):
        super().__init__(node_id)
        self.on_match = on_match
        self.match_count = 0

    def activate(self, bindings: Bindings) -> None:
        self.match_count += 1
        if self.on_match is not None:
            self.on_match(bindings)
