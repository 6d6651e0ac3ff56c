"""The runtime manager: trigger lifecycle over catalog, cache, and index.

Owns §5.1 (create: parse → analyze → network → signature registration →
publication) and its inverse (drop), plus the enabled-flag fast path, the
permanent-pin set, and the materialized-memory registry that the match
executor consults for memory maintenance.

DDL is serialized by one re-entrant ``ddl_lock`` — trigger creation and
deletion are rare, multi-catalog operations, so fine-graining them buys
nothing — but token processing NEVER takes it.  Safe interleaving with
concurrent matching comes from ordering instead:

* **create publishes last**: the runtime is built, catalogued, cached, and
  enabled before its predicates enter the index — a probing token either
  misses the trigger entirely or finds it fully operational;
* **drop unpublishes first**: predicates leave the index before anything
  else is torn down — a token that already probed out an entry either pins
  the still-cached runtime (and fires: the drop landed "after") or loses
  the race to invalidate and skips (the drop landed "before").
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List, Optional, Tuple

from ..condition.signature import AnalyzedPredicate
from ..errors import TriggerError
from ..lang import ast
from ..lang.parser import parse_command
from ..predindex.entry import PredicateEntry
from ..predindex.index import SignatureGroup
from ..predindex.organizations import AutoOrganization
from .catalog import DEFAULT_TRIGGER_SET
from .trigger import (
    TriggerAnalysis,
    TriggerRuntime,
    analyze_statement,
    analyze_trigger,
    analyze_trigger_arms,
    build_runtime_from_analysis,
    generalize_statement,
    instantiate_statement,
)

#: constants that round-trip through the description row's JSON untouched
_JSON_SCALARS = (type(None), bool, int, float, str)
#: constantsJson column width minus headroom for the wrapper object
_MAX_DESC_JSON = 3600


class RuntimeManager:
    """Trigger definition, teardown, and runtime state."""

    def __init__(
        self,
        catalog,
        catalog_db,
        registry,
        index,
        cache,
        evaluator,
        limits,
        obs,
        decompose: bool = True,
    ):
        self.catalog = catalog
        self.catalog_db = catalog_db
        self.registry = registry
        self.index = index
        self.cache = cache
        self.evaluator = evaluator
        self.limits = limits
        self.obs = obs
        #: tagged-execution disjunct decomposition on trigger install
        self.decompose = decompose
        # Catalog follow-up when an emptied signature group is pruned from
        # the index (churned-away classes read as size 0, not stale).
        index.on_prune = self._group_pruned
        #: serializes DDL (create/drop/alter); never taken by token flow
        self.ddl_lock = threading.RLock()
        #: trigger id -> enabled flag (fast path; catalog is authoritative)
        self.enabled: Dict[int, bool] = {}
        #: trigger ids pinned permanently (stream-fed materialized memories)
        self.permanent_pins: set = set()
        #: source name -> [(trigger_id, tvar)] needing memory maintenance
        self.materialized: Dict[str, List[Tuple[int, str]]] = {}
        #: shape template statement -> catalogued shapeID (process memo)
        self._shape_ids: Dict[ast.CreateTriggerStatement, int] = {}
        #: shapeID -> parsed-and-generalized template statement
        self._shape_cache: Dict[int, ast.CreateTriggerStatement] = {}
        #: cache loads served from a shape + description row (no re-parse)
        self.rehydrates = 0
        #: cache loads that fell back to re-parsing the full trigger text
        self.reparses = 0

    # -- trigger definition (§5.1) -----------------------------------------

    def create_trigger_statement(
        self, statement: ast.CreateTriggerStatement, text: str
    ) -> int:
        with self.ddl_lock:
            return self._create_trigger_locked(statement, text)

    def _create_trigger_locked(
        self, statement: ast.CreateTriggerStatement, text: str
    ) -> int:
        if self.catalog.has_trigger(statement.name):
            raise TriggerError(f"trigger {statement.name!r} already exists")
        set_name = statement.set_name or DEFAULT_TRIGGER_SET
        ts_id = self.catalog.trigger_set_id(set_name)  # validates
        trigger_id = self.catalog.next_trigger_id()

        # Steps 1-3: parse/validate, CNF + grouping, condition graph.
        analysis = analyze_statement(
            statement, text, self.registry, set_name=set_name
        )
        # Compact description (shape reference + constants) when the
        # statement generalizes to a JSON-safe constant vector; evicted
        # triggers then re-hydrate without a re-parse.
        description = self._describe(statement, text)

        enabled = "DISABLED" not in statement.flags
        self.catalog.insert_trigger(
            trigger_id, ts_id, statement.name, text, enabled
        )
        if description is not None:
            self.catalog.insert_description(trigger_id, *description)
        self.enabled[trigger_id] = enabled

        if not self._lazy_eligible(analysis):
            # Step 4 eagerly: a multi-variable trigger's stream-fed alpha
            # memories must exist (and be pinned) before its first token.
            runtime = build_runtime_from_analysis(
                trigger_id, analysis, self.registry, self.evaluator
            )
            self.put_runtime(runtime)
        # Step 5 LAST: per-tuple-variable signature registration + constant
        # sets.  Publishing into the index is the commit point for
        # concurrent matching — everything a match needs (catalog row,
        # enabled flag, and a runtime either cached or loadable) is in
        # place before a probe can see the trigger.  The lazy path caches
        # nothing: the first matching token's pin builds the runtime.
        self._install_predicates(trigger_id, analysis)
        return trigger_id

    def _lazy_eligible(self, analysis: TriggerAnalysis) -> bool:
        """Single-variable triggers defer network construction to first
        pin: their index entry node is the P-node and they own no
        materialized memories to pin."""
        return len(analysis.tvar_sources) == 1

    def _describe(
        self, statement: ast.CreateTriggerStatement, text: str
    ) -> Optional[Tuple[int, str]]:
        """(shapeID, constantsJson) for a compact catalog description, or
        None when the statement does not generalize cleanly (non-scalar
        constants, oversized vector): such triggers keep text-only form."""
        try:
            template, constants = generalize_statement(statement)
        except Exception:
            return None
        if not all(isinstance(c, _JSON_SCALARS) for c in constants):
            return None
        payload = json.dumps({"set": statement.set_name, "consts": constants})
        if len(payload) > _MAX_DESC_JSON or len(text) > _MAX_DESC_JSON:
            return None
        shape_id = self._shape_ids.get(template)
        if shape_id is None:
            # This trigger's full source text becomes the shape's exemplar
            # on disk; loading parses + generalizes it once per shape per
            # process, then every member re-hydrates by instantiation.
            shape_id = self.catalog.next_shape_id()
            self.catalog.insert_shape(shape_id, text)
            self._shape_ids[template] = shape_id
            self._shape_cache[shape_id] = template
        return shape_id, payload

    def _shape(self, shape_id: int) -> ast.CreateTriggerStatement:
        """The generalized template statement for a shape (parse the
        exemplar text and generalize it, once per shape per process)."""
        template = self._shape_cache.get(shape_id)
        if template is None:
            statement = parse_command(self.catalog.shape_text(shape_id))
            assert isinstance(statement, ast.CreateTriggerStatement)
            template, _constants = generalize_statement(statement)
            self._shape_cache[shape_id] = template
            self._shape_ids.setdefault(template, shape_id)
        return template

    def _install_predicates(
        self, trigger_id: int, analysis: TriggerAnalysis
    ) -> None:
        single = len(analysis.tvar_sources) == 1
        for tvar, arm in analyze_trigger_arms(
            analysis, decompose=self.decompose
        ):
            analyzed = arm.analyzed
            group = self._signature_group(analyzed)
            signature = analyzed.signature
            entry = PredicateEntry(
                expr_id=self.catalog.next_expr_id(),
                trigger_id=trigger_id,
                tvar=tvar,
                # Single-variable networks route matched tokens straight to
                # the P-node; multi-variable entry nodes are per-tvar alpha
                # nodes with a stable naming scheme.
                next_node=("pnode" if single else f"alpha:{tvar}"),
                residual_text=None,
                signature=signature,
                residual_row=(
                    analyzed.residual_constants
                    if signature.residual_template is not None
                    else None
                ),
                arm_of=arm.arm_of,
            )
            self.index.add_predicate(analyzed, entry)
            self.catalog.update_signature_stats(
                group.sig_id,
                group.organization.size(),
                group.organization.name,
            )

    def _signature_group(self, analyzed: AnalyzedPredicate) -> SignatureGroup:
        signature = analyzed.signature
        group = self.index.find_group(signature)
        if group is not None:
            return group
        # A catalog row may already exist (recovery replay): reuse its id
        # and constant-table name rather than minting duplicates.
        existing = self.catalog.find_signature(
            signature.data_source, signature.operation, signature.text
        )
        if existing is not None:
            sig_id = existing["sigID"]
            const_table = existing["constTableName"]
        else:
            sig_id = self.catalog.next_signature_id()
            const_table = (
                f"const_table{sig_id}" if signature.num_constants else None
            )
        organization = AutoOrganization(
            signature,
            self.catalog_db,
            const_table or f"const_table{sig_id}",
            limits=self.limits,
            on_change=lambda name, sig_id=sig_id: self._organization_changed(
                sig_id, name
            ),
            obs=self.obs,
        )
        if existing is None:
            self.catalog.insert_signature(
                sig_id,
                signature.data_source,
                signature.operation,
                signature.text,
                const_table,
                organization.name,
            )
        return self.index.register_signature(sig_id, signature, organization)

    def _group_pruned(self, group: SignatureGroup) -> None:
        """Index pruned an emptied signature group: reflect the empty
        constant set in the catalog (the signature row itself is kept — a
        later create of the same class reuses its id and table name)."""
        try:
            self.catalog.update_signature_stats(
                group.sig_id, 0, group.organization.name
            )
        except Exception:
            pass  # recovery replay may prune before the row exists

    def _organization_changed(self, sig_id: int, name: str) -> None:
        # Size is refreshed by the caller's update_signature_stats; record
        # the new organization eagerly so catalog readers see it.
        for row in self.catalog.list_signatures():
            if row["sigID"] == sig_id:
                self.catalog.update_signature_stats(
                    sig_id, row["constantSetSize"], name
                )
                return

    def put_runtime(self, runtime: TriggerRuntime) -> None:
        """Install a freshly built runtime without a loader round-trip."""
        self.cache.seed(runtime.trigger_id, runtime)
        with self.ddl_lock:
            materialized = runtime.network.materialized_tvars()
            for tvar in materialized:
                source = runtime.tvar_sources[tvar]
                entry = (runtime.trigger_id, tvar)
                bucket = self.materialized.setdefault(source, [])
                if entry not in bucket:
                    bucket.append(entry)
            if materialized:
                # Only stream-fed memories materialize, and their rows
                # exist nowhere else: a cache reload cannot rebuild them,
                # so such triggers stay pinned for their lifetime.
                self.cache.pin(runtime.trigger_id)
                self.permanent_pins.add(runtime.trigger_id)

    def load_runtime(self, trigger_id: int) -> TriggerRuntime:
        """Cache loader: rebuild a runtime from its catalogued form —
        cheap re-hydration from (shape, description) when a compact row
        exists, full text re-parse otherwise."""
        row = self.catalog.trigger_row(trigger_id)
        name, text = row[2], row[4]
        statement = self._hydrate_statement(trigger_id, name)
        if statement is None:
            statement = parse_command(text)
            assert isinstance(statement, ast.CreateTriggerStatement)
            self.reparses += 1
        set_name = statement.set_name or DEFAULT_TRIGGER_SET
        analysis = analyze_statement(
            statement, text, self.registry, set_name=set_name
        )
        return build_runtime_from_analysis(
            trigger_id, analysis, self.registry, self.evaluator
        )

    def _hydrate_statement(
        self, trigger_id: int, name: str
    ) -> Optional[ast.CreateTriggerStatement]:
        """Instantiate a trigger's statement from its shape template and
        description row; None when no compact description exists (the
        caller falls back to the text re-parse)."""
        description = self.catalog.description(trigger_id)
        if description is None:
            return None
        shape_id, payload = description
        try:
            data = json.loads(payload)
            statement = instantiate_statement(
                self._shape(shape_id), data["consts"], name, data["set"]
            )
        except Exception:
            return None
        self.rehydrates += 1
        return statement

    # -- teardown -----------------------------------------------------------

    def drop_trigger(self, name: str) -> int:
        with self.ddl_lock:
            trigger_id = self.catalog.trigger_id(name)
            # Unpublish FIRST: once the predicates are out of the index no
            # new token can match the trigger; in-flight matches pin the
            # still-cached runtime or skip on the loader error.
            self.index.remove_trigger(trigger_id)
            self.catalog.delete_trigger(name)
            self.catalog.delete_description(trigger_id)
            for group in self.index.groups():
                self.catalog.update_signature_stats(
                    group.sig_id,
                    group.organization.size(),
                    group.organization.name,
                )
            for bucket in self.materialized.values():
                bucket[:] = [e for e in bucket if e[0] != trigger_id]
            if trigger_id in self.permanent_pins:
                self.permanent_pins.discard(trigger_id)
                self.cache.unpin(trigger_id)
            self.cache.invalidate(trigger_id)
            self.enabled.pop(trigger_id, None)
            return trigger_id

    # -- enabled flags --------------------------------------------------------

    def set_trigger_enabled(self, name: str, enabled: bool) -> int:
        with self.ddl_lock:
            trigger_id = self.catalog.set_trigger_enabled(name, enabled)
            self.enabled[trigger_id] = (
                enabled and self.catalog.trigger_enabled(trigger_id)
            )
            self._refresh_enabled()
            return trigger_id

    def set_trigger_set_enabled(self, name: str, enabled: bool) -> None:
        with self.ddl_lock:
            self.catalog.set_trigger_set_enabled(name, enabled)
            self._refresh_enabled()

    def _refresh_enabled(self) -> None:
        for row in self.catalog.list_triggers():
            self.enabled[row["triggerID"]] = self.catalog.trigger_enabled(
                row["triggerID"]
            )

    def is_enabled(self, trigger_id: int) -> bool:
        return self.enabled.get(trigger_id, True)

    def is_permanent(self, trigger_id: int) -> bool:
        return trigger_id in self.permanent_pins

    def materialized_for(self, source: str) -> List[Tuple[int, str]]:
        """Snapshot of (trigger_id, tvar) pairs with materialized memories
        over ``source`` (copied: concurrent DDL may resize the bucket)."""
        with self.ddl_lock:
            bucket = self.materialized.get(source)
            return list(bucket) if bucket else []

    # -- restore ---------------------------------------------------------------

    def restore(self, connection_resolver, capture) -> None:
        """Rebuild data sources and replay trigger definitions from the
        catalog (recovery = catalog replay; constant tables are rebuilt).
        Boot-time and single-threaded, so publish ordering is moot."""
        from .datasource import StreamDataSource, TableDataSource

        rows = self.catalog.list_data_sources()
        for row in rows:
            if row["name"] in self.registry:
                continue
            if row["kind"] == "stream":
                source = StreamDataSource(
                    row["dsID"], row["name"],
                    [tuple(c) for c in row["columns"] or []],
                )
                self.registry.add(source)
            else:
                conn = connection_resolver(row["connection"])
                table = conn.database.table(row["tableName"])
                source = TableDataSource(row["dsID"], row["name"], conn, table)
                source.install_capture(capture)
                self.registry.add(source)
        triggers = self.catalog.list_triggers()
        if not triggers:
            return
        # Drop stale constant tables (they are rebuilt by replay).
        for sig_row in self.catalog.list_signatures():
            name = sig_row["constTableName"]
            if name and self.catalog_db.has_table(name):
                self.catalog_db.table(name).truncate()
        for row in triggers:
            trigger_id = row["triggerID"]
            statement = self._hydrate_statement(trigger_id, row["name"])
            if statement is None:
                statement = parse_command(row["trigger_text"])
                assert isinstance(statement, ast.CreateTriggerStatement)
                self.reparses += 1
            analysis = analyze_statement(
                statement,
                row["trigger_text"],
                self.registry,
                set_name=statement.set_name or DEFAULT_TRIGGER_SET,
            )
            self._install_predicates(trigger_id, analysis)
            self.enabled[trigger_id] = self.catalog.trigger_enabled(trigger_id)
            if not self._lazy_eligible(analysis):
                runtime = build_runtime_from_analysis(
                    trigger_id, analysis, self.registry, self.evaluator
                )
                self.put_runtime(runtime)

    # -- introspection -----------------------------------------------------------

    def triggers(self) -> List[TriggerRuntime]:
        """Runtimes for every catalogued trigger (loads through the cache)."""
        out = []
        for trigger_id in self.catalog.trigger_ids():
            runtime = self.cache.pin(trigger_id)
            self.cache.unpin(trigger_id)
            out.append(runtime)
        return out
