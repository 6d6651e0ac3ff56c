"""Trigger runtimes: the in-memory form cached by the trigger cache.

A runtime bundles everything §5.1 says a cached trigger description holds —
the syntax tree (parsed statement), references to its data sources, and the
A-TREAT network skeleton — plus the per-tuple-variable event codes and the
group-by/having state for aggregate conditions.

Building a runtime performs §5.1 steps 1–4 (parse/validate, CNF + conjunct
grouping, condition graph, network); step 5 (signature registration and
constant-table updates) happens in :mod:`repro.engine.triggerman` because it
touches the shared predicate index and catalogs.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import types
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..condition.classify import (
    ConditionGraph,
    build_condition_graph,
    resolve_unqualified,
)
from ..condition.signature import (
    AnalyzedPredicate,
    DecomposedArm,
    analyze_selection,
    decompose_selection,
    generalize,
    instantiate,
)
from ..condition.windows import (
    WindowSpec,
    compile_incremental_having,
    window_spec_from_flags,
)
from ..errors import TriggerError
from ..lang import ast
from ..lang.evaluator import Bindings, Evaluator
from ..network.treat import ATreatNetwork
from ..predindex.index import INSERT_OR_UPDATE, make_operation_code
from .datasource import DataSourceRegistry


@dataclass
class TriggerRuntime:
    """One trigger, ready to run."""

    trigger_id: int
    name: str
    set_name: str
    statement: ast.CreateTriggerStatement
    text: str
    #: tuple variable -> data source name
    tvar_sources: Dict[str, str]
    #: tuple variable -> (operation base, update columns) event condition
    tvar_events: Dict[str, Tuple[str, Tuple[str, ...]]]
    graph: ConditionGraph
    network: ATreatNetwork
    action: ast.Action
    group_by: Tuple[ast.ColumnRef, ...]
    having: Optional[ast.Expr]
    #: bound on per-group aggregate state (the ``window N`` flag); None
    #: accumulates forever
    window: Optional[int] = None
    #: temporal window (the ``window N seconds [of col]`` flag); None for
    #: non-temporal triggers.  State lives in the engine's WindowStateStore
    #: (WAL-checkpointed), not on the runtime.
    window_spec: Optional[WindowSpec] = None
    #: compiled incremental having plan (None -> general evaluator fallback)
    window_plan: Optional[object] = field(default=None, repr=False, compare=False)
    #: columns whose running sums the incremental plan reads
    window_tracked: Tuple[str, ...] = ()
    #: group key -> accumulated bindings (aggregate trigger state)
    group_state: Dict[Tuple, List[Bindings]] = field(default_factory=dict)
    fire_count: int = 0
    #: serializes network activation and aggregate-state mutation: tokens
    #: for *different* triggers process in parallel, two tokens for the
    #: *same* trigger take turns (its memories are stateful)
    lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    @property
    def tvars(self) -> Tuple[str, ...]:
        return self.graph.tvars

    def operation_code(self, tvar: str) -> str:
        base, columns = self.tvar_events[tvar]
        return make_operation_code(base, columns)

    def estimated_size(self) -> int:
        """Resident bytes of this description, deep-measured once and
        cached — the real quantity the cache's byte budget enforces (the
        paper's sizing example assumes ~4 KB per description).  Growth of
        mutable aggregate state after measurement is not re-counted."""
        cached = self.__dict__.get("_resident_bytes")
        if cached is None:
            cached = runtime_size_bytes(self)
            self.__dict__["_resident_bytes"] = cached
        return cached

    # -- aggregate (group by / having) handling ---------------------------------

    def aggregate_fire(
        self, bindings: Bindings, evaluator: Evaluator
    ) -> Optional[Bindings]:
        """Feed one complete match into the group state; returns bindings to
        fire with when the having condition holds for the group."""
        key = tuple(
            evaluator.evaluate(column, bindings) for column in self.group_by
        )
        group = self.group_state.setdefault(key, [])
        group.append(bindings)
        if self.window is not None and len(group) > self.window:
            del group[: len(group) - self.window]
        if self.having is None:
            return bindings
        result = evaluator.evaluate_aggregate(self.having, group, bindings)
        return bindings if result is True else None

    # -- temporal (sliding time-window) handling ---------------------------------

    def window_fire(
        self, bindings: Bindings, evaluator: Evaluator, windows, seq: int
    ) -> Optional[Bindings]:
        """Feed one complete match into the engine's window-state store;
        returns bindings to fire with when the threshold holds over the
        last ``window_spec.seconds`` of event time for this group."""
        spec = self.window_spec
        tvar = self.tvars[0]
        row = bindings.rows.get(tvar)
        ts = None if row is None else row.get(spec.ts_column)
        if isinstance(ts, bool) or not isinstance(ts, (int, float)):
            windows.bad_timestamp()
            return None
        key = tuple(
            evaluator.evaluate(column, bindings) for column in self.group_by
        )
        window = windows.observe(
            self.name, key, float(ts), dict(row), seq,
            spec.seconds, self.window_tracked,
        )
        if self.window_plan is not None:
            result = self.window_plan(window.aggs)
        else:
            group = [
                Bindings(rows={tvar: entry_row})
                for _ts, _seq, entry_row in window.entries
            ]
            result = evaluator.evaluate_aggregate(self.having, group, bindings)
        return bindings if result is True else None


def _resolve_event(
    statement: ast.CreateTriggerStatement,
    tvar_sources: Dict[str, str],
) -> Dict[str, Tuple[str, Tuple[str, ...]]]:
    """Assign each tuple variable its event condition.

    The ``on`` clause names at most one tuple variable (§4); every other
    tuple variable gets the implicit ``insert or update`` event (§5).
    """
    events: Dict[str, Tuple[str, Tuple[str, ...]]] = {
        tvar: (INSERT_OR_UPDATE, ()) for tvar in tvar_sources
    }
    event = statement.event
    if event is None:
        return events
    target: Optional[str] = None
    if event.source is not None:
        if event.source in tvar_sources:
            target = event.source
        else:
            owners = [
                tvar
                for tvar, source in tvar_sources.items()
                if source == event.source
            ]
            if len(owners) > 1:
                raise TriggerError(
                    f"event target {event.source!r} is ambiguous; use the "
                    "tuple variable"
                )
            if owners:
                target = owners[0]
        if target is None:
            raise TriggerError(
                f"event target {event.source!r} is not in the from list"
            )
    elif len(tvar_sources) == 1:
        target = next(iter(tvar_sources))
    else:
        raise TriggerError(
            "a multi-source trigger's ON clause must name its target"
        )
    events[target] = (event.operation, tuple(event.columns))
    return events


def _validate_event_columns(
    events: Dict[str, Tuple[str, Tuple[str, ...]]],
    tvar_sources: Dict[str, str],
    registry: DataSourceRegistry,
) -> None:
    for tvar, (base, columns) in events.items():
        if not columns:
            continue
        if base != "update":
            raise TriggerError(
                f"column list is only valid with UPDATE events, not {base!r}"
            )
        source = registry.get(tvar_sources[tvar])
        for column in columns:
            if not source.has_column(column):
                raise TriggerError(
                    f"data source {source.name!r} has no column {column!r}"
                )


@dataclass
class TriggerAnalysis:
    """§5.1 steps 1–3 output: validated statement, resolved condition, and
    condition graph — everything about a trigger that does *not* require a
    discrimination network.  The lazy creation path stops here: predicates
    install from the analysis, and the network is built on first pin."""

    statement: ast.CreateTriggerStatement
    text: str
    set_name: str
    tvar_sources: Dict[str, str]
    tvar_events: Dict[str, Tuple[str, Tuple[str, ...]]]
    graph: ConditionGraph
    having: Optional[ast.Expr]
    group_by: Tuple[ast.ColumnRef, ...]
    window: Optional[int]
    window_spec: Optional[WindowSpec]
    window_plan: Optional[object]
    window_tracked: Tuple[str, ...]

    @property
    def tvars(self) -> Tuple[str, ...]:
        return self.graph.tvars

    def operation_code(self, tvar: str) -> str:
        base, columns = self.tvar_events[tvar]
        return make_operation_code(base, columns)


def analyze_statement(
    statement: ast.CreateTriggerStatement,
    text: str,
    registry: DataSourceRegistry,
    set_name: str = "default",
) -> TriggerAnalysis:
    """§5.1 steps 1–3: validate, resolve, and graph the condition (no
    network is built — that is the expensive, lazily deferrable part)."""
    if not statement.from_list:
        raise TriggerError("a trigger needs at least one data source")
    tvar_sources: Dict[str, str] = {}
    for item in statement.from_list:
        if item.tvar in tvar_sources:
            raise TriggerError(f"duplicate tuple variable {item.tvar!r}")
        registry.get(item.source)  # raises for unknown sources
        tvar_sources[item.tvar] = item.source

    tvar_columns = {
        tvar: registry.get(source).columns
        for tvar, source in tvar_sources.items()
    }
    when = statement.when
    if when is not None:
        when = resolve_unqualified(when, tvar_columns)
    having = statement.having
    group_by = statement.group_by
    if group_by and not having:
        raise TriggerError("GROUP BY requires a HAVING condition")
    if having is not None:
        having = resolve_unqualified(having, tvar_columns)
    if group_by:
        group_by = tuple(
            resolve_unqualified(column, tvar_columns) for column in group_by
        )

    events = _resolve_event(statement, tvar_sources)
    _validate_event_columns(events, tvar_sources, registry)

    graph = build_condition_graph(list(tvar_sources), when)

    window: Optional[int] = None
    for flag in statement.flags:
        if flag.startswith("WINDOW:"):
            window = int(flag.split(":", 1)[1])
            if window <= 0:
                raise TriggerError("window size must be positive")

    window_spec = window_spec_from_flags(statement.flags)
    window_plan = None
    window_tracked: Tuple[str, ...] = ()
    if window_spec is not None:
        if window is not None:
            raise TriggerError(
                "a trigger cannot combine a count window and a time window"
            )
        if having is None:
            raise TriggerError(
                "a temporal window trigger needs a HAVING threshold"
            )
        if len(tvar_sources) > 1:
            raise TriggerError(
                "temporal window triggers take a single tuple variable"
            )
        only_source = registry.get(next(iter(tvar_sources.values())))
        if not only_source.has_column(window_spec.ts_column):
            raise TriggerError(
                f"data source {only_source.name!r} has no timestamp "
                f"column {window_spec.ts_column!r}"
            )
        window_plan, window_tracked = compile_incremental_having(having)

    return TriggerAnalysis(
        statement=statement,
        text=text,
        set_name=set_name,
        tvar_sources=tvar_sources,
        tvar_events=events,
        graph=graph,
        having=having,
        group_by=tuple(group_by),
        window=window,
        window_spec=window_spec,
        window_plan=window_plan,
        window_tracked=window_tracked,
    )


def build_runtime_from_analysis(
    trigger_id: int,
    analysis: TriggerAnalysis,
    registry: DataSourceRegistry,
    evaluator: Optional[Evaluator] = None,
) -> TriggerRuntime:
    """§5.1 step 4: build the A-TREAT network over a finished analysis and
    assemble the runtime.  A multi-variable trigger's table-backed tuple
    variables get virtual alpha memories; stream-fed ones materialize."""
    evaluator = evaluator or Evaluator()
    graph = analysis.graph
    tvar_sources = analysis.tvar_sources
    fetchers, lookups = {}, {}
    if len(tvar_sources) > 1:
        for tvar, source_name in tvar_sources.items():
            source = registry.get(source_name)
            fetch = source.fetcher()
            if fetch is not None:  # table sources
                fetchers[tvar] = fetch
                lookups[tvar] = source.eq_lookup()
    network = ATreatNetwork(trigger_id, graph, evaluator, fetchers, lookups)

    return TriggerRuntime(
        trigger_id=trigger_id,
        name=analysis.statement.name,
        set_name=analysis.set_name,
        statement=analysis.statement,
        text=analysis.text,
        tvar_sources=tvar_sources,
        tvar_events=analysis.tvar_events,
        graph=graph,
        network=network,
        action=analysis.statement.action,
        group_by=analysis.group_by,
        having=analysis.having,
        window=analysis.window,
        window_spec=analysis.window_spec,
        window_plan=analysis.window_plan,
        window_tracked=analysis.window_tracked,
    )


def build_runtime(
    trigger_id: int,
    statement: ast.CreateTriggerStatement,
    text: str,
    registry: DataSourceRegistry,
    evaluator: Optional[Evaluator] = None,
    set_name: str = "default",
) -> TriggerRuntime:
    """§5.1 steps 1–4 in one call (the eager path): validate, analyze the
    condition, build the network."""
    analysis = analyze_statement(statement, text, registry, set_name)
    return build_runtime_from_analysis(trigger_id, analysis, registry, evaluator)


def analyze_trigger(runtime) -> List[Tuple[str, AnalyzedPredicate]]:
    """§5.1 step 5 input: one analyzed selection predicate per tuple
    variable (the signature machinery keys on data source + op code).
    Accepts a :class:`TriggerRuntime` or a :class:`TriggerAnalysis` — the
    lazy path registers predicates before any runtime exists."""
    out: List[Tuple[str, AnalyzedPredicate]] = []
    for tvar in runtime.tvars:
        clauses = runtime.graph.selection_for(tvar)
        analyzed = analyze_selection(
            data_source=runtime.tvar_sources[tvar],
            operation=runtime.operation_code(tvar),
            clauses=clauses,
        )
        out.append((tvar, analyzed))
    return out


def analyze_trigger_arms(
    runtime, decompose: bool = True
) -> List[Tuple[str, DecomposedArm]]:
    """Like :func:`analyze_trigger` but with tagged-execution disjunct
    decomposition: a tuple variable whose predicate is unindexable as a
    whole may yield several arms (one registration each, sharing an arm
    tag) instead of one residual-scan entry.  ``decompose=False`` restores
    the single-registration behaviour exactly."""
    out: List[Tuple[str, DecomposedArm]] = []
    for tvar in runtime.tvars:
        clauses = runtime.graph.selection_for(tvar)
        source = runtime.tvar_sources[tvar]
        operation = runtime.operation_code(tvar)
        if decompose:
            for arm in decompose_selection(source, operation, clauses):
                out.append((tvar, arm))
        else:
            out.append(
                (
                    tvar,
                    DecomposedArm(
                        None, analyze_selection(source, operation, clauses)
                    ),
                )
            )
    return out


# -- trigger shapes (compact catalog descriptions) ---------------------------


def generalize_statement(
    statement: ast.CreateTriggerStatement,
) -> Tuple[ast.CreateTriggerStatement, List[Any]]:
    """Split a trigger statement into (shape template, constants).

    The template is the statement with its name and set blanked and every
    constant in the WHEN/HAVING conditions and raise-event arguments
    replaced by a numbered placeholder (continuous numbering across the
    three positions).  Triggers sharing a template differ only in their
    constant vector — the catalog stores the template once per shape and a
    compact constants row per trigger.  SQL action bodies and flags stay
    verbatim: they are part of the shape.
    """
    constants: List[Any] = []

    def gen(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if expr is None:
            return None
        out, found = generalize(expr, start=len(constants) + 1)
        constants.extend(found)
        return out

    when = gen(statement.when)
    having = gen(statement.having)
    action = statement.action
    if isinstance(action, ast.RaiseEventAction) and action.args:
        action = ast.RaiseEventAction(
            action.event_name, tuple(gen(arg) for arg in action.args)
        )
    template = dataclasses.replace(
        statement,
        name="",
        set_name=None,
        when=when,
        having=having,
        action=action,
    )
    return template, constants


def instantiate_statement(
    template: ast.CreateTriggerStatement,
    constants: List[Any],
    name: str,
    set_name: Optional[str],
) -> ast.CreateTriggerStatement:
    """Inverse of :func:`generalize_statement`: rebuild a concrete trigger
    statement from its shape template and constant vector."""

    def inst(expr: Optional[ast.Expr]) -> Optional[ast.Expr]:
        return None if expr is None else instantiate(expr, constants)

    action = template.action
    if isinstance(action, ast.RaiseEventAction) and action.args:
        action = ast.RaiseEventAction(
            action.event_name,
            tuple(instantiate(arg, constants) for arg in action.args),
        )
    return dataclasses.replace(
        template,
        name=name,
        set_name=set_name,
        when=inst(template.when),
        having=inst(template.having),
        action=action,
    )


# -- resident sizing ----------------------------------------------------------

_ATOMIC_TYPES = (type(None), bool, int, float, complex, str, bytes)


def runtime_size_bytes(runtime: TriggerRuntime) -> int:
    """Deep-measured resident bytes of one runtime's object graph.

    Shared structure is excluded: callables (compiled matchers, fetchers,
    window plans), classes/modules, and :class:`Evaluator` instances are
    process-wide, not per-trigger.  Identity-memoized, so internal sharing
    (the statement appearing as both ``statement`` and ``action`` owner)
    is counted once.
    """
    seen: set = set()
    total = 0
    stack: List[Any] = [runtime]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if (
            isinstance(obj, (type, types.ModuleType, Evaluator))
            or callable(obj)
        ):
            continue
        try:
            total += sys.getsizeof(obj)
        except TypeError:
            continue
        if isinstance(obj, _ATOMIC_TYPES):
            continue
        if isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        else:
            attrs = getattr(obj, "__dict__", None)
            if attrs is not None:
                stack.append(attrs)
            for slot in getattr(type(obj), "__slots__", ()):
                if hasattr(obj, slot):
                    stack.append(getattr(obj, slot))
    return total
