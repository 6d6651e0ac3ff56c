"""The A-TREAT network: join condition testing for multi-source triggers.

Construction follows §5.1 step 4: from the trigger condition graph we build
one alpha memory per tuple variable and a P-node.  Token arrival at an alpha
node seeds a join search that binds the remaining tuple variables in
join-connectivity order (BFS from the seed), testing each join edge's
predicate as soon as both ends are bound, then the graph's catch-all clauses
(zero- or 3+-variable conjuncts), and finally activates the P-node once per
complete binding.

Alpha memories over local database tables are *virtual* (A-TREAT's
memory-saving device): join processing queries the base table — by join
key through the table's equality index when an equi-join edge names one,
by a full fetch otherwise — instead of materializing matching rows.
Stream sources get materialized memories maintained by the tokens
themselves.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from ..condition.classify import ConditionGraph
from ..condition.cnf import cnf_to_expr
from ..errors import NetworkError
from ..lang.compiler import SIG_UNHASHABLE, equi_join_plan
from ..lang.evaluator import Bindings, Evaluator
from .nodes import AlphaMemory, Node, PNode, RowLookup, VirtualAlphaMemory

RowFetcher = Callable[[], Iterator[Dict[str, Any]]]


class ATreatNetwork:
    """One trigger's discrimination network."""

    def __init__(
        self,
        trigger_id: int,
        graph: ConditionGraph,
        evaluator: Optional[Evaluator] = None,
        fetchers: Optional[Dict[str, RowFetcher]] = None,
        lookups: Optional[Dict[str, RowLookup]] = None,
    ):
        """``fetchers`` maps tuple variables backed by local tables to
        row-fetch callbacks; those get virtual alpha memories.  ``lookups``
        maps them to equality-lookup callbacks the join search probes
        instead of fetching every row (see :class:`VirtualAlphaMemory`)."""
        self.trigger_id = trigger_id
        self.graph = graph
        self.evaluator = evaluator or Evaluator()
        #: optional Observability bundle (set by the engine while tracing)
        self.obs = None
        self.alpha: Dict[str, Node] = {}
        fetchers = fetchers or {}
        lookups = lookups or {}
        for tvar in graph.tvars:
            node_id = f"alpha:{tvar}"
            if tvar in fetchers:
                self.alpha[tvar] = VirtualAlphaMemory(
                    node_id,
                    tvar,
                    fetchers[tvar],
                    graph.selection_expr(tvar),
                    self.evaluator,
                    lookups.get(tvar),
                )
            else:
                self.alpha[tvar] = AlphaMemory(node_id, tvar)
        self.pnode = PNode("pnode")
        self._nodes: Dict[str, Node] = {a.node_id: a for a in self.alpha.values()}
        self._nodes[self.pnode.node_id] = self.pnode
        self._catch_all = cnf_to_expr(list(graph.catch_all))
        # Algebraic-signature join plans (§5.4 memory-node probe cost): for
        # every edge with equality conjuncts, bucket each materialized end
        # by its join-key signature so the join search probes one bucket
        # instead of scanning the whole memory; virtual ends probe their
        # base table's equality index with the bound row's key instead.
        # Either way the result is a pre-filter only — every candidate
        # still evaluates the full edge predicate below, so collisions and
        # non-equality conjuncts stay correct.
        self._join_plans: Dict[tuple, Any] = {}
        self.join_stats: Dict[str, int] = {
            "probes": 0,
            "hash_probes": 0,
            "virtual_hash_probes": 0,
            "virtual_scans": 0,
            "candidates": 0,
        }
        seen_edges = set()
        for a in graph.tvars:
            for b in graph.neighbors(a):
                edge = tuple(sorted((a, b)))
                if a == b or edge in seen_edges:
                    continue
                seen_edges.add(edge)
                plan = equi_join_plan(graph.join_for(a, b), a, b)
                if plan is None:
                    continue
                self._join_plans[edge] = plan
                for tvar in edge:
                    node = self.alpha[tvar]
                    if isinstance(node, AlphaMemory):
                        node.add_index(
                            self._edge_index(edge),
                            lambda row, p=plan, t=tvar: p.signature_for(
                                t, row
                            ),
                        )
        #: per seed, one join step per later position of its BFS order:
        #: (tuple variable bound there, edge predicates each candidate must
        #: pass, equi-join probes that can narrow the candidates) — planned
        #: on the seed's first activation, not at build
        self._steps: Dict[str, List[tuple]] = {}

    @staticmethod
    def _edge_index(edge: tuple) -> str:
        return f"eqjoin:{edge[0]}|{edge[1]}"

    # -- structure -----------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self._nodes[node_id]
        except KeyError:
            raise NetworkError(
                f"trigger {self.trigger_id}: no network node {node_id!r}"
            )

    def entry_node_id(self, tvar: str) -> str:
        """Where the predicate index forwards matched tokens: the alpha node
        for multi-source triggers, the P-node for single-source ones."""
        if len(self.graph.tvars) == 1:
            return self.pnode.node_id
        return self.alpha[tvar].node_id

    def _join_order(self, seed: str) -> List[str]:
        order = [seed]
        seen = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop(0)
            for neighbor in self.graph.neighbors(current):
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append(neighbor)
                    frontier.append(neighbor)
        # Disconnected tuple variables join last (cartesian product).
        for tvar in self.graph.tvars:
            if tvar not in seen:
                order.append(tvar)
        return order

    def _join_steps(self, seed: str) -> List[tuple]:
        steps = self._steps.get(seed)
        if steps is not None:
            return steps
        order = self._join_order(seed)
        steps = []
        for position in range(1, len(order)):
            tvar = order[position]
            bound = set(order[:position])
            tests, probes = [], []
            for other in self.graph.neighbors(tvar):
                if other not in bound:
                    continue
                join_expr = self.graph.join_expr(tvar, other)
                if join_expr is not None:
                    tests.append(join_expr)
                edge = tuple(sorted((tvar, other)))
                plan = self._join_plans.get(edge)
                if plan is None:
                    continue
                if tvar == plan.left_tvar:
                    mine, theirs = plan.left_columns, plan.right_columns
                else:
                    mine, theirs = plan.right_columns, plan.left_columns
                probes.append((other, self._edge_index(edge), plan, mine, theirs))
            steps.append((tvar, tests, probes))
        self._steps[seed] = steps
        return steps

    # -- memory maintenance and token propagation -----------------------------

    def prime(self, tvar: str, rows: Iterator[Dict[str, Any]]) -> None:
        """Bulk-load a materialized alpha memory (§5.1: 'prime' the
        trigger).  Rows must already satisfy the selection predicate."""
        memory = self.alpha[tvar]
        for row in rows:
            memory.insert(row)

    def activate(
        self,
        tvar: str,
        operation: str,
        new_row: Optional[Dict[str, Any]],
        old_row: Optional[Dict[str, Any]] = None,
    ) -> List[Bindings]:
        """Deliver a matched token for ``tvar``; returns the complete
        bindings (one per satisfied combination) to fire the action with.

        The row used for condition evaluation is the new image for
        insert/update and the old image for delete.
        """
        obs = self.obs
        if obs is not None and obs.trace.enabled and obs.trace.current_id():
            tracer = obs.trace
            start = tracer.clock()
            complete = self._activate(tvar, operation, new_row, old_row)
            tracer.record(
                f"network.{self.entry_node_id(tvar)}",
                start,
                tracer.clock(),
                {
                    "network": "atreat",
                    "trigger": self.trigger_id,
                    "tvar": tvar,
                    "operation": operation,
                    "emitted": len(complete),
                },
            )
            return complete
        return self._activate(tvar, operation, new_row, old_row)

    def _activate(
        self,
        tvar: str,
        operation: str,
        new_row: Optional[Dict[str, Any]],
        old_row: Optional[Dict[str, Any]] = None,
    ) -> List[Bindings]:
        memory = self.alpha[tvar]
        if operation == "insert":
            row = new_row
        elif operation == "delete":
            row = old_row
        elif operation == "update":
            row = new_row
        else:
            raise NetworkError(f"unknown operation {operation!r}")
        if row is None:
            raise NetworkError(f"{operation} token is missing its row image")

        # Maintain the memory first so self-joins see a consistent state.
        # Single-source triggers never join, so their memory is skipped
        # entirely (the predicate index routes straight to the P-node).
        if len(self.graph.tvars) > 1:
            if operation == "insert":
                memory.insert(row)
            elif operation == "delete":
                memory.remove(row)
            elif operation == "update":
                if old_row is not None:
                    memory.remove(old_row)
                memory.insert(row)

        seed_bindings = Bindings(
            rows={tvar: row},
            old_rows={tvar: old_row} if old_row is not None else None,
        )
        if len(self.graph.tvars) == 1:
            if self._catch_all is not None and not self.evaluator.matches(
                self._catch_all, seed_bindings
            ):
                return []
            return [seed_bindings]
        return self._join_search(tvar, seed_bindings)

    def _join_search(self, seed: str, seed_bindings: Bindings) -> List[Bindings]:
        steps = self._join_steps(seed)
        results: List[Bindings] = []
        stats = self.join_stats
        matches = self.evaluator.matches

        def extend(position: int, bindings: Bindings) -> None:
            if position == len(steps):
                if self._catch_all is None or matches(self._catch_all, bindings):
                    results.append(bindings)
                return
            tvar, tests, probes = steps[position]
            stats["probes"] += 1
            for row in self._candidates(tvar, probes, bindings):
                stats["candidates"] += 1
                candidate = bindings.bind(tvar, row)
                for join_expr in tests:
                    if not matches(join_expr, candidate):
                        break
                else:
                    extend(position + 1, candidate)

        extend(0, seed_bindings)
        return results

    def _candidates(
        self, tvar: str, probes: List[tuple], bindings: Bindings
    ) -> Iterator[Dict[str, Any]]:
        """The rows of ``tvar``'s memory one join step tests.  The first
        equi-join edge to an already-bound variable that can name a key
        narrows them to that key's signature bucket (materialized memory)
        or equality-index hits (virtual memory); otherwise every row."""
        memory = self.alpha[tvar]
        stats = self.join_stats
        if isinstance(memory, AlphaMemory):
            for other, index_name, plan, _mine, _theirs in probes:
                sig = plan.signature_for(other, bindings.rows[other])
                if sig is SIG_UNHASHABLE:
                    continue
                bucket = memory.rows_for(index_name, sig)
                if bucket is not None:
                    stats["hash_probes"] += 1
                    return bucket
            return memory.rows()
        if memory.lookup is not None:
            for other, _name, _plan, mine, theirs in probes:
                bound_row = bindings.rows[other]
                if not all(column in bound_row for column in theirs):
                    continue
                key = tuple(bound_row[column] for column in theirs)
                if any(part is None for part in key):
                    # A NULL join key makes the equality UNKNOWN for every
                    # row: no candidates.
                    stats["virtual_hash_probes"] += 1
                    return iter(())
                rows = memory.rows_eq(mine, key)
                if rows is not None:
                    stats["virtual_hash_probes"] += 1
                    return rows
        stats["virtual_scans"] += 1
        return memory.rows()

    def retract(self, tvar: str, row: Dict[str, Any]) -> None:
        """Memory maintenance without firing: remove ``row`` from the tuple
        variable's materialized memory (no-op for virtual memories).  Used
        by the engine when a delete/update token does not match the
        trigger's event condition but invalidates stored state."""
        if len(self.graph.tvars) > 1:
            self.alpha[tvar].remove(row)

    def materialized_tvars(self) -> List[str]:
        """Tuple variables whose alpha memory holds state that must be
        maintained by the engine (multi-source, non-virtual)."""
        if len(self.graph.tvars) <= 1:
            return []
        return [
            tvar
            for tvar, node in self.alpha.items()
            if isinstance(node, AlphaMemory)
        ]

    # -- introspection -------------------------------------------------------------

    def probe_paths(self) -> Dict[str, str]:
        """How the join search reaches each alpha memory: ``hashed on
        (cols)`` when an equi-join edge probes it by key (signature buckets
        or the base table's equality index), else ``scan``."""
        keys: Dict[str, List[str]] = {tvar: [] for tvar in self.alpha}
        for seed in self.graph.tvars:
            for tvar, _tests, probes in self._join_steps(seed):
                memory = self.alpha[tvar]
                if isinstance(memory, VirtualAlphaMemory) and memory.lookup is None:
                    continue
                for probe in probes:
                    text = f"({', '.join(probe[3])})"
                    if text not in keys[tvar]:
                        keys[tvar].append(text)
        return {
            tvar: f"hashed on {' or '.join(texts)}" if texts else "scan"
            for tvar, texts in keys.items()
        }

    def memory_sizes(self) -> Dict[str, Optional[int]]:
        """Materialized memory sizes (None for virtual memories)."""
        out: Dict[str, Optional[int]] = {}
        for tvar, node in self.alpha.items():
            out[tvar] = len(node) if isinstance(node, AlphaMemory) else None
        return out
