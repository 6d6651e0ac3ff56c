"""A Gator-style discrimination network (the paper's planned optimization).

§3: "In the future, we plan to implement an optimized type of discrimination
network called a Gator network in TriggerMan [Hans97b]."  Gator generalizes
TREAT/A-TREAT by *materializing intermediate join results* in beta memories,
so a token only joins against pre-joined partial bindings instead of
re-deriving them from the alpha memories each time.

This implementation uses a left-deep join tree over a configurable tuple-
variable order (default: the condition graph's BFS order from the first
tuple variable, which keeps join predicates applicable early):

    beta_0 = alpha_0
    beta_k = beta_{k-1} ⋈ alpha_k        (join predicates from the graph)

Token arrival at position p:

* insert — extend each binding of ``beta_{p-1}`` with the new row (testing
  the join predicates between position p and the bound prefix), store the
  new partials into ``beta_p``, then propagate rightward through the
  remaining alphas, storing into each deeper beta; complete bindings that
  survive the catch-all clauses are emitted.
* delete — every stored partial containing the row is evicted from all
  betas; emissions use the pre-removal state (same ECA semantics as the
  A-TREAT implementation).

The trade-off this makes measurable (benchmark E8b): stored partials save
join work per token, at the price of beta-memory space and maintenance —
the TREAT-vs-Rete tension Gator optimizes over [Hans97b].  Since A-TREAT
probes join-key buckets and table equality indexes, E8b measures A-TREAT
faster *and* smaller, so the engine builds only A-TREAT networks; this
module is the stand-alone reference that E8b measures against.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from ..condition.classify import ConditionGraph
from ..condition.cnf import cnf_to_expr
from ..errors import NetworkError
from ..lang.evaluator import Bindings, Evaluator
from .nodes import AlphaMemory, PNode

Row = Dict[str, Any]
Partial = Dict[str, Row]  # tvar -> row


class BetaMemory:
    """Materialized partial join results over a tuple-variable prefix."""

    def __init__(self, node_id: str, tvars: Tuple[str, ...]):
        self.node_id = node_id
        self.tvars = tvars
        self._partials: List[Partial] = []

    def insert(self, partial: Partial) -> None:
        self._partials.append(partial)

    def remove_containing(self, tvar: str, row: Row) -> int:
        before = len(self._partials)
        self._partials = [
            p for p in self._partials if p.get(tvar) != row
        ]
        return before - len(self._partials)

    def partials(self) -> Iterator[Partial]:
        return iter(self._partials)

    def __len__(self) -> int:
        return len(self._partials)


class GatorNetwork:
    """A left-deep Gator network for one trigger."""

    def __init__(
        self,
        trigger_id: int,
        graph: ConditionGraph,
        evaluator: Optional[Evaluator] = None,
        join_order: Optional[Sequence[str]] = None,
    ):
        self.trigger_id = trigger_id
        self.graph = graph
        self.evaluator = evaluator or Evaluator()
        if join_order is not None:
            if sorted(join_order) != sorted(graph.tvars):
                raise NetworkError(
                    "join order must be a permutation of the tuple variables"
                )
            self.order: Tuple[str, ...] = tuple(join_order)
        else:
            self.order = tuple(self._default_order())
        self._position = {tvar: i for i, tvar in enumerate(self.order)}
        self.alpha: Dict[str, AlphaMemory] = {
            tvar: AlphaMemory(f"alpha:{tvar}", tvar) for tvar in self.order
        }
        # beta[k] covers order[0..k]; beta[0] is implicit (alpha_0).
        self.beta: List[BetaMemory] = [
            BetaMemory(f"beta:{k}", self.order[: k + 1])
            for k in range(1, len(self.order))
        ]
        self.pnode = PNode("pnode")
        self._catch_all = cnf_to_expr(list(graph.catch_all))
        # Pre-resolve join predicates between each position and its prefix.
        self._edges: List[List[Tuple[str, Any]]] = []
        for k, tvar in enumerate(self.order):
            prefix = set(self.order[:k])
            edges = [
                (other, self.graph.join_expr(tvar, other))
                for other in self.graph.neighbors(tvar)
                if other in prefix
            ]
            self._edges.append(edges)

    def _default_order(self) -> List[str]:
        if not self.graph.tvars:
            raise NetworkError("a network needs at least one tuple variable")
        seed = self.graph.tvars[0]
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
        for tvar in self.graph.tvars:
            if tvar not in seen:
                order.append(tvar)
        return order

    # -- helpers ---------------------------------------------------------

    def entry_node_id(self, tvar: str) -> str:
        if len(self.order) == 1:
            return self.pnode.node_id
        return self.alpha[tvar].node_id

    def _join_ok(self, position: int, partial: Partial) -> bool:
        """Test the join predicates between ``order[position]`` and the
        prefix bound in ``partial``."""
        bindings = Bindings(rows=partial)
        for _other, join_expr in self._edges[position]:
            if join_expr is not None and not self.evaluator.matches(
                join_expr, bindings
            ):
                return False
        return True

    def prime(self, tvar: str, rows: Iterator[Row]) -> None:
        """Bulk-load an alpha memory and rebuild the beta chain.

        Priming is done per tuple variable at build time; betas are
        recomputed from scratch afterwards (cheaper than deltas in bulk).
        """
        memory = self.alpha[tvar]
        for row in rows:
            memory.insert(row)
        self._rebuild_betas()

    def _rebuild_betas(self) -> None:
        if len(self.order) == 1:
            return
        current: List[Partial] = [
            {self.order[0]: row} for row in self.alpha[self.order[0]].rows()
        ]
        for k in range(1, len(self.order)):
            tvar = self.order[k]
            next_partials: List[Partial] = []
            for partial in current:
                for row in self.alpha[tvar].rows():
                    candidate = dict(partial)
                    candidate[tvar] = row
                    if self._join_ok(k, candidate):
                        next_partials.append(candidate)
            beta = self.beta[k - 1]
            beta._partials = next_partials
            current = next_partials

    # -- token processing ------------------------------------------------------

    def activate(
        self,
        tvar: str,
        operation: str,
        new_row: Optional[Row],
        old_row: Optional[Row] = None,
    ) -> List[Bindings]:
        """Deliver a token for ``tvar``; returns the complete bindings."""
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

        if len(self.order) == 1:
            seed = Bindings(
                rows={tvar: row},
                old_rows={tvar: old_row} if old_row is not None else None,
            )
            if self._catch_all is not None and not self.evaluator.matches(
                self._catch_all, seed
            ):
                return []
            return [seed]

        if operation == "update" and old_row is not None:
            self._retract(tvar, old_row)
        if operation == "delete":
            # Emit with the pre-removal state, then retract.
            complete = self._derive(tvar, row, store=False)
            self._retract(tvar, row)
        else:
            complete = self._derive(tvar, row, store=True)

        out = []
        for partial in complete:
            bindings = Bindings(
                rows=partial,
                old_rows={tvar: old_row} if old_row is not None else None,
            )
            if self._catch_all is None or self.evaluator.matches(
                self._catch_all, bindings
            ):
                out.append(bindings)
        return out

    def _derive(self, tvar: str, row: Row, store: bool) -> List[Partial]:
        """Compute (and optionally store) the partials the new row creates;
        returns the complete (all-tvars) ones."""
        position = self._position[tvar]
        if store:
            self.alpha[tvar].insert(row)
        # Partials over the prefix before `position`.
        if position == 0:
            new_partials: List[Partial] = [{tvar: row}]
        else:
            if position == 1:
                prefix_partials: Iterator[Partial] = (
                    {self.order[0]: r} for r in self.alpha[self.order[0]].rows()
                )
            else:
                prefix_partials = self.beta[position - 2].partials()
            new_partials = []
            for prefix in prefix_partials:
                candidate = dict(prefix)
                candidate[tvar] = row
                if self._join_ok(position, candidate):
                    new_partials.append(candidate)
        if position >= 1 and store:
            for partial in new_partials:
                self.beta[position - 1].insert(partial)
        # Propagate rightward through the remaining alphas.
        current = new_partials
        for k in range(position + 1, len(self.order)):
            next_tvar = self.order[k]
            next_partials = []
            for partial in current:
                for other_row in self.alpha[next_tvar].rows():
                    candidate = dict(partial)
                    candidate[next_tvar] = other_row
                    if self._join_ok(k, candidate):
                        next_partials.append(candidate)
            if store:
                for partial in next_partials:
                    self.beta[k - 1].insert(partial)
            current = next_partials
        return current

    def _retract(self, tvar: str, row: Row) -> None:
        self.alpha[tvar].remove(row)
        for beta in self.beta:
            if tvar in beta.tvars:
                beta.remove_containing(tvar, row)

    def retract(self, tvar: str, row: Row) -> None:
        """Memory maintenance without firing (see ATreatNetwork.retract)."""
        if len(self.order) > 1:
            self._retract(tvar, row)

    # -- introspection ------------------------------------------------------------

    def memory_sizes(self) -> Dict[str, int]:
        out: Dict[str, int] = {
            f"alpha:{tvar}": len(self.alpha[tvar]) for tvar in self.order
        }
        for beta in self.beta:
            out[beta.node_id] = len(beta)
        return out

    def total_memory_entries(self) -> int:
        return sum(self.memory_sizes().values())
