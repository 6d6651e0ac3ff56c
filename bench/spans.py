"""Span recorder for the traced run.

Spans are recorded from ``bench/`` only, by replacing public callables of
the engine's layer objects with timing wrappers (`Tracer.wrap`) for the
length of one traced segment and putting the originals back afterwards
(`Tracer.uninstall`).  The engine is never edited and the untraced run never
imports this module's wrappers.

A span is (name, start, end, parent, burst, thread).  Totals are kept per
span name and *phase* ("token" while tokens flow, "create"/"drop" around a
DDL statement), so a metric like ``predindex.add_us_per_create`` reads one
cell.  A layer's **self time** is its spans' duration minus what their child
spans cover; because every span nests inside a root span opened by the
benchmark loop, self times add up to the traced total exactly and whatever
the root keeps for itself is ``bench.unattributed_share``.

The clock is ``time.perf_counter_ns`` (wall) for the single-threaded
workloads.  ``remote_fanout`` runs eight threads under one GIL, where wall
spans on different threads overlap and cannot sum to the run; it passes
``time.thread_time_ns`` so each span is the CPU its own thread burned.  The
total is then the generator thread's root spans plus every other thread's CPU
over the segment, and the CPU such a thread burns outside its spans (its
socket and driver loops, and the wrappers themselves) is charged to the layer
that owns the thread.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

PHASES = ("token", "create", "drop")
ROOT = "bench.loop"


def thread_cpu_ns() -> Dict[int, Tuple[str, int]]:
    """CPU time burned so far by every live thread: id -> (name, ns)."""
    out = {}
    for thread in threading.enumerate():
        if thread.ident is not None:
            clock_id = time.pthread_getcpuclockid(thread.ident)
            out[thread.ident] = (thread.name, time.clock_gettime_ns(clock_id))
    return out


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep: int = 100_000):
        self.clock = clock
        #: raw spans kept for the trace file (totals cover every span)
        self.keep = keep
        self.names: List[str] = []
        self.layers: List[str] = []
        self._ids: Dict[str, int] = {}
        self.self_ns: List[List[int]] = [[] for _ in PHASES]
        self.incl_ns: List[List[int]] = [[] for _ in PHASES]
        self.calls: List[List[int]] = [[] for _ in PHASES]
        #: per-name extra count (rows materialized / results returned)
        self.items: List[int] = []
        self.spans: List[list] = []
        self.phase = 0
        self.burst = 0
        self.root_ns = [0] * len(PHASES)
        #: thread id -> time inside that thread's outermost spans
        self.top_ns: Dict[int, int] = {}
        self.missing: List[str] = []
        self._local = threading.local()
        self._undo: List[Tuple[Any, str, Any, bool]] = []
        self._root_id = self._name_id(ROOT, "bench")

    # -- naming -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.items.append(0)
            for table in (self.self_ns, self.incl_ns, self.calls):
                for row in table:
                    row.append(0)
        return ident

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, owner: Any, attr: str, layer: str,
             kind: str = "call", name: Optional[str] = None) -> None:
        """Replace ``owner.attr`` (instance, class, or module attribute) with
        a span-recording wrapper.  ``kind``: ``call`` times the call;
        ``rows`` also drains a returned iterator inside the span and counts
        its rows; ``len`` counts ``len(result)``.  A missing attribute is
        noted in ``self.missing`` and skipped — its time then shows up as
        the parent's self time instead of vanishing."""
        original = getattr(owner, attr, None)
        label = name or f"{layer}.{attr.lstrip('_')}"
        if original is None:
            self.missing.append(label)
            return
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, self._wrapper(original, self._name_id(label, layer), kind))

    def charge(self, name: str, layer: str, nanoseconds: int) -> None:
        """Add self time that no wrapper saw (a thread's CPU outside its
        spans) to ``layer`` under ``name``."""
        ident = self._name_id(name, layer)
        self.self_ns[0][ident] += nanoseconds
        self.incl_ns[0][ident] += nanoseconds

    def wrap_fn(self, fn: Callable, layer: str, name: str) -> Callable:
        """A wrapped copy of a free function (the subscriber callback)."""
        return self._wrapper(fn, self._name_id(name, layer), "call")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, had_own = self._undo.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrapper(self, fn: Callable, ident: int, kind: str) -> Callable:
        """The timing wrapper.  Everything is bound to locals: this runs tens
        of times per token and its own cost lands in the parent's self
        time (``bench.trace_overhead_ratio`` reports the total)."""
        clock = self.clock
        local = self._local
        spans = self.spans
        keep = self.keep
        items = self.items
        self_ns, incl_ns, calls = self.self_ns, self.incl_ns, self.calls
        get_ident = threading.get_ident
        top_ns = self.top_ns
        tracer = self

        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if len(spans) < keep:
                frame = [0, len(spans)]
                spans.append([ident, 0, 0, stack[-1][1] if stack else -1,
                              tracer.burst, get_ident()])
            else:
                frame = [0, -2]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if kind == "rows":
                    result = list(result)
                    items[ident] += len(result)
                    return iter(result)
                if kind == "len":
                    items[ident] += len(result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                phase = tracer.phase
                self_ns[phase][ident] += duration - frame[0]
                incl_ns[phase][ident] += duration
                calls[phase][ident] += 1
                if stack:
                    stack[-1][0] += duration
                else:
                    thread = get_ident()
                    top_ns[thread] = top_ns.get(thread, 0) + duration
                if frame[1] >= 0:
                    span = spans[frame[1]]
                    span[1] = start
                    span[2] = end

        return wrapper

    @contextmanager
    def root(self, phase: str = "token"):
        """The benchmark loop's own span around one burst / DDL statement;
        every layer span nests inside one."""
        self.phase = PHASES.index(phase)
        self.burst += 1
        stack = self._stack()
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append([self._root_id, 0, 0, -1, self.burst,
                               threading.get_ident()])
        else:
            index = -2
        frame = [0, index]
        stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            ident = self._root_id
            self.self_ns[self.phase][ident] += duration - frame[0]
            self.incl_ns[self.phase][ident] += duration
            self.calls[self.phase][ident] += 1
            if index >= 0:
                self.spans[index][1:3] = [start, end]
            self.root_ns[self.phase] += duration
            self.phase = 0

    # -- totals -------------------------------------------------------------

    def _sum(self, what: str, ident: int, phase: Optional[str]) -> int:
        table = {"self": self.self_ns, "incl": self.incl_ns,
                 "calls": self.calls}[what]
        if phase is not None:
            return table[PHASES.index(phase)][ident]
        return sum(row[ident] for row in table)

    def name_total(self, name: str, what: str = "incl",
                   phase: Optional[str] = None) -> int:
        """self/incl nanoseconds or call count of one span name."""
        ident = self._ids.get(name)
        return 0 if ident is None else self._sum(what, ident, phase)

    def layer_total(self, layer: str, what: str = "self",
                    phase: Optional[str] = None) -> int:
        return sum(
            self._sum(what, ident, phase)
            for ident, owner in enumerate(self.layers)
            if owner == layer and self.names[ident] != ROOT
        )

    @property
    def spans_total(self) -> int:
        return sum(sum(row) for row in self.calls)

    def item_count(self, name: str) -> int:
        ident = self._ids.get(name)
        return 0 if ident is None else self.items[ident]

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "schema": "bench-trace-v1",
                    "span_fields": ["name", "start_ns", "end_ns", "parent",
                                    "burst", "thread"],
                    "names": self.names,
                    "layers": self.layers,
                    "spans_total": self.spans_total,
                    "spans_kept": len(self.spans),
                    "missing_wrap_targets": self.missing,
                    **extra,
                    "spans": self.spans,
                },
                handle,
            )
