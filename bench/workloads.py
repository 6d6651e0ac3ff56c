"""The six workloads and the one procedure that runs any of them.

A workload says how to build its engine, how to hand it one token and how to
wait for a burst to finish; :func:`run_workload` owns everything else —
set-up timing, warm-up, the 30 timed slices, the oracle comparison, the DDL
probe, teardown under a hard timeout, the reopen measurement and, in a traced
run, the span bookkeeping.  The engine is driven through its public surface
with default constructor arguments except where a workload names one.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import threading
import time
from collections import deque
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import layers
import schema
from spans import Tracer, thread_cpu_ns
from tokens import (
    COLUMNS,
    EVENT,
    HOUSE_COLUMNS,
    KEYED_MIX,
    NEIGHBORHOOD_COLUMNS,
    REPRESENTS_COLUMNS,
    SALESPERSON_COLUMNS,
    SELECT_MIX,
    Population,
    RealEstate,
    Token,
    Trigger,
    digest,
)

now = time.perf_counter

#: a close() that has not returned after this long is abandoned and counted
#: as a failed operation
TEARDOWN_TIMEOUT = 20.0
#: every run sets up at least twice and reopens at least once; each is
#: repeated up to this many times while its samples together stay inside the
#: budget
REPEAT_SAMPLES = 5
REPEAT_BUDGET_S = 3.0
#: how long a burst may wait for its notifications over the wire
NOTIFY_TIMEOUT = 15.0


def bounded(fn: Callable[[], None], timeout: float = TEARDOWN_TIMEOUT) -> Tuple[bool, float]:
    """Run ``fn`` on a helper thread; (finished cleanly, seconds)."""
    errors: List[BaseException] = []

    def target() -> None:
        try:
            fn()
        except Exception as exc:  # reported as a failed operation below
            errors.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    start = now()
    thread.start()
    thread.join(timeout)
    return (not thread.is_alive() and not errors), now() - start


class Workload:
    """Base: an in-memory engine fed through ``push``."""

    name = ""
    burst = 1
    #: tokens the timed run sends per second of ``--seconds`` — fixed here so
    #: the operation count, not the clock, ends the run (8 s at the seed
    #: commit on the reference box)
    seed_rate = 1.0
    #: (thread-name prefix, layer) pairs: when set, the traced run counts
    #: CPU per thread instead of wall time; empty for the single-threaded
    #: workloads
    thread_layers: Tuple[Tuple[str, str], ...] = ()
    #: share of ``--seconds`` the closed-loop timed run gets
    timed_share = 1.0
    #: pin the process to one CPU for the run
    one_cpu = False

    def __init__(self, seed: int, seconds: float, scale: float, out_dir: str):
        self.rng = random.Random(seed)
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.out_dir = out_dir
        self.tman = None
        self.triggers: List[Trigger] = []
        #: (trigger name, seq, arrival time) of every notification received
        self.got: List[Tuple[str, int, float]] = []
        self.sizes: Dict[str, float] = {}

    # -- sizing -----------------------------------------------------------

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def timed_tokens(self) -> int:
        """Token count of the timed run: a multiple of 30 slices, and of
        whole bursts per slice when the run is long enough."""
        per_slice = (
            self.seed_rate * self.seconds * self.timed_share * self.scale
            / schema.SLICES
        )
        if per_slice >= self.burst:
            per_slice = int(per_slice) // self.burst * self.burst
        return max(1, int(per_slice)) * schema.SLICES

    def warmup_tokens(self, n_timed: int) -> int:
        """10 % of the timed count, in whole bursts when it is that long."""
        n_warm = max(1, n_timed // 10)
        if self.burst <= n_warm:
            n_warm -= n_warm % self.burst
        return n_warm

    def traced_tokens(self, n_timed: int) -> int:
        """A quarter of the timed count, still 30 equal slices."""
        return max(schema.SLICES, n_timed // 4 // schema.SLICES * schema.SLICES)

    def paced_tokens(self) -> int:
        """Tokens of the open-loop phase (only remote_fanout has one)."""
        return 0

    # -- engine lifecycle (overridden per workload) ------------------------

    def generate(self, n_tokens: int) -> List[Token]:
        raise NotImplementedError

    def open_engine(self):
        from repro.engine.triggerman import TriggerMan

        return TriggerMan.in_memory()

    def define_sources(self, tman) -> None:
        raise NotImplementedError

    def build(self) -> None:
        """Open the engine, define sources (+ prime tables), install the
        trigger population: what ``setup_s`` times."""
        self.tman = self.open_engine()
        self.define_sources(self.tman)
        create = self.tman.create_trigger
        for trigger in self.triggers:
            create(trigger.text)

    def subscribe(self) -> None:
        """Register the one subscriber; it forwards to ``self.sink`` so a
        traced run can put a span around the callback without a second
        subscription."""
        self.sink = self.on_notification
        self.register(lambda notification: self.sink(notification))

    def register(self, callback) -> None:
        self.tman.register_for_event(EVENT, callback)

    def on_notification(self, notification) -> None:
        self.got.append(
            (notification.trigger_name, notification.args[0], now())
        )

    def ingest(self, token: Token) -> None:
        self.tman.push(token.source, token.op, new=token.new, old=token.old)

    def expect(self, count: int) -> None:
        """Told before a slice how many notifications it will raise; only a
        workload whose notifications arrive asynchronously needs to know."""

    def sample_wire(self, segment: "Segment") -> None:
        """After each ingest: wire-side samples, where there is a wire."""

    def drain(self) -> bool:
        """Finish the burst; True when every notification is in."""
        self.tman.process_all()
        return True

    def close(self) -> None:
        self.tman.close()

    def rebuild(self) -> bool:
        """Get an engine with the same triggers back after a clean close();
        True when that took a full set-up."""
        self.build()
        return True

    def probe_token(self, seq: int) -> Token:
        raise NotImplementedError

    def fresh_trigger(self, index: int) -> Trigger:
        """A trigger the DDL probe can create and drop again."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove whatever the workload left on disk."""

    def queue_depth(self) -> int:
        return len(self.tman.queue)


class SelectionWorkload(Workload):
    """Single-source selection triggers from a :class:`Population`; the
    subclasses differ in engine, sources, mix and key distribution."""

    burst = 256
    seed_rate = 4600.0
    n_triggers = 20_000
    zipf = True
    sources = ("s0", "s1", "s2", "s3")
    mix = SELECT_MIX
    users_per_trigger = 1.0
    update_share = True
    #: triggers left out of the static population (trigger_churn's FIFO)
    reserve = 0

    def generate(self, n_tokens: int) -> List[Token]:
        n = self.scaled(self.n_triggers, 40) - self.reserve
        users = max(len(self.sources) * 10, int(n * self.users_per_trigger))
        users -= users % len(self.sources)
        self.population = Population(
            self.rng, self.sources, n, users, self.mix
        )
        self.triggers = list(self.population.triggers)
        self.sizes.update(triggers=len(self.triggers), users=users)
        pop = self.population
        if self.zipf:
            ranks = pop.zipf_ranks(n_tokens, users // 2)
        else:
            ranks = pop.uniform_ranks(n_tokens, users)
        return pop.tokens(ranks, 0, self.update_share)

    def define_sources(self, tman) -> None:
        for source in self.sources:
            tman.define_stream(source, COLUMNS)

    def probe_token(self, seq: int) -> Token:
        pop = self.population
        for rank in range(pop.n_users):
            token = pop.tokens([rank], seq, False)[0]
            if token.expect:
                return token
        raise RuntimeError("no trigger in the population fires on an insert")

    def fresh_trigger(self, index: int) -> Trigger:
        pop = self.population
        return pop.churn_trigger(index, pop.n_users - 1 - index % pop.n_users)


class SelectMatch(SelectionWorkload):
    name = "select_match"


class CacheSpill(SelectionWorkload):
    name = "cache_spill"
    seed_rate = 900.0
    zipf = False

    def open_engine(self):
        from repro.engine.triggerman import TriggerMan

        return TriggerMan.in_memory(
            cache_capacity=max(8, self.scaled(512))
        )


class TriggerChurn(SelectionWorkload):
    """Cycles of create x8, push 64, process_all, drop x8 oldest."""

    name = "trigger_churn"
    burst = 64
    seed_rate = 2000.0
    per_cycle = 8
    #: a churn trigger lives this many cycles before it is the oldest
    lag_cycles = 4
    reserve = per_cycle * lag_cycles

    def warmup_tokens(self, n_timed: int) -> int:
        return max(self.burst * self.lag_cycles, super().warmup_tokens(n_timed))

    def traced_tokens(self, n_timed: int) -> int:
        return max(self.burst * 2, n_timed // 4 // self.burst * self.burst)


class DurableTable(SelectionWorkload):
    name = "durable_table"
    burst = 64
    seed_rate = 2200.0
    n_triggers = 5_000
    zipf = False
    sources = ("emp",)
    mix = KEYED_MIX
    users_per_trigger = 0.6
    update_share = False

    def __init__(self, *args):
        super().__init__(*args)
        self.dirs: List[str] = []

    def open_engine(self, path: Optional[str] = None):
        from repro.engine.triggerman import TriggerMan

        if path is None:
            path = os.path.join(
                self.out_dir, f"durable_{os.getpid()}_{len(self.dirs)}"
            )
            shutil.rmtree(path, ignore_errors=True)
            self.dirs.append(path)
        return TriggerMan.persistent(path, wal_sync="group")

    def define_sources(self, tman) -> None:
        tman.define_table("emp", COLUMNS)

    def ingest(self, token: Token) -> None:
        self.tman.insert(token.source, token.new)

    def rebuild(self) -> bool:
        self.tman = self.open_engine(self.dirs[0])
        return False

    def cleanup(self) -> None:
        for path in self.dirs:
            shutil.rmtree(path, ignore_errors=True)


class RemoteFanout(SelectionWorkload):
    name = "remote_fanout"
    #: one ack per token; a "burst" is a whole slice, whose notifications are
    #: awaited together
    burst = 1 << 30
    #: the saturate phase gets half of --seconds, the paced phase the rest
    timed_share = 0.5
    seed_rate = 3800.0
    n_triggers = 5_000
    zipf = False
    sources = ("feed",)
    mix = KEYED_MIX
    users_per_trigger = 0.6
    update_share = False
    paced_rate = 1000.0
    # Eight threads share one GIL, so a second core adds no parallelism, only
    # cross-core wake-ups: unpinned, whole runs settled at either ~1,600 or
    # ~3,800 tokens/s.  The single-threaded workloads are left to the
    # scheduler (pinned they ran ~10 % slower and no steadier).
    one_cpu = True
    # attribute CPU per thread, not overlapping wall spans
    thread_layers = (("tman-net", "net"), ("tman-driver", "engine.tasks"))

    def paced_tokens(self) -> int:
        return max(20, int(
            self.paced_rate * self.seconds * (1 - self.timed_share) * self.scale
        ))

    def build(self) -> None:
        from repro.net.remote import (
            RemoteDataSourceProgram,
            RemoteTriggerManClient,
        )

        super().build()
        self.server = self.tman.serve()
        self.tman.start_drivers(1)
        host, port = self.server.address
        self.client = RemoteTriggerManClient(host, port)
        self.feed = RemoteDataSourceProgram(host, "feed", port)
        self.target = 0
        self.all_in = threading.Event()

    def register(self, callback) -> None:
        self.client.register_for_event(EVENT, callback)

    def on_notification(self, notification) -> None:
        got = self.got
        got.append((notification.trigger_name, notification.args[0], now()))
        if len(got) >= self.target:
            self.all_in.set()

    def ingest(self, token: Token) -> None:
        self.feed.insert(token.new)

    def expect(self, count: int) -> None:
        """Arm the wait for ``count`` notifications since the last clear."""
        self.all_in.clear()
        self.target = count
        if count == 0:
            self.all_in.set()

    def sample_wire(self, segment: "Segment") -> None:
        segment.rtts_us.append((self.feed.conn.last_rtt_ns or 0) / 1e3)
        segment.see_depth(self.queue_depth())

    def drain(self) -> bool:
        return self.all_in.wait(NOTIFY_TIMEOUT)

    def close(self) -> None:
        self.feed.close()
        self.client.close()
        # the threaded front end's accept thread only ends on its join
        # timeout at the seed commit (ROADMAP item 4); keep that stall short
        # and visible as teardown_s instead of letting it eat 5 s per run
        self.tman.stop_serving(drain_timeout=0.5)
        self.tman.close()


class JoinMatch(Workload):
    name = "join_match"
    burst = 1
    seed_rate = 50.0
    houses = 800

    def generate(self, n_tokens: int) -> List[Token]:
        self.estate = RealEstate(self.rng, self.scaled(self.houses, 10))
        self.triggers = list(self.estate.triggers)
        self.sizes.update(
            triggers=len(self.triggers),
            houses=len(self.estate.initial_houses),
            salespeople=len(self.estate.salespeople),
            neighborhoods=len(self.estate.neighborhoods),
        )
        return self.estate.tokens(n_tokens, 0)

    def define_sources(self, tman) -> None:
        estate = self.estate
        for name, columns, rows in (
            ("neighborhood", NEIGHBORHOOD_COLUMNS, estate.neighborhoods),
            ("salesperson", SALESPERSON_COLUMNS, estate.salespeople),
            ("represents", REPRESENTS_COLUMNS, estate.represents),
            ("house", HOUSE_COLUMNS, estate.initial_houses),
        ):
            tman.define_table(name, columns)
            for row in rows:
                tman.insert(name, row)
        tman.process_all()

    def ingest(self, token: Token) -> None:
        if token.op == "insert":
            self.tman.insert("house", token.new)
        elif self.tman.delete_rows("house", {"hno": token.old["hno"]}) != 1:
            raise RuntimeError(f"house {token.old['hno']} was not there to delete")

    def probe_token(self, seq: int) -> Token:
        for token in self.estate.tokens(1000, seq):
            if token.expect:
                return token._replace(seq=seq, new=dict(token.new, seq=seq))
        raise RuntimeError("no join trigger fires")

    def fresh_trigger(self, index: int) -> Trigger:
        return self.estate.join_trigger(f"probe{index}", f"nobody{index}")


WORKLOADS = {
    cls.name: cls
    for cls in (SelectMatch, CacheSpill, JoinMatch, DurableTable,
                RemoteFanout, TriggerChurn)
}


# -- the runner ---------------------------------------------------------------


class Outcome:
    """Operation accounting: every token, DDL statement, reopen probe and
    teardown is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def note(self, why: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(why)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        self.note(why)


class Segment:
    """What one pass of tokens through :func:`run_tokens` measured."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.latencies_ms: List[float] = []
        self.tokens = 0
        self.wall = 0.0
        self.depth_max = 0
        self.rtts_us: List[float] = []

    def add_slice(self, tokens: int, seconds: float) -> None:
        self.rates.append(tokens / seconds)
        self.tokens += tokens
        self.wall += seconds

    def see_depth(self, depth: int) -> None:
        if depth > self.depth_max:
            self.depth_max = depth


def chunks(items: Sequence, size: int):
    for start in range(0, len(items), size):
        yield items[start:start + size]


def root_span(tracer: Optional[Tracer], phase: str = "token"):
    return tracer.root(phase) if tracer is not None else nullcontext()


def send_burst(wl: Workload, group: Sequence[Token], due: Dict[int, float],
               segment: Segment, outcome: Outcome,
               tracer: Optional[Tracer]) -> int:
    """Ingest one burst and drain it, inside one root span; returns how many
    of its tokens failed outright."""
    bad = 0
    ingest, sample_wire = wl.ingest, wl.sample_wire
    with root_span(tracer):
        for token in group:
            due[token.seq] = now()
            try:
                ingest(token)
            except Exception as exc:
                bad += 1
                outcome.note(f"ingest of seq {token.seq}: {exc!r}")
            sample_wire(segment)
        segment.see_depth(wl.queue_depth())
        if not wl.drain():
            bad = len(group)
            outcome.note("notifications did not arrive in time")
    return bad


def settle(wl: Workload, tokens: Sequence[Token], bad: int,
           due: Dict[int, float], outcome: Outcome,
           segment: Optional[Segment]) -> None:
    """After a slice: fold the notifications received into a digest, compare
    with the oracle's, count the slice's operations, keep the latencies."""
    got = wl.got
    expected = digest(
        (name, token.seq) for token in tokens for name in token.expect
    )
    received = digest((name, seq) for name, seq, _t in got)
    if received != expected:
        bad = len(tokens)
        outcome.note(
            f"slice at seq {tokens[0].seq}: {received[0]} notifications, "
            f"oracle says {expected[0]} (digest "
            f"{'equal' if received[1] == expected[1] else 'differs'})"
        )
    outcome.attempted += len(tokens)
    outcome.failed += min(bad, len(tokens))
    if segment is not None:
        latencies = segment.latencies_ms
        for _name, seq, arrived in got:
            sent = due.get(seq)
            if sent is not None:
                latencies.append((arrived - sent) * 1e3)
    got.clear()


def run_tokens(wl: Workload, tokens: Sequence[Token], outcome: Outcome,
               slices: int, tracer: Optional[Tracer] = None,
               after_slice: Optional[Callable[[], None]] = None) -> Segment:
    """Send ``tokens`` in ``slices`` equal slices of bursts, closed loop;
    ``after_slice`` runs between slices, outside their timing."""
    segment = Segment()
    per_slice = max(1, len(tokens) // slices)
    for part in chunks(tokens, per_slice):
        due: Dict[int, float] = {}
        wl.expect(sum(len(token.expect) for token in part))
        start = now()
        bad = sum(
            send_burst(wl, group, due, segment, outcome, tracer)
            for group in chunks(part, wl.burst)
        )
        segment.add_slice(len(part), now() - start)
        settle(wl, part, bad, due, outcome, segment)
        if after_slice is not None:
            after_slice()
    return segment


def run_paced(wl: RemoteFanout, tokens: Sequence[Token],
              outcome: Outcome) -> Tuple[List[float], List[float]]:
    """Open loop at ``wl.paced_rate``: each send is timed from when it was
    due, so a stall delays later tokens' clocks too.  Returns (notification
    latencies ms, generator lateness ms)."""
    interval = 1.0 / wl.paced_rate
    wl.expect(sum(len(token.expect) for token in tokens))
    start = now() + 0.05
    due: Dict[int, float] = {}
    late: List[float] = []
    bad = 0
    for i, token in enumerate(tokens):
        when = start + i * interval
        wait = when - now()
        if wait > 0:
            time.sleep(wait)
        late.append((now() - when) * 1e3)
        due[token.seq] = when
        try:
            wl.ingest(token)
        except Exception as exc:
            bad += 1
            outcome.note(f"paced ingest of seq {token.seq}: {exc!r}")
    if not wl.drain():
        bad = len(tokens)
        outcome.note("paced notifications did not arrive in time")
    segment = Segment()
    settle(wl, tokens, bad, due, outcome, segment)
    return segment.latencies_ms, late


def index_size(tman) -> Tuple[int, int]:
    return tman.index.signature_count(), tman.index.entry_count()


def timed_ddl(outcome: Outcome, tracer: Optional[Tracer], phase: str,
              fn: Callable[[str], object], arg: str) -> float:
    """One ``create_trigger(text)`` / ``drop_trigger(name)``; milliseconds."""
    outcome.attempted += 1
    with root_span(tracer, phase):
        start = now()
        try:
            fn(arg)
        except Exception as exc:
            outcome.fail(1, f"{phase} {arg[:60]!r}: {exc!r}")
        return (now() - start) * 1e3


class Churn:
    """State of the trigger_churn cycle across warm-up and timed run: the
    FIFO of live churn triggers and the DDL timing samples."""

    def __init__(self, wl: TriggerChurn, outcome: Outcome):
        self.wl = wl
        self.outcome = outcome
        self.live: deque = deque()
        self.create_ms: List[float] = []
        self.drop_ms: List[float] = []
        self.made = 0
        # the FIFO starts full, so the population is at its steady size from
        # the first cycle on
        for _ in range(wl.reserve):
            trigger = wl.fresh_trigger(self.made)
            self.made += 1
            wl.tman.create_trigger(trigger.text)
            self.live.append(trigger)
        self.steady = index_size(wl.tman)

    def run(self, tokens: Sequence[Token], slices: int,
            tracer: Optional[Tracer] = None) -> Segment:
        """Cycles of create x8, one burst, drop x8 oldest.  ``tokens_per_s``
        counts the bursts' time only; DDL is timed per statement."""
        wl, outcome, live = self.wl, self.outcome, self.live
        tman, pop = wl.tman, wl.population
        segment = Segment()
        cycles = list(chunks(tokens, wl.burst))
        for part in chunks(cycles, max(1, len(cycles) // slices)):
            sent: List[Token] = []
            due: Dict[int, float] = {}
            busy = 0.0
            bad = 0
            for group in part:
                # aim this cycle's new triggers at users of the coming burst
                for k in range(wl.per_cycle):
                    rank = pop.rank_of[group[2 * k % len(group)].new["eno"]]
                    trigger = pop.churn_trigger(self.made, rank)
                    self.made += 1
                    self.create_ms.append(timed_ddl(
                        outcome, tracer, "create", tman.create_trigger,
                        trigger.text,
                    ))
                    live.append(trigger)
                # the oracle for live churn triggers is brute force
                group = [
                    token._replace(expect=token.expect + tuple(
                        t.name for t in live
                        if t.source == token.source
                        and t.matches(token.op, token.new)
                    ))
                    for token in group
                ]
                start = now()
                bad += send_burst(wl, group, due, segment, outcome, tracer)
                busy += now() - start
                sent.extend(group)
                for _ in range(wl.per_cycle):
                    self.drop_ms.append(timed_ddl(
                        outcome, tracer, "drop", tman.drop_trigger,
                        live.popleft().name,
                    ))
            segment.add_slice(len(sent), busy)
            settle(wl, sent, bad, due, outcome, segment)
        return segment

    def check_steady(self) -> None:
        size = index_size(self.wl.tman)
        if size != self.steady:
            self.outcome.fail(
                len(self.create_ms) + len(self.drop_ms),
                f"index did not return to its steady size after the churn: "
                f"{self.steady} -> {size}",
            )


class DdlProbe:
    """``create_trigger`` / ``drop_trigger`` against the live population, a
    few statements after every slice so the samples span the whole run (one
    short window would take on whatever the machine was doing just then)."""

    def __init__(self, wl: Workload, outcome: Outcome, per_slice: int,
                 tracer: Optional[Tracer] = None):
        self.wl = wl
        self.outcome = outcome
        self.per_slice = per_slice
        self.tracer = tracer
        self.create_ms: List[float] = []
        self.drop_ms: List[float] = []
        self.size_before = index_size(wl.tman)

    def __call__(self) -> None:
        wl, tman = self.wl, self.wl.tman
        made = len(self.create_ms)
        fresh = [wl.fresh_trigger(made + k) for k in range(self.per_slice)]
        for trigger in fresh:
            self.create_ms.append(timed_ddl(
                self.outcome, self.tracer, "create", tman.create_trigger,
                trigger.text,
            ))
        for trigger in fresh:
            self.drop_ms.append(timed_ddl(
                self.outcome, self.tracer, "drop", tman.drop_trigger,
                trigger.name,
            ))

    def check_size(self) -> None:
        """The index must be back at the size it had."""
        size = index_size(self.wl.tman)
        if size != self.size_before:
            self.outcome.fail(
                2 * len(self.create_ms),
                f"index did not return to its size after DDL: "
                f"{self.size_before} -> {size}",
            )


def counters(wl: Workload) -> Dict[str, float]:
    """The engine's own public counters, read before and after a segment."""
    tman = wl.tman
    index, cache = tman.index.stats, tman.cache.stats
    out = {
        "index.tokens": index.tokens,
        "index.groups": index.groups_probed,
        "index.entries": index.entries_probed,
        "index.residual": index.residual_tests,
        "index.matches": index.matches,
        "cache.hits": cache.hits,
        "cache.misses": cache.misses,
        "cache.evictions": cache.evictions,
        "fired": tman.stats.triggers_fired,
        "tokens": tman.stats.tokens_processed,
        "tasks": tman.tasks.enqueued,
        "delivered": tman.events.delivered_count,
        "action_failures": len(tman.actions.failures),
        "page_writes": tman.catalog_db.pool.stats.writebacks,
        "wal.appends": 0, "wal.fsyncs": 0, "wal.bytes": 0,
        "net.in": 0, "net.out": 0, "net.dropped": 0,
    }
    if tman.wal is not None:
        out["wal.appends"] = tman.wal.appends
        out["wal.fsyncs"] = tman.wal.fsyncs
        out["wal.bytes"] = tman.wal.bytes_appended
    server = tman.server
    if server is not None:
        status = server.status()
        out["net.in"] = status["bytes_in"]
        out["net.out"] = status["bytes_out"]
        out["net.dropped"] = status["notifications_dropped"]
    return out


def memory_entries(tman) -> int:
    """Rows held in materialized network memories (0 while A-TREAT's alpha
    memories are virtual)."""
    total = 0
    seen = set()
    for bucket in tman.runtimes.materialized.values():
        for trigger_id, _tvar in bucket:
            if trigger_id in seen:
                continue
            seen.add(trigger_id)
            runtime = tman.cache.pin(trigger_id)
            try:
                total += sum(
                    size or 0 for size in runtime.network.memory_sizes().values()
                )
            finally:
                tman.cache.unpin(trigger_id)
    return total


def codec_us_per_frame(tokens: Sequence[Token]) -> float:
    """``encode_frame`` + ``FrameDecoder.feed`` over this workload's own
    ingest frames, timed standalone."""
    from repro.net import protocol

    requests = [
        protocol.request(i + 1, "ingest", source=t.source,
                         operation=t.op, new=t.new)
        for i, t in enumerate(tokens[:1000])
    ]
    start = now()
    frames = [protocol.encode_frame(request) for request in requests]
    decoder = protocol.FrameDecoder()
    decoded = 0
    for frame in frames:
        decoded += len(decoder.feed(frame))
    elapsed = now() - start
    if decoded != len(frames):
        raise RuntimeError("codec round trip lost frames")
    return elapsed / len(frames) * 1e6


def probe_after_reopen(wl: Workload, outcome: Outcome, seq: int) -> None:
    """One token through the reopened engine to its notification."""
    token = wl.probe_token(seq)
    outcome.attempted += 1
    wl.expect(len(token.expect))
    try:
        wl.ingest(token)
        arrived = wl.drain()
    except Exception as exc:
        outcome.fail(1, f"probe after reopen: {exc!r}")
        return
    received = sorted((name, s) for name, s, _t in wl.got)
    wl.got.clear()
    if not arrived or received != sorted((n, token.seq) for n in token.expect):
        outcome.fail(1, f"probe after reopen fired {received}, "
                        f"oracle says {sorted(token.expect)}")


def teardown(wl: Workload, outcome: Outcome) -> float:
    outcome.attempted += 1
    finished, seconds = bounded(wl.close)
    if not finished:
        outcome.fail(1, f"close() failed or exceeded {TEARDOWN_TIMEOUT:.0f} s")
    return seconds


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, out_dir: Optional[str] = None,
                 corrupt_oracle: bool = False) -> dict:
    """Run one workload in this process; returns the result record.

    ``corrupt_oracle`` (self-check only) drops one expected firing so the
    comparison must fail."""
    out_dir = out_dir or os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[name](seed, seconds, scale, out_dir)
    n_timed = wl.timed_tokens()
    n_warm = wl.warmup_tokens(n_timed)
    if trace:
        # an untraced reference and a traced segment, a quarter of the run each
        n_timed = wl.traced_tokens(n_timed)
    n_segments = 2 if trace else 1
    n_paced = wl.paced_tokens()
    tokens = wl.generate(n_warm + n_segments * n_timed + n_paced)
    if corrupt_oracle:
        victim = next(i for i, t in enumerate(tokens[n_warm:], n_warm) if t.expect)
        tokens[victim] = tokens[victim]._replace(expect=tokens[victim].expect[1:])
    wl.sizes.update(timed_tokens=n_timed, warmup_tokens=n_warm,
                    burst=min(wl.burst, n_timed), paced_tokens=n_paced)
    run = Run(wl, tokens, n_warm, n_timed, n_paced)
    affinity = os.sched_getaffinity(0)
    try:
        if wl.one_cpu:
            os.sched_setaffinity(0, {min(affinity)})
        run.prepare()
        if trace:
            run.measure_layers()
        else:
            run.measure_end_to_end()
    finally:
        os.sched_setaffinity(0, affinity)
        wl.cleanup()
    outcome = run.outcome
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "trace": int(trace),
        "sizes": wl.sizes,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": schema.UNITS[key]}
            for key, value in run.metrics.items()
        },
        "samples": run.samples,
        "notes": outcome.notes,
        **run.record,
    }


class Run:
    """One workload process: build, warm up, then either the end-to-end
    measurement or the traced one."""

    def __init__(self, wl: Workload, tokens: List[Token], n_warm: int,
                 n_timed: int, n_paced: int):
        self.wl = wl
        self.outcome = Outcome()
        self.warm = tokens[:n_warm]
        self.timed = tokens[n_warm:n_warm + n_timed]
        self.second = tokens[n_warm + n_timed:len(tokens) - n_paced]
        self.paced = tokens[len(tokens) - n_paced:]
        self.next_seq = tokens[-1].seq + 1
        self.setups: List[float] = []
        self.churn: Optional[Churn] = None
        self.metrics: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.record: Dict[str, object] = {}

    def send(self, tokens: Sequence[Token], slices: int,
             tracer: Optional[Tracer] = None,
             probe: Optional[DdlProbe] = None) -> Segment:
        if self.churn is not None:
            return self.churn.run(tokens, slices, tracer)
        return run_tokens(self.wl, tokens, self.outcome, slices, tracer, probe)

    def ddl_probe(self, per_slice: int,
                  tracer: Optional[Tracer] = None) -> Optional[DdlProbe]:
        """trigger_churn's cycle is its own DDL load; the others get a probe."""
        if self.churn is not None:
            return None
        return DdlProbe(self.wl, self.outcome,
                        max(1, self.wl.scaled(per_slice)), tracer)

    def prepare(self) -> None:
        wl, outcome = self.wl, self.outcome
        start = now()
        wl.build()
        self.setups.append(now() - start)
        wl.subscribe()
        if isinstance(wl, TriggerChurn):
            self.churn = Churn(wl, outcome)
        # warm-up: caches fill, lazy runtimes build, compiled matchers settle
        self.send(self.warm, 1)
        if outcome.failed == 0:
            outcome.attempted = 0  # a clean warm-up is not counted
        if self.churn is not None:
            self.churn.create_ms.clear()
            self.churn.drop_ms.clear()

    # -- tracing off: the end-to-end metrics --------------------------------

    def measure_end_to_end(self) -> None:
        wl, outcome, metrics = self.wl, self.outcome, self.metrics
        probe = self.ddl_probe(per_slice=6)
        run = self.send(self.timed, schema.SLICES, probe=probe)
        latencies = run.latencies_ms
        if self.paced:
            latencies, _late = run_paced(wl, self.paced, outcome)
        if probe is None:
            create_ms, drop_ms = self.churn.create_ms, self.churn.drop_ms
            self.churn.check_steady()
        else:
            create_ms, drop_ms = probe.create_ms, probe.drop_ms
            probe.check_size()
        action_failures = len(wl.tman.actions.failures)
        if action_failures:
            outcome.fail(action_failures, f"{action_failures} trigger actions failed")
        metrics["tokens_per_s"] = schema.median(run.rates)
        metrics["notify_ms_p50"] = schema.median(latencies)
        metrics["create_ms_p50"] = schema.median(create_ms)
        metrics["drop_ms_p50"] = schema.median(drop_ms)
        # high-water mark of the one engine the tokens ran through, read
        # before the repeated set-ups below can raise it
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        self.samples.update({
            "tokens_per_s": len(run.rates),
            "notify_ms_p50": len(latencies),
            "create_ms_p50": len(create_ms),
            "drop_ms_p50": len(drop_ms),
        })
        self.record["run_s"] = run.wall
        self.record["teardown_s"] = teardown(wl, outcome)
        self.reopen_and_repeat_setups()

    def reopen_and_repeat_setups(self) -> None:
        """A clean close() happened; get the same engine back and see one
        token through.  Nothing of an in-memory engine survives close(), so
        there the DDL script runs again — which is also a set-up sample.
        Cheap reopens and set-ups are repeated so their medians are steadier."""
        wl, outcome, setups = self.wl, self.outcome, self.setups
        reopens: List[float] = []
        while not reopens or (
            len(reopens) < REPEAT_SAMPLES and sum(reopens) < REPEAT_BUDGET_S
        ):
            start = now()
            was_setup = wl.rebuild()
            rebuilt = now() - start
            wl.subscribe()
            probe_after_reopen(wl, outcome, self.next_seq + len(reopens))
            reopens.append(now() - start)
            teardown(wl, outcome)
            if was_setup:
                setups.append(rebuilt)
        while len(setups) < 2 or (
            len(setups) < REPEAT_SAMPLES and sum(setups) < REPEAT_BUDGET_S
        ):
            start = now()
            wl.build()
            setups.append(now() - start)
            teardown(wl, outcome)
        self.metrics["reopen_s"] = schema.median(reopens)
        self.metrics["setup_s"] = schema.median(setups)
        self.samples.update(reopen_s=len(reopens), setup_s=len(setups))

    # -- tracing on: the per-layer metrics ----------------------------------

    def measure_layers(self) -> None:
        wl, outcome, metrics = self.wl, self.outcome, self.metrics
        reference = self.send(self.timed, schema.SLICES)
        paced_lat: List[float] = []
        paced_late: List[float] = []
        if self.paced:
            paced_lat, paced_late = run_paced(wl, self.paced, outcome)
        tracer = Tracer(
            clock=time.thread_time_ns if wl.thread_layers
            else time.perf_counter_ns
        )
        layers.install(tracer, wl.tman)
        if wl.tman.server is not None:
            layers.install_net(tracer)
        wl.sink = tracer.wrap_fn(
            wl.on_notification, "bench.subscriber", "bench.subscriber.callback"
        )
        churn = self.churn
        ddl_before = len(churn.create_ms) if churn else 0
        before = counters(wl)
        cpu_before = thread_cpu_ns() if wl.thread_layers else {}
        probe = self.ddl_probe(per_slice=3, tracer=tracer)
        try:
            traced = self.send(self.second, schema.SLICES, tracer)
            total_ns = sum(tracer.root_ns) if churn else tracer.root_ns[0]
            total_ns += charge_threads(wl, tracer, cpu_before)
            after = counters(wl)
            if probe is None:
                creates = len(churn.create_ms) - ddl_before
            else:
                # after the counters are read, so the per-token counts stay
                # exact; only DDL span timings come from these statements
                for _ in range(schema.SLICES):
                    probe()
                creates = len(probe.create_ms)
                probe.check_size()
        finally:
            tracer.uninstall()
            wl.sink = wl.on_notification
        layer_metrics(
            metrics, tracer, traced, reference, before, after, total_ns,
            creates, 2 * creates if churn else 0,
        )
        metrics["network.memory_entries"] = memory_entries(wl.tman)
        if wl.tman.server is not None:
            metrics["net.rtt_us_p50"] = schema.median(reference.rtts_us)
            metrics["net.codec_us_per_frame"] = codec_us_per_frame(self.timed)
            metrics["net.notify_ms_p99"] = schema.percentile(paced_lat, 0.99)
            metrics["net.generator_late_ms_p99"] = schema.percentile(paced_late, 0.99)
            self.samples["net.notify_ms_p99"] = len(paced_lat)
        trace_path = os.path.join(wl.out_dir, f"trace_{wl.name}.json")
        tracer.dump(trace_path, {
            "workload": wl.name, "seed": wl.seed,
            "clock": "thread_cpu_ns" if wl.thread_layers else "wall_ns",
            "traced_total_ns": total_ns, "traced_tokens": traced.tokens,
        })
        self.record["trace_file"] = trace_path
        self.samples.update(traced_tokens=traced.tokens, spans=tracer.spans_total)
        self.record["teardown_s"] = teardown(wl, outcome)


def charge_threads(wl: Workload, tracer: Tracer,
                   before: Dict[int, Tuple[str, int]]) -> int:
    """CPU-clock traces: charge what each engine thread burned outside its
    spans to the layer that owns it; returns those threads' total CPU."""
    if not wl.thread_layers:
        return 0
    total = 0
    me = threading.get_ident()
    for ident, (name, after) in thread_cpu_ns().items():
        if ident == me or ident not in before:
            continue
        burned = after - before[ident][1]
        total += burned
        for prefix, layer in wl.thread_layers:
            if name.startswith(prefix):
                tracer.charge(
                    f"{layer}.thread_loop", layer,
                    burned - tracer.top_ns.get(ident, 0),
                )
    return total


def layer_metrics(metrics: Dict[str, float], tracer: Tracer,
                  traced: Segment, reference: Segment,
                  before: Dict[str, float], after: Dict[str, float],
                  total_ns: int, creates: int, churn_ops: int) -> None:
    """Per-layer numbers from the spans and the counter deltas."""
    delta = {key: after[key] - before[key] for key in after}
    tokens = max(1, traced.tokens)
    # trigger_churn normalizes by DDL operation and counts every phase;
    # everywhere else the token phase is the run and DDL is the probe
    per = churn_ops or tokens
    phase = None if churn_ops else "token"
    total_ns = max(1, total_ns)
    attributed = 0
    for layer in layers.LAYERS:
        self_ns = tracer.layer_total(layer, "self", phase)
        attributed += self_ns
        metrics[f"{layer}.self_us_per_token"] = self_ns / per / 1e3
        metrics[f"{layer}.share"] = self_ns / total_ns
        metrics[f"{layer}.calls_per_token"] = (
            tracer.layer_total(layer, "calls", phase) / per
        )
    metrics["bench.unattributed_share"] = 1.0 - attributed / total_ns
    metrics["bench.trace_overhead_ratio"] = (
        (traced.wall / tokens) / (reference.wall / max(1, reference.tokens))
    )
    metrics["bench.slice_rate_p10"] = schema.percentile(reference.rates, 0.10)

    creates = max(1, creates)
    activations = tracer.name_total("network.activate", "calls", phase)
    lookups = delta["cache.hits"] + delta["cache.misses"]
    metrics.update({
        "engine.queue.depth_max": traced.depth_max,
        "engine.pipeline.tasks_per_token": delta["tasks"] / tokens,
        "engine.tasks.tasks_per_token": delta["tasks"] / tokens,
        "predindex.groups_probed_per_token": delta["index.groups"] / tokens,
        "predindex.entries_probed_per_token": delta["index.entries"] / tokens,
        "predindex.residual_tests_per_token": delta["index.residual"] / tokens,
        "predindex.match_yield": (
            delta["index.matches"] / delta["index.entries"]
            if delta["index.entries"] else 0.0
        ),
        "predindex.add_us_per_create": (
            tracer.name_total("predindex.add_predicate", "incl", "create")
            + tracer.name_total("predindex.register_signature", "incl", "create")
        ) / creates / 1e3,
        "predindex.remove_us_per_drop":
            tracer.name_total("predindex.remove_trigger", "incl", "drop")
            / creates / 1e3,
        "engine.cache.hit_ratio": delta["cache.hits"] / lookups if lookups else 0.0,
        "engine.cache.loads_per_token": delta["cache.misses"] / tokens,
        "engine.cache.evictions_per_token": delta["cache.evictions"] / tokens,
        "engine.runtime.load_us_per_miss": (
            tracer.name_total("engine.runtime.load_runtime", "incl", "token")
            / delta["cache.misses"] / 1e3 if delta["cache.misses"] else 0.0
        ),
        "engine.catalog.us_per_create":
            tracer.layer_total("engine.catalog", "incl", "create") / creates / 1e3,
        "network.incl_share": (
            tracer.name_total("network.activate", "incl", phase)
            + tracer.name_total("network.retract", "incl", phase)
        ) / total_ns,
        "network.activations_per_token": activations / tokens,
        "network.bindings_per_activation": (
            tracer.item_count("network.activate") / activations
            if activations else 0.0
        ),
        "network.retracts_per_token":
            tracer.name_total("network.retract", "calls", phase) / tokens,
        "network.rows_scanned_per_activation": (
            tracer.item_count("sql.rows") / activations if activations else 0.0
        ),
        "engine.firing.firings_per_token": delta["fired"] / tokens,
        "engine.actions.failures": delta["action_failures"],
        "engine.events.notifications_per_token": delta["delivered"] / tokens,
        "wal.records_per_token": delta["wal.appends"] / tokens,
        "wal.bytes_per_token": delta["wal.bytes"] / tokens,
        "wal.fsyncs_per_token": delta["wal.fsyncs"] / tokens,
        "wal.flush_us_per_token": (
            tracer.name_total("wal.storage_append", "incl", phase)
            + tracer.name_total("wal.storage_sync", "incl", phase)
        ) / tokens / 1e3,
        "sql.page_writes_per_token": delta["page_writes"] / tokens,
        "net.rtt_us_p50": 0.0,
        "net.bytes_in_per_token": delta["net.in"] / tokens,
        "net.bytes_out_per_token": delta["net.out"] / tokens,
        "net.codec_us_per_frame": 0.0,
        "net.notify_ms_p99": 0.0,
        "net.generator_late_ms_p99": 0.0,
        "net.notifications_dropped": delta["net.dropped"],
        "lang.parse_us_per_create":
            tracer.name_total("lang.parse_command", "incl", "create")
            / creates / 1e3,
    })
