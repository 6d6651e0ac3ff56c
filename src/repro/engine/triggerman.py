"""The TriggerMan facade: the asynchronous trigger processor of the paper,
wired together from four layered components —

* :class:`repro.engine.pipeline.TokenPipeline` — capture → update queue →
  task conversion (and the single task-submission funnel);
* :class:`repro.engine.matcher.MatchExecutor` — index probe, cache pin,
  network activation, memory maintenance (§5.4);
* :class:`repro.engine.firing.FiringEngine` — action dispatch plus the
  WAL-backed exactly-once token ledger;
* :class:`repro.engine.runtime.RuntimeManager` — trigger lifecycle over
  catalog, cache, and predicate index (§5.1).

Typical use::

    tman = TriggerMan.in_memory()
    tman.define_table("emp", [("name", "varchar(40)"), ("salary", "float")])
    tman.execute_command(
        "create trigger bigSalary from emp on insert "
        "when emp.salary > 80000 do raise event BigSalary(emp.name)"
    )
    tman.insert("emp", {"name": "Ada", "salary": 120000.0})
    tman.process_all()

Processing is asynchronous (§3): table mutations are captured into the
update-descriptor queue; ``process_all()`` / ``tman_test()`` consume the
queue, match tokens through the predicate index (§5.4), pin matched
triggers in the cache, run their A-TREAT networks, and execute fired
actions as tasks.  There is no big engine lock: any number of real driver
threads (see :class:`repro.engine.drivers.DriverPool`) may call
``tman_test()`` concurrently — each layer carries its own fine-grained
locking, ordered by the hierarchy documented in :mod:`repro.engine.locks`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from ..condition.windows import WindowStateStore
from ..errors import CatalogError, TriggerError
from ..obs import Observability
from ..obs.views import register_engine_views
from ..lang import ast
from ..lang.evaluator import Evaluator
from ..lang.parser import parse_command
from .ingest import IngestionMixin
from ..predindex.costmodel import DEFAULT_LIMITS, Limits
from ..predindex.index import PredicateIndex
from ..sql.database import Database
from .actions import ActionExecutor
from .cache import TriggerCache
from .catalog import TriggerManCatalog
from .datasource import Connection, DataSourceRegistry
from .descriptors import UpdateDescriptor
from .events import EventManager
from .firing import EngineStats, FiringEngine
from .firing import firing_digest as _firing_digest  # compat re-export
from .matcher import MatchExecutor
from .pipeline import TokenPipeline
from .queue import MemoryQueue, TableQueue, UpdateQueue
from .runtime import RuntimeManager
from .tasks import DEFAULT_THRESHOLD, TaskQueue, tman_test
from .trigger import TriggerRuntime

__all__ = ["EngineStats", "TriggerMan", "_firing_digest"]


class TriggerMan(IngestionMixin):
    """The trigger processor (a facade over the four engine layers)."""

    def __init__(
        self,
        catalog_db: Optional[Database] = None,
        default_db: Optional[Database] = None,
        *,
        limits: Limits = DEFAULT_LIMITS,
        cache_capacity: int = 16384,
        cache_bytes: Optional[int] = None,
        durable_queue: bool = True,
        sync_on_enqueue: bool = False,
        evaluator: Optional[Evaluator] = None,
        obs: Optional[Observability] = None,
        observability: bool = False,
        batch_size: int = 1,
        compile_predicates: Optional[bool] = None,
        decompose_disjuncts: Optional[bool] = None,
    ):
        """``obs`` supplies a pre-built observability bundle (metrics
        registry + trace recorder); ``observability=True`` enables metrics
        timing on the instance's own bundle from the start.  Both default
        to off: an un-observed engine pays only boolean guard checks.

        ``batch_size`` groups that many dequeued tokens per PROCESS_BATCH
        task (1 keeps the single-token pipeline).  ``compile_predicates``
        toggles the signature-keyed predicate compilation cache; the
        default resolves from the ``TMAN_COMPILE`` environment variable
        (``off``/``0``/``false`` disables — the escape hatch) and is
        otherwise on.  ``decompose_disjuncts`` toggles tagged-execution
        disjunct decomposition at trigger install (``a = 1 OR b = 2``
        probes two index arms instead of residual-scanning its class);
        the default resolves the same way from ``TMAN_DECOMPOSE``."""
        self.catalog_db = catalog_db if catalog_db is not None else Database()
        default_db = default_db if default_db is not None else self.catalog_db
        self.connections: Dict[str, Connection] = {
            "default": Connection("default", default_db, is_default=True)
        }
        self.evaluator = evaluator or Evaluator()
        self.limits = limits
        self.obs = obs if obs is not None else Observability(
            enable_metrics=observability
        )
        self.catalog = TriggerManCatalog(self.catalog_db)
        self.registry = DataSourceRegistry()
        self.events = EventManager()
        self.events.attach_obs(self.obs)
        self.actions = ActionExecutor(default_db, self.events, self.evaluator)
        self.actions.attach_obs(self.obs)
        if compile_predicates is None:
            compile_predicates = (
                os.environ.get("TMAN_COMPILE", "on").lower()
                not in ("off", "0", "false")
            )
        self.compile_predicates = compile_predicates
        if decompose_disjuncts is None:
            decompose_disjuncts = (
                os.environ.get("TMAN_DECOMPOSE", "on").lower()
                not in ("off", "0", "false")
            )
        self.decompose_disjuncts = decompose_disjuncts
        self.batch_size = max(1, batch_size)
        self.index = PredicateIndex(
            self.evaluator, compile_predicates=compile_predicates
        )
        self.index.attach_obs(self.obs)
        self.queue: UpdateQueue = (
            TableQueue(self.catalog_db, sync_on_enqueue=sync_on_enqueue)
            if durable_queue
            else MemoryQueue()
        )
        #: exactly-once token processing is on when the catalog database
        #: keeps a WAL *and* tokens flow through the durable queue
        self.wal = self.catalog_db.wal
        self._durable_tokens = self.wal is not None and durable_queue
        self.queue.attach_obs(self.obs)
        self.tasks = TaskQueue()
        self.tasks.attach_obs(self.obs)
        # The loader closure is late-bound: the cache must exist before the
        # runtime manager that loads into it.
        self.cache = TriggerCache(
            lambda trigger_id: self.runtimes.load_runtime(trigger_id),
            capacity=cache_capacity,
            capacity_bytes=cache_bytes,
            size_of=lambda runtime: runtime.estimated_size(),
        )
        self.stats = EngineStats(self.obs.metrics)
        # Pre-bound stage histograms (observe() is a no-op while the
        # registry is disabled, so the hot path pays one attribute read).
        metrics = self.obs.metrics
        self._m_token_ns = metrics.histogram(
            "engine.token_ns", "one token through the full §5.4 path"
        )
        self._m_match_ns = metrics.histogram(
            "index.match_ns", "predicate-index probe per token"
        )
        self._m_pin_ns = metrics.histogram(
            "cache.pin_ns", "trigger cache pin (may include a catalog load)"
        )
        self._m_network_ns = metrics.histogram(
            "network.activate_ns", "discrimination network per matched entry"
        )
        self._m_task_ns = metrics.histogram(
            "task.run_ns", "one task queue unit of work"
        )
        # -- the four layers ----------------------------------------------
        self.runtimes = RuntimeManager(
            self.catalog,
            self.catalog_db,
            self.registry,
            self.index,
            self.cache,
            self.evaluator,
            self.limits,
            self.obs,
            decompose=decompose_disjuncts,
        )
        self.pipeline = TokenPipeline(
            self.queue, self.tasks, self.obs, self._m_task_ns,
            batch_size=self.batch_size,
        )
        self.firing = FiringEngine(
            self.wal,
            self._durable_tokens,
            self.stats,
            self.actions,
            self.pipeline.submit,
            self.queue,
        )
        #: sliding-window state for temporal (``window N seconds``) triggers,
        #: WAL-backed alongside the firing ledger
        self.windows = WindowStateStore(self.obs)
        self.windows.attach_wal(self.wal, self._durable_tokens)
        self.matcher = MatchExecutor(
            self.index,
            self.cache,
            self.evaluator,
            self.stats,
            self.firing,
            self.runtimes,
            self.obs,
            self._m_match_ns,
            self._m_pin_ns,
            self._m_network_ns,
            self.pipeline.submit,
            windows=self.windows,
        )
        self.pipeline.firing = self.firing
        self.pipeline.process = self.process_token
        self.pipeline.process_batch = self.process_batch
        self._driver_pool = None
        self._server = None
        self._sources = None
        register_engine_views(self)
        self.runtimes.restore(self._connection, self._capture)
        self.firing.recover_tokens(self.catalog_db.recovery)
        self.windows.restore(self.catalog_db.recovery, self._window_tracked_for)
        self.catalog_db.checkpoint_state_provider = self._checkpoint_state

    # -- constructors --------------------------------------------------------

    @classmethod
    def in_memory(cls, **kwargs) -> "TriggerMan":
        """A fully in-memory instance (volatile queue included)."""
        kwargs.setdefault("durable_queue", False)
        return cls(Database(), **kwargs)

    @classmethod
    def persistent(
        cls,
        path: str,
        *,
        wal: Any = "auto",
        wal_sync: str = "group",
        **kwargs,
    ) -> "TriggerMan":
        """An instance whose catalogs, queue, and tables live under
        ``path``.  A write-ahead log (``wal.log``) is kept by default:
        opening runs crash recovery, restarting replays the trigger catalog
        plus any tokens that were dequeued but not finished.  ``wal_sync``
        picks the durability mode (``off`` / ``group`` / ``always``);
        ``wal=False`` opts out of logging entirely."""
        return cls(Database(path, wal=wal, wal_sync=wal_sync), **kwargs)

    # -- trigger management (delegated to the runtime manager) ------------------

    def create_trigger(self, text: str) -> int:
        statement = parse_command(text)
        if not isinstance(statement, ast.CreateTriggerStatement):
            raise TriggerError("create_trigger expects a CREATE TRIGGER command")
        return self.create_trigger_statement(statement, text)

    def create_trigger_statement(
        self, statement: ast.CreateTriggerStatement, text: str
    ) -> int:
        return self.runtimes.create_trigger_statement(statement, text)

    def drop_trigger(self, name: str) -> int:
        trigger_id = self.runtimes.drop_trigger(name)
        self.windows.forget(name)
        return trigger_id

    def _window_tracked_for(self, name: str) -> Tuple[str, ...]:
        """Restore hook: a temporal trigger's incremental-plan columns
        (empty for dropped / non-temporal triggers)."""
        try:
            trigger_id = self.catalog.trigger_id(name)
            runtime = self.cache.pin(trigger_id)
            self.cache.unpin(trigger_id)
        except (CatalogError, TriggerError):
            return ()
        return runtime.window_tracked if runtime.window_spec else ()

    def _checkpoint_state(self) -> Dict[str, Any]:
        """Engine state carried by fuzzy checkpoints: the firing ledger's
        in-flight tokens plus the temporal window-state snapshot."""
        state = self.firing.checkpoint_state()
        if self._durable_tokens:
            state["windows"] = self.windows.snapshot()
        return state

    def set_trigger_enabled(self, name: str, enabled: bool) -> int:
        return self.runtimes.set_trigger_enabled(name, enabled)

    def set_trigger_set_enabled(self, name: str, enabled: bool) -> None:
        self.runtimes.set_trigger_set_enabled(name, enabled)

    def triggers(self) -> List[TriggerRuntime]:
        """Runtimes for every catalogued trigger (loads through the cache)."""
        return self.runtimes.triggers()

    # -- token processing (§5.4, delegated to the match executor) ---------------

    def process_token(self, descriptor: UpdateDescriptor) -> int:
        """Match one token and enqueue its action tasks; returns the number
        of trigger firings produced.  Thread-safe: concurrent drivers
        process distinct tokens in parallel (the layers below carry the
        locking; there is no engine-wide mutex)."""
        obs = self.obs
        if obs.trace.enabled and descriptor.trace_id:
            with obs.trace.token(descriptor.trace_id):
                with self._m_token_ns.time():
                    return self.matcher.process_token(descriptor)
        with self._m_token_ns.time():
            return self.matcher.process_token(descriptor)

    def process_batch(self, descriptors: List[UpdateDescriptor]) -> int:
        """Match a batch of tokens (one firing group commit, one index probe
        pass per data source); returns the total firings produced.  See
        :meth:`repro.engine.matcher.MatchExecutor.match_batch`."""
        with self._m_token_ns.time():
            return self.matcher.match_batch(descriptors)

    def enqueue_condition_tasks(
        self, descriptor: UpdateDescriptor, partitions: int
    ) -> int:
        """§6 condition-level concurrency (task type 3); see
        :meth:`repro.engine.matcher.MatchExecutor.enqueue_condition_tasks`."""
        return self.matcher.enqueue_condition_tasks(descriptor, partitions)

    # -- the driver surface (§6) -------------------------------------------------

    def _refill_tasks(
        self, batch: int = 64, batch_size: Optional[int] = None
    ) -> bool:
        """Convert pending update descriptors into type-1 tasks.
        ``batch_size`` overrides the engine's batching knob per call."""
        return self.pipeline.refill_tasks(batch, batch_size)

    def _next_descriptor(self) -> Optional[UpdateDescriptor]:
        return self.pipeline.next_descriptor()

    def tman_test(self, threshold: float = DEFAULT_THRESHOLD) -> str:
        """One TmanTest() call: §6's driver entry point."""
        return tman_test(self.tasks, threshold, refill=self._refill_tasks)

    def start_drivers(self, n: Optional[int] = None, **kwargs):
        """Start a pool of N real driver threads (see
        :class:`repro.engine.drivers.DriverPool`); returns the pool."""
        from .drivers import DriverPool

        if self._driver_pool is not None and self._driver_pool.running:
            raise TriggerError("a driver pool is already running")
        pool = DriverPool(self, n, **kwargs)
        pool.attach_obs(self.obs)
        self._driver_pool = pool
        return pool.start()

    def stop_drivers(self, timeout: float = 5.0):
        """Stop the running driver pool (if any); returns it for inspection."""
        pool, self._driver_pool = self._driver_pool, None
        if pool is not None:
            pool.stop(timeout)
        return pool

    @property
    def driver_pool(self):
        return self._driver_pool

    # -- the network surface (§3's process boundary) ------------------------

    def serve(self, host: str = "127.0.0.1", port: int = 0,
              async_io: Optional[bool] = None, **kwargs):
        """Start a network server for this instance; returns the server
        (``server.address`` has the bound host/port).

        ``async_io=True`` selects the single-threaded event-loop front end
        (:class:`repro.net.aserver.AsyncTriggerManServer`, 10k+ concurrent
        connections); ``False`` the threaded one
        (:class:`repro.net.server.TriggerManServer`, two OS threads per
        connection).  ``None`` (default) consults the ``REPRO_NET_ASYNC``
        environment variable — set it to ``1`` to make every server in
        the process event-loop based without touching call sites — and
        falls back to the threaded front end.  The wire protocol and
        client surface are identical either way; remote clients connect
        with :class:`repro.net.remote.RemoteTriggerManClient` or
        :class:`repro.net.aremote.AsyncRemoteTriggerManClient`."""
        if self._server is not None and not self._server._stopped:
            raise TriggerError("a network server is already running")
        if async_io is None:
            import os

            async_io = os.environ.get("REPRO_NET_ASYNC", "") not in ("", "0")
        if async_io:
            from ..net.aserver import AsyncTriggerManServer

            self._server = AsyncTriggerManServer(self, host, port, **kwargs)
        else:
            from ..net.server import TriggerManServer

            self._server = TriggerManServer(self, host, port, **kwargs)
        return self._server.start()

    def stop_serving(self, drain_timeout: Optional[float] = None):
        """Quiesce and stop the network server (if any); returns it."""
        server, self._server = self._server, None
        if server is not None:
            server.stop(drain_timeout)
        return server

    @property
    def server(self):
        return self._server

    # -- the source-adapter surface ------------------------------------------

    @property
    def sources(self):
        """The :class:`repro.sources.registry.SourceRegistry` feeding this
        engine (created lazily; adapters push tokens onto the normal
        batched ingest path via ``push``)."""
        if self._sources is None:
            from ..sources.registry import SourceRegistry

            self._sources = SourceRegistry(self, obs=self.obs)
        return self._sources

    def process_all(self, max_tokens: Optional[int] = None) -> int:
        """Drain the update queue and the task queue on the calling thread;
        returns the number of tokens processed."""
        if (
            max_tokens is None
            and self.batch_size > 1
            and not self.obs.trace.enabled
        ):
            # Batched engines drain through the same refill path the
            # drivers use, so PROCESS_BATCH amortization is exercised even
            # on a single thread.
            before = self.stats.tokens_processed
            while self._refill_tasks():
                self._run_pending_tasks()
            self._run_pending_tasks()
            return self.stats.tokens_processed - before
        processed = 0
        while True:
            descriptor = self._next_descriptor()
            if descriptor is None:
                break
            if self.obs.trace.enabled:
                self.obs.trace.record_dequeue(descriptor)
            self.process_token(descriptor)
            processed += 1
            self._run_pending_tasks()
            if max_tokens is not None and processed >= max_tokens:
                break
        self._run_pending_tasks()
        return processed

    def _run_pending_tasks(self) -> None:
        while True:
            task = self.tasks.get()
            if task is None:
                return
            try:
                task.run()
            finally:
                self.tasks.mark_done()

    # -- events / callbacks -------------------------------------------------------------------

    def register_for_event(self, event_name: str, callback) -> int:
        return self.events.register(event_name, callback)

    def register_callback(self, name: str, fn) -> None:
        self.actions.register_callback(name, fn)

    # -- compatibility views over the layers ------------------------------------

    @property
    def _enabled(self) -> Dict[int, bool]:
        return self.runtimes.enabled

    @property
    def _permanent_pins(self) -> set:
        return self.runtimes.permanent_pins

    @property
    def _materialized(self) -> Dict[str, List[Tuple[int, str]]]:
        return self.runtimes.materialized

    def _is_enabled(self, trigger_id: int) -> bool:
        return self.runtimes.is_enabled(trigger_id)

    @property
    def _inflight(self) -> Dict[int, dict]:
        return self.firing.inflight

    @property
    def _replay(self):
        return self.firing.replay

    @property
    def _replay_skip(self):
        return self.firing.replay_skip

    @property
    def _stale_rows_purged(self) -> int:
        return self.firing.stale_rows_purged

    # -- checkpoint / lifecycle ---------------------------------------------------

    def checkpoint(self, compact: bool = True) -> Dict[str, int]:
        """Take a fuzzy checkpoint of the catalog database: flush dirty
        pages under the WAL rule, record the page-LSN table plus in-flight
        token state, then compact the log (console ``checkpoint``).
        Serialized against DDL; token flow proceeds (the checkpoint is
        fuzzy — in-flight tokens are carried in its state record)."""
        with self.runtimes.ddl_lock:
            return self.catalog_db.checkpoint(compact=compact)

    def flush(self) -> None:
        """Write all dirty pages (catalog + every connection) to disk."""
        self.catalog_db.flush()
        for connection in self.connections.values():
            connection.database.flush()

    def close(self) -> None:
        """Stop source adapters, the network server, and drivers, then
        flush and close every database this instance opened."""
        if self._sources is not None:
            self._sources.stop_all()
        self.stop_serving()
        self.stop_drivers()
        seen = {id(self.catalog_db)}
        self.catalog_db.close()
        for connection in self.connections.values():
            if id(connection.database) not in seen:
                seen.add(id(connection.database))
                connection.database.close()

    def __enter__(self) -> "TriggerMan":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------------------------------

    def metrics(self) -> Dict[str, Any]:
        return {
            "tokens_processed": self.stats.tokens_processed,
            "triggers_fired": self.stats.triggers_fired,
            "actions_executed": self.stats.actions_executed,
            "action_failures": len(self.actions.failures),
            "signatures": self.index.signature_count(),
            "predicate_entries": self.index.entry_count(),
            "cache_hits": self.cache.stats.hits,
            "cache_misses": self.cache.stats.misses,
            "cache_evictions": self.cache.stats.evictions,
            "cache_resident": len(self.cache),
            "queue_depth": len(self.queue),
        }

    def stats_snapshot(self) -> Dict[str, Any]:
        """Full registry snapshot: every callback-gauge view plus whatever
        counters/histograms timing has collected (see obs/metrics.py)."""
        return self.obs.metrics.snapshot()

    def explain(self, name: str) -> str:
        """EXPLAIN-style report for one trigger (see obs/explain.py)."""
        from ..obs.explain import explain_trigger

        return explain_trigger(self, name)

    def render_stats(self) -> str:
        """Human-readable registry snapshot (console ``stats`` command)."""
        from ..obs.explain import render_stats

        return render_stats(self)

    def set_tracing(self, enabled: bool) -> None:
        """Turn token tracing on or off (console ``trace on|off``)."""
        if enabled:
            self.obs.trace.enable()
        else:
            self.obs.trace.disable()
