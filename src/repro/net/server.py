"""The TriggerMan network server (§3's process boundary, made real).

Two front ends speak :mod:`repro.net.protocol` (``triggerman-wire-v1``)
over the same dispatch core:

* :class:`TriggerManServer` (this module) — the threaded front end: each
  accepted connection gets a reader thread (incremental frame decode,
  dispatch, enqueue responses) and a writer thread (drains a
  per-connection outbox).  Two OS threads per connection: simple, fine
  for tens of clients, fatal for thousands.
* :class:`repro.net.aserver.AsyncTriggerManServer` — the event-loop front
  end: one thread multiplexes every connection (DESIGN.md §8c).

:class:`ServerCore` holds everything the two share — the op table, error
mapping, admission control, quiesce rules, metrics, and subscriber
bookkeeping — so the wire behaviour is identical by construction.  Three
robustness properties are first-class in both:

* **bounded outboxes / slow-consumer policy** — event pushes to a consumer
  that is not reading are either dropped oldest-first (counted in
  ``net.notifications_dropped``) or get the connection closed
  (``slow_consumer="disconnect"``).  Responses are request-paced (one per
  outstanding request) and always enqueue, so a stalled *subscriber* never
  wedges command traffic and memory per connection stays bounded.
* **ingest admission control** — ``ingest`` requests are refused with the
  retryable ``E_BACKPRESSURE`` code while the engine's update queue is
  above ``ingest_high_water``; clients back off and resend
  (:class:`repro.net.remote.RemoteDataSourceProgram` does this
  automatically).
* **graceful quiesce** — ``stop()`` refuses new commands
  (``E_SHUTTING_DOWN``), stops accepting, drains outboxes up to
  ``drain_timeout`` seconds, then closes every connection and joins every
  thread.

An oversized declared frame length no longer costs the connection: the
header says exactly how long the refused body is, so the server answers
``E_PARSE`` immediately, discards that many bytes, and keeps serving the
re-synced stream (see :class:`repro.net.protocol.FrameDecoder`).

The server runs *inside* the trigger-processor process
(``TriggerMan.serve()``); remote clients and data-source programs live in
:mod:`repro.net.remote` and :mod:`repro.net.aremote`.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..errors import ReproError, TriggerError, WireError
from ..obs.metrics import NULL_TIMER
from . import protocol
from .protocol import (
    E_BACKPRESSURE,
    E_COMMAND,
    E_INTERNAL,
    E_PARSE,
    E_SHUTTING_DOWN,
    E_UNKNOWN_OP,
    E_WRONG_SHARD,
    MAX_FRAME,
    WIRE_SCHEMA,
)

#: ops still answered while the server is quiescing
_QUIESCE_SAFE_OPS = frozenset({"ping", "unregister_event"})

#: bytes pulled off a socket per read in the threaded front end
_RECV_SIZE = 64 * 1024


def jsonable(value: Any) -> Any:
    """Best-effort JSON coercion for engine return values (data-source
    objects, tuples from SQL rows, ...)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    return str(value)


def payload_id(payload: Optional[Dict[str, Any]]) -> int:
    if payload is None:
        return -1
    request_id = payload.get("id", -1)
    return request_id if isinstance(request_id, int) else -1


class ServerCore:
    """Everything both front ends share: configuration, metrics, the op
    table, dispatch + error mapping, admission control, quiesce state, and
    subscriber bookkeeping.

    A front end supplies connection objects exposing ``send(payload)``,
    ``push_event(wire, sub)``, ``flush(timeout)``, ``close()``,
    ``outbox_depth()``, a ``subscriptions`` dict, and ``conn_id``; the
    core never touches sockets or event loops directly.
    """

    #: front-end identifier surfaced in ``status()`` ("threaded" / "async")
    mode = "threaded"

    def __init__(
        self,
        tman,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        outbox_limit: int = 1024,
        slow_consumer: str = "drop",
        ingest_high_water: int = 10_000,
        max_frame: int = MAX_FRAME,
        drain_timeout: float = 5.0,
    ):
        if slow_consumer not in ("drop", "disconnect"):
            raise TriggerError(
                f"slow_consumer must be 'drop' or 'disconnect', "
                f"got {slow_consumer!r}"
            )
        self.tman = tman
        self.host = host
        self.port = port
        self.outbox_limit = outbox_limit
        self.slow_consumer = slow_consumer
        self.ingest_high_water = ingest_high_water
        self.max_frame = max_frame
        self.drain_timeout = drain_timeout
        #: cluster membership installed by ``cluster.hello`` (shard id,
        #: epoch, member addresses, and the shared consistent-hash ring)
        self.cluster: Optional[Dict[str, Any]] = None
        self._connections: Dict[int, Any] = {}
        self._conn_lock = threading.Lock()
        self._conn_ids = itertools.count(1)
        self._quiescing = False
        self._stopped = False
        self.started = False
        # Console access reuses one dispatcher (it is stateless).
        from ..engine.console import Console

        self._console = Console(tman)
        metrics = tman.obs.metrics
        self._m_connections_total = metrics.counter(
            "net.connections_total", "connections ever accepted", always=True
        )
        self._m_bytes_in = metrics.counter(
            "net.bytes_in", "request payload bytes received", always=True
        )
        self._m_bytes_out = metrics.counter(
            "net.bytes_out", "frame bytes written", always=True
        )
        self._m_rejected = metrics.counter(
            "net.ingest_rejected",
            "ingest requests refused by admission control", always=True,
        )
        self._m_dropped = metrics.counter(
            "net.notifications_dropped",
            "event pushes evicted by the slow-consumer policy", always=True,
        )
        self._m_slow_disconnects = metrics.counter(
            "net.slow_consumer_disconnects",
            "connections closed by slow_consumer='disconnect'", always=True,
        )
        metrics.gauge(
            "net.connections", "currently connected clients",
            callback=lambda: len(self._connections),
        )
        self._metrics = metrics

    # -- addresses ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound address.  ``start()`` rewrites an ephemeral port
        request (port 0) to the port the kernel actually assigned, so
        after ``start()`` this is always the real listening address —
        workers can be spawned on port 0 without port races."""
        return (self.host, self.port)

    @property
    def connect_address(self) -> Tuple[str, int]:
        """A *connectable* form of :attr:`address`: a wildcard bind
        (``0.0.0.0`` / ``::`` / ``""``) is reported as loopback, since
        clients cannot ``connect()`` to the wildcard address."""
        host = self.host
        if host in ("", "0.0.0.0"):
            host = "127.0.0.1"
        elif host == "::":
            host = "::1"
        return (host, self.port)

    # -- shared lifecycle pieces --------------------------------------------

    def forget(self, connection) -> None:
        """Connection-teardown path: release server-side subscriber state."""
        self._release_subscriptions(connection)
        with self._conn_lock:
            self._connections.pop(connection.conn_id, None)

    def _release_subscriptions(self, connection) -> None:
        subscriptions, connection.subscriptions = (
            dict(connection.subscriptions), {}
        )
        for subscription in subscriptions:
            self.tman.events.unregister(subscription)

    def status(self) -> Dict[str, Any]:
        return {
            "address": list(self.address),
            "mode": self.mode,
            "connections": len(self._connections),
            "quiescing": self._quiescing,
            "bytes_in": self._m_bytes_in.value,
            "bytes_out": self._m_bytes_out.value,
            "ingest_rejected": self._m_rejected.value,
            "notifications_dropped": self._m_dropped.value,
            "slow_consumer_disconnects": self._m_slow_disconnects.value,
            "queue_depth": len(self.tman.queue),
            "ingest_high_water": self.ingest_high_water,
        }

    # -- counters (called from connection/driver threads) --------------------

    def count_bytes_in(self, nbytes: int) -> None:
        self._m_bytes_in.inc(nbytes)

    def count_bytes_out(self, nbytes: int) -> None:
        self._m_bytes_out.inc(nbytes)

    def count_dropped(self) -> None:
        self._m_dropped.inc()

    def count_slow_disconnect(self) -> None:
        self._m_slow_disconnects.inc()

    # -- dispatch -----------------------------------------------------------

    def handle(self, connection, payload: Dict[str, Any]) -> None:
        request_id = payload_id(payload)
        op = payload.get("op")
        if not isinstance(op, str):
            connection.send(
                protocol.error_response(
                    request_id, E_PARSE, "request frame has no 'op'"
                )
            )
            return
        if self._quiescing and op not in _QUIESCE_SAFE_OPS:
            connection.send(
                protocol.error_response(
                    request_id, E_SHUTTING_DOWN, "server is quiescing"
                )
            )
            return
        # Dotted op names (``cluster.hello``) map to underscore handlers.
        handler = getattr(self, "_op_" + op.replace(".", "_"), None)
        if handler is None:
            connection.send(
                protocol.error_response(
                    request_id, E_UNKNOWN_OP, f"unknown op {op!r}"
                )
            )
            return
        if self._metrics.enabled:
            timer = self._metrics.histogram(
                f"net.cmd.{op}_ns", f"server-side latency of {op!r}"
            ).time()
        else:
            timer = NULL_TIMER
        try:
            with timer:
                result = handler(connection, payload)
            connection.send(protocol.ok_response(request_id, jsonable(result)))
        except _Responded:
            pass  # the handler sent its own response (shutdown)
        except _Refused as refused:
            connection.send(
                protocol.error_response(
                    request_id, refused.code, str(refused),
                    retryable=refused.retryable, data=refused.data,
                )
            )
        except ReproError as exc:
            connection.send(
                protocol.error_response(request_id, E_COMMAND, str(exc))
            )
        except Exception as exc:  # noqa: BLE001 - isolate the connection
            connection.send(
                protocol.error_response(
                    request_id, E_INTERNAL, f"{type(exc).__name__}: {exc}"
                )
            )

    # -- ops ----------------------------------------------------------------

    def _op_ping(self, connection, payload):
        """Health check: protocol-version echo plus liveness detail.  The
        cluster coordinator's failure detector calls this periodically and
        reads the round-trip latency off the client connection."""
        result = {
            "schema": WIRE_SCHEMA,
            "version": WIRE_SCHEMA,
            "engine": "triggerman",
            "queue_depth": len(self.tman.queue),
            "quiescing": self._quiescing,
        }
        if self.cluster is not None:
            result["shard"] = self.cluster["shard"]
            result["epoch"] = self.cluster["epoch"]
        return result

    def _op_command(self, connection, payload):
        text = _require_str(payload, "text")
        self._check_shard_ownership(text)
        return self.tman.execute_command(text)

    def _check_shard_ownership(self, text: str) -> None:
        """In cluster mode, refuse trigger definitions this shard does not
        own (``E_WRONG_SHARD``, naming the owner) so a client holding a
        stale shard map redirects instead of mis-placing the trigger."""
        if self.cluster is None:
            return
        from ..cluster.routing import classify_command

        kind, key = classify_command(text)
        if kind != "trigger":
            return
        owner = self.cluster["ring"].owner(key)
        me = self.cluster["shard"]
        if owner != me:
            raise _Refused(
                E_WRONG_SHARD,
                f"key {key!r} is owned by shard {owner}, not shard {me} "
                f"(epoch {self.cluster['epoch']})",
                data={
                    "owner": owner,
                    "address": self.cluster["members"].get(str(owner)),
                    "epoch": self.cluster["epoch"],
                },
            )

    def _op_cluster_hello(self, connection, payload):
        """Install (or refresh) this worker's view of the cluster: its own
        shard id, the map epoch, every member's address, and the shared
        ring.  Stale epochs are refused so a laggard coordinator cannot
        roll back a newer map."""
        from ..cluster.ring import HashRing

        epoch = payload.get("epoch")
        shard = payload.get("shard")
        if not isinstance(epoch, int) or not isinstance(shard, int):
            raise _Refused(
                E_PARSE, "cluster.hello needs integer 'shard' and 'epoch'"
            )
        if self.cluster is not None and epoch < self.cluster["epoch"]:
            raise _Refused(
                E_COMMAND,
                f"stale epoch {epoch} < {self.cluster['epoch']}",
            )
        self.cluster = {
            "shard": shard,
            "epoch": epoch,
            "members": dict(payload.get("members") or {}),
            "ring": HashRing.from_wire(payload["ring"]),
        }
        return {"shard": shard, "epoch": epoch, "schema": WIRE_SCHEMA}

    def _op_sql(self, connection, payload):
        return self.tman.execute_sql(_require_str(payload, "text"))

    def _op_console(self, connection, payload):
        return self._console.execute(_require_str(payload, "text"))

    def _op_ingest(self, connection, payload):
        depth = len(self.tman.queue)
        if depth > self.ingest_high_water:
            self._m_rejected.inc()
            raise _Refused(
                E_BACKPRESSURE,
                f"update queue depth {depth} exceeds high water "
                f"{self.ingest_high_water}; retry after backoff",
                retryable=True,
            )
        self.tman.push(
            _require_str(payload, "source"),
            _require_str(payload, "operation"),
            new=payload.get("new"),
            old=payload.get("old"),
        )
        return {"queue_depth": depth + 1}

    def _op_process(self, connection, payload):
        return self.tman.process_all()

    def _op_metrics(self, connection, payload):
        return self.tman.metrics()

    def _op_stats(self, connection, payload):
        return self.tman.stats_snapshot()

    def _op_explain(self, connection, payload):
        return self.tman.explain(_require_str(payload, "name"))

    def _op_register_event(self, connection, payload):
        event_name = _require_str(payload, "event")
        holder: List[int] = []

        def sink(notification) -> None:
            if holder:
                connection.push_event(notification.to_wire(), holder[0])

        subscription = self.tman.events.register(event_name, sink)
        holder.append(subscription)
        connection.subscriptions[subscription] = event_name
        return subscription

    def _op_unregister_event(self, connection, payload):
        subscription = payload.get("sub")
        if not isinstance(subscription, int):
            raise _Refused(E_PARSE, "unregister_event needs an integer 'sub'")
        if subscription not in connection.subscriptions:
            return False
        del connection.subscriptions[subscription]
        return self.tman.events.unregister(subscription)

    def _op_shutdown(self, connection, payload):
        # Respond and flush first — once stop() starts, this connection can
        # be torn down at any moment — then quiesce off-thread (stop()
        # joins the connection-serving threads; doing it inline would
        # deadlock on our own).
        connection.send(
            protocol.ok_response(payload_id(payload), "quiescing")
        )
        connection.flush(1.0)
        threading.Thread(
            target=self.stop, name="tman-net-shutdown", daemon=True
        ).start()
        raise _Responded

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        raise NotImplementedError


class _Connection:
    """One accepted client: reader + writer threads and a bounded outbox."""

    def __init__(self, server: "TriggerManServer", sock: socket.socket,
                 address: Tuple[str, int], conn_id: int):
        self.server = server
        self.sock = sock
        self.address = address
        self.conn_id = conn_id
        self._outbox: Deque[bytes] = deque()
        self._events_queued = 0  # event frames currently in the outbox
        self._writing = False  # writer holds popped frames not yet sent
        self._lock = threading.Lock()
        self._writable = threading.Condition(self._lock)
        self.closed = False
        self.dropped = 0
        #: subscription id -> event name (for disconnect cleanup)
        self.subscriptions: Dict[int, str] = {}
        self.reader = threading.Thread(
            target=self._read_loop, name=f"tman-net-read-{conn_id}",
            daemon=True,
        )
        self.writer = threading.Thread(
            target=self._write_loop, name=f"tman-net-write-{conn_id}",
            daemon=True,
        )

    def start(self) -> None:
        self.writer.start()
        self.reader.start()

    # -- outbox -------------------------------------------------------------

    def send(self, payload: Dict[str, Any]) -> None:
        """Enqueue a response frame (never dropped; request-paced)."""
        frame = protocol.encode_frame(payload, self.server.max_frame)
        with self._writable:
            if self.closed:
                return
            self._outbox.append(frame)
            self._writable.notify()

    def push_event(self, notification_wire: Dict[str, Any], sub: int) -> None:
        """Enqueue an event push, applying the slow-consumer policy.

        Never blocks: this runs on whatever driver thread raised the event.
        """
        frame = protocol.encode_frame(
            protocol.event_frame(notification_wire, sub),
            self.server.max_frame,
        )
        disconnect = False
        with self._writable:
            if self.closed:
                return
            if self._events_queued >= self.server.outbox_limit:
                if self.server.slow_consumer == "disconnect":
                    disconnect = True
                else:
                    # Drop the oldest queued *event* frame; responses are
                    # never evicted.
                    for index, queued in enumerate(self._outbox):
                        if queued[protocol.HEADER_SIZE:].startswith(
                            b'{"event"'
                        ):
                            del self._outbox[index]
                            break
                    self._events_queued -= 1
                    self.dropped += 1
                    self.server.count_dropped()
            if not disconnect:
                self._outbox.append(frame)
                self._events_queued += 1
                self._writable.notify()
        if disconnect:
            self.server.count_slow_disconnect()
            self.close()

    def outbox_depth(self) -> int:
        with self._lock:
            return len(self._outbox)

    def flush(self, timeout: float = 0.5) -> None:
        """Best-effort wait for the writer to drain the outbox (used before
        closing a connection that was just sent an error frame)."""
        deadline = time.monotonic() + timeout
        with self._writable:
            while (self._outbox or self._writing) and not self.closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._writable.wait(remaining)

    # -- threads ------------------------------------------------------------

    def _read_loop(self) -> None:
        decoder = protocol.FrameDecoder(self.server.max_frame)
        try:
            while not self.closed:
                data = self.sock.recv(_RECV_SIZE)
                if not data:
                    decoder.eof()  # raises WireError mid-frame
                    break
                self.server.count_bytes_in(len(data))
                for item in decoder.feed(data):
                    if isinstance(item, protocol.OversizedFrame):
                        # Recoverable: answer now, the decoder discards the
                        # declared body and resyncs the stream.
                        self.send(
                            protocol.error_response(
                                -1, E_PARSE,
                                f"declared frame length {item.length} "
                                f"exceeds max_frame={self.server.max_frame}",
                            )
                        )
                    else:
                        self.server.handle(self, item)
        except WireError as exc:
            # Framing is lost after a malformed frame or a mid-frame
            # disconnect: report best-effort, then drop the connection.
            try:
                self.send(
                    protocol.error_response(payload_id(None), E_PARSE,
                                            str(exc))
                )
                self.flush()
            except Exception:  # noqa: BLE001 - already tearing down
                pass
        except (OSError, ValueError):
            pass  # socket closed under us
        finally:
            self.close()
            self.server.forget(self)

    def _write_loop(self) -> None:
        while True:
            with self._writable:
                while not self._outbox and not self.closed:
                    self._writable.wait()
                frames = list(self._outbox)
                self._outbox.clear()
                self._events_queued = 0
                # flush() must not return while these frames are in flight:
                # the outbox is empty now, but sendall hasn't happened yet.
                self._writing = bool(frames)
                done = self.closed and not frames
            if frames:
                try:
                    self.sock.sendall(b"".join(frames))
                    self.server.count_bytes_out(
                        sum(len(frame) for frame in frames)
                    )
                except OSError:
                    self.close()
                    return
                with self._writable:
                    self._writing = False
                    if not self._outbox:
                        self._writable.notify_all()  # wake flush() waiters
            if done:
                return

    def close(self) -> None:
        """Thread-safe, non-blocking teardown (callable from driver threads
        via the disconnect policy)."""
        with self._writable:
            if self.closed:
                return
            self.closed = True
            self._writable.notify_all()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class TriggerManServer(ServerCore):
    """Serve one :class:`TriggerMan` instance over TCP, two threads per
    connection (the PR-5 front end)."""

    def __init__(self, tman, host: str = "127.0.0.1", port: int = 0,
                 **kwargs: Any):
        super().__init__(tman, host, port, **kwargs)
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "TriggerManServer":
        if self.started:
            raise TriggerError("server already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="tman-net-accept", daemon=True
        )
        self._accept_thread.start()
        self.started = True
        return self

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                sock, address = self._listener.accept()
            except OSError:
                return  # listener closed: quiesce in progress
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(self, sock, address, next(self._conn_ids))
            with self._conn_lock:
                if self._quiescing:
                    connection.close()
                    continue
                self._connections[connection.conn_id] = connection
            self._m_connections_total.inc()
            connection.start()

    def stop(self, drain_timeout: Optional[float] = None) -> None:
        """Graceful quiesce: refuse new commands, drain outboxes, close."""
        if self._stopped:
            return
        timeout = self.drain_timeout if drain_timeout is None else drain_timeout
        with self._conn_lock:
            self._quiescing = True
            connections = list(self._connections.values())
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept() on
            # Linux; shutdown() does, so the accept join below is immediate.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
        deadline = time.monotonic() + timeout
        for connection in connections:
            while (
                connection.outbox_depth() and not connection.closed
                and time.monotonic() < deadline
            ):
                time.sleep(0.005)
        for connection in connections:
            self._release_subscriptions(connection)
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=timeout)
        for connection in connections:
            if connection.reader is not threading.current_thread():
                connection.reader.join(timeout=timeout)
            connection.writer.join(timeout=timeout)
        with self._conn_lock:
            self._connections.clear()
        self._stopped = True


class _Responded(Exception):
    """Internal: the handler already sent its own response frame."""


class _Refused(ReproError):
    """Internal: a handler refusing a request with a specific wire code."""

    def __init__(self, code: str, message: str, retryable: bool = False,
                 data: Optional[Dict[str, Any]] = None):
        self.code = code
        self.retryable = retryable
        self.data = data
        super().__init__(message)


def _require_str(payload: Dict[str, Any], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str):
        raise _Refused(E_PARSE, f"request needs a string {key!r} field")
    return value
