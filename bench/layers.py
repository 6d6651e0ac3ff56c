"""Which engine callables become spans, and the layer each belongs to.

Layers are named after this repo's modules.  Only attributes the engine
exposes are touched: methods of the layer objects hanging off the
``TriggerMan`` facade (patched on the instance), the network / table / task
classes every trigger shares (patched on the class), and the parser and
analysis functions ``repro.engine`` imports by name (patched in the importing
module).  Tiny per-match helpers (``is_enabled``, ``is_permanent``) are left
alone: a wrapper costs about a microsecond, more than they do.
"""

from __future__ import annotations

from spans import Tracer

#: every layer the traced run reports, in token-path order
LAYERS = (
    "engine.ingest",
    "engine.queue",
    "engine.pipeline",
    "engine.tasks",
    "engine.matcher",
    "predindex",
    "engine.cache",
    "engine.runtime",
    "engine.catalog",
    "network",
    "engine.firing",
    "engine.actions",
    "engine.events",
    "wal",
    "sql",
    "net",
    "lang",
    "bench.subscriber",
)


def _public_methods(obj) -> list:
    return [
        name for name in dir(type(obj))
        if not name.startswith("_") and callable(getattr(type(obj), name))
        and not isinstance(getattr(type(obj), name), property)
    ]


def install(tracer: Tracer, tman) -> None:
    """Wrap one engine instance (and the classes its triggers share)."""
    from repro.engine import ingest as ingest_module
    from repro.engine import runtime as runtime_module
    from repro.engine import triggerman as facade_module
    from repro.engine.tasks import Task
    from repro.network.gator import GatorNetwork
    from repro.network.treat import ATreatNetwork
    from repro.sql.database import Database, Table

    wrap = tracer.wrap
    for attr in ("push", "insert", "delete_rows"):
        wrap(tman, attr, "engine.ingest")
    wrap(tman, "process_all", "engine.pipeline")
    for attr in ("capture", "submit", "next_descriptor", "next_descriptors",
                 "refill_tasks"):
        wrap(tman.pipeline, attr, "engine.pipeline")
    # the submit funnel was bound into these two at construction
    wrap(tman.firing, "submit", "engine.pipeline", name="engine.pipeline.submit")
    wrap(tman.matcher, "submit", "engine.pipeline", name="engine.pipeline.submit")
    for attr in ("enqueue", "dequeue", "dequeue_batch"):
        wrap(tman.queue, attr, "engine.queue")
    for attr in ("put", "get", "mark_done", "kick", "wait_for_work"):
        wrap(tman.tasks, attr, "engine.tasks")
    wrap(Task, "run", "engine.tasks")
    for attr in ("process_token", "match_batch", "apply_match",
                 "fire_bindings", "maintain_memories"):
        wrap(tman.matcher, attr, "engine.matcher")
    for attr in ("match", "match_tokens", "match_in_groups", "add_predicate",
                 "remove_trigger", "register_signature"):
        wrap(tman.index, attr, "predindex")
    for attr in ("pin", "unpin", "seed", "invalidate"):
        wrap(tman.cache, attr, "engine.cache")
    for attr in ("create_trigger_statement", "drop_trigger", "load_runtime",
                 "put_runtime"):
        wrap(tman.runtimes, attr, "engine.runtime")
    wrap(runtime_module, "build_runtime_from_analysis", "engine.runtime")
    for attr in _public_methods(tman.catalog):
        wrap(tman.catalog, attr, "engine.catalog")
    for network in (ATreatNetwork, GatorNetwork):
        wrap(network, "activate", "network", kind="len",
             name="network.activate")
        wrap(network, "retract", "network", name="network.retract")
        wrap(network, "prime", "network", name="network.prime")
    for attr in ("fire", "token_matched", "begin_batch", "flush_batch"):
        wrap(tman.firing, attr, "engine.firing")
    wrap(tman.actions, "execute", "engine.actions")
    wrap(tman.events, "raise_event", "engine.events")
    if tman.wal is not None:
        for attr in ("append", "append_many", "log_page", "flush"):
            wrap(tman.wal, attr, "wal")
        # the I/O of a group commit, wherever in the log it is triggered
        wrap(tman.wal.storage, "append", "wal", name="wal.storage_append")
        wrap(tman.wal.storage, "sync", "wal", name="wal.storage_sync")
    for attr in ("insert", "delete", "update", "read", "index_lookup",
                 "index_range"):
        wrap(Table, attr, "sql")
    # generators: drain inside the span so the consumer's work stays outside
    wrap(Table, "rows", "sql", kind="rows")
    wrap(Table, "scan", "sql", kind="rows")
    for attr in ("flush", "checkpoint", "execute"):
        wrap(Database, attr, "sql")
    for module in (facade_module, ingest_module, runtime_module):
        wrap(module, "parse_command", "lang", name="lang.parse_command")
    for attr in ("analyze_statement", "analyze_trigger_arms",
                 "generalize_statement", "instantiate_statement"):
        wrap(runtime_module, attr, "lang")
    wrap(tman.evaluator, "matches", "lang")


def install_net(tracer: Tracer) -> None:
    """Wire layer: both ends live in this process for ``remote_fanout``."""
    import socket

    from repro.net import protocol
    from repro.net.remote import RemoteConnection
    from repro.net.server import ServerCore, _Connection

    wrap = tracer.wrap
    # the syscalls under both ends' read and write loops (CPU clock: time
    # blocked in them is not counted)
    for attr in ("recv", "recv_into", "sendall"):
        wrap(socket.socket, attr, "net", name=f"net.socket_{attr}")
    wrap(RemoteConnection, "call", "net")
    wrap(RemoteConnection, "_dispatch_event", "net")
    wrap(RemoteConnection, "_dispatch_response", "net")
    wrap(ServerCore, "handle", "net")
    wrap(_Connection, "send", "net", name="net.server_send")
    wrap(_Connection, "push_event", "net")
    wrap(protocol, "encode_frame", "net")
    wrap(protocol, "read_frame", "net")
    wrap(protocol.FrameDecoder, "feed", "net", name="net.decoder_feed")
