"""EXPLAIN-style introspection: ``explain trigger <name>`` and ``stats``.

``explain_trigger`` renders everything §5.1 computed for a trigger: the
condition graph, the per-tuple-variable analyzed predicate (its expression
signature, the chosen most-selective indexable conjunct, the extracted
constants, and the rest-of-predicate residual), the signature equivalence
class each predicate landed in, and — crucially for §5.2 — the constant-set
organization strategy *actually in use* right now (the AutoOrganization
migrates classes between strategies as they grow).

``render_stats`` renders one engine's merged metrics snapshot: the
registry-backed views over the legacy stat dataclasses plus any timing
histograms collected while metrics were enabled.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: §5.2 strategy numbers for the four constant-set organizations.
STRATEGY_NUMBERS = {
    "memory_list": 1,
    "memory_index": 2,
    "db_table": 3,
    "db_table_indexed": 4,
}


def describe_strategy(name: str) -> str:
    number = STRATEGY_NUMBERS.get(name)
    if number is None:
        return name
    return f"{name} (§5.2 strategy {number})"


def _describe_indexable(signature) -> str:
    """One line on E_I: which conjunct the analyzer picked and how it
    probes (§5.1's 'most selective conjunct' choice for ranges)."""
    part = signature.indexable
    constants = ", ".join(f"CONSTANT_{n}" for n in part.constant_numbers)
    if part.kind == "equality":
        return (
            f"equality on ({', '.join(part.columns)}) = ({constants}) "
            "[composite hash key]"
        )
    if part.kind == "range":
        return (
            f"range {part.columns[0]} {part.op} {constants} "
            "[most selective conjunct]"
        )
    if part.kind == "interval":
        return (
            f"interval {part.columns[0]} BETWEEN {constants} "
            "[most selective conjunct]"
        )
    if part.kind == "set":
        return f"set {part.columns[0]} IN ({constants})"
    return "none (every probe falls through to the residual test)"


def explain_trigger(tman, name: str) -> str:
    """Describe one trigger: condition graph, predicate analysis, signature
    equivalence classes (with their live §5.2 organization strategy), the
    discrimination network layout, and run counters."""
    from ..engine.trigger import analyze_trigger

    trigger_id = tman.catalog.trigger_id(name)
    # Observe residency BEFORE pinning: the pin below would load a spilled
    # trigger and hide the very state being reported.
    resident = trigger_id in tman.cache
    description = tman.catalog.description(trigger_id)
    runtime = tman.cache.pin(trigger_id)
    try:
        out = [f"trigger {name} (id {trigger_id})"]
        out.append(f"  network: {type(runtime.network).__name__}")
        catalog_form = (
            f"compact description (shape {description[0]})"
            if description is not None
            else "full text only"
        )
        out.append(
            f"  cache: {'resident' if resident else 'spilled'}; "
            f"{runtime.estimated_size():,} bytes when resident; "
            f"catalog form: {catalog_form}"
        )
        network = runtime.network
        joins = len(runtime.tvars) > 1
        paths = network.probe_paths() if joins else {}
        sizes = network.memory_sizes() if joins else {}
        out.append("  tuple variables:")
        for tvar in runtime.tvars:
            source = runtime.tvar_sources[tvar]
            operation = runtime.operation_code(tvar)
            selection = runtime.graph.selection_expr(tvar)
            selection_text = (
                selection.render() if selection is not None else "TRUE"
            )
            entry_node = network.entry_node_id(tvar)
            out.append(
                f"    {tvar} -> {source} [{operation}] "
                f"when {selection_text}  (entry: {entry_node})"
            )
            if tvar in paths:
                kind = (
                    "virtual" if sizes[tvar] is None
                    else f"materialized, {sizes[tvar]} row(s)"
                )
                out.append(f"      alpha memory: {kind}; {paths[tvar]}")
        edges = [
            f"    {' ⋈ '.join(sorted(pair))}: "
            f"{runtime.graph.join_expr(*sorted(pair)).render()}"
            for pair in runtime.graph.edges
        ]
        if edges:
            out.append("  join predicates:")
            out.extend(sorted(edges))
        if runtime.graph.catch_all:
            out.append(f"  catch-all clauses: {len(runtime.graph.catch_all)}")
        if joins:
            stats = network.join_stats
            out.append(
                f"  join search: {stats['probes']} probe(s) — "
                f"{stats['hash_probes']} signature bucket, "
                f"{stats['virtual_hash_probes']} equality index, "
                f"{stats['virtual_scans']} virtual scan; "
                f"{stats['candidates']} candidate row(s)"
            )

        out.append("  predicate analysis (§5.1 step 5):")
        for tvar, analyzed in analyze_trigger(runtime):
            signature = analyzed.signature
            group = tman.index.find_group(signature)
            out.append(f"    {tvar}: signature {signature.describe()}")
            out.append(f"      indexable: {_describe_indexable(signature)}")
            if analyzed.constants:
                out.append(f"      constants: {analyzed.constants}")
            residual = analyzed.residual
            out.append(
                "      residual: "
                + (residual.render() if residual is not None else "(none)")
            )
            if group is not None:
                out.append(
                    f"      organization: "
                    f"{describe_strategy(group.organization.name)}, "
                    f"class size {group.organization.size()}"
                )

        out.append("  signature groups used:")
        for group in tman.index.groups():
            entries = [
                e
                for _c, e in group.organization.entries()
                if e.trigger_id == trigger_id
            ]
            if entries:
                out.append(
                    f"    sig {group.sig_id}: "
                    f"{group.signature.describe()} "
                    f"[{group.organization.name}, "
                    f"class size {group.organization.size()}]"
                )
        out.append(f"  action: {runtime.action.render()}")
        out.append(f"  fired {runtime.fire_count} time(s)")
        fan_out = _describe_fan_out(tman, runtime)
        if fan_out is not None:
            out.append(fan_out)
        return "\n".join(out)
    finally:
        tman.cache.unpin(trigger_id)


def _describe_fan_out(tman, runtime) -> "str | None":
    """One line on where this trigger's notifications go when a network
    server is up: how many remote subscriptions each fired event fans out
    to, and through which front end."""
    server = getattr(tman, "server", None)
    event_name = getattr(runtime.action, "event_name", None)
    if server is None or event_name is None:
        return None
    subscribers = 0
    for connection in list(server._connections.values()):
        for subscribed in connection.subscriptions.values():
            if subscribed == event_name:
                subscribers += 1
    status = server.status()
    line = (
        f"  fan-out: event {event_name!r} -> {subscribers} remote "
        f"subscription(s) over {status['connections']} connection(s) "
        f"({status['mode']} front end"
    )
    if status.get("mode") == "async":
        line += (
            f"; loop lag p99 {status['loop_lag_p99_ns']:,} ns, "
            f"outbox hwm {status['outbox_hwm']}"
        )
    return line + ")"


def render_stats(tman) -> str:
    """The engine's full metrics snapshot, grouped and human-readable."""
    snapshot: Dict[str, Any] = tman.stats_snapshot()
    scalars: List[str] = []
    histograms: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):  # histogram summary
            if not value.get("count"):
                continue
            mean = value.get("mean") or 0
            p50 = value.get("p50") or 0
            p99 = value.get("p99") or 0
            histograms.append(
                f"  {name}: count={value['count']} mean={mean:,.0f}ns "
                f"p50={p50:,.0f}ns p99={p99:,.0f}ns"
            )
        else:
            scalars.append(f"  {name}: {value}")
    out = ["counters and gauges:"] + (scalars or ["  (none)"])
    if histograms:
        out.append("timings:")
        out.extend(histograms)
    from ..condition.signature import interned_signature_count

    cache = tman.cache
    budget = (
        f" of {cache.capacity_bytes:,} budget"
        if cache.capacity_bytes is not None
        else " (no byte budget)"
    )
    out.append("memory:")
    out.append(
        f"  interned signatures: {interned_signature_count()}"
    )
    out.append(
        f"  trigger cache: {len(cache)} resident, "
        f"{cache.resident_bytes():,} bytes{budget}, "
        f"{cache.stats.evictions} spills"
    )
    out.append(
        f"  loads: {tman.runtimes.rehydrates} re-hydrated, "
        f"{tman.runtimes.reparses} re-parsed"
    )
    server = getattr(tman, "server", None)
    if server is not None:
        status = server.status()
        out.append("network:")
        out.append(
            "  serving on {address[0]}:{address[1]} ({mode}): "
            "{connections} open connection(s), {bytes_in:,} bytes in, "
            "{bytes_out:,} bytes out".format(**status)
        )
        out.append(
            "  backpressure: {ingest_rejected} ingest(s) rejected, "
            "{notifications_dropped} notification(s) dropped, "
            "{slow_consumer_disconnects} slow consumer(s) "
            "disconnected".format(**status)
        )
        if status.get("mode") == "async":
            out.append(
                "  event loop: lag p99 {loop_lag_p99_ns:,} ns, outbox hwm "
                "{outbox_hwm}, {wakeups} wakeup(s) for {frames_flushed} "
                "frame(s) flushed, {reads_paused} read pause(s)".format(
                    **status
                )
            )
    metrics_state = "on" if tman.obs.metrics.enabled else "off"
    trace_state = "on" if tman.obs.trace.enabled else "off"
    out.append(f"observability: metrics {metrics_state}, trace {trace_state}")
    return "\n".join(out)
