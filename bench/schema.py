"""The benchmark's names: workloads, end-to-end metrics with their bounds,
per-layer metrics.  ``BENCHMARK.json`` at the repo root is this table
rendered by :func:`benchmark_json`; ``test_selfcheck.py`` keeps the two equal.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from layers import LAYERS

RUN_SECONDS = 8
SLICES = 30

WORKLOADS = [
    ("select_match",
     "20k selection triggers in ~10 signature shapes, Zipf keys, everything "
     "cached: predindex + firing/task/action/events do the work, network is "
     "a pass-through, wal/sql/net do none"),
    ("cache_spill",
     "same triggers, cache_capacity=512 and uniform keys (hit ratio < 0.2): "
     "the difference from select_match is cache eviction + runtime reload + "
     "catalog reads"),
    ("join_match",
     "real-estate tables, 10 three-way + 10 two-way join triggers, 70% "
     "insert / 30% delete: A-TREAT join search with its sql scans and "
     "evaluator calls dominates, predindex does almost nothing"),
    ("durable_table",
     "persistent engine, wal_sync=group, table-backed source, 5k equality "
     "triggers: the only workload with TableQueue, heap/pager, WAL "
     "append/fsync and the exactly-once ledger on the path"),
    ("remote_fanout",
     "in-memory engine behind serve() + one driver, a subscriber and a "
     "data-source connection: framing, JSON, ack round trip and event push "
     "dominate; then an open-loop paced phase times notifications"),
    ("trigger_churn",
     "select_match population held at 20k while create x8 / push 64 / drop "
     "x8 cycles: DDL beside probes on the same index, catalog and cache, so "
     "faster probes bought with dearer inserts are caught"),
]

#: (name, unit, better, bound)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("tokens_per_s", "tokens/s", "higher", 0.20),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("notify_ms_p50", "ms", "lower", 0.20),
    ("create_ms_p50", "ms", "lower", 0.20),
    ("drop_ms_p50", "ms", "lower", 0.20),
    ("reopen_s", "s", "lower", 0.25),
]

_EXTRA = [
    ("engine.queue.depth_max", "count", "lower"),
    ("engine.pipeline.tasks_per_token", "count", "lower"),
    ("predindex.groups_probed_per_token", "count", "lower"),
    ("predindex.entries_probed_per_token", "count", "lower"),
    ("predindex.residual_tests_per_token", "count", "lower"),
    ("predindex.match_yield", "ratio", "higher"),
    ("predindex.add_us_per_create", "us", "lower"),
    ("predindex.remove_us_per_drop", "us", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.loads_per_token", "count", "lower"),
    ("engine.cache.evictions_per_token", "count", "lower"),
    ("engine.runtime.load_us_per_miss", "us", "lower"),
    ("engine.catalog.us_per_create", "us", "lower"),
    ("network.incl_share", "ratio", "lower"),
    ("network.activations_per_token", "count", "lower"),
    ("network.bindings_per_activation", "count", "higher"),
    ("network.retracts_per_token", "count", "lower"),
    ("network.rows_scanned_per_activation", "count", "lower"),
    ("network.memory_entries", "count", "lower"),
    ("engine.firing.firings_per_token", "count", "lower"),
    ("engine.tasks.tasks_per_token", "count", "lower"),
    ("engine.actions.failures", "count", "lower"),
    ("engine.events.notifications_per_token", "count", "lower"),
    ("wal.records_per_token", "count", "lower"),
    ("wal.bytes_per_token", "bytes", "lower"),
    ("wal.fsyncs_per_token", "count", "lower"),
    ("wal.flush_us_per_token", "us", "lower"),
    ("sql.page_writes_per_token", "count", "lower"),
    ("net.rtt_us_p50", "us", "lower"),
    ("net.bytes_in_per_token", "bytes", "lower"),
    ("net.bytes_out_per_token", "bytes", "lower"),
    ("net.codec_us_per_frame", "us", "lower"),
    ("net.notify_ms_p99", "ms", "lower"),
    ("net.generator_late_ms_p99", "ms", "lower"),
    ("net.notifications_dropped", "count", "lower"),
    ("lang.parse_us_per_create", "us", "lower"),
    ("bench.unattributed_share", "ratio", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.slice_rate_p10", "tokens/s", "higher"),
]

PER_LAYER = [
    metric
    for layer in LAYERS
    for metric in (
        (f"{layer}.self_us_per_token", "us", "lower"),
        (f"{layer}.share", "ratio", "lower"),
        (f"{layer}.calls_per_token", "count", "lower"),
    )
] + _EXTRA

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
BOUNDS: Dict[str, float] = {name: bound for name, _u, _b, bound in END_TO_END}
BETTER: Dict[str, str] = {
    name: better for name, _unit, better, *_ in END_TO_END + PER_LAYER
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (the driver's rule)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
