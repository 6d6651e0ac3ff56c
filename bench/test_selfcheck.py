"""Self-check of the benchmark itself: ``pytest bench/`` (not collected by the
tier-1 ``testpaths``).  Runs all six workloads, untraced and traced, at 1/50
scale and checks what the full-size numbers rest on: every named metric is
there, the oracle passes and can fail, the workloads separate the layers they
claim to, and the tracer leaves the engine as it found it.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench_cli  # noqa: E402
import schema  # noqa: E402
from tokens import SELECT_MIX, Population  # noqa: E402
from workloads import run_workload  # noqa: E402

SCALE = 0.02
NAMES = [name for name, _why in schema.WORKLOADS]
IN_MEMORY = [n for n in NAMES if n != "durable_table"]


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("bench_out"))
    return {
        (name, trace): run_workload(
            name, 1999, schema.RUN_SECONDS, bool(trace), scale=SCALE, out_dir=out
        )
        for name in NAMES
        for trace in (0, 1)
    }


def value(records, name, trace, metric):
    return records[(name, trace)]["metrics"][metric]["value"]


def test_benchmark_json_is_the_schema():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == schema.benchmark_json()
    assert on_disk["paths"] == ["bench"]
    assert [w["name"] for w in on_disk["workloads"]] == NAMES
    assert all(e["bound"] <= 0.25 for e in on_disk["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_every_named_metric_is_present_and_finite(records, name):
    expected = {
        0: {m[0] for m in schema.END_TO_END},
        1: {m[0] for m in schema.PER_LAYER},
    }
    for trace in (0, 1):
        metrics = records[(name, trace)]["metrics"]
        assert set(metrics) == expected[trace]
        for metric, cell in metrics.items():
            assert math.isfinite(cell["value"]), metric
            assert cell["unit"] == schema.UNITS[metric]
    for metric in expected[0]:
        assert value(records, name, 0, metric) > 0, metric


@pytest.mark.parametrize("name", NAMES)
def test_oracle_passes_and_nothing_fails(records, name):
    for trace in (0, 1):
        record = records[(name, trace)]
        assert record["failed"] == 0, record["notes"]
        assert record["correct"] is True
        assert record["attempted"] >= schema.SLICES


def test_a_corrupted_expected_set_is_detected(tmp_path):
    record = run_workload(
        "select_match", 1999, schema.RUN_SECONDS, False, scale=SCALE,
        out_dir=str(tmp_path), corrupt_oracle=True,
    )
    assert record["correct"] is False
    assert record["failed"] > 0
    assert "oracle says" in record["notes"][0]


def test_indexed_oracle_agrees_with_brute_force():
    population = Population(
        random.Random(5), ["s0", "s1", "s2", "s3"], 400, 400, SELECT_MIX
    )
    tokens = population.tokens(population.uniform_ranks(600, 400), 0, True)
    assert sum(len(t.expect) for t in tokens) > len(tokens)
    for token in tokens:
        brute = sorted(
            t.name for t in population.triggers
            if t.source == token.source and t.matches(token.op, token.new)
        )
        assert sorted(token.expect) == brute


def test_the_seed_changes_the_load_but_not_its_shape():
    def load(seed):
        population = Population(
            random.Random(seed), ["s0", "s1", "s2", "s3"], 400, 400, SELECT_MIX
        )
        tokens = population.tokens(population.zipf_ranks(4000, 200), 0, True)
        texts = [t.text for t in population.triggers]
        return texts, sum(len(t.expect) for t in tokens) / len(tokens)

    texts_a, firings_a = load(1)
    texts_b, firings_b = load(2)
    assert load(1)[0] == texts_a
    assert texts_a != texts_b
    assert abs(firings_a - firings_b) / firings_a < 0.1


def test_workloads_separate_the_layers(records):
    assert value(records, "select_match", 1, "engine.cache.hit_ratio") > 0.95
    assert value(records, "cache_spill", 1, "engine.cache.hit_ratio") < 0.2
    assert value(records, "join_match", 1, "network.incl_share") >= 0.8
    assert value(records, "select_match", 1, "network.incl_share") < 0.1
    for name in IN_MEMORY:
        assert value(records, name, 1, "wal.calls_per_token") == 0
    assert value(records, "durable_table", 1, "wal.calls_per_token") > 0
    assert value(records, "durable_table", 1, "wal.bytes_per_token") > 0
    for name in NAMES:
        calls = value(records, name, 1, "net.calls_per_token")
        assert (calls > 0) == (name == "remote_fanout")
    assert value(records, "remote_fanout", 1, "net.rtt_us_p50") > 0
    assert value(records, "trigger_churn", 1, "predindex.add_us_per_create") > 0
    assert value(records, "trigger_churn", 1, "predindex.remove_us_per_drop") > 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_shares_add_up(records, name):
    metrics = records[(name, 1)]["metrics"]
    shares = sum(metrics[f"{layer}.share"]["value"] for layer in layers.LAYERS)
    unattributed = metrics["bench.unattributed_share"]["value"]
    assert shares + unattributed == pytest.approx(1.0, abs=0.01)
    assert 0 <= unattributed <= 0.10
    trace = json.loads(Path(records[(name, 1)]["trace_file"]).read_text())
    assert trace["spans_kept"] == len(trace["spans"]) > 0
    assert trace["missing_wrap_targets"] == []


def test_tracer_puts_the_engine_back(records):
    from repro.engine.tasks import Task
    from repro.net import protocol
    from repro.sql.database import Table

    for fn in (Table.rows, Task.run, protocol.encode_frame):
        assert fn.__name__ != "wrapper"


def write_result(path, tokens_per_s):
    runs = [
        {"workload": "select_match", "trace": 0,
         "metrics": {"tokens_per_s": {"value": v, "unit": "tokens/s"}}}
        for v in tokens_per_s
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = write_result(tmp_path / "a.json", [1000, 1010, 990, 1005])
    same = write_result(tmp_path / "b.json", [1002, 995, 1008, 990])
    slow = write_result(tmp_path / "c.json", [700, 705, 695, 702])
    noisy = write_result(tmp_path / "d.json", [600, 1400, 900, 1100])
    assert bench_cli.compare(base, same) == 0
    assert capsys.readouterr().out.rstrip().endswith("ok")
    assert bench_cli.compare(base, slow) == 1
    assert capsys.readouterr().out.rstrip().endswith("worse")
    assert bench_cli.compare(base, noisy) == 0
    assert capsys.readouterr().out.rstrip().endswith("unresolved")


def test_refuses_a_tuned_environment_and_a_bare_directory(tmp_path):
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               "join_match", "--scale", str(SCALE)]
    tuned = subprocess.run(
        command, env={**os.environ, "TMAN_COMPILE": "off"},
        capture_output=True, text=True,
    )
    assert tuned.returncode != 0 and "TMAN_COMPILE" in tuned.stderr
    assert tuned.stdout == ""
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command[1] = str(bare / "bench" / "run.py")
    missing = subprocess.run(command, capture_output=True, text=True, cwd=bare)
    assert missing.returncode != 0
    assert missing.stdout == ""
