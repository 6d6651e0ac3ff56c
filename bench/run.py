#!/usr/bin/env python3
"""The repo's benchmark: end-to-end metrics for six workloads with tracing
off, and a traced run per workload that splits the time by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of stdout is one JSON
        object {"correct", "attempted", "failed", "metrics"} (the driver's
        contract: end-to-end metrics with --trace 0, per-layer with 1)

    python3 bench/run.py [--workload NAME]... [--seed N] [--trace] [--repeat K] [--out FILE]
        each workload in its own subprocess, every metric printed with unit,
        direction, sample count and bound, the same written as JSON

    python3 bench/run.py --compare A.json B.json
        per workload x end-to-end metric: relative change against the bound,
        verdict ok / worse / unresolved

See bench/README.md for what each name means and how they interact.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FORBIDDEN_ENV = ("TMAN_COMPILE", "TMAN_DECOMPOSE", "REPRO_NET_ASYNC")


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout's ``src/`` — and only
    from there, so the numbers are this tree's."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source at {src / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"bench: 'repro' resolved to {repro.__file__}, not this checkout")


def guard_environment() -> None:
    set_vars = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_vars:
        sys.exit(
            "bench: refusing to run with " + ", ".join(set_vars) + " set; the "
            "benchmark measures the engine's defaults"
        )


def environment_record() -> dict:
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def driver_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    })


def print_record(record: dict) -> None:
    import schema

    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']}  seed={record['seed']}  {kind}  "
          f"sizes={json.dumps(record['sizes'])}")
    for name, cell in record["metrics"].items():
        bound = schema.BOUNDS.get(name)
        extras = [f"{schema.BETTER[name]} is better"]
        if name in record["samples"]:
            extras.append(f"n={record['samples'][name]}")
        if bound is not None:
            extras.append(f"bound {bound:.2f}")
        print(f"  {name:42s} {cell['value']:>16.6g} {cell['unit']:9s} "
              f"({', '.join(extras)})")
    print(f"  ops attempted {record['attempted']}, failed {record['failed']}, "
          f"teardown {record.get('teardown_s', 0.0):.3f} s")
    for note in record["notes"]:
        print(f"  ! {note}")


def run_one(args) -> int:
    """Driver mode: one workload, in this process."""
    from workloads import run_workload

    environment = environment_record()

    record = run_workload(
        args.workload[0], args.seed, args.seconds, bool(args.trace),
        scale=args.scale,
    )
    print_record(record)
    record["environment"] = environment
    print(f"  environment {json.dumps(record['environment'])}")
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1))
    print(driver_line(record))
    return 0 if record["correct"] else 1


def run_many(args) -> int:
    """Each workload in its own subprocess (so ``peak_rss_mb`` is its own),
    untraced and — with --trace — traced."""
    import schema

    names = args.workload or [name for name, _why in schema.WORKLOADS]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    result = {
        "schema": "bench-result-v1",
        "claim": None,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "environment": environment_record(),
        "runs": [],
    }
    status = 0
    for _ in range(args.repeat):
        for name in names:
            for trace in ([0, 1] if args.trace else [0]):
                part = out_dir / f"part_{os.getpid()}.json"
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--scale", str(args.scale), "--trace", str(trace),
                     "--out", str(part)],
                    stdout=subprocess.PIPE, text=True,
                )
                if part.exists():
                    record = json.loads(part.read_text())
                    part.unlink()
                    print_record(record)
                    result["runs"].append(record)
                if done.returncode != 0:
                    status = 1
                    print(f"!! {name} (trace={trace}) exited {done.returncode}")
    out = Path(args.out) if args.out else out_dir / "result.json"
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    return status


def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload x end-to-end metric."""
    import schema

    def values(path: str) -> dict:
        table: dict = {}
        for record in json.loads(Path(path).read_text())["runs"]:
            if record["trace"]:
                continue
            for name, cell in record["metrics"].items():
                table.setdefault((record["workload"], name), []).append(cell["value"])
        return table

    a, b = values(path_a), values(path_b)
    worst = 0
    print(f"{'workload':15s} {'metric':16s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for key in sorted(a.keys() & b.keys()):
        workload, metric = key
        bound = schema.BOUNDS[metric]
        mid_a, mid_b = schema.median(a[key]), schema.median(b[key])
        change = (mid_b - mid_a) / mid_a
        worse_by = -change if schema.BETTER[metric] == "higher" else change
        # run-to-run spread needs at least four runs a side to estimate
        spreads = [schema.spread(v) for v in (a[key], b[key]) if len(v) >= 4]
        widest = max(spreads) if spreads else 0.0
        if widest > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        else:
            verdict = "ok"
        worst = max(worst, {"ok": 0, "unresolved": 1, "worse": 2}[verdict])
        print(f"{workload:15s} {metric:16s} {mid_a:12.5g} {mid_b:12.5g} "
              f"{worse_by:+9.3f} {bound:6.2f} "
              f"{(f'{widest:.3f}' if spreads else 'n/a'):>7s}  {verdict}")
    return 1 if worst == 2 else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=1999)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink populations and token counts (self-check)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    sys.path.insert(0, str(HERE))
    if args.compare:
        return compare(*args.compare)
    guard_environment()
    bootstrap()
    import schema

    if args.seconds is None:
        args.seconds = float(schema.RUN_SECONDS)
    known = [name for name, _why in schema.WORKLOADS]
    for name in args.workload:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    if len(args.workload) == 1 and args.repeat == 1:
        return run_one(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main())
