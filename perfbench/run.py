"""Repository benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload athena_login --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list-metrics

With ``--trace 0`` it reports the end-to-end metrics, measured with
tracing off and given at a nominal host speed (``pace.py``); with
``--trace 1`` it runs the workload untraced up to the end of its digest,
then again with every other unit traced (the same seed and units), and
reports the per-layer metrics.  Every workload run happens in a fresh
interpreter (``perfbench/worker.py``).  Metric names, units and bounds
live in ``BENCHMARK.json`` at the repository root; ``README.md`` beside
this file maps layers to metrics to workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")

#: Worker interpreters per run, one after another.  Each sets up its own
#: world (one ``setup_s`` sample each) and times ``seconds / WORKERS``;
#: their samples are pooled.
WORKERS = 3
#: String hashing is fixed so every worker has the same dict layouts;
#: with random hash seeds, repeat runs of one seed spread ~11% in login
#: p50 on a 2-vCPU host, against ~3% with a fixed one.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")
#: Every worker must have ended this long after the run started.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def worker(
    workload: str, seed: int, mode: str, scale: str, deadline: float, **extra
) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--scale", scale,
    ]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        env=WORKER_ENV,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"worker {workload}/{mode} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1])."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def latencies_ms(timings, kind: str) -> List[float]:
    """Per-operation ms of one latency class, at the nominal host speed
    (a wave's samples are its time divided by its requests)."""
    return [
        seconds * 1000.0 / ops
        for k, ops, seconds, _wall in timings if k == kind
    ]


def workload_classes() -> dict:
    """The workload classes by name (imports the program)."""
    for path in (HERE, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import WORKLOADS

    return WORKLOADS


def end_to_end(workload, results: List[dict]) -> tuple:
    """The run's end-to-end metrics from its workers' pooled samples,
    plus diagnostics.  Times are at the nominal host speed: wall time
    less the sampler's, rescaled by the host speed sampled around each
    interval (``pace.py``).  The wall-clock equivalents are printed."""
    timings = [t for r in results for t in r["timings"]]
    op_ms = latencies_ms(timings, workload.OP_KIND)
    if workload.WRITE_KIND == "registration":
        write_ms = [s * 1000.0 for r in results for s in r["registration_s"]]
    else:
        write_ms = latencies_ms(timings, workload.WRITE_KIND)
    ops = sum(t[1] for t in timings)
    wall_ms = [
        w * 1000.0 / o for k, o, _s, w in timings if k == workload.OP_KIND
    ]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": ops / sum(t[2] for t in timings),
        "op_p50_ms": quantile(op_ms, 0.5),
        "op_p90_ms": quantile(op_ms, 0.9),
        "write_p50_ms": quantile(write_ms, 0.5),
        "write_p95_ms": quantile(write_ms, 0.95),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }, {
        "host_speed per worker": [r["host_speed"] for r in results],
        "setup wall s per worker": [r["setup_wall_s"] for r in results],
        "op_samples": len(op_ms),
        "op_p99_ms": quantile(op_ms, 0.99),
        "write_samples": len(write_ms),
        "write_p90_ms": quantile(write_ms, 0.9),
        "wall ops_per_s": ops / sum(t[3] for t in timings),
        "wall op_p50_ms": quantile(wall_ms, 0.5),
        "wall op_p90_ms": quantile(wall_ms, 0.9),
    }


def per_layer(traced: dict) -> Dict[str, float]:
    timings = traced["timings"]
    ops = sum(t[1] for t in timings) or 1
    writes = sum(1 for t in timings if t[0] == "write")
    self_ms = {k: v / 1e6 for k, v in traced["layer_self_ns"].items()}
    counts = traced["counts"]
    calls = traced["calls"]
    delta = traced["sim_delta"]
    requests = delta["kdc_as"] + delta["kdc_tgs"]
    blocks = counts.get("crypto.blocks", 0.0)
    lookups = counts.get("database.lookups", 0.0)
    saved = delta["batch_lookups_saved"]
    rounds = calls.get("Kprop.propagate", 0)
    batches = counts.get("runtime.batches", 0.0)
    wall_ms = traced["root_wall_ns"] / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "crypto.self_ms_per_op": self_ms.get("crypto", 0.0) / ops,
        "crypto.blocks_per_op": blocks / ops,
        "crypto.wide_block_share": ratio(
            counts.get("crypto.wide_blocks", 0.0), blocks
        ),
        "crypto.s2k_calls_per_op": counts.get("crypto.s2k_calls", 0.0) / ops,
        "crypto.keysched_hit_ratio": ratio(
            delta["keysched_hit"], delta["keysched_hit"] + delta["keysched_miss"]
        ),
        "crypto.skeleton_hit_ratio": ratio(
            delta["skeleton_hit"], delta["skeleton_hit"] + delta["skeleton_miss"]
        ),
        "encode.self_ms_per_op": self_ms.get("encode", 0.0) / ops,
        "encode.calls_per_op": traced["layer_calls"].get("encode", 0) / ops,
        "encode.bytes_per_op": counts.get("encode.bytes", 0.0) / ops,
        "kdc.self_ms_per_req": ratio(self_ms.get("core.kdc", 0.0), requests),
        "kdc.as_per_op": delta["kdc_as"] / ops,
        "kdc.tgs_per_op": delta["kdc_tgs"] / ops,
        "database.lookups_per_op": lookups / ops,
        "database.unseals_per_op": counts.get("database.unseals", 0.0) / ops,
        "database.lookups_saved_ratio": ratio(saved, saved + lookups),
        "database.writes_per_op": counts.get("database.writes", 0.0) / ops,
        "database.self_ms_per_op": self_ms.get("database", 0.0) / ops,
        "netsim.rpcs_per_op": counts.get("netsim.rpcs", 0.0) / ops,
        "netsim.self_ms_per_op": self_ms.get("netsim", 0.0) / ops,
        "runtime.events_per_op": delta["events"] / ops,
        "runtime.self_ms_per_op": self_ms.get("runtime", 0.0) / ops,
        "runtime.batch_size_mean": ratio(
            counts.get("runtime.batch_items", 0.0), batches
        ),
        "runtime.queue_wait_sim_p99_s": (
            quantile(traced["waits"], 0.99) if traced["waits"] else 0.0
        ),
        "runtime.shed_per_op": delta["shed"] / ops,
        "client.self_ms_per_op": self_ms.get("client", 0.0) / ops,
        "kdbm.self_ms_per_write": ratio(self_ms.get("kdbm", 0.0), writes),
        "replication.rounds_per_write": ratio(rounds, writes),
        "replication.delta_bytes_per_round": ratio(delta["delta_bytes"], rounds),
        "replication.full_dumps_per_op": delta["full_dumps"] / ops,
        "replication.self_ms_per_round": ratio(
            self_ms.get("replication", 0.0), rounds
        ),
        "obs.self_ms_per_op": self_ms.get("obs", 0.0) / ops,
        "obs.instrument_calls_per_op": counts.get("obs.instrument_calls", 0.0)
        / ops,
        "obs.spans_per_op": counts.get("obs.spans", 0.0) / ops,
        "trace.overhead_ratio": wall_ms / 1000.0 / ops
        / traced["untraced_s_per_op"],
        "trace.unattributed_share": ratio(
            self_ms.get("unattributed", 0.0), wall_ms
        ),
    }


def layer_table(traced: dict) -> List[str]:
    wall = traced["root_wall_ns"]
    rows = sorted(traced["layer_self_ns"].items(), key=lambda kv: -kv[1])
    lines = [f"{'layer':<14}{'self ms':>12}{'share':>9}"]
    for layer, ns in rows:
        lines.append(f"{layer:<14}{ns / 1e6:>12.1f}{ns / wall:>9.3f}")
    total = sum(ns for _l, ns in rows)
    lines.append(
        f"{'sum':<14}{total / 1e6:>12.1f}{total / wall:>9.3f}"
        f"  (traced wall {wall / 1e6:.1f} ms)"
    )
    return lines


def run(args) -> dict:
    spec = load_spec()
    workload = workload_classes()[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # The untraced run only has to reach the end of the digest.
        main = worker(
            args.workload, args.seed, "run", args.scale, deadline, seconds=0,
        )
        results = [main]
        diag = {"digest": main["digest"]}
        os.makedirs(OUT_DIR, exist_ok=True)
        traced = worker(
            args.workload, args.seed, "trace", args.scale, deadline,
            seconds=args.seconds,
            spans_out=os.path.join(
                OUT_DIR, f"spans-{args.workload}-{args.seed}.json.gz"
            ),
        )
        results.append(traced)
        metrics = per_layer(traced)
        wanted = spec["per_layer"]
        for line in layer_table(traced):
            print(line)
    else:
        results = [
            worker(
                args.workload, args.seed, "run", args.scale, deadline,
                seconds=args.seconds / WORKERS,
            )
            for _ in range(WORKERS)
        ]
        metrics, extra = end_to_end(workload, results)
        diag = {"digest": results[0]["digest"], **extra}
        wanted = spec["end_to_end"]

    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["check_failures"]]
    correct = not any(r["n_check_failures"] for r in results)
    if len({r["digest"] for r in results}) != 1:
        correct = False
        problems.append("runs of one seed disagree on the outcome digest")
    diag["failed_ratio"] = failed / attempted
    for key, value in diag.items():
        print(f"# {key}: {value}")
    for problem in problems[:20]:
        print(f"# check failed: {problem}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def list_metrics() -> None:
    spec = load_spec()
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            print(f"{group:<11} {m['name']:<34} {m['unit']:<8} {m['better']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload", choices=[w["name"] for w in load_spec()["workloads"]]
    )
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: smoke-test sizes")
    ap.add_argument("--list-metrics", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program source at src/repro", file=sys.stderr)
        return 2
    if args.list_metrics:
        list_metrics()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
