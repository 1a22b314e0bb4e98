"""One workload in one fresh interpreter; prints one JSON line.

The program's key-schedule, string-to-key and skeleton caches are
process-global, so every workload run gets its own interpreter: no run
inherits another's warm caches.

Modes:

* ``run``   -- set up, run the workload's untimed warm-up units, then
  time units until ``--seconds`` have passed (tracing off).  Set-up,
  units and registrations are timed by the workload's
  :class:`pace.HostPace`, started first, so every time is also reported
  at the nominal host speed;
* ``trace`` -- set up, warm up, then run units that alternate between
  traced (the span recorder of ``perfbench/tracer.py`` patched in and on)
  and untraced (every patch undone), until ``--seconds`` have passed.
  Neighbouring units share the host's speed of the moment, so the
  untraced ones are the baseline of ``trace.overhead_ratio``.  The pace
  sampler stays off: its handler would run inside spans.

Both time at least the workload's ``DIGEST`` units.  The sim-side
outcome digest covers the warm-up plus those units, so a ``run`` and a
``trace`` of one seed must print the same digest.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from repro.crypto import keycache  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(records) -> str:
    h = hashlib.sha256()
    for line in records:
        h.update(line.encode())
        h.update(b";")
    return h.hexdigest()


def sim_counters(workload) -> dict:
    """Deterministic sim-side counts read from the program's registry,
    plus the process-global key-schedule and skeleton cache traffic."""
    metrics = workload.net.metrics
    schedules = keycache.stats()
    skeletons = keycache.skeleton_stats()
    return {
        "kdc_as": metrics.total("kdc.requests_total", kind="as"),
        "kdc_tgs": metrics.total("kdc.requests_total", kind="tgs"),
        "events": workload.net.runtime.executed,
        "batch_lookups_saved": metrics.total("kdc.batch_lookups_saved_total"),
        "delta_bytes": metrics.total("repl.delta_bytes_total"),
        "full_dumps": metrics.total("repl.full_dumps_total"),
        "shed": metrics.total("kdc.queue.shed_total"),
        "keysched_hit": schedules["hit"],
        "keysched_miss": schedules["miss"],
        "skeleton_hit": skeletons["hit"],
        "skeleton_miss": skeletons["miss"],
    }


def run_unit(workload, index, execute):
    """Prepare, time ``execute`` on, and finish unit ``index``; returns
    its kind, operation count and the pace marks around ``execute``."""
    unit = workload.prepare(index)
    begin = workload.pace.mark()
    result = execute(unit)
    end = workload.pace.mark()
    workload.finish(unit, result)
    return unit.kind, unit.ops, begin, end


def resolve(pace, units):
    """``(kind, ops, seconds at nominal host speed, wall seconds)`` per
    unit."""
    return [
        (kind, ops, pace.seconds(begin, end), pace.wall(begin, end))
        for kind, ops, begin, end in units
    ]


def traced_units(
    workload, first: int, seconds: float, spans_out: str
) -> dict:
    """From index ``first``, run pairs of one traced and one untraced
    unit: at least the digest's units, and until ``seconds`` have passed.
    Span counts and sim deltas cover the traced units only."""
    import tracer

    rec = tracer.Recorder()
    sim = Counter()

    def traced(unit):
        before = sim_counters(workload)
        tracer.instrument(rec, workload.net)
        root = rec.wrap("op", tracer.ROOT_LAYER, workload.execute)
        rec.on = True
        try:
            return root(unit)
        finally:
            rec.on = False
            rec.unpatch()
            sim.update({
                key: value - before[key]
                for key, value in sim_counters(workload).items()
            })

    units = []
    begin = time.perf_counter()
    while (
        len(units) < workload.DIGEST
        or time.perf_counter() - begin < seconds
    ):
        units.append(run_unit(workload, first + len(units), traced))
        units.append(run_unit(workload, first + len(units), workload.execute))
    if spans_out:
        rec.write(spans_out)
    untraced = resolve(workload.pace, units[1::2])
    return {
        "units": units,
        "traced": units[0::2],
        "untraced_s_per_op": sum(t[3] for t in untraced)
        / sum(t[1] for t in untraced),
        "sim_delta": dict(sim),
        "layer_self_ns": rec.layer_self_ns(),
        "root_wall_ns": rec.root_wall_ns(),
        "counts": dict(rec.counts),
        "calls": rec.call_counts(),
        "layer_calls": rec.layer_call_counts(),
        "waits": rec.waits,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--scale", default="full", choices=("full", "tiny"))
    ap.add_argument("--spans-out", default="")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    pace = workload.pace
    if args.mode == "run":
        pace.start()
    setup_begin = pace.mark()
    workload.setup()
    setup_end = pace.mark()
    warm = [
        run_unit(workload, index, workload.execute)
        for index in range(workload.WARMUP)
    ]
    first = workload.WARMUP
    out = {}
    if args.mode == "run":
        units = []
        begin = time.perf_counter()
        while (
            time.perf_counter() - begin < args.seconds
            or len(units) < workload.DIGEST
        ):
            units.append(
                run_unit(workload, first + len(units), workload.execute)
            )
        timed = units
    else:
        trace = traced_units(workload, first, args.seconds, args.spans_out)
        units = trace.pop("units")
        timed = trace.pop("traced")
        out.update(trace)

    workload.final_checks()
    # Records are per operation; a wave unit contributes one per request.
    done = warm + units
    n_digest = workload.WARMUP + workload.DIGEST
    digest_records = workload.records[
        : sum(ops for _k, ops, *_ in done[:n_digest])
    ]
    pace.stop()
    out.update({
        "setup_s": pace.seconds(setup_begin, setup_end),
        "setup_wall_s": pace.wall(setup_begin, setup_end),
        "registration_s": [
            pace.seconds(begin, end) for begin, end in workload.registrations
        ],
        "host_speed": pace.speed(setup_begin, units[-1][3]),
        "timings": resolve(pace, timed),
        "ops": sum(ops for _k, ops, *_ in done),
        "digest": digest(digest_records),
        "failed": workload.failed,
        "check_failures": workload.check_failures[:20],
        "n_check_failures": len(workload.check_failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    })
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
