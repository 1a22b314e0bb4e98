"""Small-size smoke tests for the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, MorningStorm, check_storm_reply  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_at_tiny_scale(workload, trace):
    spec = run.load_spec()
    result = result_of(bench(
        "--workload", workload, "--seed", "5", "--seconds", "0.3",
        "--trace", trace, "--scale", "tiny",
    ))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    group = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[group]]
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_spec_names_every_workload():
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        assert workload.DIGEST > 0


def test_same_seed_same_digest():
    digests = []
    for _ in range(2):
        proc = bench("--workload", "kadmin_churn", "--seed", "9",
                     "--seconds", "0.2", "--scale", "tiny")
        result_of(proc)
        digests.append([
            line for line in proc.stdout.splitlines()
            if line.startswith("# digest:")
        ])
    assert digests[0] == digests[1] != [[]]


def test_self_time_subtracts_covered_child_intervals():
    # root [0, 100): children [10, 30) and [20, 50) overlap -> cover 40;
    # grandchild [12, 18) lies inside the first child.
    starts = [0, 10, 20, 12, 60]
    ends = [100, 30, 50, 18, 70]
    parents = [-1, 0, 0, 1, 0]
    assert tracer.self_times(starts, ends, parents) == [
        100 - 40 - 10, 20 - 6, 30, 6, 10,
    ]


def test_pace_rescales_wall_time_to_the_nominal_speed():
    p = pace.HostPace()
    # Four samples at half the nominal speed, 0.5 s of them inside.
    p.samples = [2 * pace.NOMINAL_REF_S] * 4
    begin, end = (10.0, 0.0, 0), (13.0, 0.5, 4)
    assert p.wall(begin, end) == 2.5
    assert p.speed(begin, end) == 2.0
    assert p.seconds(begin, end) == 1.25
    # Without samples, an interval is its wall time.
    assert pace.HostPace().seconds((1.0, 0.0, 0), (1.5, 0.0, 0)) == 0.5


def test_pace_samples_while_started_and_stops():
    p = pace.HostPace()
    p.start()
    try:
        begin = p.mark()
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        end = p.mark()
    finally:
        p.stop()
    assert end[2] - begin[2] >= 5
    assert 0 < p.wall(begin, end) < 0.1
    taken = len(p.samples)
    time.sleep(0.05)
    assert len(p.samples) == taken


def test_recorder_attributes_nested_calls_to_layers():
    rec = tracer.Recorder()
    inner = rec.wrap("inner", "b", lambda: sum(range(1000)))
    outer = rec.wrap("outer", "a", lambda: inner() + inner())
    rec.on = True
    outer()
    rec.on = False
    assert rec.parents == [-1, 0, 0]
    per_layer = rec.layer_self_ns()
    assert sum(per_layer.values()) == rec.root_wall_ns()
    assert rec.layer_call_counts() == {"a": 1, "b": 2}


def test_unpatch_restores_every_entry_point():
    from repro.core import messages
    from repro.core.kdc import KerberosServer
    from repro.database.db import KerberosDatabase
    from repro.netsim.ports import KERBEROS_PORT

    storm = MorningStorm(seed=3, scale="tiny")
    storm.setup()
    host = storm.realm.master_host
    queue = next(
        s for s in host.services if isinstance(s, KerberosServer)
    ).workqueue

    def entry_points():
        return (
            messages.encode_message,
            KerberosDatabase.__dict__["get_record"],
            host.handler_for(KERBEROS_PORT),
            vars(queue)["_process"],
            vars(queue).get("_observe_waits"),
        )

    before = entry_points()
    rec = tracer.Recorder()
    tracer.instrument(rec, storm.net)
    assert all(a is not b for a, b in zip(entry_points(), before))
    rec.unpatch()
    assert all(a is b for a, b in zip(entry_points(), before))


def test_corrupted_reply_trips_the_storm_check():
    storm = MorningStorm(seed=2, scale="tiny")
    storm.setup()
    unit = storm.prepare(0)
    storm.execute(unit)
    requests, _posts, pendings = unit.payload
    kinds = {r.kind for r in requests}
    assert kinds == {"as", "tgs"}
    for request, pending in zip(requests, pendings):
        assert check_storm_reply(request, pending.reply) is None
        corrupted = bytearray(pending.reply)
        corrupted[-12] ^= 0x01
        assert check_storm_reply(request, bytes(corrupted)) is not None
    # A reply meant for another request is refused too.
    assert check_storm_reply(requests[0], pendings[1].reply) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "athena_login", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
