"""The benchmark's own checks: seeded job lists, metric names, traced self
times and a smoke run of every workload at toy sizes.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import harness, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record_line = next(line for line in lines if line.startswith("record: "))
    result = json.loads(lines[-1])
    result["record"] = json.loads((ROOT / record_line[len("record: "):]).read_text())
    return result


def _keys(jobs):
    return [json.dumps(job, sort_keys=True) for job in jobs]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    first = [_keys(r) for r in workloads.job_rounds(workload, 7, 2)]
    again = [_keys(r) for r in workloads.job_rounds(workload, 7, 2)]
    other = [_keys(r) for r in workloads.job_rounds(workload, 8, 2)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_drawn_jobs_have_reference_digests(workload):
    universe = set(_keys(workloads.universe(workload)))
    for seed in range(5):
        for jobs in workloads.job_rounds(workload, seed, 2):
            assert set(_keys(jobs)) <= universe
    refs = harness.load_refs()
    for job in workloads.universe(workload):
        if job["type"] == "cert":
            assert harness.ref_key(harness.cert_identity(job)) in refs, job["label"]


def test_tail_has_ten_samples_beyond_it():
    values = [float(v) for v in range(41)]
    assert harness.tail(values) == (30.0, 75.0)
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_are_exact_and_non_negative():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    wrapped = tracer.wrap("leaf", leaf)

    def inner():
        return wrapped(1000) + wrapped(2000)

    inner_w = tracer.wrap("inner", inner)
    with tracer.span("root"):
        inner_w()
        wrapped(500)
    own = tracer.self_times()
    assert all(t >= 0 for t in own)
    assert sum(own) == tracer.root_wall_ns()
    rows = tracer.table()
    assert rows["leaf"]["calls"] == 3 and rows["inner"]["calls"] == 1


def test_install_rebinds_and_restores():
    from idealbench import certify, diagonal, ramsey

    original = ramsey.matching_cases
    tracer = Tracer()
    tracer.install()
    try:
        assert diagonal.matching_cases is ramsey.matching_cases is not original
        certify.produce("partition", {"depth": 5}, 0)
    finally:
        tracer.uninstall()
    assert diagonal.matching_cases is original and ramsey.matching_cases is original
    names = set(tracer.table())
    assert {"certify.produce.partition", "construction.verify_partition"} <= names


def test_metric_names_match_benchmark_json_and_self_times_add_up():
    spec = _spec()
    plain = _run("partition-deep", 0)
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        assert plain["metrics"][m["name"]]["unit"] == m["unit"]
    traced = _run("partition-deep", 1)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for m in spec["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    record = traced["record"]
    assert all(row["self_s"] >= 0 for row in record["self_times"].values())
    assert record["self_time_sum_s"] == pytest.approx(record["traced_root_wall_s"], abs=1e-9)
    assert traced["metrics"]["construction.verify_partition.calls"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_at_toy_size_passes(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert result["record"]["digests_checked"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources():
    lone = BENCH / "out" / "no-sources"
    copy = lone / "perfbench"
    shutil.rmtree(lone, ignore_errors=True)
    copy.mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        proc = subprocess.run(
            [sys.executable, str(copy / "run.py"), "--workload", "partition-deep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=lone,
        )
    finally:
        shutil.rmtree(lone, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
