"""Certificate benchmark for idealbench: one workload, one seed, one run.

    python3 perfbench/run.py --workload partition-deep --seed 1 --seconds 25 --trace 0

Prints every end-to-end metric (``--trace 0``) or every per-layer metric
from a traced run (``--trace 1``) by name and unit, checks every output
against committed reference digests, writes a run record under
``perfbench/out/records/`` and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exits 2 without a result when the idealbench sources are not beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

END_TO_END = (
    ("setup_s", "s"),
    ("certs_per_s", "1/s"),
    ("produce_s.p50", "s"),
    ("produce_s.tail", "s"),
    ("recheck_s.p50", "s"),
    ("recheck_s.tail", "s"),
    ("cli_s.p50", "s"),
    ("cli_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7
STARTUP_PROBES = 3


def per_layer_specs():
    from perfbench.tracing import traced_names

    specs = []
    for name in traced_names():
        specs.append((f"{name}.self_s", "s"))
        specs.append((f"{name}.calls", "count"))
    specs += [
        ("serialize.canonical_bytes.bytes", "bytes"),
        ("diagonal.stages", "count"),
        ("diagonal.contradictions", "count"),
        ("certify.recheck.reproduce_share", "ratio"),
        ("cli.startup_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
    return specs


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "idealbench" / "__init__.py").is_file():
        _fail(f"no idealbench sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import idealbench

    if Path(idealbench.__file__).resolve().parent != (SRC / "idealbench").resolve():
        _fail(f"imported idealbench from {idealbench.__file__}, not from {SRC}")


def _child(clock, args, env=None) -> tuple:
    """(raw seconds, kernel index) of one child process, started after a kernel."""
    from perfbench.harness import run_child

    code, wall, _, index = clock.measure(run_child, args, env)
    if code != 0:
        _fail(f"{' '.join(args[1:])} exited {code}")
    return wall, index


# -- phases ------------------------------------------------------------------------------

def setup(workload: str, seed: int, rounds: int, toy: bool, executor, samples):
    """Input generation and warm-up; what setup_s times in a fresh process."""
    from perfbench import workloads

    jobs = workloads.job_rounds(workload, seed, rounds, toy)
    for job in workloads.warmup_jobs(workload):
        executor.run(job, samples, -1)
    return jobs


def run_pass(job_rounds, run_job, cap_s: float) -> tuple:
    """run_job(job, index) for every job of every round; stops starting
    rounds once past cap_s.  Returns (wall seconds, rounds done)."""
    t0 = time.perf_counter()
    done = 0
    index = 0
    for jobs in job_rounds:
        if done and time.perf_counter() - t0 > cap_s:
            break
        for job in jobs:
            run_job(job, index)
            index += 1
        done += 1
    return time.perf_counter() - t0, done


def end_to_end(seconds: dict, certs: int, setup_s: float, rss_mb: float) -> tuple:
    """End-to-end metrics from per-operation seconds, plus what each .tail is."""
    from perfbench.harness import median, tail

    in_process = sum(seconds["produce"]) + sum(seconds["recheck"])
    metrics = {"setup_s": setup_s, "certs_per_s": certs / in_process if in_process else 0.0}
    tails = {}
    for name in ("produce", "recheck", "cli"):
        values = seconds[name] or [0.0]
        metrics[f"{name}_s.p50"] = median(values)
        metrics[f"{name}_s.tail"], p = tail(values)
        tails[f"{name}_s"] = {"percentile": p, "samples": len(seconds[name]),
                              "beyond": sum(v > metrics[f"{name}_s.tail"] for v in values)}
    metrics["peak_rss_mb"] = rss_mb
    return metrics, tails


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "idealbench").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev():
    # a checkout without .git has no rev; git would look in the directories above it
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def by_depth_table(seconds: dict) -> dict:
    """Median seconds per operation at each partition depth."""
    from perfbench.harness import median

    table: dict = {}
    for key, values in seconds.items():
        if "@" in key:
            name, depth = key.split("@")
            table.setdefault(depth, {})[f"{name}_s"] = {"median": median(values),
                                                         "samples": len(values)}
    return dict(sorted(table.items(), key=lambda kv: int(kv[0])))


def measure_plain(args, executor, job_rounds, record) -> dict:
    """End-to-end metrics: every round untraced, set-up probes in between."""
    from perfbench import harness

    clock = executor.clock
    probe = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe"] + (["--toy"] if args.toy else [])
    samples = harness.Samples()
    # the set-up probes are spread over the first round, so that their median
    # meets the machine in the states the jobs meet it in
    every = max(1, len(job_rounds[0]) // SETUP_PROBES)
    probes = []

    def run_job(job, index):
        if index % every == 0 and len(probes) < SETUP_PROBES:
            probes.append(_child(clock, probe))
        executor.run(job, samples, index)

    wall, done = run_pass(job_rounds, run_job, 1.5 * args.seconds)
    while len(probes) < SETUP_PROBES:
        probes.append(_child(clock, probe))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    seconds = samples.seconds(clock)
    setup_s = harness.median([clock.normalized(raw, i, "child") for raw, i in probes])
    metrics, tails = end_to_end(seconds, samples.certs, setup_s, rss_mb)
    raw_metrics, _ = end_to_end(samples.seconds(), samples.certs,
                                harness.median([raw for raw, _ in probes]), rss_mb)
    record.update(tails=tails, loop_wall_s=wall, raw_metrics=raw_metrics, rounds_done=done,
                  samples={k: len(v) for k, v in seconds.items() if "@" not in k},
                  certs=samples.certs)
    if args.workload == "partition-deep":
        record["latency_by_depth"] = by_depth_table(seconds)
    return metrics


def measure_traced(args, executor, job_rounds, record) -> dict:
    """Per-layer metrics: every job runs twice, plain and traced.

    The two runs of a job are adjacent, in alternating order, so the
    machine's drift cancels out of the trace overhead (traced minus plain
    wall time, summed over jobs).
    """
    from perfbench import harness
    from perfbench.tracing import Tracer, format_table

    clock = executor.clock
    startup = [_child(clock, [sys.executable, "-c", "import idealbench"], harness.cli_env())
               for _ in range(STARTUP_PROBES)]
    tracer = Tracer()
    samples, plain_samples = harness.Samples(), harness.Samples()

    def run_traced(body):
        tracer.install()
        executor.tracer = tracer
        try:
            t0 = time.perf_counter()
            body()
            return time.perf_counter() - t0
        finally:
            executor.tracer = None
            tracer.uninstall()

    def run_plain(body):
        t0 = time.perf_counter()
        body()
        return time.perf_counter() - t0

    def traced_setup():
        with tracer.span("bench.setup"):
            setup(args.workload, args.seed, len(job_rounds), args.toy, executor, harness.Samples())

    run_traced(traced_setup)
    walls = {"plain": 0.0, "traced": 0.0}
    modes = (("plain", run_plain, plain_samples), ("traced", run_traced, samples))

    def run_both(job, index):
        for mode, runner, into in modes[::-1] if index % 2 else modes:
            walls[mode] += runner(lambda: executor.run(job, into, index))

    _, done = run_pass(job_rounds, run_both, 1.5 * args.seconds)

    rows = tracer.table()
    metrics = {name: 0 if unit == "count" else 0.0 for name, unit in per_layer_specs()}
    for name, row in rows.items():
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = row["self_ns"] / 1e9
            metrics[f"{name}.calls"] = row["calls"]
    recheck = rows.get("certify.recheck")
    metrics.update({
        "serialize.canonical_bytes.bytes": tracer.counters["serialize.canonical_bytes.bytes"],
        "diagonal.stages": samples.diag_stages,
        "diagonal.contradictions": samples.diag_contradictions,
        "certify.recheck.reproduce_share":
            1.0 - recheck["self_ns"] / recheck["total_ns"] if recheck else 0.0,
        "cli.startup_s": harness.median([clock.normalized(r, i, "child") for r, i in startup]),
        "trace.overhead_s": walls["traced"] - walls["plain"],
        "trace.spans": len(tracer),
    })

    trace_dir = harness.OUT_DIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write_spans(trace_dir / f"{stem}-spans.jsonl")
    wall_ns = tracer.root_wall_ns()
    table = format_table(rows, wall_ns)
    (trace_dir / f"{stem}-selftime.txt").write_text(table + "\n", encoding="utf-8")
    print(table)
    record.update(
        rounds_done=done, plain_wall_s=walls["plain"], traced_wall_s=walls["traced"],
        traced_root_wall_s=wall_ns / 1e9, self_time_sum_s=sum(tracer.self_times()) / 1e9,
        self_times={n: {"calls": r["calls"], "self_s": r["self_ns"] / 1e9,
                        "total_s": r["total_ns"] / 1e9} for n, r in rows.items()},
    )
    return metrics


def write_record(args, record: dict) -> Path:
    from perfbench import harness

    records = harness.OUT_DIR / "records"
    records.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# -- main -----------------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny job list for smoke tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench import harness, workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    # a traced run does every round twice, so it plans half as many
    nominal = workloads.ROUND_SECONDS[args.workload] * (2 if args.trace else 1)
    rounds = 1 if args.toy else max(1, round(args.seconds / nominal))

    harness.OUT_DIR.mkdir(exist_ok=True)
    work_dir = harness.OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        gate = harness.Gate(harness.load_refs())
        # a set-up probe times import, input generation and warm-up only
        executor = harness.Executor(gate, work_dir, in_process_cli=bool(args.trace),
                                    calibrate=not args.setup_probe)
        t0 = time.perf_counter()
        job_rounds = setup(args.workload, args.seed, rounds, args.toy, executor,
                           harness.Samples())
        if args.setup_probe:
            return 0 if gate.failed == 0 else 1
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "toy": args.toy, "rounds_planned": rounds,
            "jobs_per_round": [len(r) for r in job_rounds],
            "main_setup_s": time.perf_counter() - t0,
            "machine": {"platform": platform.platform(), "machine": platform.machine(),
                        "cpu": cpu_model(), "nproc": os.cpu_count()},
            "python": sys.version.split()[0],
            "git_rev": git_rev(), "source_sha256": source_digest(),
        }
        if args.trace:
            metrics, specs = measure_traced(args, executor, job_rounds, record), per_layer_specs()
        else:
            metrics, specs = measure_plain(args, executor, job_rounds, record), END_TO_END
        record.update(
            calibration={f"{part}_{clock}": {"ref_s": harness.CAL_REF_S[part],
                                              "kernels": len(times),
                                              "median_s": harness.median(times),
                                              "min_s": min(times), "max_s": max(times)}
                         for clock, parts in executor.clock.kernel.items()
                         for part, times in parts.items()},
            attempted=gate.attempted, failed=gate.failed,
            failed_ratio=gate.failed / gate.attempted if gate.attempted else 1.0,
            failures=gate.failures, digests_checked=gate.digests_checked, metrics=metrics,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record_path = write_record(args, record)

    for name, unit in specs:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for name, t in record.get("tails", {}).items():
        print(f"{name}.tail is p{t['percentile']:.1f} of {t['samples']} samples "
              f"({t['beyond']} beyond it)")
    print(f"rounds {record['rounds_done']}, attempted {gate.attempted}, failed {gate.failed} "
          f"(failed_ratio {record['failed_ratio']:.4g}), digests checked {gate.digests_checked}")
    for line in gate.failures:
        print(f"FAILED: {line}")
    print(f"record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed if gate.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
