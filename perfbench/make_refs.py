"""Write the reference digests in ``perfbench/refs.json``.

    python3 perfbench/make_refs.py

Enumerates every job a seed can draw (``workloads.universe``), produces its
certificates in process and its CLI outputs in child processes, and stores
the sha256 of each output's canonical bytes under the job's key.  Run it
only on a tree whose certificates are trusted; the benchmark then counts
every differing digest as a failed operation.  A job whose outcome is not
the expected one aborts the run, so the universe holds only jobs that
finish as their inputs declare.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench_run  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description="rewrite perfbench/refs.json for every workload"
                            ).parse_args(argv)
    bench_run._import_program()
    from idealbench import certify
    from perfbench import harness, workloads

    gate = harness.Gate({}, record=True)
    harness.OUT_DIR.mkdir(exist_ok=True)
    work_dir = harness.OUT_DIR / "refs-work"
    work_dir.mkdir(exist_ok=True)
    executor = harness.Executor(gate, work_dir, calibrate=False)
    try:
        for workload in workloads.WORKLOADS:
            t0 = time.perf_counter()
            jobs = workloads.universe(workload)
            for i, job in enumerate(jobs):
                if job["type"] == "cert":
                    try:
                        cert = certify.produce(job["kind"], job["inputs"], job["seed"])
                    except Exception as exc:
                        raise SystemExit(f"{workload}: {job['label']} raised {type(exc).__name__}")
                    if not harness.EXPECTED[job["kind"]](cert["body"]):
                        raise SystemExit(f"{workload}: {job['label']} does not finish as expected")
                    gate.digest_ok(harness.cert_identity(job), harness.digest(cert))
                else:
                    executor.run(job, harness.Samples(), i)
                    if gate.failed:
                        raise SystemExit(f"{workload}: {gate.failures}")
            print(f"{workload}: {len(jobs)} jobs in {time.perf_counter() - t0:.1f}s", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(harness.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"format": 1, "digests": dict(sorted(gate.refs.items()))}, fh, indent=0,
                  sort_keys=True)
        fh.write("\n")
    print(f"{len(gate.refs)} digests written to {harness.REFS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
