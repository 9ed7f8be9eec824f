"""Check that every output the benchmark pins still has its reference digest.

Produces each ``cert`` job of the three perfbench universes
(``perfbench.workloads.universe``) in process, runs each ``cli-scenario``
and ``cli-partition`` job through ``idealbench.cli.run`` into a temporary
directory, and compares the sha256 of each output's canonical bytes
(``perfbench.harness.digest``) with its entry in ``perfbench/refs.json``.
A job that several universes draw is checked once.  Prints the number of
matching outputs and each one that differs, and exits 1 if any differs.
It only reads files under ``perfbench/``; the benchmark itself is not run.
The summary line names the Python version that produced the outputs; to
check another interpreter, run the script with it.

Usage: python scripts/check_refs.py
"""

import argparse
import contextlib
import io
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import harness, workloads  # noqa: E402


def _cli_output(args, out):
    """The JSON ``idealbench`` writes to ``out`` for ``args``, or None on a non-zero exit."""
    from idealbench import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*args, "--out", out])
    if code != 0:
        return None
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def outputs(job, work_dir):
    """(identity, output) of each output a job writes; the output is None if it failed."""
    from idealbench import certify

    if job["type"] == "cert":
        yield harness.cert_identity(job), certify.produce(job["kind"], job["inputs"], job["seed"])
    elif job["type"] == "cli-scenario":
        name, seed = job["scenario"], job["seed"]
        cert = _cli_output(["diagonalize", "--scenario", name, "--seed", str(seed)],
                           os.path.join(work_dir, "scenario.json"))
        yield {"cli": "diagonalize", "scenario": name, "seed": seed}, cert
    else:
        depth = job["depth"]
        data = os.path.join(work_dir, "partition.json")
        doc = _cli_output(["construct", "--depth", str(depth)], data)
        yield {"cli": "construct", "depth": depth}, doc
        report = doc and _cli_output(["verify-construction", "--in", data],
                                     os.path.join(work_dir, "report.json"))
        yield {"cli": "verify-construction", "depth": depth}, report


def main(argv=None) -> int:
    argparse.ArgumentParser(description="compare every benchmark output with perfbench/refs.json"
                            ).parse_args(argv)
    refs = harness.load_refs()
    seen, differing, counts = set(), [], {}
    with tempfile.TemporaryDirectory() as work_dir:
        for workload in workloads.WORKLOADS:
            for job in workloads.universe(workload):
                for identity, output in outputs(job, work_dir):
                    key = harness.ref_key(identity)
                    if key in seen:
                        continue
                    seen.add(key)
                    what = identity.get("cli", "cert")
                    counts[what] = counts.get(what, 0) + 1
                    if output is None or refs.get(key) != harness.digest(output):
                        differing.append(identity)
    for identity in differing:
        print(f"differs: {json.dumps(identity, sort_keys=True)[:200]}")
    print(f"{len(seen) - len(differing)} of {len(seen)} outputs match perfbench/refs.json "
          f"({len(refs)} references) under Python {platform.python_version()}: "
          + ", ".join(f"{count} {what}" for what, count in sorted(counts.items())))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
