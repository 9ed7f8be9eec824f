"""Fold perfbench records of parent/change runs into one BENCH_<rev>.json.

Run ``perfbench/run.py --trace 0`` alternately on the parent commit and on
the change, with the same workload and seed for both runs of a pair, then
pass the two sets of records that ``perfbench/out/records/`` holds.  REV is
the parent commit: a BENCH file measures the change made on top of it, so
it can be written before that change is committed.

For each workload and each end-to-end metric of ``BENCHMARK.json`` the
output holds, in normalized and in raw seconds, the median and the
quartiles (``statistics.quantiles(n=4)``) of the parent's runs and of the
change's, and in how many pairs the change was better in that metric's
direction.  It also holds the seeds, the pair count, and the source digest,
machine and Python version of each side.  A run with a failed operation is
refused: it measured wrong output.

Usage: python scripts/bench_fold.py --rev REV --parent REC... --change REC...
                                    [--out-dir DIR]

DIR, the repository root by default, is made if it does not exist.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(paths):
    """{(workload, seed): record} for the given record files; ValueError on bad input."""
    records = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if rec["trace"] != 0:
            raise ValueError(f"{path}: a traced run (--trace 1) times differently")
        if rec["failed"]:
            raise ValueError(f"{path}: {rec['failed']} operations failed")
        key = (rec["workload"], rec["seed"])
        if key in records:
            raise ValueError(f"{path}: a second run of {key[0]} with seed {key[1]}")
        records[key] = rec
    return records


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def side(records):
    """The distinct code revisions, machines and Pythons of one side's runs."""
    out = {}
    for field in ("git_rev", "source_sha256", "machine", "python"):
        out[field] = []
        for rec in records:
            if rec[field] not in out[field]:
                out[field].append(rec[field])
    return out


def fold(rev, parents, changes, better):
    if parents.keys() != changes.keys():
        raise ValueError("parent and change runs must pair up by workload and seed: "
                         f"unpaired {sorted(parents.keys() ^ changes.keys())}")
    workloads = {}
    for workload in sorted({w for w, _ in parents}):
        seeds = sorted(s for w, s in parents if w == workload)
        if len(seeds) < 2:
            raise ValueError(f"{workload}: quartiles need at least 2 pairs")
        pairs = [(parents[workload, s], changes[workload, s]) for s in seeds]
        folded = {"pairs": len(seeds), "seeds": seeds}
        for scale, field in (("normalized", "metrics"), ("raw", "raw_metrics")):
            folded[scale] = {}
            for metric, direction in better.items():
                if metric not in pairs[0][0][field]:
                    continue
                before = [p[field][metric] for p, _ in pairs]
                after = [c[field][metric] for _, c in pairs]
                sign = 1 if direction == "lower" else -1
                folded[scale][metric] = {
                    "better": direction,
                    "parent": summary(before),
                    "change": summary(after),
                    "change_better_pairs": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
                }
        workloads[workload] = folded
    return {
        "rev": rev,
        "parent": side(parents.values()),
        "change": side(changes.values()),
        "workloads": workloads,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the parent commit")
    parser.add_argument("--parent", nargs="+", required=True, help="records of the parent's runs")
    parser.add_argument("--change", nargs="+", required=True, help="records of the change's runs")
    parser.add_argument("--out-dir", default=ROOT)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    try:
        doc = fold(args.rev, load_records(args.parent), load_records(args.change), better)
    except ValueError as exc:
        print(f"bench_fold: {exc}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    out = os.path.join(args.out_dir, f"BENCH_{args.rev}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for workload, folded in doc["workloads"].items():
        print(f"{workload}: {folded['pairs']} pairs")
        for metric, entry in folded["normalized"].items():
            print(f"  {metric}: {entry['parent']['median']:.4g} -> {entry['change']['median']:.4g}"
                  f" (change better in {entry['change_better_pairs']} of {folded['pairs']})")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
