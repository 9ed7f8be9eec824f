"""Measure greedy partition build, verify and decimal I/O times by depth.

The growth conditions force |I_{n+1}| >= 2^(n+1) |I_n|^2, so the digit
count of the interval sizes doubles per level: about 1.7e5 digits at depth
19 and 5.5e6 at depth 24.  ``build_partition`` computes no number until
one is read, so the build of the greedy numbers in exact ``Decimal``
(libmpdec's transform multiply) shows under verify; it grows about twofold
per level at those depths.  For each depth this script prints the build
and verify times, the emit time (``to_json`` of the partition and of
its report), the parse time (``PartitionData.from_json`` of that output)
and the digit count of the last interval, read off the emitted text so
that no int is made.  It ends with the frontier: the largest depth whose
build plus verify fits in one second.  The depth-30 infeasibility
documented in the acceptance suite can be reproduced this way on any
machine.  Times are wall seconds from ``time.perf_counter``.

``--posdiff HORIZON`` times the difference engine instead: ``run_posdiff``
and ``assemble`` on the bundled ``posdiff-blocks`` scenario at its default
stage count, with the horizon raised to HORIZON.

Usage: python scripts/bench_partition.py [MAX_DEPTH] [--budget SECONDS]
       python scripts/bench_partition.py --posdiff HORIZON
"""

import argparse
import sys
import time

from idealbench.construction import PartitionData, build_partition, verify_partition
from idealbench.diagonal import assemble, run_posdiff
from idealbench.scenarios import load_scenario


def bench_posdiff(horizon: int) -> None:
    scn = load_scenario("posdiff-blocks")
    t0 = time.perf_counter()
    state = run_posdiff(scn.models(), horizon, scn.default_stages)
    t1 = time.perf_counter()
    assemble(state)
    t2 = time.perf_counter()
    print(
        f"posdiff-blocks horizon {horizon} stages {len(state.stages)}: "
        f"run_posdiff {t1 - t0:8.3f}s assemble {t2 - t1:8.3f}s"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_depth", nargs="?", type=int, default=24)
    parser.add_argument("--budget", type=float, default=60.0,
                        help="stop once one build exceeds this many seconds")
    parser.add_argument("--posdiff", type=int, metavar="HORIZON",
                        help="time the difference engine on posdiff-blocks instead")
    args = parser.parse_args()

    if args.posdiff is not None:
        bench_posdiff(args.posdiff)
        return 0
    frontier = None
    for depth in range(4, args.max_depth + 1):
        t0 = time.perf_counter()
        p = build_partition(depth)
        t1 = time.perf_counter()
        report = verify_partition(p)
        t2 = time.perf_counter()
        emitted = p.to_json()
        report.to_json()
        t3 = time.perf_counter()
        PartitionData.from_json(emitted)
        t4 = time.perf_counter()
        print(
            f"depth {depth:2d}: build {t1 - t0:8.3f}s verify {t2 - t1:8.3f}s "
            f"emit {t3 - t2:8.3f}s parse {t4 - t3:8.3f}s "
            f"last interval {len(emitted['lengths'][-1])} digits passed={report.passed}"
        )
        if t2 - t0 <= 1.0:
            frontier = depth
        if t1 - t0 > args.budget:
            print("budget exceeded, stopping")
            break
    print(f"frontier: depth {frontier}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
