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
that no int is made.  A process keeps the greedy levels it has read
(``construction.greedy_levels``), so the script empties that table before
each build and each parse: both start cold, as in a fresh process, and
no row is a one-level extension of the row before it.  It ends with the
frontier: the largest depth whose build plus verify fits in one second.
The depth-30 infeasibility documented in the acceptance suite can be
reproduced this way on any machine.  Times are wall seconds from ``time.perf_counter``.

``--posdiff HORIZON`` times the difference engine instead: ``run_posdiff``
and ``assemble`` on the bundled ``posdiff-blocks`` scenario at its default
stage count, with the horizon raised to HORIZON.

``--certs DEPTH...`` times certificates instead: for each depth, the CPU
seconds (``time.process_time``) of ``certify.produce`` and of
``certify.recheck`` of a ``partition``, a ``weight-bound`` and a
one-pair ``subset-reduction`` certificate, and from depth 8 on (the
least at which its four stages fit) of a 4-stage diagonalization of the
bundled ``pw-2c`` scenario at that depth.  Each produce starts from an
empty table of greedy levels (cold: it runs the recurrence to its depth
in each arithmetic it reads), and the recheck right after it reads the
levels that produce left (warm: it rebuilds the body but runs no
recurrence).

Usage: python scripts/bench_partition.py [MAX_DEPTH] [--budget SECONDS]
       python scripts/bench_partition.py --posdiff HORIZON
       python scripts/bench_partition.py --certs DEPTH [DEPTH ...]
"""

import argparse
import sys
import time

from idealbench import certify, construction
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


# the least depth at which pw-2c runs its 4 stages
PW_2C_DEPTH = 8


def timed_certificates(depth: int):
    """Each certificate ``--certs`` times at ``depth``: its column, kind and inputs."""
    yield "partition", "partition", {"depth": depth}
    yield "weight-bound", "weight-bound", {"depth": depth}
    yield "subset-reduction", "subset-reduction", {"depth": depth, "pairs": 1}
    if depth >= PW_2C_DEPTH:
        scenario = {**load_scenario("pw-2c").to_json(), "depth": depth}
        yield "pw-2c", "diagonalization", {"scenario": scenario, "stages": 4}


def bench_certs(depths) -> None:
    for depth in depths:
        cells = []
        for column, kind, inputs in timed_certificates(depth):
            construction._LEVELS.clear()
            t0 = time.process_time()
            cert = certify.produce(kind, inputs, 0)
            t1 = time.process_time()
            passed, detail = certify.recheck(cert)
            t2 = time.process_time()
            if not passed:
                raise SystemExit(f"{column} depth {depth}: {detail}")
            cells.append(f"{column} produce {t1 - t0:8.3f}s recheck {t2 - t1:8.3f}s")
        print(f"depth {depth:2d}: " + " ".join(cells))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_depth", nargs="?", type=int, default=24)
    parser.add_argument("--budget", type=float, default=60.0,
                        help="stop once one build exceeds this many seconds")
    parser.add_argument("--posdiff", type=int, metavar="HORIZON",
                        help="time the difference engine on posdiff-blocks instead")
    parser.add_argument("--certs", type=int, nargs="+", metavar="DEPTH",
                        help="time partition, weight-bound, subset-reduction and pw-2c "
                             "certificates instead")
    args = parser.parse_args()

    if args.posdiff is not None:
        bench_posdiff(args.posdiff)
        return 0
    if args.certs is not None:
        bench_certs(args.certs)
        return 0
    frontier = None
    for depth in range(4, args.max_depth + 1):
        construction._LEVELS.clear()
        t0 = time.perf_counter()
        p = build_partition(depth)
        t1 = time.perf_counter()
        report = verify_partition(p)
        t2 = time.perf_counter()
        emitted = p.to_json()
        report.to_json(emitted["rationals"])  # as a certificate body writes it
        construction._LEVELS.clear()
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
