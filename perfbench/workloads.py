"""Seeded job lists for the three benchmark workloads.

A job is a plain dict; ``perfbench.harness`` executes it.  Job types:

* ``cert``: produce a certificate in process, check its digest and its
  expected outcome, recheck it, optionally recheck a single-field mutant
  (which must be rejected) and optionally recheck it once more through
  ``idealbench certify --in`` in a child process;
* ``cli-partition``: ``idealbench construct --out`` then
  ``idealbench verify-construction --in`` on the written file;
* ``cli-scenario``: ``idealbench diagonalize --out`` on a bundled scenario
  then ``idealbench certify --in`` on the written certificate.

Every workload has a finite universe of jobs, and a round is a seeded draw
from it whose cost profile does not depend on the seed: the seed permutes
the jobs and draws the parameters that barely move their cost.  Reference
digests exist for the whole universe (``perfbench/refs.json``), so any seed
can be checked.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List

WORKLOADS = ("partition-deep", "engine-stages", "acceptance-mix")

# Seconds of --seconds that buy one round: a run does round(seconds /
# ROUND_SECONDS) rounds, at least one.  At the default 25 s that is one
# round of partition-deep and engine-stages and two of acceptance-mix, about
# 40 s per run on a 2-core x86-64 machine.
ROUND_SECONDS = {"partition-deep": 24.0, "engine-stages": 24.0, "acceptance-mix": 11.0}

# -- partition-deep -------------------------------------------------------------

PARTITION_DEPTHS = tuple(range(12, 20))
# jobs per depth in one round; depths 18 and 19 form the expensive tail
PARTITION_MIX = {12: 3, 13: 2, 14: 3, 15: 3, 16: 3, 17: 3, 18: 2, 19: 1}
PARTITION_TOY_MIX = {12: 2, 13: 1, 14: 1}

# -- engine-stages ----------------------------------------------------------------

# stage ranges per (engine, form) that finish as their scenario expects;
# hindman forms 2 and 3 pass 5 s per certificate beyond 9 stages, and
# form 4 exhausts its scan cap at stage 8
HINDMAN_STAGES = {2: range(6, 10), 3: range(6, 10), 4: range(6, 9), 5: range(6, 13)}
RAMSEY_STAGES = {2: range(8, 13), 3: range(8, 13), 4: range(8, 13)}
PWFIN_CASES = ("2b", "2c")
PWFIN_DEPTHS = (14, 15, 16)
PWFIN_STAGES = range(4, 8)
POSDIFF_BASE_LABELS = range(3, 8)
POSDIFF_RATIOS = range(2, 5)
# (stages, horizon, starts, base labels, ratios) strata, one posdiff job per
# stratum per round.  Start 2 with ratio 2 exhausts the 20000 horizon by
# stage 6.  The 7-stage stratum takes 3 s, a fifth of the round, so its rule
# is fixed: a seed-drawn rule there would move certs_per_s by the seed.
POSDIFF_STRATA = (
    (5, 12000, range(3, 6), POSDIFF_BASE_LABELS, POSDIFF_RATIOS),
    (7, 20000, (4,), (5,), (3,)),
)
SCENARIO_SEEDS = range(8)

# -- acceptance-mix -----------------------------------------------------------------

ACCEPTANCE_SEEDS = range(16)
C05_STAGED = (
    "pw-2b", "pw-2c", "posdiff-blocks",
    "hindman-case2", "hindman-case3", "hindman-case4", "hindman-case5",
    "ramsey-case2", "ramsey-case3", "ramsey-case4",
)
C05_CONTRADICTION = ("hindman-case1", "ramsey-case1", "pw-2a", "posdiff-finite-labels")
C06_IDENTITY = ("hindman-case2", "hindman-case3", "ramsey-case2", "ramsey-case4")
C09_TREES = ("sep1-basic", "sep2-critical", "label-tie", "pwfin-case2b")


def cert_job(kind: str, inputs: dict, seed: int = 0, label: str = "", **extra) -> dict:
    job = {"type": "cert", "kind": kind, "inputs": inputs, "seed": seed,
           "label": label or kind, "mutant": False, "cli_certify": False}
    job.update(extra)
    return job


def _scenario(name: str) -> dict:
    from idealbench.scenarios import load_scenario

    return load_scenario(name).to_json()


# -- partition-deep ----------------------------------------------------------------

def partition_jobs(depth: int) -> List[dict]:
    return [
        cert_job("partition", {"depth": depth}, label=f"partition-d{depth}", depth=depth),
        cert_job("weight-bound", {"depth": depth}, label=f"weight-bound-d{depth}", depth=depth),
        {"type": "cli-partition", "depth": depth, "label": f"cli-partition-d{depth}"},
    ]


def _partition_round(rng: random.Random, toy: bool) -> List[dict]:
    mix = PARTITION_TOY_MIX if toy else PARTITION_MIX
    depths = [d for d, count in sorted(mix.items()) for _ in range(count)]
    rng.shuffle(depths)
    return [job for d in depths for job in partition_jobs(d)]


# -- engine-stages ------------------------------------------------------------------

def hindman_job(form: int, stages: int) -> dict:
    scn = copy.deepcopy(_scenario(f"hindman-case{form}"))
    scn["name"] = f"gen-hindman-f{form}-s{stages}"
    return cert_job("diagonalization", {"scenario": scn, "stages": stages},
                    label=f"hindman-f{form}-s{stages}", engine="hindman")


def ramsey_job(form: int, stages: int) -> dict:
    scn = copy.deepcopy(_scenario(f"ramsey-case{form}"))
    scn["name"] = f"gen-ramsey-f{form}-s{stages}"
    return cert_job("diagonalization", {"scenario": scn, "stages": stages},
                    label=f"ramsey-f{form}-s{stages}", engine="ramsey")


def pwfin_job(case: str, depth: int, stages: int) -> dict:
    scn = copy.deepcopy(_scenario(f"pw-{case}"))
    scn["name"] = f"gen-pw-{case}-d{depth}-s{stages}"
    scn["depth"] = depth
    return cert_job("diagonalization", {"scenario": scn, "stages": stages},
                    label=f"pwfin-{case}-d{depth}-s{stages}", engine="pwfin")


def posdiff_job(start: int, base_label: int, ratio: int, stages: int, horizon: int) -> dict:
    scn = copy.deepcopy(_scenario("posdiff-blocks"))
    scn["name"] = f"gen-posdiff-{start}-{base_label}-{ratio}-s{stages}-h{horizon}"
    scn["horizon"] = horizon
    scn["models"][0]["labels"] = {"kind": "block-geometric", "start": start,
                                  "base_label": base_label, "ratio": ratio}
    return cert_job("diagonalization", {"scenario": scn, "stages": stages},
                    label=f"posdiff-s{stages}-h{horizon}", engine="posdiff")


def scenario_cli_job(name: str, seed: int) -> dict:
    return {"type": "cli-scenario", "scenario": name, "seed": seed,
            "label": f"cli-{name}"}


def _bundled_names() -> List[str]:
    from idealbench.scenarios import bundled_names

    return bundled_names()


def _engine_round(rng: random.Random, toy: bool) -> List[dict]:
    jobs: List[dict] = []
    for form, stage_range in HINDMAN_STAGES.items():
        for stages in stage_range:
            if not toy or stages <= 7:
                jobs.append(hindman_job(form, stages))
    for form, stage_range in RAMSEY_STAGES.items():
        for stages in stage_range:
            jobs.append(ramsey_job(form, stages))
    for case in PWFIN_CASES:
        for depth in PWFIN_DEPTHS:
            for stages in PWFIN_STAGES:
                jobs.append(pwfin_job(case, depth, stages))
    if not toy:
        for stages, horizon, starts, base_labels, ratios in POSDIFF_STRATA:
            jobs.append(posdiff_job(rng.choice(starts), rng.choice(base_labels),
                                    rng.choice(ratios), stages, horizon))
    names = _bundled_names()
    if toy:
        names = [n for n in names if n.startswith(("hindman", "ramsey"))][:3]
    jobs.extend(scenario_cli_job(name, rng.choice(SCENARIO_SEEDS)) for name in names)
    rng.shuffle(jobs)
    return jobs


# -- acceptance-mix -------------------------------------------------------------------

def acceptance_jobs(seeds: Dict[str, int], toy: bool = False) -> List[dict]:
    """Certificates of criteria C03-C10, each with its own derived seed."""
    extra = {"mutant": True, "cli_certify": True}
    jobs = [
        cert_job("subset-reduction", {"depth": 12, "pairs": 20}, seeds["C03"], "C03", **extra),
        cert_job("pigeonhole", {"depth": 4, "samples": 200, "interval": 2}, seeds["C04"], "C04",
                 **extra),
    ]
    for name in C05_STAGED:
        jobs.append(cert_job("diagonalization", {"scenario": _scenario(name), "stages": 4},
                             seeds["C05"], f"C05-{name}", **extra))
    for name in C05_CONTRADICTION:
        scn = _scenario(name)
        jobs.append(cert_job("diagonalization",
                             {"scenario": scn, "stages": scn.get("stages_default", 4)},
                             seeds["C05"], f"C05-{name}", **extra))
    for name in C06_IDENTITY:
        jobs.append(cert_job("structural-identity", {"scenario": _scenario(name), "stages": 4},
                             seeds["C06"], f"C06-{name}", **extra))
    if not toy:
        jobs.append(cert_job("ramsey-oracle",
                             {"size": 3, "exhaustive_n": 4, "sample_n": 5, "samples": 10000},
                             seeds["C07"], "C07", **extra))
        jobs.append(cert_job("sparseness", {"universe": 25, "sizes": [4, 5]}, seeds["C08"], "C08",
                             **extra))
    for name in C09_TREES:
        jobs.append(cert_job("tree-labelling", {"scenario": _scenario(name)}, seeds["C09"],
                             f"C09-{name}", **extra))
    jobs.append(cert_job("pairing", {"bound": 100, "unordered_bound": 50}, seeds["C10"], "C10",
                         **extra))
    return jobs


CRITERIA = ("C03", "C04", "C05", "C06", "C07", "C08", "C09", "C10")


def _acceptance_round(rng: random.Random, toy: bool) -> List[dict]:
    seeds = {c: rng.choice(ACCEPTANCE_SEEDS) for c in CRITERIA}
    jobs = acceptance_jobs(seeds, toy)
    if toy:
        jobs = jobs[:2] + jobs[-2:]
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {
    "partition-deep": _partition_round,
    "engine-stages": _engine_round,
    "acceptance-mix": _acceptance_round,
}


def job_rounds(workload: str, seed: int, rounds: int, toy: bool = False) -> List[List[dict]]:
    """The seeded job list, one inner list per round."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    return [_ROUNDS[workload](rng, toy) for _ in range(rounds)]


def universe(workload: str) -> List[dict]:
    """Every job a seed can draw for the workload (reference digests cover it)."""
    if workload == "partition-deep":
        return [job for d in PARTITION_DEPTHS for job in partition_jobs(d)]
    if workload == "engine-stages":
        jobs = [hindman_job(f, s) for f, r in HINDMAN_STAGES.items() for s in r]
        jobs += [ramsey_job(f, s) for f, r in RAMSEY_STAGES.items() for s in r]
        jobs += [pwfin_job(c, d, s) for c in PWFIN_CASES for d in PWFIN_DEPTHS
                 for s in PWFIN_STAGES]
        jobs += [posdiff_job(a, b, r, s, h) for s, h, starts, base_labels, ratios in POSDIFF_STRATA
                 for a in starts for b in base_labels for r in ratios]
        jobs += [scenario_cli_job(n, s) for n in _bundled_names() for s in SCENARIO_SEEDS]
        return jobs
    if workload == "acceptance-mix":
        return [job for s in ACCEPTANCE_SEEDS
                for job in acceptance_jobs({c: s for c in CRITERIA})]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> List[dict]:
    """Cheap jobs run once during set-up, before anything is measured."""
    if workload == "partition-deep":
        return partition_jobs(12)[:2]
    if workload == "engine-stages":
        return [hindman_job(2, 6), ramsey_job(2, 8), pwfin_job("2b", 14, 4)]
    if workload == "acceptance-mix":
        keep = ("C04", "C09-sep1-basic", "C10")
        jobs = [j for j in acceptance_jobs({c: 0 for c in CRITERIA}, toy=True) if j["label"] in keep]
        for job in jobs:
            job["cli_certify"] = False
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
