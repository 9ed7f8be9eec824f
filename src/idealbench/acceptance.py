"""Acceptance harness: eleven criteria, one pass/fail line each.

Criteria 1 and 2 pin the partition builder at depth 30 under a one second
budget.  The partition conditions force interval sizes whose digit counts
double per level (about 3.5e8 digits at depth 29), so no implementation on
any hardware can build or verify depth-30 data inside one second; the two
criteria are implemented faithfully, attempted under a wall-clock budget,
and reported as failed with that analysis.  The same checks pass at the
diagnostic depth recorded alongside, and those runs produce the partition
and weight-bound certificates that the integrity criterion re-verifies.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
from typing import List, Optional, Tuple

from . import certify
from .errors import SchemaError
from .records import field, record
from .scenarios import load_scenario
from .serialize import dump_json, mutate_one_field

DIAGNOSTIC_DEPTH = 16
DEPTH30_BUDGET = 15.0

STAGED_SCENARIOS = (
    "pw-2b",
    "pw-2c",
    "posdiff-blocks",
    "hindman-case2",
    "hindman-case3",
    "hindman-case4",
    "hindman-case5",
    "ramsey-case2",
    "ramsey-case3",
    "ramsey-case4",
)
CONTRADICTION_SCENARIOS = ("hindman-case1", "ramsey-case1", "pw-2a", "posdiff-finite-labels")
TREE_SCENARIOS = ("sep1-basic", "sep2-critical", "label-tie", "pwfin-case2b")
IDENTITY_SCENARIOS = ("hindman-case2", "hindman-case3", "ramsey-case2", "ramsey-case4")


@record
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    certificates: List[Tuple[str, dict]] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] C{self.number:02d} {self.name}: {self.detail} ({self.elapsed:.2f}s)"


_DEPTH30_SNIPPET = """
import json, sys, time
sys.path.insert(0, {src!r})
from idealbench.construction import build_partition, verify_partition, degenerate_prefix_weight
t0 = time.time()
p = build_partition(30)
report = verify_partition(p)
build_elapsed = time.time() - t0
t1 = time.time()
bound = degenerate_prefix_weight(p, p.coverage_end - 1)
weight_elapsed = time.time() - t1
print(json.dumps({{
    "passed": report.passed,
    "build_elapsed": build_elapsed,
    "weight_elapsed": weight_elapsed,
    "weight_below_one": bound < 1,
}}))
"""


@functools.lru_cache(maxsize=None)
def _attempt_depth30(budget: float) -> Optional[dict]:
    """Try the full depth-30 pipeline in a child process under a budget, once per budget."""
    import idealbench

    src = idealbench.__path__[0].rsplit("/idealbench", 1)[0]
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _DEPTH30_SNIPPET.format(src=src)],
            capture_output=True,
            text=True,
            timeout=budget,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def criterion(number: int, name: str, budget: Optional[float] = None):
    """Make a check into a timed criterion.

    The check returns (passed, detail, certificates).  The criterion passes
    when the check passes and, with a ``budget``, finishes in fewer
    wall-clock seconds.
    """
    def timed(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.time()
            passed, detail, certs = check(*args, **kwargs)
            elapsed = time.time() - t0
            passed = passed and (budget is None or elapsed < budget)
            return CriterionResult(number, name, passed, detail, elapsed, certs)
        return run
    return timed


def _scenario_certs(kind: str, prefix: str, names, seed: int, stages: Optional[int] = None):
    """A ``kind`` certificate per bundled scenario, filed as ``<prefix>-<name>.json``.

    The inputs are the scenario's ``certificate_inputs(stages)``.
    """
    return [(f"{prefix}-{name}.json",
             certify.produce(kind, load_scenario(name).certificate_inputs(stages), seed))
            for name in names]


def _depth30_check(kind: str, diag_ok, child_keys: Tuple[str, str], missed: str,
                   reached: str, seed: int, budget: float):
    """A depth-30 criterion: the diagnostic-depth certificate, then the depth-30 child.

    ``diag_ok`` reads the diagnostic body's verdict, ``child_keys`` name the
    child's verdict and its seconds, and ``missed`` and ``reached`` word the
    detail when the child did not finish and when it did.
    """
    diag = certify.produce(kind, {"depth": DIAGNOSTIC_DEPTH}, seed)
    ok = diag_ok(diag["body"])
    certs = [(f"{kind}-diagnostic.json", diag)]
    got = _attempt_depth30(budget)
    if got is None:
        return False, missed.format(budget=budget, depth=DIAGNOSTIC_DEPTH, ok=ok), certs
    verdict, seconds = (got[key] for key in child_keys)
    detail = reached.format(verdict=verdict, seconds=seconds, depth=DIAGNOSTIC_DEPTH, ok=ok)
    return verdict and seconds < 1.0, detail, certs


@criterion(1, "partition conditions, zero tolerance")
def crit_01_partition_conditions(seed: int, budget: float = DEPTH30_BUDGET):
    return _depth30_check(
        "partition", lambda body: body["report"]["passed"], ("passed", "build_elapsed"),
        "depth-30 build+verify did not finish within the {budget:.0f}s budget "
        "(bound is 1s; the growth conditions force ~1e8-digit interval sizes); "
        "identical conditions pass at depth {depth}: {ok}",
        "depth-30 verified={verdict} in {seconds:.2f}s (bound 1s); "
        "diagnostic depth {depth} passed={ok}",
        seed, budget)


@criterion(2, "degenerate selector weight below one")
def crit_02_degenerate_weight(seed: int, budget: float = DEPTH30_BUDGET):
    return _depth30_check(
        "weight-bound", lambda body: body["below_one"], ("weight_below_one", "weight_elapsed"),
        "depth-30 weight sum not reachable within the {budget:.0f}s budget "
        "(bound is 1s); full-selector prefix weight stays below 1 at depth {depth}: {ok}",
        "depth-30 weight below one={verdict} in {seconds:.2f}s; diagnostic depth ok={ok}",
        seed, budget)


@criterion(3, "positive direction with identity witness", 5.0)
def crit_03_positive_direction(seed: int):
    cert = certify.produce("subset-reduction", {"depth": 12, "pairs": 20}, seed)
    body = cert["body"]
    detail = (
        f"20 nested selector pairs: weight domination={body['all_included']}, "
        f"height-one certificates revalidated={body['all_certificates']}"
    )
    return (body["all_included"] and body["all_certificates"], detail,
            [("subset-reduction.json", cert)])


@criterion(4, "pigeonhole extraction", 5.0)
def crit_04_pigeonhole(seed: int):
    cert = certify.produce(
        "pigeonhole", {"depth": 4, "samples": 200, "interval": 2}, seed
    )
    body = cert["body"]
    passed = (
        body["interval_size"] == 24
        and body["required_block"] == 8
        and body["block_bound_holds"]
        and body["weight_bound_holds"]
    )
    detail = (
        f"200 colourings of a 24-point interval: min block {body['min_block']} >= 8, "
        f"worst off-selector weight {body['worst_weight']} >= 1/3"
    )
    return passed, detail, [("pigeonhole.json", cert)]


@criterion(5, "stage bounds, all four engines", 30.0)
def crit_05_stage_bounds(seed: int):
    certs = _scenario_certs("diagonalization", "diag", STAGED_SCENARIOS, seed, 4)
    certs += _scenario_certs("diagonalization", "diag", CONTRADICTION_SCENARIOS, seed)
    problems = [
        f"{name}: {cert['body']['outcome']}"
        for name, (_, cert) in zip(STAGED_SCENARIOS + CONTRADICTION_SCENARIOS, certs)
        if not cert["body"]["as_expected"]
    ]
    detail = (
        f"{len(STAGED_SCENARIOS)} staged runs of 4 stages with exact bounds, "
        f"{len(CONTRADICTION_SCENARIOS)} contradiction reports"
        + (f"; problems: {problems}" if problems else "")
    )
    return not problems, detail, certs


@criterion(6, "structural identities at the horizon", 5.0)
def crit_06_structural_identities(seed: int):
    certs = _scenario_certs("structural-identity", "identity", IDENTITY_SCENARIOS, seed, 4)
    ok = True
    details = []
    for name, (_, cert) in zip(IDENTITY_SCENARIOS, certs):
        body = cert["body"]
        sizes = [row["family_size"] for row in body["checks"]]
        anchors = [len(row["anchors"]) for row in body["checks"]]
        ok = ok and body["all_match"] and all(a >= 4 for a in anchors)
        details.append(f"{name}: {anchors[0]} anchors, family {sizes[0]}")
    return ok, "; ".join(details), certs


@criterion(7, "canonical search equals brute-force oracle", 120.0)
def crit_07_ramsey_oracle(seed: int):
    cert = certify.produce(
        "ramsey-oracle",
        {"size": 3, "exhaustive_n": 4, "sample_n": 5, "samples": 10000},
        seed,
    )
    body = cert["body"]
    detail = (
        f"agreement on {body['exhaustive_checked']} partitions of the 4-point edge set "
        f"and {body['sample_checked']} sampled 5-point partitions; minimal n for a "
        f"canonical triple = {body['minimal_n_for_size']}"
    )
    passed = body["agreement"] and body["minimal_n_for_size"] is not None
    return passed, detail, [("ramsey-oracle.json", cert)]


@criterion(8, "sparseness mechanism", 10.0)
def crit_08_sparseness(seed: int):
    cert = certify.produce("sparseness", {"universe": 25, "sizes": [4, 5]}, seed)
    body = cert["body"]
    detail = (
        f"{body['checked']} generator families: sparseness check fails as predicted "
        f"on every difference image, shared difference witnessed every time"
    )
    return body["all_fail"] and body["all_witnessed"], detail, [("sparseness.json", cert)]


@criterion(9, "finite-horizon separation lemmas", 5.0)
def crit_09_separation_lemmas(seed: int):
    certs = _scenario_certs("tree-labelling", "tree", TREE_SCENARIOS, seed)
    problems: List[str] = []
    for name, (_, cert) in zip(TREE_SCENARIOS, certs):
        body = cert["body"]
        if not body["all_branching_in"]:
            problems.append(f"{name}: branching not in the dual filter everywhere")
            continue
        if not body["root_as_expected"]:
            problems.append(f"{name}: root label {body['root_label']}")
        if body["root_label"] != "bot" and body["path_realizing_root"] is None:
            problems.append(f"{name}: no path realizes the root label")
        if body["root_label"] == "bot" and not body["critical"]:
            problems.append(f"{name}: no critical node found")
        if not body["critical_as_declared"]:
            problems.append(f"{name}: critical nodes differ from the declaration")
    detail = (
        f"{len(TREE_SCENARIOS)} branching scenario trees: value roots realize paths, "
        f"bottom roots yield critical nodes" + (f"; problems: {problems}" if problems else "")
    )
    return not problems, detail, certs


@criterion(10, "pairing properties", 1.0)
def crit_10_pairing(seed: int):
    cert = certify.produce("pairing", {"bound": 100, "unordered_bound": 50}, seed)
    detail = (
        "diagonal pairing bijective and monotone with dominated second argument "
        "on [0,100]^2; unordered coding symmetric and injective on [0,50]"
    )
    return cert["body"]["all_hold"], detail, [("pairing.json", cert)]


@criterion(11, "certificate integrity", 10.0)
def crit_11_certificate_integrity(seed: int, earlier: List[CriterionResult]):
    total = 0
    mutated_caught = 0
    problems: List[str] = []
    for result in earlier:
        for name, cert in result.certificates:
            total += 1
            ok, detail = certify.recheck(cert)
            if not ok:
                problems.append(f"{name}: fresh certificate failed ({detail})")
                continue
            tampered = dict(cert)
            try:
                tampered["body"], path = mutate_one_field(cert["body"])
            except ValueError:
                problems.append(f"{name}: nothing mutable in the body")
                continue
            ok2, detail2 = certify.recheck(tampered)
            if ok2:
                problems.append(f"{name}: mutation at {path} went unnoticed")
            else:
                mutated_caught += 1
    detail = (
        f"{total} certificates re-verified, {mutated_caught} single-field mutations "
        f"rejected" + (f"; problems: {problems}" if problems else "")
    )
    return not problems and total > 0, detail, []


def run_all(
    seed: int = 0,
    out_dir: Optional[str] = None,
    depth30_budget: float = DEPTH30_BUDGET,
) -> List[CriterionResult]:
    """Run every criterion, optionally writing certificates to a directory.

    The directory is made before any criterion runs; a SchemaError naming it
    if it cannot be.
    """
    if out_dir is not None:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise SchemaError(f"{out_dir}: cannot make a directory: {exc.strerror}") from exc
    results: List[CriterionResult] = []
    results.append(crit_01_partition_conditions(seed, depth30_budget))
    results.append(crit_02_degenerate_weight(seed, depth30_budget))
    results.append(crit_03_positive_direction(seed))
    results.append(crit_04_pigeonhole(seed))
    results.append(crit_05_stage_bounds(seed))
    results.append(crit_06_structural_identities(seed))
    results.append(crit_07_ramsey_oracle(seed))
    results.append(crit_08_sparseness(seed))
    results.append(crit_09_separation_lemmas(seed))
    results.append(crit_10_pairing(seed))
    results.append(crit_11_certificate_integrity(seed, results))
    if out_dir is not None:
        for result in results:
            for name, cert in result.certificates:
                dump_json(os.path.join(out_dir, name), cert)
    return results
