"""Certificate production and independent rechecking.

A certificate is an envelope around a deterministic computation: the kind
and inputs (plus the recorded seed) fully determine the body, so checking
is re-production followed by a byte-level comparison in canonical JSON
form.  Every stipulated infinitary fact rides along in the assumptions
list and must carry its tag; untagged stipulations are schema violations.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple

from . import diagonal
from .construction import (
    build_partition,
    degenerate_prefix_weight,
    selector_weight,
    verify_partition,
)
from .diagonal import CriticalNodeModel, assemble, collision_check, engine_named, extract_profile
from .errors import ScenarioContradiction, SchemaError
from .ideals import SumSelector
from .pairing import code_unordered, pair_diag, unpair_diag
from .ramsey import canonical_ramsey_search, difference_mask
from .reduction import (
    IdentityHeightOne,
    ReductionClaim,
    check_reduction_witness,
    check_subset_reduction,
    revalidate_certificate,
)
from .scenarios import CollisionScenario, DiagScenario, TreeScenario
from .serialize import (
    CERTIFICATE_SCHEMA,
    EXACT,
    canonical_bytes,
    check_assumptions,
    diff_paths,
    int_str,
    integer_field,
    rat_str,
)
from .sets import Cofinite, Finite, Progression, Union
from .trees import check_branching, compute_labels, find_critical, path_value_search


def envelope(kind: str, inputs: dict, seed: int, assumptions: List[dict], body: dict) -> dict:
    return {
        "schema": CERTIFICATE_SCHEMA,
        "kind": kind,
        "seed": seed,
        "inputs": inputs,
        "assumptions": assumptions,
        "body": body,
    }


# -- producers ----------------------------------------------------------------

def _depth(inputs: dict, kind: str, default: Optional[int] = None) -> int:
    return integer_field(inputs, "depth", default, f"{kind} inputs", minimum=1)


def produce_partition(inputs: dict, seed: int) -> dict:
    p = build_partition(_depth(inputs, "partition"))
    report = verify_partition(p)
    body = {"partition": p.to_json(), "report": report.to_json()}
    return envelope("partition", inputs, seed, [], body)


def produce_weight_bound(inputs: dict, seed: int) -> dict:
    depth = _depth(inputs, "weight-bound")
    p = build_partition(depth)
    upto = p.coverage_end - 1  # strictly below the largest covered point
    total = degenerate_prefix_weight(p, upto)
    # On greedy data each full interval I_n (n < d-1) weighs
    # r_{n+1} L_n = 2^-(n+1) by tight decay, and the L_{d-1} - 1 points of
    # I_{d-1} below upto weigh r_d = 1/R_d each, with R_d = 2^d L_{d-1}; so
    #   total = 1 - 2^-(d-1) + (L_{d-1} - 1)/R_d = ((2^d - 1) L_{d-1} - 1)/R_d.
    # When the reduced sum has exactly this numerator and denominator and
    # the whole partition is its greedy prefix, the replay holds L_{d-1},
    # S_{d-1} and R_d exactly, so its texts are those of the sum and of upto.
    # (For d >= 2 the closed form is reduced: its numerator is odd, as
    # L_{d-1} = S_{d-1} R_{d-1} is even, and is -1 mod L_{d-1}.  At d = 1 it
    # reads 0/2, which the reduced 0/1 does not match.)
    last = p.lengths[-1]
    closed_form = (((1 << depth) - 1) * last - 1, p.rationals[depth].denominator)
    if p.greedy_prefix == depth and (total.numerator, total.denominator) == closed_form:
        S, L, R = p.decimal_replay
        points_summed = str(EXACT.subtract(EXACT.add(S[-1], L[-1]), 1))
        numerator = EXACT.subtract(EXACT.multiply(L[-1], (1 << depth) - 1), 1)
        total_weight = f"{numerator}/{R[depth]}"
    else:
        points_summed, total_weight = int_str(upto), rat_str(total)
    body = {
        "depth": depth,
        "points_summed": points_summed,
        "total_weight": total_weight,
        "below_one": total < 1,
    }
    return envelope("weight-bound", inputs, seed, [], body)


def _random_selector_pair(rng: random.Random, depth: int):
    """A nested selector pair: P almost included in Q by construction."""
    step = rng.choice([1, 2, 3])
    mult = rng.choice([1, 2, 3])
    q_extra = sorted(rng.sample(range(depth), rng.randrange(0, 3)))
    p_extra = sorted(rng.sample(range(max(1, depth // 2)), rng.randrange(0, 3)))
    q_set = Union((Progression(0, step), Finite(q_extra)))
    p_set = Union((Progression(0, step * mult), Finite(p_extra)))
    return p_set, q_set


def produce_subset_reduction(inputs: dict, seed: int) -> dict:
    depth = _depth(inputs, "subset-reduction")
    pairs = integer_field(inputs, "pairs", None, "subset-reduction inputs", minimum=0)
    p = build_partition(depth)
    rng = random.Random(seed)
    rows = []
    for _ in range(pairs):
        p_set, q_set = _random_selector_pair(rng, depth)
        report = check_subset_reduction(p_set, q_set, p, horizon=depth)
        claim = ReductionClaim(
            SumSelector(p_set, p), SumSelector(q_set, p), IdentityHeightOne()
        )
        witnessed = Cofinite(tuple(sorted(rng.sample(range(8), 2))))
        cert = check_reduction_witness(claim, witnessed, horizon=12)
        rows.append(
            {
                "P": p_set.to_json(),
                "Q": q_set.to_json(),
                "report": report.to_json(),
                "height_one_root": None if cert is None else cert.branching[()].to_json(),
                "revalidated": (
                    cert is not None
                    and revalidate_certificate(cert, claim, witnessed, horizon=12)
                ),
            }
        )
    body = {
        "pairs": rows,
        "all_included": all(r["report"]["verdict"]["value"] == "in" for r in rows),
        "all_certificates": all(r["revalidated"] for r in rows),
    }
    return envelope("subset-reduction", inputs, seed, [], body)


def produce_pigeonhole(inputs: dict, seed: int) -> dict:
    depth = _depth(inputs, "pigeonhole", 4)
    samples = integer_field(inputs, "samples", None, "pigeonhole inputs", minimum=1)
    interval = integer_field(inputs, "interval", 2, "pigeonhole inputs", minimum=1)
    if interval >= depth:
        raise SchemaError(f"pigeonhole inputs: interval must be below depth {depth}")
    p = build_partition(depth)
    rng = random.Random(seed)
    members = list(p.interval_members(interval))
    q_set = Progression(1, 2)  # even interval indices stay off the selector
    min_block = None
    worst_weight: Optional[Fraction] = None
    for _ in range(samples):
        entries = {}
        for x in members:
            colour = rng.randrange(3)
            if colour == 0:
                entries[x] = None
            elif colour == 1:
                entries[x] = rng.randrange(p.starts[interval])
            else:
                entries[x] = x
        model = CriticalNodeModel(0, diagonal.LabelRule("table", {"entries": entries}))
        prof = extract_profile(model, p, interval)
        min_block = prof.f_count if min_block is None else min(min_block, prof.f_count)
        weight = selector_weight(q_set, p, interval) * prof.f_count
        worst_weight = weight if worst_weight is None else min(worst_weight, weight)
    need = -(-p.lengths[interval] // 3)
    body = {
        "samples": samples,
        "interval": interval,
        "interval_size": p.lengths[interval],
        "required_block": need,
        "min_block": min_block,
        "block_bound_holds": min_block >= need,
        "worst_weight": rat_str(worst_weight),
        "weight_bound_holds": worst_weight >= Fraction(1, 3),
    }
    return envelope("pigeonhole", inputs, seed, [], body)


def _scenario(inputs: dict, cls):
    """The ``cls`` scenario carried in certificate inputs."""
    scenario = inputs.get("scenario") if isinstance(inputs, dict) else None
    return cls.from_json(scenario, "certificate inputs")


def run_diag_scenario(scn: DiagScenario, stages: int):
    """Run the declared engine; contradictions are an outcome, not a crash."""
    run = engine_named(scn.engine).run
    try:
        state = run(scn, stages)
    except ScenarioContradiction as exc:
        return "contradiction", None, exc.report
    return "stages", state, None


def produce_diagonalization(inputs: dict, seed: int) -> dict:
    scn = _scenario(inputs, DiagScenario)
    stages = integer_field(inputs, "stages", None, "diagonalization inputs", minimum=1)
    outcome, state, report = run_diag_scenario(scn, stages)
    if outcome == "stages":
        assembled = assemble(state)
        body = {
            "outcome": "stages",
            "expected": scn.expect,
            "as_expected": scn.expect == "stages",
            "result": assembled.payload,
        }
    else:
        body = {
            "outcome": "contradiction",
            "expected": scn.expect,
            "as_expected": scn.expect == "contradiction",
            "report": report,
        }
    return envelope("diagonalization", inputs, seed, scn.assumptions(), body)


def produce_structural_identity(inputs: dict, seed: int) -> dict:
    scn = _scenario(inputs, DiagScenario)
    stages = integer_field(inputs, "stages", None, "structural-identity inputs", minimum=1)
    enumerate_family = engine_named(scn.engine).enumerate_family
    if enumerate_family is None:
        raise SchemaError(f"the {scn.engine} engine has no independent family enumeration")
    outcome, state, _ = run_diag_scenario(scn, stages)
    if outcome != "stages":
        raise SchemaError("structural identity needs a staged run")
    assembled = assemble(state)
    rows = []
    for i_str, family in assembled.payload["families"].items():
        members = [int(x) for x in family["members"]]
        anchors, independent = enumerate_family(family)
        rows.append(
            {
                "model": int(i_str),
                "family_size": len(members),
                "anchors": anchors,
                "union_matches_enumeration": members == independent,
            }
        )
    body = {"engine": scn.engine, "checks": rows, "all_match": all(r["union_matches_enumeration"] for r in rows)}
    return envelope("structural-identity", inputs, seed, scn.assumptions(), body)


def produce_tree_labelling(inputs: dict, seed: int) -> dict:
    scn = _scenario(inputs, TreeScenario)
    tree = scn.tree()
    cmap = scn.coherent_map()
    oracle = scn.oracle()
    labelled = compute_labels(tree, cmap, oracle)
    critical = find_critical(labelled, oracle)
    branching = check_branching(tree, scn.branching_ideal(), scn.horizon)
    root_label = labelled.labels[()]
    expected = scn.payload.get("expect_root_label")
    path = None
    if root_label is not None:
        found = path_value_search(labelled, root_label)
        path = None if found is None else [list(n) for n in found]
    body = {
        "root_label": "bot" if root_label is None else root_label,
        "expected_root_label": expected,
        "root_as_expected": (
            ("bot" if root_label is None else root_label) == expected
        ),
        "root_branching": branching[()].to_json(),
        "all_branching_in": all(v.value == "in" for v in branching.values()),
        "critical": [list(n) for n in critical.critical],
        "undetermined": [list(n) for n in critical.undetermined],
        "declared_critical": [list(n) for n in scn.declared_critical()],
        "critical_as_declared": list(critical.critical)
        == [tuple(n) for n in scn.declared_critical()],
        "path_realizing_root": path,
    }
    return envelope("tree-labelling", inputs, seed, scn.assumptions(), body)


def _sparseness_inputs(inputs: dict) -> Tuple[int, list]:
    universe = integer_field(inputs, "universe", None, "sparseness inputs", minimum=0)
    sizes = inputs.get("sizes")
    if not isinstance(sizes, list):
        raise SchemaError("sparseness inputs: sizes must be a list")
    for size in sizes:
        if not isinstance(size, int) or isinstance(size, bool) or size < 2:
            raise SchemaError("sparseness inputs: every size must be an integer >= 2")
    return universe, sizes


def produce_sparseness(inputs: dict, seed: int) -> dict:
    """Check that the difference image of every small family is not sparse.

    For each family A of ``size`` members of ``range(universe)`` this is
    ``eventually_sparse_check(delta(A), size - 3)`` together with the check
    that the difference ``shared`` of the two smallest members has
    multiplicity at least ``size - 2`` among the violations, computed on
    ``difference_mask(A)`` instead of tables.  Only multiplicities >= 1 are
    ever tabulated, so the violations are the differences whose multiplicity
    exceeds ``floor = max(size - 3, 0)``.  At size 2 the image is a single
    difference: nothing is violated, yet ``0 >= size - 2`` witnesses it.
    """
    universe, sizes = _sparseness_inputs(inputs)
    checked = 0
    failed = 0
    witnessed = 0
    for size in sizes:
        floor = max(size - 3, 0)
        for family in combinations(range(universe), size):
            diffs = difference_mask(family)
            checked += 1
            # the two smallest members anchor size-2 pairs sharing one difference
            shared = family[1] - family[0]
            m = (diffs & (diffs >> shared)).bit_count()
            if m > floor or any(
                (diffs & (diffs >> d)).bit_count() > floor for d in range(1, universe)
            ):
                failed += 1
            if (m if m > floor else 0) >= size - 2:
                witnessed += 1
    body = {
        "universe": universe,
        "sizes": list(sizes),
        "checked": checked,
        "failed_as_predicted": failed,
        "shared_difference_witnessed": witnessed,
        "all_fail": failed == checked,
        "all_witnessed": witnessed == checked,
    }
    return envelope("sparseness", inputs, seed, [], body)


# independent brute-force oracle for the canonical pair search ----------------

def _oracle_case_holds(f: Dict, pairs: List, case: int) -> bool:
    for x, y in combinations(pairs, 2):
        same = f[x] == f[y]
        if case == 1:
            expect = True
        elif case == 2:
            expect = min(x) == min(y)
        elif case == 3:
            expect = max(x) == max(y)
        else:
            expect = x == y
        if same != expect:
            return False
    return True


def oracle_ramsey_search(f: Dict, n: int, m: int):
    for t in combinations(range(n), m):
        pairs = [frozenset(p) for p in combinations(t, 2)]
        for case in (1, 2, 3, 4):
            if _oracle_case_holds(f, pairs, case):
                return t, case
    return None


def _partitions_rgs(count: int):
    """All restricted-growth strings of the given length."""

    def extend(prefix, top):
        if len(prefix) == count:
            yield tuple(prefix)
            return
        for v in range(top + 2):
            yield from extend(prefix + [v], max(top, v))

    yield from extend([], -1)


def _random_rgs(count: int, rng: random.Random):
    out = []
    top = -1
    for _ in range(count):
        v = rng.randrange(top + 2)
        out.append(v)
        top = max(top, v)
    return tuple(out)


def _colouring_from_rgs(n: int, rgs):
    edges = [frozenset(p) for p in combinations(range(n), 2)]
    return {e: rgs[i] for i, e in enumerate(edges)}


def produce_ramsey_oracle(inputs: dict, seed: int) -> dict:
    where = "ramsey-oracle inputs"
    m = integer_field(inputs, "size", 3, where, minimum=0)
    exhaustive_n = integer_field(inputs, "exhaustive_n", 4, where, minimum=0)
    sample_n = integer_field(inputs, "sample_n", 5, where, minimum=0)
    sample_count = integer_field(inputs, "samples", 10000, where, minimum=0)
    rng = random.Random(seed)

    edge_count = exhaustive_n * (exhaustive_n - 1) // 2
    exhaustive_checked = exhaustive_agree = 0
    for rgs in _partitions_rgs(edge_count):
        f = _colouring_from_rgs(exhaustive_n, rgs)
        mine = canonical_ramsey_search(f, exhaustive_n, m)
        oracle = oracle_ramsey_search(f, exhaustive_n, m)
        exhaustive_checked += 1
        mine_norm = None if mine is None else (mine[0], mine[1].case)
        if mine_norm == oracle:
            exhaustive_agree += 1

    sample_edges = sample_n * (sample_n - 1) // 2
    sample_checked = sample_agree = 0
    for _ in range(sample_count):
        f = _colouring_from_rgs(sample_n, _random_rgs(sample_edges, rng))
        mine = canonical_ramsey_search(f, sample_n, m)
        oracle = oracle_ramsey_search(f, sample_n, m)
        sample_checked += 1
        mine_norm = None if mine is None else (mine[0], mine[1].case)
        if mine_norm == oracle:
            sample_agree += 1

    minimal_n = None
    for n in range(m, 6):
        edges = n * (n - 1) // 2
        if all(
            oracle_ramsey_search(_colouring_from_rgs(n, rgs), n, m) is not None
            for rgs in _partitions_rgs(edges)
        ):
            minimal_n = n
            break

    body = {
        "size": m,
        "exhaustive_n": exhaustive_n,
        "exhaustive_checked": exhaustive_checked,
        "exhaustive_agree": exhaustive_agree,
        "sample_n": sample_n,
        "sample_checked": sample_checked,
        "sample_agree": sample_agree,
        "agreement": exhaustive_agree == exhaustive_checked
        and sample_agree == sample_checked,
        "minimal_n_for_size": minimal_n,
    }
    return envelope("ramsey-oracle", inputs, seed, [], body)


def produce_collision(inputs: dict, seed: int) -> dict:
    scn = _scenario(inputs, CollisionScenario)
    diag_scn = scn.diag()
    stages = scn.stages(diag_scn.default_stages)
    outcome, state, _ = run_diag_scenario(diag_scn, stages)
    if outcome != "stages":
        raise SchemaError("collision scenarios need a staged diagonalization")
    assembled = assemble(state)
    tree_scn = scn.tree_scenario()
    model_index = scn.model_index(len(state.models))
    report = collision_check(
        tree_scn.tree(),
        tree_scn.branching_ideal(),
        tree_scn.coherent_map(),
        tree_scn.oracle(),
        assembled,
        model_index,
        state.models[model_index],
        horizon=scn.horizon,
    )
    body = {
        "diag": diag_scn.name,
        "stages": stages,
        "collision": report.to_json(),
        "forbidden_label_hit": report.outcome == "collision",
    }
    assumptions = diag_scn.assumptions() + tree_scn.assumptions() + scn.assumptions()
    return envelope("collision", inputs, seed, assumptions, body)


def produce_pairing(inputs: dict, seed: int) -> dict:
    bound = integer_field(inputs, "bound", 100, "pairing inputs", minimum=0)
    unordered_bound = integer_field(inputs, "unordered_bound", 50, "pairing inputs", minimum=0)
    codes = {}
    monotone = True
    dominates = True
    for i in range(bound + 1):
        prev = None
        for b in range(bound + 1):
            k = pair_diag(i, b)
            codes[k] = (i, b)
            if unpair_diag(k) != (i, b):
                raise AssertionError("pairing failed to invert")
            if prev is not None and not (prev < k):
                monotone = False
            if b > k:
                dominates = False
            prev = k
    injective = len(codes) == (bound + 1) ** 2
    ucodes = set()
    symmetric = True
    for a in range(unordered_bound + 1):
        for b in range(unordered_bound + 1):
            if a == b:
                continue
            if code_unordered(a, b) != code_unordered(b, a):
                symmetric = False
            ucodes.add(code_unordered(a, b))
    u_injective = len(ucodes) == (unordered_bound + 1) * unordered_bound // 2
    body = {
        "bound": bound,
        "ordered_injective": injective,
        "ordered_monotone": monotone,
        "second_argument_dominated": dominates,
        "unordered_bound": unordered_bound,
        "unordered_symmetric": symmetric,
        "unordered_injective": u_injective,
        "all_hold": injective and monotone and dominates and symmetric and u_injective,
    }
    return envelope("pairing", inputs, seed, [], body)


_PRODUCERS: Dict[str, Callable[[dict, int], dict]] = {
    "partition": produce_partition,
    "weight-bound": produce_weight_bound,
    "subset-reduction": produce_subset_reduction,
    "pigeonhole": produce_pigeonhole,
    "diagonalization": produce_diagonalization,
    "structural-identity": produce_structural_identity,
    "tree-labelling": produce_tree_labelling,
    "sparseness": produce_sparseness,
    "ramsey-oracle": produce_ramsey_oracle,
    "collision": produce_collision,
    "pairing": produce_pairing,
}


def produce(kind: str, inputs: dict, seed: int = 0) -> dict:
    if kind not in _PRODUCERS:
        raise SchemaError(f"unknown certificate kind {kind!r}")
    return _PRODUCERS[kind](inputs, seed)


def recheck(cert: dict) -> Tuple[bool, str]:
    """Recompute a certificate from its inputs and compare byte for byte."""
    if not isinstance(cert, dict):
        raise SchemaError("certificate must be an object")
    for key in ("schema", "kind", "seed", "inputs", "assumptions", "body"):
        if key not in cert:
            raise SchemaError(f"certificate lacks {key!r}")
    if cert["schema"] != CERTIFICATE_SCHEMA:
        raise SchemaError(f"unsupported schema {cert['schema']!r}")
    check_assumptions(cert["assumptions"], "certificate")
    rebuilt = produce(cert["kind"], cert["inputs"], cert["seed"])
    if canonical_bytes(rebuilt["body"]) != canonical_bytes(cert["body"]):
        path = diff_paths(rebuilt["body"], cert["body"], "$.body") or "$.body"
        return False, f"recomputation differs at {path}"
    if canonical_bytes(rebuilt["assumptions"]) != canonical_bytes(cert["assumptions"]):
        path = diff_paths(rebuilt["assumptions"], cert["assumptions"], "$.assumptions")
        return False, f"assumptions differ at {path}"
    return True, "certificate re-verified"
