"""Certificate production and independent rechecking.

A certificate is an envelope around a deterministic computation: the kind
and inputs (plus the recorded seed) fully determine the body.  A recheck
has two layers.  A kind with a checker first has its body confirmed from
the body's own numbers by ``idealbench.checkers``, which imports no
producer.  A kind whose checker ``KINDS`` declares complete is then
accepted once its assumptions equal those its producer records; every
other certificate is re-produced and compared with the rebuilt one by the
strict structural walk of ``serialize.diff_paths``, which agrees with a
byte-for-byte comparison in canonical JSON form on the JSON-native values
producers return.  A certificate that differs from the last re-production
of its kind, inputs and seed is refuted from that one; an acceptance of
such a kind always re-produces.  Every stipulated infinitary fact rides along in
the assumptions list and must carry its tag; untagged stipulations are
schema violations.

Each body function reaches the modules it runs as ``idealbench.<module>``,
which imports a module when first read, so a process that rechecks one kind
loads only that kind's modules.

Only the three kinds that ``KINDS`` declares ``seeded`` read the seed.  The
other eight record it but do not include it in their claim, so a
certificate of theirs with its seed changed still rechecks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import idealbench
from .checkers import (CheckFailed, _oracle_domains, check_pairing, check_sparseness,
                       check_weight_bound, oracle_ramsey_search)
from .construction import MAX_DEPTH
from .errors import ScenarioContradiction, SchemaError
from .records import record
from .serialize import (CERTIFICATE_SCHEMA, canonical_bytes, check_assumptions, diff_paths,
                        integer_field, rat_str)

if TYPE_CHECKING:
    from .scenarios import CollisionScenario, DiagScenario, TreeScenario


# -- bodies ---------------------------------------------------------------------

def _partition(depth: int) -> dict:
    construction = idealbench.construction
    p = construction.build_partition(depth)
    report = construction.verify_partition(p)
    return {"partition": p.to_json(), "report": report.to_json()}


def _weight_bound(depth: int) -> dict:
    construction = idealbench.construction
    points_summed, total_weight, below_one = construction.degenerate_weight_below_last_point(depth)
    return {
        "depth": depth,
        "points_summed": points_summed,
        "total_weight": total_weight,
        "below_one": below_one,
    }


def _extra_points(rng: random.Random, population: range) -> list:
    """Up to two points of ``population``, sorted: never more than it holds."""
    return sorted(rng.sample(population, min(rng.randrange(0, 3), len(population))))


def _random_selector_pair(rng: random.Random, depth: int):
    """A nested selector pair: P almost included in Q by construction."""
    sets = idealbench.sets
    step = rng.choice([1, 2, 3])
    mult = rng.choice([1, 2, 3])
    q_extra = _extra_points(rng, range(depth))
    p_extra = _extra_points(rng, range(max(1, depth // 2)))
    q_set = sets.Union((sets.Progression(0, step), sets.Finite(q_extra)))
    p_set = sets.Union((sets.Progression(0, step * mult), sets.Finite(p_extra)))
    return p_set, q_set


def _subset_reduction(depth: int, pairs: int, rng: random.Random) -> dict:
    reduction, SumSelector = idealbench.reduction, idealbench.ideals.SumSelector
    p = idealbench.construction.build_partition(depth)
    rows = []
    for _ in range(pairs):
        p_set, q_set = _random_selector_pair(rng, depth)
        report = reduction.check_subset_reduction(p_set, q_set, depth)
        claim = reduction.ReductionClaim(
            SumSelector(p_set, p), SumSelector(q_set, p), reduction.IdentityHeightOne()
        )
        witnessed = idealbench.sets.Cofinite(tuple(sorted(rng.sample(range(8), 2))))
        cert = reduction.check_reduction_witness(claim, witnessed, horizon=12)
        rows.append(
            {
                "P": p_set.to_json(),
                "Q": q_set.to_json(),
                "report": report.to_json(),
                "height_one_root": None if cert is None else cert.branching[()].to_json(),
                "revalidated": (
                    cert is not None
                    and reduction.revalidate_certificate(cert, claim, witnessed, horizon=12)
                ),
            }
        )
    return {
        "pairs": rows,
        "all_included": all(r["report"]["verdict"]["value"] == "in" for r in rows),
        "all_certificates": all(r["revalidated"] for r in rows),
    }


# the most colour draws a pigeonhole certificate may make: samples * |I_interval|
PIGEONHOLE_DRAWS = 250_000


def _pigeonhole(depth: int, samples: int, interval: int, rng: random.Random) -> dict:
    """The least largest colour class of I_interval over random 3-colourings.

    Each member draws its colour: bottom, a label drawn below I_interval,
    or itself as label.  The largest class of a sample is its most frequent
    colour, so only the three counts are kept; the label draw of colour 1
    stays in the stream, which fixes the bytes of every later draw.  Levels
    0 .. interval are those of every greedy partition deeper than
    ``interval``, so ``build_partition(interval + 1)`` holds them whatever
    ``depth`` is.
    """
    construction = idealbench.construction
    if interval >= depth:
        raise SchemaError(f"interval {interval} must be below depth {depth}")
    # |I_n| grows with n, so the first length past the bound decides
    for _, length, _ in islice(construction.greedy_numbers(), interval + 1):
        if samples * length > PIGEONHOLE_DRAWS:
            raise SchemaError(f"pigeonhole inputs: samples * |I_interval| must be at most "
                              f"{PIGEONHOLE_DRAWS}, and {samples} samples of I_{interval} exceed it")
    p = construction.build_partition(interval + 1)
    start, length = p.starts[interval], p.lengths[interval]
    min_block = length
    for _ in range(samples):
        counts = [0, 0, 0]
        for _ in range(length):
            colour = rng.randrange(3)
            counts[colour] += 1
            if colour == 1:
                rng.randrange(start)
        min_block = min(min_block, max(counts))
    # even interval indices stay off the selector
    worst_weight = construction.selector_weight(idealbench.sets.Progression(1, 2), p,
                                                interval) * min_block
    need = -(-length // 3)
    return {
        "samples": samples,
        "interval": interval,
        "interval_size": length,
        "required_block": need,
        "min_block": min_block,
        "block_bound_holds": min_block >= need,
        "worst_weight": rat_str(worst_weight),
        "weight_bound_holds": worst_weight >= Fraction(1, 3),
    }


def _staged_run(scenario: DiagScenario, stages: int):
    """The state and payload of a run that must end in stages, not in a
    contradiction of a stage or of the assembly."""
    diagonal = idealbench.diagonal
    try:
        state = diagonal.ENGINES[scenario.engine].run(scenario, stages)
        return state, diagonal.assemble(state)
    except ScenarioContradiction as exc:
        raise SchemaError(
            f"scenario {scenario.name!r} needs a staged run, not a contradiction"
        ) from exc


def _diagonalization(scenario: DiagScenario, stages: int) -> dict:
    """The run's payload, or the report of the contradiction that a stage or the
    assembly ran into."""
    diagonal = idealbench.diagonal
    try:
        result = diagonal.assemble(diagonal.ENGINES[scenario.engine].run(scenario, stages))
    except ScenarioContradiction as exc:
        outcome = {"outcome": "contradiction", "report": exc.report}
    else:
        outcome = {"outcome": "stages", "result": result}
    expected = scenario.expect
    return {**outcome, "expected": expected, "as_expected": expected == outcome["outcome"]}


def _structural_identity(scenario: DiagScenario, stages: int) -> dict:
    enumerate_family = idealbench.diagonal.ENGINES[scenario.engine].enumerate_family
    if enumerate_family is None:
        raise SchemaError(f"the {scenario.engine} engine has no independent family enumeration")
    _, payload = _staged_run(scenario, stages)
    rows = []
    for i_str, family in payload["families"].items():
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
    return {
        "engine": scenario.engine,
        "checks": rows,
        "all_match": all(r["union_matches_enumeration"] for r in rows),
    }


def _tree_labelling(scenario: TreeScenario) -> dict:
    trees = idealbench.trees
    tree = scenario.tree()
    oracle = scenario.oracle()
    labelled = trees.compute_labels(tree, scenario.coherent_map(), oracle)
    critical = trees.find_critical(labelled, oracle)
    branching = trees.check_branching(tree, scenario.branching_ideal(), scenario.horizon)
    root_label = labelled.labels[()]
    path = None
    if root_label is not None:
        found = trees.path_value_search(labelled, root_label)
        path = None if found is None else [list(n) for n in found]
    root = "bot" if root_label is None else root_label
    expected = scenario.expect_root_label
    declared = scenario.declared_critical()
    return {
        "root_label": root,
        "expected_root_label": expected,
        "root_as_expected": root == expected,
        "root_branching": branching[()].to_json(),
        "all_branching_in": all(v.value == "in" for v in branching.values()),
        "critical": [list(n) for n in critical.critical],
        "undetermined": [list(n) for n in critical.undetermined],
        "declared_critical": [list(n) for n in declared],
        "critical_as_declared": list(critical.critical) == declared,
        "path_realizing_root": path,
    }


def _sparseness(universe: int, sizes: List[int]) -> dict:
    """Check that the difference image of every small family is not sparse.

    For each family A of ``size`` members of ``range(universe)`` this is
    ``eventually_sparse_check(delta(A), size - 3)`` together with the check
    that the difference ``shared`` of the two smallest members has
    multiplicity at least ``size - 2`` among the violations, computed on
    the bitmask ``D`` of ``delta(A)`` instead of tables: the multiplicity of
    ``d`` in the difference table of ``delta(A)`` is
    ``(D & (D >> d)).bit_count()`` (``ramsey.difference_mask``).  Only
    multiplicities >= 1 are ever tabulated, so the violations are the
    differences whose multiplicity exceeds ``floor = max(size - 3, 0)``.  At
    size 2 the image is a single difference: nothing is violated, yet
    ``0 >= size - 2`` witnesses it.

    The families are grown in lexicographic order one member at a time
    (``_family_tallies``), so each costs one shift-or on its prefix's masks
    and the multiplicity test; ``check_sparseness`` confirms the tallies
    without enumerating.
    """
    checked = failed = witnessed = 0
    for size in sizes:
        tallies = _family_tallies(universe, size)
        checked += tallies[0]
        failed += tallies[1]
        witnessed += tallies[2]
    return {
        "universe": universe,
        "sizes": list(sizes),
        "checked": checked,
        "failed_as_predicted": failed,
        "shared_difference_witnessed": witnessed,
        "all_fail": failed == checked,
        "all_witnessed": witnessed == checked,
    }


def _family_tallies(universe: int, size: int) -> Tuple[int, int, int]:
    """How many ``size``-member families of ``range(universe)`` were checked, failed and witnessed.

    A prefix ``a_0 < ... < a_j`` of a family carries its reversed member
    mask ``R`` (bit ``top - a`` per member, ``top = universe - 1``) and the
    bitmask ``D`` of its differences.  Adding ``b > a_j`` adds the
    differences ``b - a``, which are the bits of ``R >> (top - b)``: every
    bit ``top - a`` of ``R`` lies above ``top - b``, so the shift keeps it
    as bit ``b - a >= 1``.  So the grown family's masks are
    ``R | 1 << (top - b)`` and ``D | R >> (top - b)``.
    """
    top = universe - 1
    floor = max(size - 3, 0)
    need = size - 2
    differences = range(1, universe)

    # a prefix of ``count`` members, all below ``lo``: its masks ``R`` and ``D``, its
    # first member, and the gap ``shared`` to its second (0 until there is one)
    def grow(count: int, lo: int, members: int, diffs: int, shared: int, first: int):
        checked = failed = witnessed = 0
        if count < size - 1:
            for a in range(lo, universe - (size - 1 - count)):
                tallies = grow(count + 1, a + 1, members | 1 << (top - a),
                               diffs | members >> (top - a),
                               a - first if count == 1 else shared, a if count == 0 else first)
                checked += tallies[0]
                failed += tallies[1]
                witnessed += tallies[2]
            return checked, failed, witnessed
        for b in range(lo, universe):
            grown = diffs | members >> (top - b)
            # the two smallest members anchor size-2 pairs sharing one difference
            m = (grown & (grown >> (shared or b - first))).bit_count()
            if m > floor or any((grown & (grown >> d)).bit_count() > floor for d in differences):
                failed += 1
            if (m if m > floor else 0) >= need:
                witnessed += 1
        return len(range(lo, universe)), failed, witnessed

    return grow(0, 0, 0, 0, 0, 0)


def _partitions_rgs(count: int) -> Iterator[Tuple[int, ...]]:
    """All restricted-growth strings of the given length, in lexicographic order.

    The next string raises the last value that is at most the largest value
    before it and resets the values after it to 0.
    """
    string = [0] * count
    tops = [0] * count  # tops[k]: the largest of string[:k + 1]
    while True:
        yield tuple(string)
        k = count - 1
        while k > 0 and string[k] > tops[k - 1]:
            k -= 1
        if k <= 0:
            return
        string[k] += 1
        tops[k] = top = max(tops[k - 1], string[k])
        for j in range(k + 1, count):
            string[j] = 0
            tops[j] = top


def _random_rgs(samples: int, length: int, rng: random.Random) -> Iterator[Tuple[int, ...]]:
    """``samples`` random restricted-growth strings of ``length``, made one at a time.

    Each value is drawn below ``bound = top + 2``, ``top`` the largest value
    so far in its string (-1 at the start): with ``k = bound.bit_length()``
    it is the first ``rng.getrandbits(k)`` that is below ``bound``.  That is
    how ``random.Random.randrange(bound)`` draws, so the strings and the
    state ``rng`` is left in are those of ``samples * length`` such calls.
    """
    getrandbits = rng.getrandbits
    for _ in range(samples):
        string = []
        bound = 1
        for _ in range(length):
            k = bound.bit_length()
            value = getrandbits(k)
            while value >= bound:
                value = getrandbits(k)
            string.append(value)
            if value == bound - 1:
                bound += 1
        yield tuple(string)


def _agreement(n: int, size: int, strings: Callable[[int], Iterable[tuple]]) -> Tuple[int, int]:
    """How many colourings were checked, and on how many the search and the oracle agree.

    Each colouring of K_n is a restricted-growth string of ``strings(edge
    count)``, read by both as the colour tuple by edge rank.
    """
    search = idealbench.ramsey.canonical_ramsey_search
    checked = agree = 0
    domains = _oracle_domains(n, size)
    for colours in strings(n * (n - 1) // 2):
        mine = search(colours, n, size)
        oracle = oracle_ramsey_search(colours, domains)
        checked += 1
        if (None if mine is None else (mine[0], mine[1].case)) == oracle:
            agree += 1
    return checked, agree


def _ramsey_oracle(size: int, exhaustive_n: int, sample_n: int, samples: int,
                   rng: random.Random) -> dict:
    exhaustive_checked, exhaustive_agree = _agreement(exhaustive_n, size, _partitions_rgs)
    sample_checked, sample_agree = _agreement(
        sample_n, size, lambda count: _random_rgs(samples, count, rng)
    )
    minimal_n = None
    for n in range(size, 6):
        domains = _oracle_domains(n, size)
        if all(oracle_ramsey_search(colours, domains) is not None
               for colours in _partitions_rgs(n * (n - 1) // 2)):
            minimal_n = n
            break
    return {
        "size": size,
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


def _collision(scenario: CollisionScenario) -> dict:
    diagonal = idealbench.diagonal
    horizon = scenario.horizon
    diag_scn = scenario.diag()
    if not diagonal.ENGINES[diag_scn.engine].explicit_forbidden:
        raise SchemaError(f"scenario {scenario.name!r}: a {diag_scn.engine} run forbids "
                          f"label descriptors, so its families list no members to collide")
    stages = scenario.stages(diag_scn.default_stages)
    state, payload = _staged_run(diag_scn, stages)
    tree_scn = scenario.tree_scenario()
    model_index = scenario.model_index(len(state.models))
    report = diagonal.collision_check(
        tree_scn.tree(),
        tree_scn.branching_ideal(),
        tree_scn.coherent_map(),
        tree_scn.oracle(),
        payload,
        model_index,
        state.models[model_index],
        horizon=horizon,
    )
    return {
        "diag": diag_scn.name,
        "stages": stages,
        "collision": report.to_json(),
        "forbidden_label_hit": report.outcome == "collision",
    }


def _pairing(bound: int, unordered_bound: int) -> dict:
    pairing = idealbench.pairing
    code_unordered, pair_diag, unpair_diag = (pairing.code_unordered, pairing.pair_diag,
                                              pairing.unpair_diag)
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
    return {
        "bound": bound,
        "ordered_injective": injective,
        "ordered_monotone": monotone,
        "second_argument_dominated": dominates,
        "unordered_bound": unordered_bound,
        "unordered_symmetric": symmetric,
        "unordered_injective": u_injective,
        "all_hold": injective and monotone and dominates and symmetric and u_injective,
    }


# -- kinds ----------------------------------------------------------------------

@record(frozen=True)
class Kind:
    """One certificate kind; ``KINDS`` is the one place a kind is declared.

    Its inputs are ``integers``, each ``(key, default, minimum)`` or
    ``(key, default, minimum, maximum)`` with the default None when
    required; with ``sizes = (largest, most)``, a list of at most ``most``
    integers from 2 to ``largest``; with ``scenario``, naming a class of
    ``scenarios``, a scenario of that class, parsed by ``scenario_from_json``,
    whose assumptions the certificate records.  ``compute`` takes them by
    name, plus ``rng``, a fresh ``random.Random(seed)``, when ``seeded``, and
    returns the body.  ``expected`` names the body fields that are all true
    when a run came out as its scenario declares.  ``check``, when given,
    takes the body and the same named inputs (``rng`` aside) and raises
    ``CheckFailed`` when they refute the body; it is a ``checkers`` function.
    ``complete`` declares that ``check`` accepts exactly the bodies
    ``compute`` returns, so ``recheck`` need not run the producer.
    """

    name: str
    compute: Callable[..., dict]
    integers: Tuple[Tuple, ...] = ()
    sizes: Optional[Tuple[int, int]] = None
    scenario: Optional[str] = None
    seeded: bool = False
    expected: Tuple[str, ...] = ()
    check: Optional[Callable[..., None]] = None
    complete: bool = False

    def arguments(self, inputs: dict, seed: int) -> dict:
        """The named inputs of ``compute`` but ``rng``; a SchemaError for bad ones."""
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SchemaError(f"certificate seed must be an integer, not {seed!r}")
        where = f"{self.name} inputs"
        if not isinstance(inputs, dict):
            raise SchemaError(f"{where} must be an object")
        args = {key: integer_field(inputs, key, default, where, *bounds)
                for key, default, *bounds in self.integers}
        if self.sizes:
            largest, most = self.sizes
            args["sizes"] = sizes = inputs.get("sizes")
            if not isinstance(sizes, list) or len(sizes) > most or not all(
                isinstance(size, int) and not isinstance(size, bool) and 2 <= size <= largest
                for size in sizes
            ):
                raise SchemaError(f"{where}: sizes must be a list of at most {most} "
                                  f"integers from 2 to {largest}")
        if self.scenario is not None:
            scenarios = idealbench.scenarios
            args["scenario"] = scenarios.scenario_from_json(
                inputs.get("scenario"), f"{where} scenario", getattr(scenarios, self.scenario))
        return args

    def assumptions(self, args: dict) -> list:
        """The assumptions a certificate of the named inputs ``args`` records."""
        return args["scenario"].assumptions() if self.scenario is not None else []

    def produce(self, inputs: dict, seed: int) -> dict:
        """The certificate of ``inputs``; a SchemaError before any work for bad ones."""
        args = self.arguments(inputs, seed)
        assumptions = self.assumptions(args)
        if self.seeded:
            args["rng"] = random.Random(seed)
        return {"schema": CERTIFICATE_SCHEMA, "kind": self.name, "seed": seed, "inputs": inputs,
                "assumptions": assumptions, "body": self.compute(**args)}


_DEPTH = ("depth", None, 1, MAX_DEPTH)
_STAGES = ("stages", None, 1)

KINDS: Dict[str, Kind] = {kind.name: kind for kind in (
    Kind("partition", _partition, (_DEPTH,)),
    Kind("weight-bound", _weight_bound, (_DEPTH,), check=check_weight_bound),
    Kind("subset-reduction", _subset_reduction, (_DEPTH, ("pairs", None, 0, 100)), seeded=True),
    Kind("pigeonhole", _pigeonhole,
         (("depth", 4, 1, MAX_DEPTH), ("samples", None, 1), ("interval", 2, 1)), seeded=True),
    Kind("diagonalization", _diagonalization, (_STAGES,), scenario="DiagScenario",
         expected=("as_expected",)),
    Kind("structural-identity", _structural_identity, (_STAGES,), scenario="DiagScenario"),
    Kind("tree-labelling", _tree_labelling, scenario="TreeScenario",
         expected=("root_as_expected", "critical_as_declared")),
    Kind("sparseness", _sparseness, (("universe", None, 0, 25),), sizes=(7, 3),
         check=check_sparseness, complete=True),
    Kind("ramsey-oracle", _ramsey_oracle, (("size", 3, 0, 5), ("exhaustive_n", 4, 0, 5),
                                            ("sample_n", 5, 0, 6), ("samples", 10000, 0, 20000)),
         seeded=True),
    Kind("collision", _collision, scenario="CollisionScenario",
         expected=("forbidden_label_hit",)),
    Kind("pairing", _pairing, (("bound", 100, 0, 500), ("unordered_bound", 50, 0, 500)),
         check=check_pairing, complete=True),
)}

# the callable ``produce`` runs per kind, looked up at call time so that a
# wrapper stored here (a tracer's span) is the one that runs
_PRODUCERS: Dict[str, Callable[[dict, int], dict]] = {
    name: kind.produce for name, kind in KINDS.items()
}


def _kind(name: str) -> Kind:
    kind = KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise SchemaError(f"unknown certificate kind {name!r}")
    return kind


def produce(kind: str, inputs: dict, seed: int = 0) -> dict:
    return _PRODUCERS[_kind(kind).name](inputs, seed)


@record(frozen=True)
class _Recompute:
    """A fresh recomputation: the rebuilt certificate, keyed by the canonical bytes of its
    ``[kind, inputs, seed]``."""

    key: bytes
    rebuilt: dict


# the last fresh recomputation of ``recheck``, or None; replaced whole, never edited
_last: Optional[_Recompute] = None


def _assumptions_differ(recorded: list, cert: dict) -> Optional[str]:
    path = diff_paths(recorded, cert["assumptions"], "$.assumptions")
    return None if path is None else f"assumptions differ at {path}"


def _refutation(rebuilt: dict, cert: dict) -> Optional[str]:
    """Where ``cert`` first differs from ``rebuilt``, body before assumptions; None if equal."""
    path = diff_paths(rebuilt["body"], cert["body"], "$.body")
    if path is not None:
        return f"recomputation differs at {path}"
    return _assumptions_differ(rebuilt["assumptions"], cert)


def recheck(cert: dict) -> Tuple[bool, str]:
    """Check a certificate's body with its kind's checker, if any, then its assumptions.

    A kind with a complete checker is accepted on the checker and on its
    assumptions equalling those ``Kind.produce`` records, with no producer
    run.  Any other kind is recomputed: its certificate is re-produced from
    its inputs, and body and assumptions are compared with the rebuilt ones
    by one strict structural walk, ``diff_paths``, which also names the
    first differing path.  Rebuilt bodies and assumptions hold JSON-native
    types only, and on those the walk accepts exactly when the canonical
    bytes are equal, so no body is serialized.  A SchemaError for a
    malformed envelope or inputs, else ``(passed, detail)``.

    The last fresh recomputation stays in one slot, keyed by the canonical
    bytes of ``[kind, inputs, seed]`` once the inputs are accepted.  A
    certificate of that key whose body or assumptions differ from the
    slot's is refuted from the slot, with the detail a fresh recomputation
    would give.  Any other certificate is recomputed fresh, the slot cleared
    meanwhile, so an acceptance never rests on a cached recomputation.  A
    kind with a complete checker leaves the slot as it is.
    """
    global _last
    if not isinstance(cert, dict):
        raise SchemaError("certificate must be an object")
    for key in ("schema", "kind", "seed", "inputs", "assumptions", "body"):
        if key not in cert:
            raise SchemaError(f"certificate lacks {key!r}")
    if cert["schema"] != CERTIFICATE_SCHEMA:
        raise SchemaError(f"unsupported schema {cert['schema']!r}")
    check_assumptions(cert["assumptions"], "certificate")
    kind = _kind(cert["kind"])
    args = kind.arguments(cert["inputs"], cert["seed"])
    if kind.check is not None:
        try:
            kind.check(cert["body"], **args)
        except CheckFailed as exc:
            return False, str(exc)
    if kind.complete:
        detail = _assumptions_differ(kind.assumptions(args), cert)
    else:
        key = canonical_bytes([kind.name, cert["inputs"], cert["seed"]])
        last = _last
        detail = _refutation(last.rebuilt, cert) if last is not None and last.key == key else None
        if detail is None:
            _last = None
            last = _last = _Recompute(key, produce(kind.name, cert["inputs"], cert["seed"]))
            detail = _refutation(last.rebuilt, cert)
    return (False, detail) if detail is not None else (True, "certificate re-verified")
