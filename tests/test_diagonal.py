"""Stage engines: frozen tallies, exact bounds, structural identities.

Expected values were computed independently before freezing: the interval
engine tallies follow from the greedy partition arithmetic (weights are
unit fractions with equality-tight conditions), the difference engine
prefix from exact harmonic accumulation, and the sums/pairs anchors from
the threshold rules evaluated by hand.
"""

import contextlib
import copy
import hashlib
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from idealbench import anchored, certify, diagonal, posdiff, pwfin
from idealbench.acceptance import IDENTITY_SCENARIOS
from idealbench.construction import PartitionData, build_partition
from idealbench.diagonal import (
    CriticalNodeModel,
    LabelRule,
    _harmonic_pair,
    assemble,
    coarse_colour,
    collision_check,
    extract_profile,
    harmonic,
    model_for_stage,
    rule_from_json,
    run_hindman,
    run_posdiff,
    run_pwfin,
    run_ramsey,
    run_stages,
)
from idealbench.errors import HorizonExhausted, ScenarioContradiction, SchemaError, StructuralError
from idealbench.ideals import diff_multiplicity
from idealbench.pairing import code_unordered, unpair_diag
from idealbench.posdiff import PosdiffStageRecord, PosdiffState, _heaviest_class, posdiff_stage
from idealbench.pwfin import profile_label_weight
from idealbench.ramsey import block_disjoint, delta, eventually_sparse_check
from idealbench.scenarios import DiagScenario, bundled_names, load_scenario
from idealbench.serialize import canonical_bytes, rat_parse, rat_str
from idealbench.sets import Cofinite, Finite, Progression


# -- colouring and extraction ---------------------------------------------------

def table_model(entries, case=None):
    return CriticalNodeModel(0, LabelRule("table", {"entries": entries}), case=case)


def test_coarse_colour_cases():
    p = build_partition(4)
    model = table_model({1: None, 3: 2, 4: 30})
    assert coarse_colour(model, p, 1, 1) == 0        # bottom
    assert coarse_colour(model, p, 2, 3) == 1        # label 2 below interval 2
    assert coarse_colour(model, p, 2, 4) == 2        # label 30 inside interval 2
    with pytest.raises(ValueError):
        coarse_colour(model, p, 1, 5)


def test_coarse_colour_label_beyond_coverage_counts_as_deep():
    p = build_partition(3)
    model = table_model({1: p.coverage_end + 10})
    assert coarse_colour(model, p, 1, 1) == 2


def test_extract_profile_all_bottom():
    p = build_partition(4)
    model = CriticalNodeModel(0, LabelRule("all-bot"))
    prof = extract_profile(model, p, 2)
    assert prof.colour == 0
    assert prof.f_count == p.lengths[2] == 24


def test_extract_profile_balanced_colouring():
    p = build_partition(4)
    entries = {}
    for pos, x in enumerate(p.interval_members(2)):
        if pos % 3 == 0:
            entries[x] = None
        elif pos % 3 == 1:
            entries[x] = 1          # below the interval
        else:
            entries[x] = x          # inside it
    prof = extract_profile(table_model(entries), p, 2)
    assert prof.f_count == 8        # pigeonhole: 24 points, 3 colours
    assert prof.colour == 0         # ties resolve to the least colour
    # off-selector weight of the block: 8 points at 1/8 each
    assert p.rationals[2] * prof.f_count == 1


def test_extract_profile_grouped_labels():
    p = build_partition(4)
    entries = {x: (1 if x % 2 else 2) for x in p.interval_members(2)}
    prof = extract_profile(table_model(entries), p, 2)
    assert prof.colour == 1
    assert prof.f_count == 24
    assert prof.g_count == 12       # the larger label class within the block
    assert prof.g_count * p.prefix_size(2) >= prof.f_count


def test_closed_form_profiles_match_enumeration():
    # every closed-form kind against a table rule with the same labels, on
    # every interval of a depth-5 partition that a table can enumerate
    # (I_4 has 432,221,184 points, past the enumeration cap)
    p = build_partition(5)
    selectors = [Cofinite(()), Progression(0, 2), Progression(1, 2), Finite(())]
    rules = [LabelRule("identity"), LabelRule("all-bot"),
             LabelRule("prev-interval-max", {"partition": p})]
    rules += [LabelRule("constant", {"value": c}) for c in (0, 2, 3, 30, 5210)]
    checked = set()
    for n in range(p.depth):
        if p.lengths[n] > pwfin._ENUM_CAP:
            continue
        for rule in rules:
            model = CriticalNodeModel(0, rule)
            entries = {x: rule.label(x) for x in p.interval_members(n)}
            closed = extract_profile(model, p, n)
            counted = extract_profile(table_model(entries), p, n)
            assert (closed.colour, closed.f_count, closed.g_count) == (
                counted.colour, counted.f_count, counted.g_count), (rule.kind, n)
            checked.add((rule.kind, closed.colour))
            if closed.colour == 0:
                continue
            for selector in selectors:
                assert profile_label_weight(closed, selector, p) == profile_label_weight(
                    counted, selector, p), (rule.kind, n, selector)
    # the constants land on both sides of I_n, and every kind is exercised
    assert {("constant", 1), ("constant", 2), ("identity", 2), ("all-bot", 0),
            ("prev-interval-max", 0), ("prev-interval-max", 1)} <= checked


# -- interval engine --------------------------------------------------------------

def pwfin_run(case, stages=4):
    scn = load_scenario("pw-2b" if case == "2b" else "pw-2c")
    partition = scn.partition()
    models = scn.models(partition)
    state = run_pwfin(
        partition,
        Cofinite(()),
        Progression(0, 2),
        models,
        stages,
    )
    return state, partition


def test_pwfin_2b_frozen_stage_values():
    state, p = pwfin_run("2b")
    rows = [(r.k, r.n, r.c_weight_p, r.d_weight_q) for r in state.stages]
    assert rows == [
        (0, 1, Fraction(1, 2), Fraction(1)),
        (1, 3, Fraction(1, 192), Fraction(27)),
        (2, 5, p.rationals[5], Fraction(p.starts[5])),
        (3, 7, p.rationals[7], Fraction(p.starts[7])),
    ]
    for r in state.stages:
        assert r.c_weight_p <= Fraction(1, 2 ** r.k)
        assert r.d_weight_q >= Fraction(1, 3)


def test_pwfin_2c_frozen_stage_values():
    state, p = pwfin_run("2c")
    for r, expected_n in zip(state.stages, (1, 3, 5, 7)):
        assert r.n == expected_n
        # every label in the block sits one interval deeper for the source
        assert r.c_weight_p == Fraction(1, 2 ** (r.n + 1))
        assert r.c_weight_p <= Fraction(1, 2 ** r.k)
        assert r.d_weight_q == Fraction(p.starts[r.n])
        assert r.d_weight_q >= Fraction(1, 3)


def test_pwfin_closed_forms_match_pointwise_sums():
    # independent oracle at enumerable depth: recompute every stage weight
    # by summing the selector weights point by point
    from idealbench.construction import weight_fn
    from idealbench.diagonal import run_pwfin as engine_run

    scn = load_scenario("pw-2c")
    p = build_partition(5)
    p_set, q_set = Cofinite(()), Progression(0, 2)
    state = engine_run(p, p_set, q_set, scn.models(p), 2)
    wp = weight_fn(p_set, p)
    wq = weight_fn(q_set, p)
    for rec in state.stages:
        members = list(p.interval_members(rec.n))
        labels = {scn.models(p)[0].rule.label(x) for x in members}
        assert sum((wp(c) for c in labels), Fraction(0)) == rec.c_weight_p
        assert sum((wq(x) for x in members), Fraction(0)) == rec.d_weight_q


def test_pwfin_blocks_disjoint_and_fresh():
    state, _ = pwfin_run("2c")
    intervals = [r.n for r in state.stages]
    assert len(set(intervals)) == len(intervals)
    assert len({(r.i, r.n) for r in state.stages}) == len(state.stages)


def test_pwfin_case_2a_contradiction():
    scn = load_scenario("pw-2a")
    partition = scn.partition()
    with pytest.raises(ScenarioContradiction) as exc:
        run_pwfin(partition, Cofinite(()), Progression(0, 2), scn.models(partition), 1)
    assert "declared null" in exc.value.report["summary"]


def test_pwfin_refuses_a_partition_that_is_not_greedy():
    # the bound lemma of pwfin_stage rests on the greedy identities; the
    # same numbers given as ints are not taken on trust
    p = build_partition(5)
    given = PartitionData(p.starts, p.lengths, p.rationals)
    models = load_scenario("pw-2c").models(given)
    with pytest.raises(ValueError, match="greedy"):
        run_pwfin(given, Cofinite(()), Progression(0, 2), models, 1)


def test_pwfin_starves_without_fresh_indices():
    scn = load_scenario("pw-2c")
    partition = scn.partition()
    with pytest.raises(HorizonExhausted):
        run_pwfin(
            partition, Cofinite(()), Progression(0, 2), scn.models(partition), 6
        )


@pytest.mark.parametrize("case, rule", [
    ("2b", {"kind": "prev-interval-max"}),
    ("2c", {"kind": "identity"}),
])
def test_pwfin_stage_depth_minus_one_ends_every_run(case, rule):
    # the horizon lemma of pwfin_stage: each stage k takes the first index
    # n > k, so stage depth - 1 finds none, and no stage k >= depth runs
    p = build_partition(6)
    models = [CriticalNodeModel(0, rule_from_json(rule, p), case=case)]
    state = pwfin.PwfinState(p, Cofinite(()), Finite(()), tuple(models))
    with pytest.raises(HorizonExhausted,
                       match=f"^stage 5: no fresh difference index fits case {case}$"):
        run_stages(state, 9, pwfin.pwfin_stage)
    assert [(r.k, r.n) for r in state.stages] == [(k, k + 1) for k in range(5)]


def test_pwfin_2b_skips_an_interval_not_of_colour_1():
    # I_1 labels itself (colour 2); I_2 labels 0, below it (colour 1)
    p = build_partition(4)
    entries = {x: x for x in p.interval_members(1)}
    entries.update({x: 0 for x in p.interval_members(2)})
    state = run_pwfin(p, Cofinite(()), Finite(()), [table_model(entries, "2b")], 1)
    assert [(r.n, r.c_labels) for r in state.stages] == [(2, {"kind": "single", "value": "0"})]


def test_pwfin_2a_refutation_weighs_bottom_intervals_only():
    # I_1 labels itself (colour 2) and is skipped; I_2 is all bottom
    p = build_partition(4)
    model = table_model({x: x for x in p.interval_members(1)}, "2a")
    with pytest.raises(ScenarioContradiction) as exc:
        run_pwfin(p, Cofinite(()), Finite(()), [model], 1)
    assert exc.value.report["blocks"] == [{"n": 2, "wQ": "3/1"}]  # L_2 points at 1/R_2


def test_pwfin_assemble_records_bound():
    state, _ = pwfin_run("2c")
    payload = assemble(state)
    assert rat_parse(payload["forbidden_weight"]) <= 2
    assert payload["closed_form_bound"] == "2/1"
    fam = payload["families"]["0"]
    assert fam["structure"] == "divergent-weight"
    assert fam["stages"] == 4


@given(st.lists(st.integers(0, 10**6), max_size=40))
@example([])
@example([5, 5, 11])
def test_harmonic_matches_fraction_sum(members):
    assert harmonic(members) == sum((Fraction(1, x + 1) for x in members), Fraction(0))


@given(st.lists(st.integers(0, 10**6), max_size=80))
@example([])
@example([6, 6, 2])
@example([1] * 40)
def test_harmonic_pair_matches_fraction_sum(members):
    p, q = _harmonic_pair(members)
    assert Fraction(p, q) == sum((Fraction(1, x + 1) for x in members), Fraction(0))


def fraction_heaviest(groups):
    masses = {key: sum((Fraction(1, x + 1) for x in xs), Fraction(0)) for key, xs in groups.items()}
    return max(sorted(masses), key=lambda key: masses[key])


def unit_masses(groups):
    """Each member x as a run of one, with its unreduced mass 1/(x+1)."""
    return {key: [(1, x + 1) for x in xs] for key, xs in groups.items()}


def pair_bracket(run):
    """The bracket (floor(_SCALE * P/Q), 1) of a run given as its mass P/Q."""
    p, q = run
    return diagonal._SCALE * p // q, 1


def heaviest_of_masses(groups):
    """``_heaviest_class`` over runs given as their unreduced masses P/Q."""
    return _heaviest_class(groups, pair_bracket, lambda run: run)


@given(st.dictionaries(st.integers(0, 12), st.lists(st.integers(0, 5), min_size=1, max_size=6),
                       min_size=1, max_size=6))
def test_heaviest_class_matches_fraction_masses(groups):
    # members below 6 make equal masses common
    assert heaviest_of_masses(unit_masses(groups)) == fraction_heaviest(groups)


def test_heaviest_class_ties_go_to_the_smallest_residue():
    # 1/2 + 1/6 = 1/3 + 1/3 = 2/3, ahead of 1/4
    assert heaviest_of_masses(unit_masses({3: [2, 2], 0: [3], 1: [1, 5]})) == 1
    assert heaviest_of_masses(unit_masses({1: [1, 5], 3: [2, 2]})) == 1
    assert heaviest_of_masses(unit_masses({5: [0]})) == 5


def test_heaviest_class_keeps_a_tie_whose_bracket_starts_lower():
    # 1/3 + 1/6 ties 1/2, but its floored bracket starts one below 2^63
    groups = unit_masses({0: [2, 5], 1: [1]})
    assert sum(pair_bracket(run)[0] for run in groups[0]) == diagonal._SCALE // 2 - 1
    assert heaviest_of_masses(groups) == 0


def test_heaviest_class_sums_multi_term_runs():
    # 1/3 + 1/4 as one run, 2/7 + 1/3 as two, 1/2 alone: 7/12 < 13/21, so 4 wins
    assert heaviest_of_masses({9: [(7, 12)], 4: [(2, 7), (1, 3)], 0: [(1, 2)]}) == 4


# -- block-geometric labels ---------------------------------------------------------

def reference_block_labels(start, base_label, ratio, xs):
    """Labels from block bounds summed one Fraction at a time."""
    bounds = [start]
    while bounds[-1] <= max(xs):
        acc, x = Fraction(0), bounds[-1]
        while acc < 1:
            acc += Fraction(1, x + 1)
            x += 1
        bounds.append(x)
    out = {}
    for x in xs:
        if x < start:
            out[x] = None
            continue
        j = 0
        while bounds[j + 1] <= x:
            j += 1
        out[x] = base_label * ratio ** j
    return out


@given(
    st.integers(0, 12),
    st.integers(1, 9),
    st.integers(2, 5),
    st.lists(st.integers(0, 700), min_size=1, max_size=30),
    st.randoms(use_true_random=False),
)
@example(2, 5, 3, list(range(0, 60)), None)
@example(0, 1, 2, [0, 1, 2, 3, 4, 10, 11, 12], None)
def test_block_geometric_labels_match_fraction_reference(start, base_label, ratio, xs, rnd):
    params = {"start": start, "base_label": base_label, "ratio": ratio}
    expected = reference_block_labels(start, base_label, ratio, xs)
    shuffled = list(xs)
    if rnd is not None:
        rnd.shuffle(shuffled)
    for order in (sorted(xs), sorted(xs, reverse=True), shuffled):
        rule = LabelRule("block-geometric", dict(params))
        assert {x: rule.label(x) for x in order} == expected


def test_block_geometric_rule_stays_equal_to_itself_after_use():
    params = {"start": 2, "base_label": 5, "ratio": 3}
    rule = LabelRule("block-geometric", params)
    other = LabelRule("block-geometric", dict(params))
    assert rule.label(50) == 45
    assert rule == other
    assert params == {"start": 2, "base_label": 5, "ratio": 3}
    assert repr(rule) == repr(other)


def test_label_rule_fields_are_its_kind_and_params():
    # label, pair_label and the scanned block ends are attributes, not fields
    assert [f.name for f in LabelRule.__record_fields__] == ["kind", "params"]
    params = {"start": 2, "base_label": 5, "ratio": 3}
    rule = LabelRule("block-geometric", dict(params))
    assert list(rule.label_runs(0, 200))[-1][2] == 5 * 3 ** 4
    assert rule._blocks.starts
    assert rule == LabelRule("block-geometric", dict(params))


# -- reference: the per-successor difference engine ----------------------------------

def reference_add_units(members, num=0, den=1, to_one=False):
    """num/den plus 1/(x+1) per member, with den kept the lcm of the denominators.

    With ``to_one`` the sum stops at the first member that takes it to 1.
    Returns num, den and the number of members added.
    """
    added = 0
    for x in members:
        g = gcd(den, x + 1)
        step = (x + 1) // g
        num, den = num * step + den // g, den * step
        added += 1
        if to_one and num >= den:
            break
    return num, den, added


def reference_block_bounds(start, upto):
    """First successors of the blocks up to the one holding ``upto``.

    The one-term-at-a-time lcm scan: a block ends at the first successor
    whose term takes its running mass to 1.
    """
    bounds, pos, num, den = [start], start, 0, 1
    while pos < upto:
        num, den, added = reference_add_units(range(pos, upto), num, den, to_one=True)
        pos += added
        if num >= den:
            bounds.append(pos)
            num, den = 0, 1
    return bounds


def reference_labels(rule, horizon):
    """Labels of the successors below the horizon, one per successor."""
    if rule.kind != "block-geometric":
        return [rule.label(x) for x in range(horizon)]
    start, base, ratio = (rule.params[key] for key in ("start", "base_label", "ratio"))
    bounds = reference_block_bounds(start, horizon - 1)
    return [None if x < start else base * ratio ** (bisect_right(bounds, x) - 1)
            for x in range(horizon)]


def reference_heaviest(groups):
    keys = sorted(groups)
    if len(keys) == 1:
        return keys[0]
    best, best_p, best_q = None, 0, 1
    for key in keys:
        p, q = _harmonic_pair(groups[key])
        if p * best_q > best_p * q:
            best, best_p, best_q = key, p, q
    return best


def reference_posdiff(models, horizon, stages):
    """The element-wise stage loop: every stage regroups all eligible
    successors by residue, re-sums each class and adds the prefix one term
    at a time."""
    state = PosdiffState(tuple(models), horizon)
    labels = {}
    for k in range(stages):
        i, model = model_for_stage(state.models, k)
        if i not in labels:
            labels[i] = reference_labels(model.rule, horizon)
        label_of = labels[i]
        if model.rule.finite_alphabet():
            groups = {}
            for x, lab in enumerate(label_of):
                groups.setdefault(lab, []).append(x)
            classes = {lab: Fraction(*_harmonic_pair(xs)) for lab, xs in groups.items()}
            raise ScenarioContradiction(
                {"classes": {str(c): rat_str(v) for c, v in sorted(classes.items(), key=str)}}
            )
        prev = state.labels()
        diffs = delta(prev)
        n_bound = max(prev) if prev else 0
        m_bound = (max(diffs) if diffs else 0) + 1
        groups = {}
        for x, lab in enumerate(label_of):
            if lab is not None and lab > n_bound + m_bound:
                groups.setdefault(lab % m_bound, []).append(x)
        if not groups:
            raise HorizonExhausted(f"stage {k}: no eligible successors below horizon")
        best = reference_heaviest(groups)
        num, den, taken = reference_add_units(groups[best], to_one=True)
        members = groups[best][:taken]
        if num < den:
            raise HorizonExhausted(f"stage {k}: residue class {best} reaches only "
                                   f"{rat_str(Fraction(num, den))} at the horizon")
        c_now = sorted({label_of[x] for x in members})
        for x in c_now:
            for y in set(prev) | set(c_now):
                if x != y and abs(x - y) in diffs:
                    raise ScenarioContradiction(
                        {"summary": f"stage {k}: labels {x} and {y} repeat the "
                         f"difference {abs(x - y)}"}
                    )
        state.stages.append(PosdiffStageRecord(
            k, i, n_bound, m_bound, best, tuple(members), tuple(c_now), Fraction(num, den)
        ))
    return state.stages


def posdiff_outcome(run, models, horizon, stages):
    """Stage records, or how the run stopped, comparable across engines."""
    try:
        return "stages", run(models, horizon, stages)
    except HorizonExhausted as exc:
        return "exhausted", str(exc)
    except ScenarioContradiction as exc:
        report = exc.report
        return "contradiction", report["classes"] if "classes" in report else report["summary"]


def run_posdiff_records(models, horizon, stages):
    return run_posdiff(models, horizon, stages).stages


def block_rule(start, base_label, ratio):
    return LabelRule("block-geometric", {"start": start, "base_label": base_label, "ratio": ratio})


@given(st.integers(0, 300), st.integers(0, 6000), st.integers(0, 6000),
       st.sampled_from(["any", "end", "below-end"]))
@example(2, 5000, 0, "end")
@example(2, 5000, 0, "below-end")
@example(0, 1, 0, "end")
def test_bracketed_block_ends_match_the_lcm_scan(start, upto, first, snap):
    reference = reference_block_bounds(start, upto)
    if snap != "any" and len(reference) > 1:
        # a horizon equal to a block end, or one below it
        upto = reference[-1] - (snap == "below-end")
    rule = block_rule(start, 5, 3)
    rule._block_bounds(first)     # an earlier query the scan must resume from
    assert rule._block_bounds(upto) == reference_block_bounds(start, max(first, upto))


@pytest.mark.parametrize("estimate", [1.0, 50.0])
def test_block_ends_do_not_depend_on_the_float_guess(monkeypatch, estimate):
    # a guess at the block start or far past it only costs steps
    monkeypatch.setattr(diagonal, "exp", lambda _: estimate)
    for start in (0, 3, 40):
        rule = block_rule(start, 5, 3)
        assert rule._block_bounds(900) == reference_block_bounds(start, 900)


def test_block_masses_close_exactly_at_the_block_end():
    rule = block_rule(4, 5, 3)
    bounds = rule._block_bounds(20000)
    assert bounds == reference_block_bounds(4, 20000)
    for a, e in zip(bounds, bounds[1:]):
        p, q = rule.run_mass(a, e)
        assert Fraction(p, q) == harmonic(range(a, e)) >= 1
        assert harmonic(range(a, e - 1)) < 1


@pytest.mark.parametrize("factor", [4.0, 0.25])
@pytest.mark.parametrize("a, limit, taken", [(0, 50, (0, 1)), (7, 200, (1, 3)),
                                             (40, 400, (0, 1)), (40, 60, (0, 1)),
                                             (40, 40, (1, 2))])
def test_reach_one_corrects_a_wrong_first_guess(monkeypatch, factor, a, limit, taken):
    # the float guess is exact on every run the suite makes; scaled, it lands
    # past or short of the first end, and the scans down and up must find it
    real_exp = diagonal.exp
    monkeypatch.setattr(diagonal, "exp", lambda x: factor * real_exp(x))
    start = Fraction(*taken)
    t, p, q = diagonal._reach_one(a, limit, *taken)
    ends = [e for e in range(a + 1, limit + 1) if start + harmonic(range(a, e)) >= 1]
    assert t == (ends[0] if ends else None)
    assert Fraction(p, q) == start + harmonic(range(a, limit if t is None else t))


@pytest.mark.parametrize("scale_bits", [4, 10])
def test_coarse_brackets_fall_back_to_exact_sums(monkeypatch, scale_bits):
    # at scale 2^4 every term past successor 15 floors to 0, so nearly every
    # block end, open block and class choice falls back to exact sums
    monkeypatch.setattr(diagonal, "_SCALE", 1 << scale_bits)
    exact = []
    reach_one = diagonal._reach_one

    def spy(a, limit, p=0, q=1):
        exact.append(a)
        return reach_one(a, limit, p, q)

    monkeypatch.setattr(diagonal, "_reach_one", spy)
    for start, first, upto in [(0, 0, 900), (3, 40, 900), (4, 6000, 20000), (40, 0, 3000)]:
        rule = block_rule(start, 5, 3)
        rule._block_bounds(first)
        assert rule._block_bounds(upto) == reference_block_bounds(start, max(first, upto))
    assert exact
    for key in [("diagonalization", "posdiff-blocks", 4),
                ("diagonalization", "gen-posdiff-3-7-4-s5-h12000", 5),
                ("diagonalization", "gen-posdiff-4-5-3-s7-h20000", 7)]:
        assert certificate_digest(*key) == PINNED_CERTIFICATES[key]


def test_uncarved_blocks_are_never_summed_exactly(monkeypatch):
    # the 7-stage, horizon-20000 run carves blocks 0-6; block 7 and the open
    # block 8 are 14,823 of its 19,996 successors, and brackets alone rule
    # their classes out
    summed = []
    harmonic_pair, reach_one = diagonal._harmonic_pair, diagonal._reach_one

    def pair_spy(members):
        summed.append((members[0], members[-1] + 1))
        return harmonic_pair(members)

    def reach_spy(a, limit, p=0, q=1):
        summed.append((a, limit))
        return reach_one(a, limit, p, q)

    monkeypatch.setattr(diagonal, "_harmonic_pair", pair_spy)
    # the block scan and the carve each read their own binding
    monkeypatch.setattr(diagonal, "_reach_one", reach_spy)
    monkeypatch.setattr(posdiff, "_reach_one", reach_spy)
    state = run_posdiff([CriticalNodeModel(0, block_rule(4, 5, 3))], 20000, 7)
    bounds = reference_block_bounds(4, 20000)
    assert bounds[-2:] == [5177, 14074]
    carved = list(zip(bounds[:-2], bounds[1:-1]))
    assert [(rec.d_members[0], rec.d_members[-1] + 1) for rec in state.stages] == carved
    assert summed == carved


LABEL_RULES = [
    ("identity", {}), ("constant", {"value": 7}), ("all-bot", {}),
    ("table", {"entries": {0: 4, 1: 4, 2: None, 5: 9, 6: 9, 40: 1}}),
    ("min-support", {}), ("max-support", {}), ("support-pair-code", {}),
    ("pair-min", {}), ("pair-max", {}), ("pair-code", {}), ("pair-constant", {"value": 3}),
]
rule_specs = st.one_of(
    st.sampled_from(LABEL_RULES),
    st.builds(lambda start, base, ratio: ("block-geometric", {"start": start, "base_label": base,
                                                              "ratio": ratio}),
              st.integers(0, 30), st.integers(0, 9), st.integers(2, 5)),
)


@given(rule_specs, st.integers(0, 700), st.integers(0, 700))
@example(("block-geometric", {"start": 2, "base_label": 5, "ratio": 3}), 0, 700)
@example(("block-geometric", {"start": 2, "base_label": 5, "ratio": 3}), 5, 3)
def test_label_runs_agree_with_label_at_every_point(spec, lo, width):
    kind, params = spec
    hi = lo + width
    runs = list(LabelRule(kind, dict(params)).label_runs(lo, hi))
    rule = LabelRule(kind, dict(params))
    assert all(start < end for start, end, _ in runs)
    assert [x for start, end, _ in runs for x in range(start, end)] == list(range(lo, hi))
    for start, end, lab in runs:
        assert all(rule.label(x) == lab for x in range(start, end))
    if kind == "block-geometric":
        cuts = set(reference_block_bounds(params["start"], hi))
        assert all(end in cuts or end == hi for _, end, _ in runs)


@given(st.sampled_from(LABEL_RULES), st.integers(0, 300), st.integers(0, 300))
@example(("table", {"entries": {0: 4, 1: 4, 2: None, 5: 9, 6: 9, 40: 1}}), 3, 2)
def test_pair_labels_are_the_labels_of_pair_codes(spec, s, t):
    # the pairs engine and the collision check label a pair by its code
    assume(s != t)
    kind, params = spec
    rule = LabelRule(kind, dict(params))
    if diagonal.LABEL_KINDS[kind].pair is None:
        with pytest.raises(StructuralError):
            rule.pair_label(s, t)
    else:
        assert rule.pair_label(s, t) == rule.pair_label(t, s) == rule.label(code_unordered(s, t))


posdiff_specs = st.one_of(
    st.builds(lambda start, base, ratio: ("block-geometric", {"start": start, "base_label": base,
                                                              "ratio": ratio}),
              st.integers(0, 12), st.integers(1, 9), st.integers(2, 5)),
    st.just(("identity", {})),
    st.just(("max-support", {})),
    st.builds(lambda entries: ("table", {"entries": entries}),
              st.dictionaries(st.integers(0, 300), st.none() | st.integers(0, 40), max_size=12)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(posdiff_specs, min_size=1, max_size=2), st.integers(1, 3000), st.integers(1, 7),
       st.integers(0, 6000))
@example([("block-geometric", {"start": 2, "base_label": 5, "ratio": 3})], 1200, 4, 0)
@example([("block-geometric", {"start": 2, "base_label": 5, "ratio": 3})], 1200, 4, 5000)
@example([("block-geometric", {"start": 2, "base_label": 5, "ratio": 3})], 1200, 7, 2000)
@example([("identity", {})], 300, 4, 0)
def test_run_based_stages_match_the_element_wise_engine(specs, horizon, stages, queried):
    def models():
        return [CriticalNodeModel(i, LabelRule(kind, dict(params)))
                for i, (kind, params) in enumerate(specs)]

    warmed = models()
    for model in warmed:
        model.rule.label(queried)   # a block scan already past the horizon, or not
    assert (posdiff_outcome(run_posdiff_records, warmed, horizon, stages)
            == posdiff_outcome(reference_posdiff, models(), horizon, stages))


@pytest.mark.parametrize("start, base_label, ratio, horizon, stages", [
    (2, 5, 3, 1200, 4), (3, 7, 4, 12000, 5), (0, 2, 2, 3000, 6), (4, 5, 3, 20000, 7),
])
def test_each_block_rule_stage_carves_one_whole_block(start, base_label, ratio, horizon, stages):
    state = PosdiffState((CriticalNodeModel(0, block_rule(start, base_label, ratio)),), horizon)
    with contextlib.suppress(HorizonExhausted):
        run_stages(state, stages, posdiff_stage)
    bounds = reference_block_bounds(start, horizon)
    assert len(state.stages) >= 3
    for rec in state.stages:
        lo, hi = rec.d_members[0], rec.d_members[-1] + 1
        assert rec.d_members == tuple(range(lo, hi))
        j = bounds.index(lo)
        assert bounds[j + 1] == hi
        assert rec.c_labels == (base_label * ratio ** j,)
        assert rec.d_harmonic == harmonic(rec.d_members) >= 1
        assert harmonic(rec.d_members[:-1]) < 1


@pytest.mark.parametrize("below", [0, 1])
def test_a_block_closing_at_the_horizon(below):
    # the only block ends exactly at horizon - 1, or one successor later
    end = reference_block_bounds(6, 400)[1]
    horizon = end - below

    def models():
        return [CriticalNodeModel(0, block_rule(6, 5, 3))]

    outcome = posdiff_outcome(run_posdiff_records, models(), horizon, 1)
    assert outcome == posdiff_outcome(reference_posdiff, models(), horizon, 1)
    if below:
        assert outcome[0] == "exhausted" and "reaches only" in outcome[1]
    else:
        assert outcome[0] == "stages"
        assert outcome[1][0].d_members == tuple(range(6, end))


# -- difference engine --------------------------------------------------------------

def test_posdiff_identity_first_stage_matches_hand_sum():
    scn = load_scenario("posdiff-identity")
    state = run_posdiff(scn.models(), scn.payload["horizon"], 1)
    rec = state.stages[0]
    assert rec.d_members == (2, 3, 4, 5, 6)
    # 1/3 + 1/4 + 1/5 + 1/6 = 19/20 falls short; 1/7 completes the mass
    assert harmonic((2, 3, 4, 5)) == Fraction(19, 20)
    assert rec.d_harmonic == Fraction(19, 20) + Fraction(1, 7) == Fraction(153, 140)
    assert rec.m_bound == 1 and rec.n_bound == 0


def test_posdiff_identity_second_stage_independent_recomputation():
    scn = load_scenario("posdiff-identity")
    state = run_posdiff(scn.models(), scn.payload["horizon"], 2)
    rec = state.stages[1]
    # previous labels {2..6}: difference bound 5, freshness bound 6
    assert rec.n_bound == 6 and rec.m_bound == 5
    # stage filter: labels above 11, split by residue; rebuild independently
    classes = {}
    for x in range(12, scn.payload["horizon"]):
        classes.setdefault(x % 5, []).append(x)
    best = max(sorted(classes), key=lambda r: harmonic(classes[r]))
    assert rec.residue == best
    prefix, acc = [], Fraction(0)
    for x in classes[best]:
        prefix.append(x)
        acc += Fraction(1, x + 1)
        if acc >= 1:
            break
    assert rec.d_members == tuple(prefix)
    assert rec.d_harmonic == acc


def test_posdiff_identity_exhausts_at_later_stages():
    scn = load_scenario("posdiff-identity")
    with pytest.raises(HorizonExhausted):
        run_posdiff(scn.models(), scn.payload["horizon"], 4)


def test_posdiff_blocks_full_run():
    scn = load_scenario("posdiff-blocks")
    state = run_posdiff(scn.models(), scn.payload["horizon"], 4)
    labels = [rec.c_labels for rec in state.stages]
    assert labels == [(5,), (15,), (45,), (135,)]
    for rec in state.stages:
        assert rec.d_harmonic >= 1
        assert all(lab > rec.n_bound + rec.m_bound for lab in rec.c_labels)
    # strong sparseness independently: no repeated differences at all here
    flat = sorted({lab for rec in state.stages for lab in rec.c_labels})
    table = diff_multiplicity(flat)
    assert all(count == 1 for count in table.values())
    assert eventually_sparse_check(flat, 1).passed


def test_posdiff_blocks_assemble():
    scn = load_scenario("posdiff-blocks")
    state = run_posdiff(scn.models(), scn.payload["horizon"], 4)
    payload = assemble(state)
    assert payload["forbidden_labels"] == ["5", "15", "45", "135"]
    assert rat_parse(payload["forbidden_mass"]) < 2
    fam = payload["families"]["0"]
    assert fam["structure"] == "divergent-harmonic"
    assert Fraction(*map(int, fam["harmonic_mass"].split("/"))) >= 4


def test_posdiff_finite_alphabet_contradiction():
    scn = load_scenario("posdiff-finite-labels")
    with pytest.raises(ScenarioContradiction) as exc:
        run_posdiff(scn.models(), scn.payload["horizon"], 1)
    assert "finite label alphabet" in exc.value.report["summary"]


# -- sums engine -----------------------------------------------------------------

HINDMAN_EXPECTED_ANCHORS = {
    2: [2, 4, 8, 16],
    3: [2, 4, 8, 16],
    4: [2, 4, 8, 64],
    5: [2, 8, 32, 128],
}


@pytest.mark.parametrize("form", [2, 3, 4, 5])
def test_hindman_runs_and_invariants(form):
    scn = load_scenario(f"hindman-case{form}")
    state = run_hindman(scn.models(), 4)
    values = state.anchors(0)
    assert values == HINDMAN_EXPECTED_ANCHORS[form]
    assert block_disjoint(values)
    payload = assemble(state)
    rows = payload["stages"]
    label_of = scn.models()[0].rule.label
    for row in rows:
        k = row["k"]
        small = Fraction(*map(int, row["label_mass"].split("/")))
        assert small < Fraction(1, 2 ** k)
        assert all(c != "None" for c in row["labels"])
        if form in (2, 3):
            assert len(row["labels"]) == 1
        if form == 5:
            assert row["block_size"] == 2 ** row["b"]
    # union identity against a fully independent enumeration
    independent = sorted(
        sum(c) for r in range(1, 5) for c in combinations(values, r)
    )
    members = [int(x) for x in payload["families"]["0"]["members"]]
    assert members == sorted(set(independent))
    # every family member is labelled inside the forbidden set
    forbidden = set(payload["forbidden_labels"])
    assert all(str(label_of(x)) in forbidden for x in members)


def test_hindman_case4_threshold_arithmetic():
    # the packet estimate: (b+1)/((k+1) 2^k) <= 2^-k whenever b <= k
    assert Fraction(3, 4 * 8) == Fraction(3, 32) < Fraction(1, 8)
    for k in range(8):
        for b in range(k + 1):
            assert Fraction(b + 1, (k + 1) * 2 ** k) <= Fraction(1, 2 ** k)


def test_hindman_case1_contradiction():
    scn = load_scenario("hindman-case1")
    with pytest.raises(ScenarioContradiction) as exc:
        run_hindman(scn.models(), 1)
    assert "constant form" in exc.value.report["summary"]


def test_hindman_declared_form_is_reverified():
    # identity labels are injective on the sums; a min-and-max declaration
    # passes every per-block bound yet fails the canonical re-check
    model = CriticalNodeModel(
        0, LabelRule("identity"), form=4, ground={"kind": "powers-of-two"}
    )
    state = run_hindman([model], 3)
    with pytest.raises(ScenarioContradiction) as exc:
        assemble(state)
    assert "does not hold" in exc.value.report["summary"]


def test_hindman_mislabelled_blocks_are_refused():
    # a min-support declaration over max-support labels breaks the
    # single-label-per-block invariant before classification even runs
    model = CriticalNodeModel(
        0, LabelRule("max-support"), form=2, ground={"kind": "powers-of-two"}
    )
    state = run_hindman([model], 3)
    with pytest.raises(ScenarioContradiction):
        assemble(state)


def sums_scenario(form, ground, labels):
    """hindman-case2 with one model of another form, ground and label rule."""
    scenario = copy.deepcopy(load_scenario("hindman-case2").to_json())
    scenario["models"] = [{"index": 0, "form": form, "ground": ground, "labels": labels}]
    return scenario


# scenarios that trip each assembly guard of the sums engine with a
# reachable failure, the stages each runs, and the canonical bytes of the
# report its certificate records
TABLE_FORM_3 = {"kind": "table", "entries": [[2, 5], [8, 9]]}
ASSEMBLY_GUARD_REPORTS = {
    # explicit grounds need not be block disjoint: the lowest bit of anchor 5
    # lies below the highest bit of anchor 2
    "anchors-not-block-disjoint": (
        sums_scenario(5, {"kind": "explicit", "members": [2, 3, 5]}, {"kind": "identity"}), 2,
        b'{"summary":"model 0: anchors are not block disjoint"}'),
    # form 3 stages read the anchor's own label only; block 1 is {8, 10}
    "bottom-label-in-block": (
        sums_scenario(3, {"kind": "powers-of-two"}, TABLE_FORM_3), 2,
        b'{"summary":"model 0 stage 1: bottom label inside a block"}'),
    "label-mass-not-small": (
        sums_scenario(3, {"kind": "powers-of-two"},
                      {**TABLE_FORM_3, "entries": TABLE_FORM_3["entries"] + [[10, 0]]}), 2,
        b'{"summary":"model 0 stage 1: label mass 11/10 not below 1/2"}'),
    # identity labels pass every stage of a form 4 run, but on the anchored
    # sums of three stages only form 5 holds
    "declared-form-not-holding": (
        sums_scenario(4, {"kind": "powers-of-two"}, {"kind": "identity"}), 3,
        b'{"summary":"model 0: declared form 4 does not hold on the anchored sums '
        b'(holding: [5])"}'),
}


def test_only_a_failing_declared_form_lists_the_cases_that_hold(monkeypatch):
    # the declared form alone decides an assembly; the full list of holding
    # cases words the report of a failing one, with the text it always had
    def refuse(*args):
        raise AssertionError("listed every case of a holding form")

    monkeypatch.setattr(anchored, "matching_cases", refuse)
    for name in ("hindman-case2", "hindman-case5", "ramsey-case3", "ramsey-case4"):
        inputs = {"scenario": load_scenario(name).to_json(), "stages": 4}
        assert certify.produce("diagonalization", inputs, 0)["body"]["outcome"] == "stages"
    monkeypatch.undo()
    # a, b and a + b labelled 100, 100 and 200: no case holds on the three sums
    no_case = sums_scenario(5, {"kind": "powers-of-two"},
                            {"kind": "table", "entries": [[1, 100], [2, 100], [3, 200]]})
    pairs = copy.deepcopy(load_scenario("ramsey-case2").to_json())
    pairs["models"][0].update(form=4, labels={"kind": "pair-max"})
    for scenario, stages, holding in ((no_case, 2, "sums (holding: [])"),
                                      (pairs, 3, "pairs (holding: [3])")):
        body = certify.produce("diagonalization", {"scenario": scenario, "stages": stages}, 0)
        form = scenario["models"][0]["form"]
        assert body["body"]["report"] == {"summary": f"model 0: declared form {form} does "
                                                     f"not hold on the anchored {holding}"}


@pytest.mark.parametrize("name", list(ASSEMBLY_GUARD_REPORTS))
def test_sums_assembly_guards_report_reachable_failures(name):
    scenario, stages, report = ASSEMBLY_GUARD_REPORTS[name]
    cert = certify.produce("diagonalization", {"scenario": scenario, "stages": stages}, 0)
    assert cert["body"]["outcome"] == "contradiction"
    assert canonical_bytes(cert["body"]["report"]) == report
    assert certify.recheck(cert) == (True, "certificate re-verified")


@pytest.mark.parametrize("name, blocks_name", [("hindman-case2", "_sums_blocks"),
                                                ("ramsey-case3", "_pairs_blocks")])
def test_structural_identity_compares_the_blocks_the_engine_built(monkeypatch, name,
                                                                  blocks_name):
    # the family's members are the union of its blocks, so a member that no
    # block holds must show in the comparison with the fresh enumeration
    real = getattr(anchored, blocks_name)

    def dropping_one(i, model, anchors):
        blocks, *rest = real(i, model, anchors)
        blocks[-1].pop()
        return (blocks, *rest)

    inputs = {"scenario": load_scenario(name).to_json(), "stages": 4}
    assert certify.produce("structural-identity", inputs, 0)["body"]["all_match"]
    monkeypatch.setattr(anchored, blocks_name, dropping_one)
    body = certify.produce("structural-identity", inputs, 0)["body"]
    assert body["all_match"] is False
    assert body["checks"][0]["union_matches_enumeration"] is False


# -- pairs engine -----------------------------------------------------------------

RAMSEY_EXPECTED_ANCHORS = {2: [2, 3, 5, 9], 3: [0, 3, 5, 9], 4: [0, 3, 5, 8]}


@pytest.mark.parametrize("form", [2, 3, 4])
def test_ramsey_runs_and_invariants(form):
    scn = load_scenario(f"ramsey-case{form}")
    state = run_ramsey(scn.models(), 4)
    verts = state.anchors(0)
    assert verts == RAMSEY_EXPECTED_ANCHORS[form]
    payload = assemble(state)
    for row in payload["stages"]:
        small = Fraction(*map(int, row["label_mass"].split("/")))
        assert small < Fraction(1, 2 ** row["k"])
        if form in (2, 3) and row["block_size"]:
            assert len(row["labels"]) == 1
    # pair union identity against direct enumeration
    independent = sorted(
        code_unordered(a, b) for a, b in combinations(verts, 2)
    )
    members = [int(x) for x in payload["families"]["0"]["members"]]
    assert members == independent
    assert len(members) == 6  # four anchors, six pairs, each block-anchored once


def test_ramsey_case4_threshold_arithmetic():
    assert Fraction(3, 3 * 8) == Fraction(1, 8) <= Fraction(1, 8)
    for k in range(1, 8):
        for b in range(k + 1):
            assert Fraction(b, k * 2 ** k) <= Fraction(1, 2 ** k)


@pytest.mark.parametrize("ground", [{"base": 0}, {"base": "0", "step": 2}, {"step": True},
                                    {"base": -10, "step": 1}, {"base": 0, "step": 0},
                                    {"base": 0, "step": -1}])
def test_ramsey_ap_vertices_checked_before_any_stage(ground):
    model = load_scenario("ramsey-case2").models()[0]
    model = CriticalNodeModel(model.index, model.rule, model.case, model.form,
                              {"kind": "ap", **ground})
    with pytest.raises(SchemaError, match="ap vertex sequence"):
        run_ramsey([model], 0)


def test_ramsey_case1_contradiction():
    scn = load_scenario("ramsey-case1")
    with pytest.raises(ScenarioContradiction) as exc:
        run_ramsey(scn.models(), 1)
    assert "constant form" in exc.value.report["summary"]


# -- canonical certificate bytes ------------------------------------------------------

# sha256 of the canonical certificate bytes (seed 0) of bundled scenarios, as
# the pairwise canonical-form check and per-term Fraction sums wrote them;
# collision inputs carry no stage count
PINNED_CERTIFICATES = {
    ("diagonalization", "hindman-case5", 10):
        "9b9f5667a4200f66fca3facdcd880391d698ecb88b3450b93c509689542bc15a",
    ("diagonalization", "hindman-case4", 7):
        "1f7d2eb7c9abd780358a9df449f21ed5c685822e23a8f6a5cd30a02a62764065",
    ("diagonalization", "ramsey-case3", 12):
        "a26b4f5d303151bae0f7b02f4529124d85281542c87f2bb946a91df0b7d9f9f3",
    ("structural-identity", "hindman-case2", 4):
        "83a8e3147bb041814b736aeefe9a6ae533cd670826e15c7aa3b107af48f8e706",
    ("diagonalization", "posdiff-blocks", 4):
        "c8986d97499d5214860f2cd7000c63e8012d38c4b957c30805c9fd586d56b4ca",
    ("diagonalization", "posdiff-identity", 2):
        "c563061a477508923ad84a37fbb808f08a90b678b5ca529a49c24535a9771c8f",
    ("diagonalization", "posdiff-finite-labels", 1):
        "2bf6840251f0e86f683827cfb1cab27d7249cdba50d130f1a8a6bc5ee94799ff",
    ("collision", "collision-posdiff", None):
        "12ca30a79f9ed4874387742236c0f56d0f323aa007a64eda59cd1b9c0aa18e13",
    ("diagonalization", "gen-posdiff-3-7-4-s5-h12000", 5):
        "7bed9768b2c0c5c2a8d19fd3fcdb3cc884678f16be0f035980411a0c4b6a062d",
    # the heaviest posdiff job of the benchmark, pinned from the element-wise engine
    ("diagonalization", "gen-posdiff-4-5-3-s7-h20000", 7):
        "e0c2fb9b2f06871a6aab4e43ec2b95291f7ed097267a89ea25a68e9708d2c1b2",
    # every other bundled engine outcome, constant-form contradictions included
    ("diagonalization", "pw-2a", 4):
        "03c3e4a2f333ee32161605a0e033ababbe2aace0464f78e04dfb061e7077b1d8",
    ("diagonalization", "pw-2b", 4):
        "ec733d3fa66ad136f787b41ca42d041bd2a65aff6ca0383098327860bc3b1ac2",
    ("diagonalization", "pw-2c", 4):
        "a0f2e2eb2916d6175df3205c4c1fae3750aec4f643b58c941fc4d556a7476e7d",
    ("diagonalization", "hindman-case1", 1):
        "039bc9426565dd8832817aa28491817ddc75c1dfc2cddf3e239c1f3fd9fbb92a",
    ("diagonalization", "hindman-case2", 4):
        "6da76f20fd6faec3cc023d687bd50a6b68eb8a2901c4a130f444bac9e6087ec0",
    ("diagonalization", "hindman-case3", 4):
        "01a8a0e2d78a37e72fa3ab777b7ab566dfbc3f91ca38c6b367ee6aba87765763",
    ("diagonalization", "ramsey-case1", 1):
        "fbceba5ebf2dfb3d9fd54d0b20c2c749d3e0a08ebb38231a95c4aff5759ad031",
    ("diagonalization", "ramsey-case2", 4):
        "294af6aea334b788cd99d6634a1f33e4071014786f9205c1538e3caa4ed843bf",
    ("diagonalization", "ramsey-case4", 4):
        "6e2708047fe9cb3f8986778f7b65d6890033623ac2443d0c852b6675a5a00b46",
    ("structural-identity", "ramsey-case4", 4):
        "f8a5fb112b0d7e4c920ced02b5bf41b56885cf065d3cb03a1f53da26b2bbcb24",
    # multi-model interval runs, pinned while freshness was a set of used
    # (model, interval) pairs: each model may take an interval another took
    ("diagonalization", "gen-pwfin-2c-2c-d14", 4):
        "990c95e7da5fafdd9d4f418e7f58ff88138468960d26f6776f67bfa06e48f43f",
    ("diagonalization", "gen-pwfin-2c-2c-d14", 8):
        "a8fe69367a392e926a0f29453498ffa2b8caef77e27833085cfea793f48d5659",
    ("diagonalization", "gen-pwfin-2b-2c-d16", 4):
        "c1feab39db242acf4f84f4dc36b8dcd3e7d10716d7d78f7c57f126942cad3e5d",
    ("diagonalization", "gen-pwfin-2b-2c-d16", 8):
        "da14abb84418c2560e8e8d7c0d62f5ac5b39af7d5054cdd7b72e029cb90e2100",
    ("diagonalization", "gen-pwfin-2c-2b-2c-d16", 4):
        "0777ecc3b5b5f411dd290a7e21b4b96265dd43cdf7e825a06b0aaae85c3f37cb",
    ("diagonalization", "gen-pwfin-2c-2b-2c-d16", 8):
        "7578b4637151cabe369fe839e2c03d6ce08bcd2ecd460958756e08914d0ded35",
    # pinned while pairs stages rescanned from vertex 0 and interval stages
    # re-walked every difference index: model 1 of the 6-stage two-model run
    # rejects interval 1 at stage 1 and extracts it again at stage 4
    ("diagonalization", "ramsey-case2", 12):
        "220415a97d8be93004f8128cb3c08c83b036cea8223cfd32194c796d33cc6352",
    ("diagonalization", "ramsey-case4", 12):
        "0f485289e6976deec0777d6ce77301be74b805db87299e9e7efb6fbcff3b4ca8",
    ("diagonalization", "gen-hindman-explicit", 6):
        "4e099c539f786a6a2ea06fceada972b5938aa843cb0a98afec2e79f74e605a88",
    ("diagonalization", "gen-pwfin-2c-2c-d14", 6):
        "825f4a32f4b8de01199cb5d29dcbf030b15aedea69805fc34a5450cef6fdffd8",
}


def generated_posdiff_scenario(start, base_label, ratio, stages, horizon):
    """posdiff-blocks with another block-geometric rule and horizon."""
    scenario = copy.deepcopy(load_scenario("posdiff-blocks").to_json())
    scenario["name"] = f"gen-posdiff-{start}-{base_label}-{ratio}-s{stages}-h{horizon}"
    scenario["horizon"] = horizon
    scenario["models"][0]["labels"] = {"kind": "block-geometric", "start": start,
                                       "base_label": base_label, "ratio": ratio}
    return scenario


PWFIN_RULES = {"2b": {"kind": "prev-interval-max"}, "2c": {"kind": "identity"}}


def generated_pwfin_scenario(cases, depth):
    """pw-2c with one model per case (its rule as in pw-2b or pw-2c) at another depth."""
    scenario = copy.deepcopy(load_scenario("pw-2c").to_json())
    scenario["name"] = f"gen-pwfin-{'-'.join(cases)}-d{depth}"
    scenario["depth"] = depth
    scenario["models"] = [{"index": i, "case": case, "labels": dict(PWFIN_RULES[case])}
                          for i, case in enumerate(cases)]
    return scenario


GENERATED_SCENARIOS = {
    "gen-posdiff-3-7-4-s5-h12000": generated_posdiff_scenario(3, 7, 4, 5, 12000),
    "gen-posdiff-4-5-3-s7-h20000": generated_posdiff_scenario(4, 5, 3, 7, 20000),
    "gen-pwfin-2c-2c-d14": generated_pwfin_scenario(("2c", "2c"), 14),
    "gen-pwfin-2b-2c-d16": generated_pwfin_scenario(("2b", "2c"), 16),
    "gen-pwfin-2c-2b-2c-d16": generated_pwfin_scenario(("2c", "2b", "2c"), 16),
    "gen-hindman-explicit": {**sums_scenario(2, {"kind": "explicit", "members": sorted(
        {1 << j for j in range(9)} | {3 << j for j in range(8)})}, {"kind": "min-support"}),
        "name": "gen-hindman-explicit"},
}


def certificate_digest(kind, name, stages):
    """sha256 of the canonical bytes of a seed-0 certificate of a pinned scenario."""
    scenario = GENERATED_SCENARIOS.get(name) or load_scenario(name).to_json()
    inputs = {"scenario": scenario}
    if stages is not None:
        inputs["stages"] = stages
    return hashlib.sha256(canonical_bytes(certify.produce(kind, inputs, 0))).hexdigest()


@pytest.mark.parametrize("kind, name, stages", list(PINNED_CERTIFICATES))
def test_engine_certificate_bytes_are_pinned(kind, name, stages):
    assert certificate_digest(kind, name, stages) == PINNED_CERTIFICATES[(kind, name, stages)]


def test_open_block_stop_message_is_pinned():
    # stage 6 takes the class whose only run is the block cut off at the
    # horizon; the message carries its exact partial mass (17,404 characters,
    # pinned from the element-wise engine)
    scenario = generated_posdiff_scenario(2, 5, 2, 7, 20000)
    with pytest.raises(HorizonExhausted) as exc:
        certify.produce("diagonalization", {"scenario": scenario, "stages": 7}, 0)
    text = str(exc.value)
    assert text.startswith("stage 6: residue class 8 reaches only ")
    assert text.endswith(" at the horizon")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "53f9d38cd9879208d67d3ec48e6eda871fce747e311de03130e4b65be0911871"
    )


def two_model_scenario(name, models):
    """The bundled scenario ``name`` with the given models, indexed 0, 1, ..."""
    scenario = copy.deepcopy(load_scenario(name).to_json())
    scenario["name"] = f"{name}-two-models"
    scenario["models"] = [{**model, "index": i} for i, model in enumerate(models)]
    return scenario


# every engine with two models, so that assembly groups the records of
# interleaved stages by model
TWO_MODEL_SCENARIOS = (
    two_model_scenario("hindman-case2", [
        {"form": 2, "ground": {"kind": "powers-of-two"}, "labels": {"kind": "min-support"}},
        {"form": 5, "ground": {"kind": "powers-of-two"}, "labels": {"kind": "identity"}}]),
    two_model_scenario("ramsey-case2", [
        {"form": 2, "ground": {"kind": "all"}, "labels": {"kind": "pair-min"}},
        {"form": 4, "ground": {"kind": "all"}, "labels": {"kind": "pair-code"}}]),
    two_model_scenario("posdiff-blocks", [
        {"labels": {"kind": "block-geometric", "start": 2, "base_label": 5, "ratio": 3}},
        {"labels": {"kind": "identity"}}]),
    generated_pwfin_scenario(("2b", "2c"), 14),
)


def _outcome_bytes(kind, scenario, stages):
    """Canonical bytes of a seed-0 certificate, or the error a run stops with."""
    inputs = {"scenario": scenario}
    if stages is not None:
        inputs["stages"] = stages
    try:
        return canonical_bytes(certify.produce(kind, inputs, 0))
    except (HorizonExhausted, SchemaError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()


# sha256 over the certificates of every bundled diagonalization scenario and
# of TWO_MODEL_SCENARIOS at stages 1-6 (both outcomes, and runs that exhaust
# their horizon), the structural-identity certificates of the four identity
# scenarios at stages 1-6, and the bundled collision certificate, as the
# per-engine grouping of stage records wrote them
PINNED_ENGINE_GRID = "53c20aedb9b80492e6863e3b35f2638c9a6cb2fbc866882ec954058d6662e088"


def test_engine_certificate_grid_is_pinned():
    bundled = [load_scenario(name) for name in bundled_names()]
    scenarios = [s.to_json() for s in bundled if isinstance(s, DiagScenario)]
    scenarios += TWO_MODEL_SCENARIOS
    assert {s["expect"] for s in scenarios} == {"stages", "contradiction"}
    digest = hashlib.sha256()
    for stages in range(1, 7):
        for scenario in scenarios:
            digest.update(_outcome_bytes("diagonalization", scenario, stages))
        for name in IDENTITY_SCENARIOS:
            digest.update(_outcome_bytes("structural-identity", load_scenario(name).to_json(),
                                         stages))
    digest.update(_outcome_bytes("collision", load_scenario("collision-posdiff").to_json(), None))
    assert digest.hexdigest() == PINNED_ENGINE_GRID


# -- the scan rule ------------------------------------------------------------------

def _stage_log(monkeypatch, module, stage_name, chosen):
    """A list of [i, reads, choice], one per stage of ``module.<stage_name>``.

    ``reads`` starts empty for a spy to fill; ``choice`` is ``chosen`` of
    the stage's record, or None while the stage runs or if it raised.
    """
    log = []
    stage = getattr(module, stage_name)

    def spied(state, k, i, model):
        log.append([i, [], None])
        rec = stage(state, k, i, model)
        log[-1][2] = chosen(rec)
        return rec
    monkeypatch.setattr(module, stage_name, spied)
    return log


def _spy_ground_reads(monkeypatch, log):
    """Log each ground or vertex element an anchored stage reads by its index."""
    grounded = anchored._grounded

    def read(element, j):
        log[-1][1].append(j)
        return element(j)

    def spied(*args, **kwargs):
        models, elements = grounded(*args, **kwargs)
        return models, tuple(lambda j, e=e: read(e, j) for e in elements)
    monkeypatch.setattr(anchored, "_grounded", spied)


def _spy_extractions(monkeypatch, log):
    """Log each interval a pwfin stage extracts a profile of."""
    extract = pwfin.extract_profile

    def spied(model, p, n):
        log[-1][1].append(n)
        return extract(model, p, n)
    monkeypatch.setattr(pwfin, "extract_profile", spied)


SCANNED_RUNS = [
    ("hindman_stage", "hindman-case5", 8),
    ("hindman_stage", "gen-hindman-explicit", 6),
    *(("ramsey_stage", f"ramsey-case{form}", 12) for form in (2, 3, 4)),
    ("ramsey_stage", TWO_MODEL_SCENARIOS[1], 6),
    ("pwfin_stage", "gen-pwfin-2c-2c-d14", 6),
    ("pwfin_stage", "gen-pwfin-2c-2b-2c-d16", 8),
]


@pytest.mark.parametrize("stage_name, scenario, stages", SCANNED_RUNS,
                         ids=[f"{name}-{run}" if isinstance(run, str) else f"{name}-two-models"
                              for name, run, _ in SCANNED_RUNS])
def test_no_stage_reads_at_or_below_its_models_last_choice(monkeypatch, stage_name,
                                                           scenario, stages):
    # a stage searches forward from its model's last choice: the anchored
    # engines read no ground element at or below the index of the model's
    # last anchor, and pwfin extracts no profile at or below its last interval
    if stage_name == "pwfin_stage":
        log = _stage_log(monkeypatch, pwfin, stage_name, lambda rec: rec.n)
        _spy_extractions(monkeypatch, log)
    else:
        log = _stage_log(monkeypatch, anchored, stage_name, lambda rec: rec.j)
        _spy_ground_reads(monkeypatch, log)
    if isinstance(scenario, str):
        scenario = GENERATED_SCENARIOS.get(scenario) or load_scenario(scenario).to_json()
    certify.produce("diagonalization", {"scenario": scenario, "stages": stages}, 0)
    assert [choice is not None for _, _, choice in log] == [True] * stages
    last = {}
    for i, reads, choice in log:
        assert reads and choice in reads
        assert all(x > last.get(i, -1) for x in reads), (i, last.get(i), reads)
        last[i] = choice


def reference_ramsey_stage(state, k, i, model):
    """``anchored.ramsey_stage`` as first written, forms 2-4: each stage scans
    the vertex sequence from index 0 and passes over every vertex at or below
    the model's last one.  The reference the resuming scan must agree with."""
    vertex = state.elements[i]
    label_of = model.rule.pair_label
    anchors = state.anchors(i)
    threshold = (1 << k) if model.form in (2, 3) else k * (1 << k)

    def clears(j, t):
        if anchors and t <= anchors[-1]:
            return False
        if model.form == 2:
            return anchored._clears(label_of(t, vertex(j + 1)), threshold)
        return all(anchored._clears(label_of(s, t), threshold) for s in anchors)

    for j in range(state.scan_cap):
        t = vertex(j)
        if clears(j, t):
            return anchored.AnchorStageRecord(k, i, j, t)
    raise HorizonExhausted(f"stage {k}: no vertex clears threshold {threshold}")


@settings(max_examples=120, deadline=None)
@given(form=st.sampled_from([2, 3, 4]),
       members=st.lists(st.integers(0, 3000), min_size=2, max_size=60, unique=True).map(sorted),
       stages=st.integers(1, 9))
@example(form=2, members=list(range(64)), stages=6)
@example(form=4, members=[3 * j + 1 for j in range(200)], stages=8)
def test_the_resuming_pairs_scan_matches_the_rescan_from_index_0(form, members, stages):
    scenario = copy.deepcopy(load_scenario(f"ramsey-case{form}").to_json())
    scenario["models"][0]["ground"] = {"kind": "explicit", "members": members}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(anchored, "ramsey_stage", reference_ramsey_stage)
        expected = _outcome_bytes("diagonalization", scenario, stages)
    assert _outcome_bytes("diagonalization", scenario, stages) == expected


# -- stage bookkeeping ---------------------------------------------------------------

def test_model_visits_never_outrun_the_stage():
    models = [
        CriticalNodeModel(i, LabelRule("identity")) for i in range(3)
    ]
    visits = {0: 0, 1: 0, 2: 0}
    for k in range(40):
        i, _ = model_for_stage(models, k)
        b = visits[i]
        visits[i] += 1
        assert b <= k
    assert all(count > 0 for count in visits.values())


def test_single_model_visit_counter_matches_unpairing():
    models = [CriticalNodeModel(0, LabelRule("identity"))]
    for k in range(12):
        i, _ = model_for_stage(models, k)
        assert i == unpair_diag(k)[0] % 1 == 0


def test_two_model_hindman_run_keeps_books_per_model():
    models = [
        CriticalNodeModel(0, LabelRule("min-support"), form=2,
                          ground={"kind": "powers-of-two"}),
        CriticalNodeModel(1, LabelRule("max-support"), form=3,
                          ground={"kind": "powers-of-two"}),
    ]
    state = run_hindman(models, 5)
    # diagonal stage order: stages 0,2,3 hit model 0 and stages 1,4 hit model 1
    assert [rec.i for rec in state.stages] == [0, 1, 0, 0, 1]
    assert len(state.anchors(0)) == 3
    assert len(state.anchors(1)) == 2
    payload = assemble(state)
    fams = payload["families"]
    assert set(fams) == {"0", "1"}
    assert fams["0"]["size"] == 7   # three anchors
    assert fams["1"]["size"] == 3   # two anchors
    for row in payload["stages"]:
        small = Fraction(*map(int, row["label_mass"].split("/")))
        assert small < Fraction(1, 2 ** row["k"])


def test_two_model_posdiff_shares_forbidden_labels_globally():
    rule = {"kind": "block-geometric", "start": 2, "base_label": 5, "ratio": 3}
    models = [
        CriticalNodeModel(0, LabelRule("block-geometric", dict(rule))),
        CriticalNodeModel(1, LabelRule("block-geometric", dict(rule))),
    ]
    state = run_posdiff(models, 1200, 3)
    assert [rec.i for rec in state.stages] == [0, 1, 0]
    # freshness bounds accumulate across models, not per model
    assert state.stages[1].n_bound == max(state.stages[0].c_labels)
    payload = assemble(state)
    assert set(payload["families"]) == {"0", "1"}


# -- engine registry ------------------------------------------------------------------

def test_registry_runs_engines_through_their_module_names(monkeypatch):
    # perfbench's tracer rebinds run_<engine> and assemble_<engine> by name in
    # the engine's module; a registry holding the function objects would bypass it
    staged = {"pwfin": "pw-2b", "posdiff": "posdiff-blocks", "hindman": "hindman-case2",
              "ramsey": "ramsey-case2"}
    modules = {"pwfin": pwfin, "posdiff": posdiff, "hindman": anchored, "ramsey": anchored}
    assert set(staged) == set(diagonal.ENGINES)
    calls = {}
    for engine, module in modules.items():
        for name in (f"run_{engine}", f"assemble_{engine}"):
            def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counting)
    for scenario in staged.values():
        inputs = {"scenario": load_scenario(scenario).to_json(), "stages": 2}
        assert certify.produce("diagonalization", inputs, 0)["body"]["outcome"] == "stages"
    assert calls == {f"{step}_{engine}": 1 for engine in staged for step in ("run", "assemble")}


# -- collision ------------------------------------------------------------------------

def collision_parts():
    scn = load_scenario("collision-posdiff")
    diag = scn.diag()
    state = run_posdiff(diag.models(), diag.payload["horizon"], 4)
    payload = assemble(state)
    tree_scn = scn.tree_scenario()
    return scn, diag, payload, tree_scn


def test_collision_finds_forbidden_label():
    scn, diag, payload, tree_scn = collision_parts()
    report = collision_check(
        tree_scn.tree(),
        tree_scn.branching_ideal(),
        tree_scn.coherent_map(),
        tree_scn.oracle(),
        payload,
        0,
        diag.models()[0],
    )
    assert report.outcome == "collision"
    assert report.successor == 2
    assert report.label == 5
    assert report.path == [(), (2,)]
    assert "5" in payload["forbidden_labels"]


def test_collision_rejects_explicit_successor_trees():
    from idealbench.trees import Explicit, FiniteTree

    scn, diag, payload, tree_scn = collision_parts()
    finite_tree = FiniteTree({(), (2,)}, {(): Explicit((2,))})
    report = collision_check(
        finite_tree,
        tree_scn.branching_ideal(),
        tree_scn.coherent_map(),
        tree_scn.oracle(),
        payload,
        0,
        diag.models()[0],
    )
    assert report.outcome == "rejected"


def test_collision_rejects_an_explicit_root_set_that_branches():
    # under the powerset ideal an explicit finite set passes the branching
    # check, and the explicit root set is refused after it
    from idealbench.ideals import ideal_from_json
    from idealbench.trees import Explicit, FiniteTree

    scn, diag, payload, tree_scn = collision_parts()
    report = collision_check(FiniteTree({(), (2,)}, {(): Explicit((2,))}),
                             ideal_from_json({"kind": "powerset"}), tree_scn.coherent_map(),
                             tree_scn.oracle(), payload, 0, diag.models()[0])
    assert (report.outcome, report.node, report.reason) == (
        "rejected", (), "explicit successor set")


def test_collision_rejects_a_located_label_that_is_not_forbidden():
    scn, diag, payload, tree_scn = collision_parts()
    payload = {**payload, "forbidden_labels": [c for c in payload["forbidden_labels"] if c != "5"]}
    report = collision_check(tree_scn.tree(), tree_scn.branching_ideal(),
                             tree_scn.coherent_map(), tree_scn.oracle(), payload, 0,
                             diag.models()[0])
    assert (report.outcome, report.successor, report.label, report.reason) == (
        "rejected", 2, 5, "label of the located successor is not forbidden")


def test_collision_inconclusive_when_tree_avoids_family():
    from idealbench.trees import Described, FiniteTree

    scn, diag, payload, tree_scn = collision_parts()
    avoiding = Cofinite(tuple(int(x) for x in payload["families"]["0"]["members"]))
    tree = FiniteTree({()}, {(): Described(avoiding)})
    report = collision_check(
        tree,
        tree_scn.branching_ideal(),
        tree_scn.coherent_map(),
        tree_scn.oracle(),
        payload,
        0,
        diag.models()[0],
    )
    assert report.outcome == "inconclusive"
