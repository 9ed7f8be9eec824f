"""Coherent maps, labelling recursion, critical nodes, branching."""

import pytest
from hypothesis import given, strategies as st

from idealbench import trees
from idealbench.errors import CoherenceError, LabellingBlocked
from idealbench.ideals import SumHarmonic
from idealbench.pairing import comparable, is_prefix
from idealbench.scenarios import load_scenario
from idealbench.sets import Cofinite, Progression, Union
from idealbench.trees import (
    BOT,
    CoherentMap,
    Described,
    Explicit,
    FiniteTree,
    PositivityOracle,
    canonical_tree,
    check_branching,
    compute_labels,
    extend_coherent,
    find_critical,
    path_value_search,
)


def test_extend_coherent_accepts_and_rejects():
    m = CoherentMap({})
    m = extend_coherent(m, (3,), 5)
    assert m.value((3,)) == 5

    extended = extend_coherent(m, (3, 1), 5)  # redundant but coherent
    assert extended.value((3, 1)) == 5

    with pytest.raises(CoherenceError) as exc:
        extend_coherent(m, (3, 1), 7)
    assert exc.value.first == (3,)
    assert exc.value.second == (3, 1)


def test_coherent_constructor_validates():
    with pytest.raises(CoherenceError):
        CoherentMap({(3,): 5, (3, 1): 7})


def test_canonical_tree_closure():
    m = CoherentMap({(3, 1): 5})
    t = canonical_tree(m, 10)
    assert t.nodes == {(), (3,), (3, 1)}
    assert canonical_tree(CoherentMap({}), 10).nodes == {()}
    shared = CoherentMap({(2, 0): 1, (2, 1): 1})
    assert canonical_tree(shared, 10).nodes == {(), (2,), (2, 0), (2, 1)}


def test_canonical_tree_horizon_restriction():
    m = CoherentMap({(3, 99): 5})
    assert canonical_tree(m, 10).nodes == {(), (3,)}


def evens_scenario(horizon=10):
    assignments = {(n,): 5 for n in range(0, horizon, 2)}
    m = CoherentMap(assignments)
    tree = FiniteTree(
        set(canonical_tree(m, horizon).nodes) | {(n,) for n in range(horizon)},
        {(): Described(Cofinite(()))},
    )
    oracle = PositivityOracle()
    oracle.stipulate((), 5, "in", "assumption", "evens carry a positive class")
    return tree, m, oracle


def test_labels_root_from_positive_class():
    tree, m, oracle = evens_scenario()
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] == 5
    # odd successors sit outside the canonical tree
    assert labelled.labels[(1,)] is BOT
    assert labelled.labels[(0,)] == 5


def test_labels_outside_canonical_tree_are_bottom():
    m = CoherentMap({(0,): 1})
    tree = FiniteTree({(), (0,), (4,), (4, 1)})
    oracle = PositivityOracle()
    oracle.stipulate((), 1, "out", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[(4,)] is BOT
    assert labelled.labels[(4, 1)] is BOT
    assert labelled.labels[(0,)] == 1


def test_least_candidate_wins_on_ties():
    assignments = {(n,): (5 if n % 2 == 0 else 7) for n in range(10)}
    m = CoherentMap(assignments)
    tree = FiniteTree(canonical_tree(m, 10).nodes)
    oracle = PositivityOracle()
    oracle.stipulate((), 5, "in", "assumption", "")
    oracle.stipulate((), 7, "in", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] == 5


def test_assigned_nodes_keep_their_value():
    # the assignment rule precedes the positivity rule: even an oracle
    # declaring the only successor class null cannot relabel an assigned node
    m = CoherentMap({(0,): 4, (0, 1): 4})
    tree = FiniteTree({(), (0,), (0, 1)})
    oracle = PositivityOracle()
    oracle.stipulate((0,), 4, "out", "assumption", "")
    oracle.stipulate((), 4, "out", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[(0,)] == 4
    assert labelled.labels[()] is BOT


def test_unknown_candidate_blocks_labelling():
    assignments = {(n,): 5 for n in range(4)}
    m = CoherentMap(assignments)
    tree = FiniteTree(canonical_tree(m, 4).nodes)
    with pytest.raises(LabellingBlocked) as exc:
        compute_labels(tree, m, PositivityOracle())
    assert exc.value.node == ()
    assert exc.value.candidate == 5


@given(st.randoms(use_true_random=False))
def test_labelling_independent_of_insertion_order(rng):
    entries = [((n,), 5 if n % 3 == 0 else n + 10) for n in range(9)]
    rng.shuffle(entries)
    m = CoherentMap(dict(entries))
    tree = FiniteTree(canonical_tree(m, 9).nodes)
    oracle = PositivityOracle()
    oracle.stipulate((), 5, "in", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    again = compute_labels(tree, m, oracle)
    assert labelled.labels == again.labels
    assert labelled.labels[()] == 5


def test_find_critical_with_explicit_empty_bottom_class():
    m = CoherentMap({(0,): 1, (1,): 2, (2,): 3})
    tree = FiniteTree(canonical_tree(m, 3).nodes, {(): Explicit((0, 1, 2))})
    oracle = PositivityOracle()
    for c in (1, 2, 3):
        oracle.stipulate((), c, "out", "assumption", "singleton classes are null")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] is BOT
    report = find_critical(labelled, oracle)
    assert report.critical == ((),)
    assert report.undetermined == ()


def test_find_critical_respects_declared_positive_bottom():
    m = CoherentMap({(0,): 1})
    tree = FiniteTree({(), (0,), (1,)}, {(): Described(Cofinite(()))})
    oracle = PositivityOracle()
    oracle.stipulate((), 1, "out", "assumption", "")
    oracle.stipulate((), BOT, "out", "assumption", "bottom class is not null")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] is BOT
    report = find_critical(labelled, oracle)
    assert report.critical == ()
    assert report.undetermined == ()


def test_find_critical_unknown_lands_in_undetermined():
    m = CoherentMap({(0,): 1})
    tree = FiniteTree({(), (0,), (1,)}, {(): Described(Cofinite(()))})
    oracle = PositivityOracle()
    oracle.stipulate((), 1, "out", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    report = find_critical(labelled, oracle)
    assert report.critical == ()
    assert report.undetermined == ((),)


def test_check_branching_verdicts():
    tree = FiniteTree(
        {(), (0,), (1,)},
        {
            (): Described(Cofinite((5,))),
            (0,): Explicit((0, 1, 2)),
            (1,): Described(Union((Progression(0, 2), Progression(1, 3)))),
        },
    )
    got = check_branching(tree, SumHarmonic(), 32)
    assert got[()].value == "in"
    assert got[(0,)].value == "out"
    assert got[(1,)].value == "unknown"


@given(
    st.integers(5, 12),
    st.integers(0, 30),
    st.data(),
)
def test_value_roots_always_realize_paths(width, value, data):
    # finite-horizon analogue of the first separation property: whenever a
    # positive class pushes a value to the root, some maximal path through
    # an assigned node realizes exactly that value
    carriers = data.draw(
        st.sets(st.integers(0, width - 1), min_size=1, max_size=width)
    )
    assignments = {}
    for n in range(width):
        assignments[(n,)] = value if n in carriers else value + 1 + n
    m = CoherentMap(assignments)
    tree = FiniteTree(canonical_tree(m, width).nodes, {(): Described(Cofinite(()))})
    oracle = PositivityOracle()
    oracle.stipulate((), value, "in", "assumption", "carrier class is positive")
    for n in range(width):
        other = value + 1 + n
        if other != value:
            oracle.stipulate((), other, "out", "assumption", "")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] == value
    path = path_value_search(labelled, value)
    assert path is not None
    assert labelled.labels[path[-1]] == value


@given(st.integers(4, 12))
def test_bottom_roots_with_assigned_paths_have_critical_nodes(width):
    # second separation property at horizon: a bottom root over fully
    # assigned maximal paths with a null bottom class is itself critical
    assignments = {(n,): n + 50 for n in range(width)}
    m = CoherentMap(assignments)
    tree = FiniteTree(canonical_tree(m, width).nodes, {(): Described(Cofinite(()))})
    oracle = PositivityOracle()
    for n in range(width):
        oracle.stipulate((), n + 50, "out", "assumption", "")
    oracle.stipulate((), BOT, "in", "assumption", "bottom class is null")
    labelled = compute_labels(tree, m, oracle)
    assert labelled.labels[()] is BOT
    assert all(labelled.labels[path[-1]] is not BOT for path in tree.maximal_paths())
    report = find_critical(labelled, oracle)
    assert report.critical


def test_path_value_search():
    tree, m, oracle = evens_scenario()
    labelled = compute_labels(tree, m, oracle)
    assert path_value_search(labelled, 5) == [(), (0,)]
    assert path_value_search(labelled, 6) is None

    deep = CoherentMap({(1, 2): 8})
    deep_tree = FiniteTree(canonical_tree(deep, 10).nodes)
    oracle2 = PositivityOracle()
    oracle2.stipulate((), 8, "in", "assumption", "")
    oracle2.stipulate((1,), 8, "in", "assumption", "")
    labelled2 = compute_labels(deep_tree, deep, oracle2)
    assert path_value_search(labelled2, 8) == [(), (1,), (1, 2)]


def test_check_branching_decides_a_shared_successor_set_once(monkeypatch):
    # sep1-basic: six nodes, each with its own Described of one default_successors set
    tree = load_scenario("sep1-basic").tree()
    decide, calls = trees.membership, []

    def counting(*args):
        calls.append(args)
        return decide(*args)

    monkeypatch.setattr(trees, "membership", counting)
    got = check_branching(tree, SumHarmonic(), 32)
    assert len(tree.nodes) == len(got) == 6
    assert len(calls) == 1
    assert {v.value for v in got.values()} == {"in"}


# -- the indexed answers against the scans they replace ------------------------

strings = st.lists(st.integers(0, 2), max_size=3).map(tuple)
maps = st.dictionaries(strings, st.integers(0, 2), max_size=8)


def pairwise_conflicts(assignments):
    """Every (shorter, longer) comparable pair of differing values."""
    return [(s, t) for s in assignments for t in assignments
            if s != t and is_prefix(s, t) and assignments[s] != assignments[t]]


@given(maps)
def test_coherent_map_accepts_exactly_the_pairwise_coherent_maps(assignments):
    conflicts = pairwise_conflicts(assignments)
    if not conflicts:
        m = CoherentMap(assignments)
        for sigma in {s[:i] for s in assignments for i in range(4)} | {(0, 0, 0, 0), (1, 3)}:
            assert m.in_canonical_tree(sigma) == any(is_prefix(sigma, t) for t in assignments)
        for horizon in range(4):
            below = {t[:i] for t in assignments for i in range(len(t) + 1)
                     if all(entry < horizon for entry in t[:i])}
            assert canonical_tree(m, horizon).nodes == below | {()}
        return
    with pytest.raises(CoherenceError) as exc:
        CoherentMap(assignments)
    got = exc.value
    assert (got.first, got.second) in conflicts
    assert (got.value_first, got.value_second) == (assignments[got.first], assignments[got.second])


@given(maps, strings, st.integers(0, 2))
def test_extend_coherent_refuses_exactly_a_comparable_disagreement(drawn, sigma, value):
    assignments = {}
    for s, v in drawn.items():
        if not pairwise_conflicts({**assignments, s: v}):
            assignments[s] = v
    m = CoherentMap(assignments)
    clashes = [(min(s, sigma, key=len), max(s, sigma, key=len))
               for s, v in assignments.items() if comparable(s, sigma) and v != value]
    if not clashes:
        assert extend_coherent(m, sigma, value).value(sigma) == value
        return
    with pytest.raises(CoherenceError) as exc:
        extend_coherent(m, sigma, value)
    assert (exc.value.first, exc.value.second) in clashes


@given(st.sets(strings, max_size=12))
def test_children_and_maximal_paths_equal_their_scans(strings_drawn):
    nodes = {s[:i] for s in strings_drawn for i in range(len(s) + 1)} | {()}
    tree = FiniteTree(nodes)
    for sigma in nodes | {(5,), (0, 0, 0, 0)}:
        scan = sorted(n for n in nodes if len(n) == len(sigma) + 1 and n[:-1] == sigma)
        assert tree.children(sigma) == scan
        assert tree.successor_spec(sigma) == Explicit(tuple(n[-1] for n in scan))
    leaves = sorted(n for n in nodes if not any(len(c) > len(n) and c[:len(n)] == n
                                                for c in nodes))
    assert tree.maximal_paths() == [[n[:i] for i in range(len(n) + 1)] for n in leaves]
