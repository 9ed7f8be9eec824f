"""Membership verdicts, witness searches, and their independent oracles."""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from idealbench.construction import build_partition, harmonic_weight, weight_fn
from idealbench.errors import HorizonExhausted
from idealbench.ideals import (
    DensityZero,
    DiffIdeal,
    FinIdeal,
    HindmanIdeal,
    PowerSet,
    RamseyIdeal,
    SumHarmonic,
    SumSelector,
    density_at,
    diff_multiplicity,
    hindman_witness_search,
    is_positive,
    membership,
    ramsey_witness_search,
    sum_ideal_of,
    verify_sum_witness,
    weight_of,
)
from idealbench.pairing import code_unordered
from idealbench.ramsey import delta, fs
from idealbench.serialize import canonical_bytes
from idealbench.sets import (
    Cofinite,
    Complement,
    DiffsOf,
    Finite,
    Intersection,
    Intervals,
    Progression,
    SumsOf,
    Union,
    full_set,
    modular_avoiders,
)


# -- weights ------------------------------------------------------------------

def test_harmonic_weight_values():
    w = harmonic_weight()
    assert weight_of(w, {0, 1, 3}) == Fraction(7, 4)
    assert weight_of(w, set()) == 0


def test_selector_weight_on_greedy_partition():
    p = build_partition(4)
    w = weight_fn(Finite(()), p)  # empty selector: every interval keeps r_n
    assert weight_of(w, {1, 2}) == 1


@given(st.sets(st.integers(0, 200), max_size=12))
def test_weight_additive_over_splits(members):
    w = harmonic_weight()
    members = sorted(members)
    left = set(members[::2])
    right = set(members[1::2])
    assert weight_of(w, left) + weight_of(w, right) == weight_of(w, members)


@given(st.lists(st.integers(0, 6000), max_size=60),
       st.sampled_from([Finite(()), Progression(0, 2), Progression(1, 3), Cofinite(())]))
def test_weight_of_equals_the_plain_sum(members, selector):
    # harmonic weights, and the selector weights of depth 5, which repeat per interval
    for w in (harmonic_weight(), weight_fn(selector, build_partition(5))):
        assert weight_of(w, members) == sum(map(w, set(members)), Fraction(0))


# -- membership whitelist -------------------------------------------------------

def test_finite_sets_in_every_ideal():
    probe = Finite({5, 7})
    for ideal in (
        FinIdeal(),
        SumHarmonic(),
        DensityZero(),
        DiffIdeal(),
        HindmanIdeal(),
        RamseyIdeal(),
        PowerSet(),
    ):
        verdict = membership(ideal, probe)
        assert verdict.value == "in"
        assert verdict.evidence is not None


def test_harmonic_rejects_cofinite():
    got = membership(SumHarmonic(), Cofinite({0, 1}))
    assert got.value == "out"
    assert got.procedure == "cofinite-divergence"


def test_harmonic_rejects_progressions():
    assert membership(SumHarmonic(), Progression(0, 2)).value == "out"
    assert membership(SumHarmonic(), modular_avoiders(3)).value == "out"


def test_modular_avoiders_in_difference_ideal():
    got = membership(DiffIdeal(), modular_avoiders(3))
    assert got.value == "in"
    assert got.procedure == "pigeonhole-congruence"


def test_difference_ideal_progression_rules():
    # multiples admit a difference witness, offset progressions never do
    out = membership(DiffIdeal(), Progression(0, 3))
    assert out.value == "out"
    g = out.evidence["witness_ap"][0]
    witness = [g * (j + 1) for j in range(1, 9)]
    assert all(Progression(0, 3).contains(d) for d in delta(witness))
    assert membership(DiffIdeal(), Progression(1, 2)).value == "in"
    assert membership(DiffIdeal(), Progression(6, 2)).value == "out"


def test_difference_ideal_cofinite_out_with_checked_witness():
    got = membership(DiffIdeal(), Cofinite({0, 1, 2, 5}))
    assert got.value == "out"
    g = got.evidence["witness_ap"][0]
    witness = [g * (j + 1) for j in range(1, 9)]
    assert all(Cofinite({0, 1, 2, 5}).contains(d) for d in delta(witness))


def test_hindman_rules_with_checked_witnesses():
    got = membership(HindmanIdeal(), Cofinite({0, 3}))
    assert got.value == "out"
    gens = got.evidence["witness_generators"]
    assert all(Cofinite({0, 3}).contains(s) for s in fs(gens))

    odd = membership(HindmanIdeal(), Progression(1, 2))
    assert odd.value == "in"

    assert membership(HindmanIdeal(), modular_avoiders(4)).value == "in"

    multiples = membership(HindmanIdeal(), Progression(0, 3))
    assert multiples.value == "out"
    gens = multiples.evidence["witness_generators"]
    assert all(Progression(0, 3).contains(s) for s in fs(gens))


def test_density_rules():
    assert membership(DensityZero(), Progression(0, 2)).value == "out"
    assert membership(DensityZero(), Cofinite({4})).value == "out"
    assert membership(DensityZero(), modular_avoiders(3)).value == "out"
    got = membership(DensityZero(), Progression(0, 5))
    assert got.evidence["density"] == "1/5"


def test_ramsey_cofinite_out():
    got = membership(RamseyIdeal(), Cofinite({0, 1, 2, 3, 4}))
    assert got.value == "out"
    base = got.evidence["clique_base"]
    for a, b in combinations(range(base, base + 6), 2):
        assert code_unordered(a, b) > 4


def test_unknown_shapes_stay_unknown():
    mixed = Union((Progression(0, 2), Progression(1, 3)))
    for ideal in (SumHarmonic(), DensityZero(), DiffIdeal(), HindmanIdeal()):
        assert membership(ideal, mixed).value == "unknown"
    # honest refusal carries the partial sums for summable ideals
    got = membership(SumHarmonic(), mixed, horizon=32)
    assert "partial_weight" in got.evidence if got.evidence else True


def test_fin_ideal_rules():
    assert membership(FinIdeal(), Cofinite({1})).value == "out"
    assert membership(FinIdeal(), Progression(0, 7)).value == "out"
    assert membership(FinIdeal(), SumsOf({1, 2, 4})).value == "in"
    assert membership(FinIdeal(), DiffsOf((1, 4, 9))).to_json() == {
        "value": "in", "procedure": "finite-subset", "evidence": {"witness": [3, 5, 8]}}


def test_selector_ideal_degenerate_and_proper():
    p = build_partition(6)
    degenerate = sum_ideal_of(full_set(), p)
    assert membership(degenerate, Progression(0, 2)).value == "in"
    assert membership(degenerate, Cofinite(())).value == "in"

    proper = sum_ideal_of(Finite(()), p)
    assert proper.weight.divergence == "interval-block"
    assert membership(proper, Cofinite({2})).value == "out"
    assert membership(proper, Finite({3, 4})).value == "in"
    assert membership(proper, Progression(0, 2)).value == "unknown"

    evens_ideal = sum_ideal_of(Progression(0, 2), p)
    assert membership(evens_ideal, Finite({9})).value == "in"


def test_membership_monotone_in_horizon():
    catalog = [
        (SumHarmonic(), Cofinite({0, 1})),
        (SumHarmonic(), Progression(0, 2)),
        (DiffIdeal(), modular_avoiders(3)),
        (DensityZero(), Progression(1, 4)),
        (HindmanIdeal(), Progression(1, 2)),
        (SumHarmonic(), Union((Progression(0, 2), Progression(1, 3)))),
    ]
    for ideal, queried in catalog:
        values = [membership(ideal, queried, h).value for h in (8, 16, 64, 256)]
        decided = [v for v in values if v != "unknown"]
        assert len(set(decided)) <= 1  # verdicts never flip between in and out


def test_positivity_flips_membership():
    assert is_positive(SumHarmonic(), Progression(0, 2)).value == "in"
    assert is_positive(SumHarmonic(), Finite({1, 2})).value == "out"
    assert is_positive(DiffIdeal(), SumsOf({1, 2, 4})).value == "out"
    mixed = Union((Progression(0, 2), Progression(1, 3)))
    assert is_positive(SumHarmonic(), mixed).value == "unknown"


# every kind of ideal; sum_s over proper, degenerate and shapeless selectors,
# and over a depth-3 partition whose coverage (27 points) a horizon of 64 exceeds
PIN_SELECTORS = (Finite(()), Finite({1, 3}), Progression(0, 2), Progression(1, 3),
                 modular_avoiders(3), Cofinite(()), Progression(2, 1),
                 Union((Progression(0, 2), Progression(1, 3))))
PIN_IDEALS = (FinIdeal(), SumHarmonic(), DensityZero(), DiffIdeal(), HindmanIdeal(),
              RamseyIdeal(), PowerSet(),
              *(SumSelector(selector, build_partition(5)) for selector in PIN_SELECTORS),
              SumSelector(Finite({0}), build_partition(3)))
# finite, cofinite, ap and modcomp shapes, shapes of no whitelist entry, and
# sets whose shape is not written in its normal form
PIN_SETS = (Finite(()), Finite({0, 2, 7}), Cofinite(()), Cofinite({0, 1, 5}), Cofinite({9}),
            Progression(0, 1), Progression(3, 1), Progression(0, 2), Progression(1, 2),
            Progression(6, 3), Progression(4, 6), Progression(5, 5), modular_avoiders(2),
            modular_avoiders(5), Complement(Finite({2})), Complement(Cofinite({1, 4})),
            Complement(modular_avoiders(3)), Complement(Progression(2, 3)),
            Union((Progression(0, 2), Progression(1, 2))),
            Union((Finite({1}), Intervals([(3, 6)]))),
            Intersection((Progression(0, 2), Finite(range(10)))),
            SumsOf({1, 2, 4}), DiffsOf((1, 4, 9)), Intervals([(0, 4)]))
# sha256 over the canonical bytes of every membership and is_positive verdict
# of PIN_IDEALS x PIN_SETS at horizons 0, 5 and 64, as the isinstance chain
# of membership wrote them
PINNED_VERDICTS = "a2391a2f70378a6fb830e0a67a527e0e5112465fcf2fb18ac9c29efb7ba840aa"


def test_membership_and_positivity_verdict_bytes_are_pinned():
    digest = hashlib.sha256()
    for ideal in PIN_IDEALS:
        for queried in PIN_SETS:
            for horizon in (0, 5, 64):
                for decide in (membership, is_positive):
                    try:
                        got = decide(ideal, queried, horizon).to_json()
                    except HorizonExhausted:
                        got = "horizon-exhausted"
                    digest.update(canonical_bytes(got))
    assert digest.hexdigest() == PINNED_VERDICTS


# -- witness searches ------------------------------------------------------------

def oracle_hindman(a, size, horizon):
    """Independent oracle: lexicographic scan with its own sum enumeration."""
    for combo in combinations(range(horizon), size):
        sums = set()
        for r in range(1, size + 1):
            for sub in combinations(combo, r):
                sums.add(sum(sub))
        if all(s < horizon and a.contains(s) for s in sums):
            return combo
    return None


@pytest.mark.parametrize(
    "a,size,horizon",
    [
        (Intervals(((1, 8),)), 3, 8),
        (Intervals(((1, 16),)), 3, 16),
        (Progression(0, 2), 3, 30),
        (Progression(1, 2), 2, 40),
        (Cofinite({2, 3}), 3, 24),
        (Finite(()), 1, 10),
    ],
)
def test_hindman_search_matches_oracle(a, size, horizon):
    assert hindman_witness_search(a, size, horizon) == oracle_hindman(a, size, horizon)


def test_hindman_search_examples():
    # full interval [1,7]: the least size-3 witness by the oracle
    interval = Intervals(((1, 8),))
    expected = oracle_hindman(interval, 3, 8)
    assert expected == (1, 2, 3)
    got = hindman_witness_search(interval, 3, 8)
    assert got == expected
    assert verify_sum_witness(interval, got)
    assert hindman_witness_search(Progression(1, 2), 2, 1000) is None
    assert hindman_witness_search(Finite(()), 1, 50) is None


def oracle_ramsey_witness(a, size, horizon):
    for combo in combinations(range(horizon), size):
        if all(a.contains(code_unordered(u, v)) for u, v in combinations(combo, 2)):
            return combo
    return None


def test_ramsey_search_examples_and_oracle():
    everything = Cofinite(())
    assert ramsey_witness_search(everything, 4, 6) == (0, 1, 2, 3)

    mixed_parity = Finite(
        {code_unordered(a, b) for a in range(0, 20, 2) for b in range(1, 20, 2)}
    )
    assert ramsey_witness_search(mixed_parity, 3, 20) is None

    even_clique = Finite(
        {code_unordered(a, b) for a, b in combinations(range(0, 10, 2), 2)}
    )
    got = ramsey_witness_search(even_clique, 3, 10)
    assert got == (0, 2, 4) == oracle_ramsey_witness(even_clique, 3, 10)


# -- difference multiplicities and density ----------------------------------------

@pytest.mark.parametrize(
    "members,expected",
    [
        ({0, 1, 3}, {1: 1, 2: 1, 3: 1}),
        ({0, 1, 2, 3}, {1: 3, 2: 2, 3: 1}),
        (set(), {}),
    ],
)
def test_diff_multiplicity_values(members, expected):
    assert diff_multiplicity(members) == expected


@given(st.sets(st.integers(0, 80), max_size=12))
def test_diff_multiplicity_total(members):
    table = diff_multiplicity(members)
    n = len(members)
    assert sum(table.values()) == n * (n - 1) // 2


def test_density_values():
    assert density_at(Progression(0, 2), 10) == Fraction(3, 5)
    assert density_at(Finite({0}), 100) == Fraction(1, 100)
    for n in (1, 7, 30):
        assert density_at(Cofinite(()), n) == Fraction(n + 1, n)


# -- the pigeonhole behind the modular rule ----------------------------------------

def search_all_distinct_residues(universe, modulus, size):
    """Exhaustive pruned search for a subset with pairwise distinct residues.

    Any counterexample to the pigeonhole rule would appear as a full branch;
    pruning only discards branches that already repeat a residue, so the
    search is complete.
    """

    def extend(start, used):
        if len(used) == size:
            return True
        for x in range(start, universe):
            r = x % modulus
            if r in used:
                continue
            used[r] = x
            if extend(x + 1, used):
                return True
            del used[r]
        return False

    return extend(0, {})


@pytest.mark.parametrize("modulus", range(2, 9))
def test_pigeonhole_exhaustive_upto_40(modulus):
    assert not search_all_distinct_residues(40, modulus, modulus + 1)
    assert search_all_distinct_residues(40, modulus, modulus)
