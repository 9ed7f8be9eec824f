"""Described-set algebra: enumeration, shapes, serialization, rationals."""

import hashlib
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from idealbench import sets
from idealbench.errors import StructuralError
from idealbench.ideals import SumHarmonic, hindman_witness_search, ramsey_witness_search
from idealbench.reduction import IdentityHeightOne, ReductionClaim, check_reduction_witness
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
    is_co_infinite,
    modular_avoiders,
    set_from_json,
)


def brute_subset_sums(gens):
    out = set()
    for r in range(1, len(gens) + 1):
        for combo in combinations(gens, r):
            out.add(sum(combo))
    return sorted(out)


def test_enumerate_progression():
    assert Progression(1, 2).enumerate_upto(8) == [1, 3, 5, 7]


def test_enumerate_sums_closure():
    s = SumsOf({1, 2, 4})
    assert s.enumerate_upto(8) == brute_subset_sums([1, 2, 4]) == list(range(1, 8))


def test_a_zero_generator_is_its_own_sum():
    # {0} is a non-empty subset, so 0 is a finite sum exactly when it generates
    assert SumsOf({0, 3}).members == tuple(brute_subset_sums([0, 3])) == (0, 3)
    assert SumsOf({0, 3}).contains(0) and not SumsOf({3}).contains(0)
    assert SumsOf({0}).members == (0,)
    assert SumsOf({0, 1, 2}).members == (0, 1, 2, 3)


def test_subset_sums_peak_memory_is_near_the_result():
    gens = tuple(1 << i for i in range(18))
    tracemalloc.start()
    try:
        sums = sets.subset_sums(gens)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sums) == (1 << 18) - 1
    assert peak <= 2.5 * held


def test_enumerate_cofinite():
    assert Cofinite({0}).enumerate_upto(4) == [1, 2, 3]


def test_diffs_of():
    assert DiffsOf({1, 3, 6}).members == (2, 3, 5)
    assert DiffsOf({5}).members == ()
    assert DiffsOf({0, 1, 2}).members == (1, 2)


# every finite descriptor kind, empty and not, with overlapping spans, and
# the unions, intersections and complements of them
_SUMS = SumsOf({3, 5, 17, 64})
_DIFFS = DiffsOf({0, 3, 7, 50, 255})
_SPANS = Intervals(((100, 130), (0, 3), (120, 140), (2, 9), (40, 41)))
PIN_LISTED = (
    Finite(()), Finite({1, 4, 9, 200}), Intervals(()), _SPANS, SumsOf(()), SumsOf({1, 2, 4}),
    _SUMS, DiffsOf(()), DiffsOf({5}), _DIFFS,
    Union((_SUMS, _SPANS)), Union((_DIFFS, Progression(0, 2))), Union((Finite(()), DiffsOf(()))),
    Intersection((_SPANS, _SUMS)), Intersection((_DIFFS, Progression(1, 2))),
    Intersection((Cofinite({4}), _SPANS)), Complement(_SUMS), Complement(Intervals(())),
    Complement(Union((_DIFFS, _SPANS))),
)
# sha256 of membership 0..300, enumerations, shapes, both witness searches
# and the height-one reduction certificate of every PIN_LISTED descriptor
PINNED_LISTED = "eb54df24898f76ba3a5e29f7da98e8a1c432f4b5bf7108d3a94fc2663f1ce213"


def test_listed_descriptor_answers_are_pinned():
    digest = hashlib.sha256()
    claim = ReductionClaim(SumHarmonic(), SumHarmonic(), IdentityHeightOne())
    for s in PIN_LISTED:
        cert = check_reduction_witness(claim, s, horizon=24)
        digest.update(canonical_bytes([
            [s.contains(x) for x in range(301)],
            [s.enumerate_upto(h) for h in (0, 7, 64, 300)],
            s.shape(),
            hindman_witness_search(s, 3, 64),
            ramsey_witness_search(s, 3, 24),
            None if cert is None else cert.to_json(),
        ]))
    assert digest.hexdigest() == PINNED_LISTED


@pytest.mark.parametrize("cls, lister", [(SumsOf, "subset_sums"), (DiffsOf, "delta")])
def test_listed_members_are_listed_once(monkeypatch, cls, lister):
    calls = []
    real = getattr(sets, lister)
    monkeypatch.setattr(sets, lister, lambda gens: calls.append(gens) or real(gens))
    s = cls({0, 3, 7, 12})
    assert s.members is s.members
    for x in range(100):
        s.contains(x)
    s.enumerate_upto(64)
    s.shape()
    assert len(calls) == 1


def test_listed_descriptors_are_capped_at_2_16_members():
    # a union of spans counts each member once, however the spans overlap
    assert Intervals([(0, 40000), (30000, 1 << 16), (9, 9)]).spans
    assert len(DiffsOf(range(362)).generators) == 362     # 65,341 pairs
    for spans in ([(0, (1 << 16) + 1)], [(0, 40000), (39999, (1 << 16) + 1)], [(0, 10**9)]):
        with pytest.raises(StructuralError, match="more than 65536"):
            Intervals(spans)
    with pytest.raises(StructuralError, match="363 generators have more than 65536 pairs"):
        DiffsOf(range(363))


small_descriptors = st.sampled_from(
    [
        Finite({1, 4, 9}),
        Cofinite({0, 2}),
        Progression(0, 2),
        Progression(1, 3),
        Intervals(((0, 3), (7, 9))),
        SumsOf({1, 2, 4}),
        DiffsOf({0, 3, 7}),
        Union((Progression(0, 4), Finite({1}))),
        Intersection((Progression(0, 2), Progression(0, 3))),
        Complement(Progression(0, 3)),
    ]
)


@given(small_descriptors, st.integers(0, 60))
def test_enumeration_agrees_with_membership(s, horizon):
    listed = s.enumerate_upto(horizon)
    assert listed == [x for x in range(horizon) if s.contains(x)]
    assert listed == sorted(set(listed))


def test_shapes():
    assert Finite({2, 1}).shape() == ("finite", (1, 2))
    assert Cofinite({3}).shape() == ("cofinite", (3,))
    assert Progression(1, 2).shape() == ("ap", 1, 2)
    assert Complement(Progression(0, 3)).shape() == ("modcomp", 3)
    assert modular_avoiders(3).shape() == ("modcomp", 3)
    assert Complement(Complement(Progression(0, 3))).shape() == ("ap", 0, 3)
    assert Complement(Finite({1})).shape() == ("cofinite", (1,))
    assert Complement(Cofinite({1})).shape() == ("finite", (1,))
    assert Union((Finite({1}), Finite({2}))).shape() == ("finite", (1, 2))
    assert Intersection((Finite({1, 2, 4}), Progression(0, 2))).shape() == (
        "finite",
        (2, 4),
    )
    assert Union((Progression(0, 2), Progression(1, 3))).shape() is None
    assert Complement(Progression(1, 3)).shape() is None


def test_intervals_are_finite_shape():
    s = Intervals(((1, 3), (5, 6)))
    assert s.shape() == ("finite", (1, 2, 5))
    assert s.members is s.members


def test_co_infinite_detection():
    assert is_co_infinite(Finite({1})) is True
    assert is_co_infinite(Cofinite({1})) is False
    assert is_co_infinite(Progression(0, 2)) is True
    assert is_co_infinite(Progression(5, 1)) is False
    assert is_co_infinite(modular_avoiders(4)) is True
    assert is_co_infinite(Union((Progression(0, 2), Progression(1, 3)))) is None


@given(small_descriptors)
def test_serialization_roundtrip(s):
    back = set_from_json(s.to_json())
    assert back.enumerate_upto(40) == s.enumerate_upto(40)


def test_complement_is_lazy_and_correct():
    c = Complement(Union((Progression(0, 2), Finite({1}))))
    assert not c.contains(0)
    assert not c.contains(1)
    assert c.contains(3)
    assert c.enumerate_upto(10) == [3, 5, 7, 9]


# exact rational arithmetic invariants (the package-wide number type)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=97
)


@given(rationals, rationals, rationals)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_rational_normalization(q):
    from math import gcd

    assert q.denominator > 0
    assert gcd(q.numerator, q.denominator) == 1
    assert Fraction(q.numerator, q.denominator) == q
