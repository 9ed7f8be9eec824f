"""Described-set algebra: enumeration, shapes, serialization, rationals."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from idealbench.errors import StructuralError
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


def test_enumerate_cofinite():
    assert Cofinite({0}).enumerate_upto(4) == [1, 2, 3]


def test_diffs_of():
    assert DiffsOf({1, 3, 6}).members() == (2, 3, 5)
    assert DiffsOf({5}).members() == ()
    assert DiffsOf({0, 1, 2}).members() == (1, 2)


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
    got = Intervals(((1, 3), (5, 6))).shape()
    assert got == ("finite", (1, 2, 5))


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
