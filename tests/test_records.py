"""``records.record`` agrees with ``dataclasses.dataclass`` on every feature the package uses.

Each test declares the same classes twice, once with each decorator, and
compares what the two do.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property

import pytest

from idealbench import records


def declare(record, field):
    """The twin classes, declared with ``record`` and its ``field``."""

    @record(frozen=True)
    class Base:
        name: str
        payload: dict = field(default_factory=dict)
        greedy = False  # a class attribute, not a field

        @cached_property
        def shout(self) -> str:
            return self.name.upper()

    @record(frozen=True)
    class Child(Base):
        depth: int = 3
        kind: str = "child"

        def __post_init__(self):  # ``label`` is an attribute, not a field
            object.__setattr__(self, "label", f"{self.name}/{self.depth}")

    @record
    class Tally:
        count: int = 0
        items: list = field(default_factory=list)

        def __repr__(self):
            return f"<{self.count} items>"

    @record(frozen=True)
    class Leaf(Child):  # a record with no fields of its own
        pass

    return Base, Child, Tally, Leaf


TWINS = {"dataclasses": declare(dataclasses.dataclass, dataclasses.field),
         "records": declare(records.record, records.field)}


def outcome(action):
    """What ``action()`` did: its result, or its exception's type name and text."""
    try:
        return "returned", action()
    except Exception as exc:  # compared between the twins, never swallowed
        return type(exc).__name__, str(exc), isinstance(exc, AttributeError)


def agree(action):
    """``action`` applied to both sets of twins; asserts the two outcomes are equal."""
    first, second = (outcome(lambda: action(*classes)) for classes in TWINS.values())
    assert first == second
    return first


def raised(action):
    """The name of the exception type ``action`` raises on both sets of twins."""
    return agree(lambda *classes: outcome(lambda: action(*classes))[0])[1]


def test_repr_text_lists_the_repr_fields_in_field_order():
    text = agree(lambda Base, Child, Tally, Leaf: repr(Child("a", {"k": [1]}, 5)))
    assert text == ("returned", "declare.<locals>.Child(name='a', payload={'k': [1]}, depth=5, "
                                "kind='child')")
    agree(lambda Base, Child, Tally, Leaf: repr(Base("b")))
    agree(lambda Base, Child, Tally, Leaf: repr(Leaf("c")))
    agree(lambda Base, Child, Tally, Leaf: repr(Tally(2)))  # the class's own __repr__


def test_eq_and_hash_read_every_field():
    def compare(Base, Child, Tally, Leaf):
        a = Child("a", {"x": 1}, 4)
        return (a == Child("a", {"x": 1}, 4), a != Child("a", {}, 5), a == Base("a"),
                Base("a") == Leaf("a"), Tally(1, [2]) == Tally(1, [2]), Tally(1) == Tally(1, [2]))

    assert agree(compare) == ("returned", (True, True, False, False, True, False))
    # a frozen record hashes the tuple of its fields, as dataclasses does
    hashes = {hash(classes[1]("a", (), 4)) for classes in TWINS.values()}
    assert hashes == {hash(("a", (), 4, "child"))}
    assert raised(lambda Base, Child, Tally, Leaf: hash(Child("a"))) == "TypeError"
    agree(lambda Base, Child, Tally, Leaf: hash(Tally()))
    agree(lambda Base, Child, Tally, Leaf: Tally.__hash__ is None)


@pytest.mark.parametrize("action, expected", [
    (lambda Base, Child, Tally, Leaf: setattr(Child("a"), "depth", 4),
     ("FrozenInstanceError", "cannot assign to field 'depth'", True)),
    (lambda Base, Child, Tally, Leaf: setattr(Child("a"), "other", 4),
     ("FrozenInstanceError", "cannot assign to field 'other'", True)),
    (lambda Base, Child, Tally, Leaf: delattr(Child("a"), "name"),
     ("FrozenInstanceError", "cannot delete field 'name'", True)),
    (lambda Base, Child, Tally, Leaf: setattr(Leaf("a"), "name", "b"),
     ("FrozenInstanceError", "cannot assign to field 'name'", True)),
    (lambda Base, Child, Tally, Leaf: setattr(Leaf("a"), "other", 1),
     ("FrozenInstanceError", "cannot assign to field 'other'", True)),
    (lambda Base, Child, Tally, Leaf: setattr(t := Tally(), "count", 5) or t.count,
     ("returned", 5)),
], ids=["field", "non-field", "delete", "subclass-field", "subclass-non-field", "mutable"])
def test_frozen_assignment_raises_the_same_error(action, expected):
    assert agree(action) == expected


def test_each_instance_gets_a_fresh_default_factory_value():
    def fresh(Base, Child, Tally, Leaf):
        one, two = Tally(), Tally()
        one.items.append(1)
        return two.items, Base("a").payload is Base("a").payload, Tally(0, [7]).items

    assert agree(fresh) == ("returned", ([], False, [7]))


def test_post_init_runs_after_init():
    def built(Base, Child, Tally, Leaf):
        c = Child("a", {}, 7)
        return c.kind, c.label, hasattr(Child, "label"), Child.kind

    assert agree(built) == ("returned", ("child", "a/7", False, "child"))
    assert raised(lambda Base, Child, Tally, Leaf: Child()) == "TypeError"


def test_class_vars_are_skipped_and_inherited_fields_come_first():
    def fields(Base, Child, Tally, Leaf):
        built = Child("n", {"p": 1}, 2)
        return Base.greedy, built.name, built.payload, built.depth, Base("x").shout

    assert agree(fields) == ("returned", (False, "n", {"p": 1}, 2, "X"))
    assert raised(lambda Base, Child, Tally, Leaf: Base("a", {}, True)) == "TypeError"
    names = [f.name for f in dataclasses.fields(TWINS["dataclasses"][1])]
    assert names == [f.name for f in TWINS["records"][1].__record_fields__]
    assert names == ["name", "payload", "depth", "kind"]
