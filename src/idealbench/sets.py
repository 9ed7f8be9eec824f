"""Finitely presented subsets of the naturals.

A DescribedSet is a symbolic expression whose membership predicate is
decidable element by element.  Boolean combinations stay symbolic; nothing
ever enumerates the whole of omega.  ``shape()`` normalizes an expression
to one of a small whitelist of recognized shapes (finite, cofinite,
arithmetic progression, complement of the multiples of m); membership
decision procedures key on those shapes and refuse to guess elsewhere.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Tuple

from .errors import SchemaError, StructuralError
from .records import record

_FS_GEN_CAP = 22  # 2^22 subset sums is already beyond any sane scenario
# most members an intervals descriptor lists, and most generator pairs (so
# members) a delta_image descriptor has: each lists them on its first lookup
_LISTED_CAP = 1 << 16


def _int(x, what: str) -> int:
    """``x`` itself; a TypeError unless it is an int (a bool is not one)."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} {x!r} is not an integer")
    return x


def _nat_tuple(xs: Iterable[int]) -> Tuple[int, ...]:
    out = tuple(sorted({_int(x, "member") for x in xs}))
    if out and out[0] < 0:
        raise ValueError("members must be naturals")
    return out


class DescribedSet:
    """Base class; subclasses are immutable descriptor nodes."""

    def contains(self, x: int) -> bool:
        raise NotImplementedError

    def enumerate_upto(self, horizon: int) -> list:
        """Members strictly below horizon, ascending."""
        if horizon < 0:
            raise ValueError("horizon must be a natural")
        return [x for x in range(horizon) if self.contains(x)]

    # -- normalized shape -------------------------------------------------
    def shape(self):
        """Normalized whitelist shape or None.

        Returns one of
          ("finite", members) | ("cofinite", excluded) |
          ("ap", base, step) | ("modcomp", m)
        """
        return None

    def to_json(self) -> dict:
        raise NotImplementedError


class _Listed(DescribedSet):
    """A finite set, decided by bisecting its ascending tuple ``members``: a field
    of ``Finite``, and a ``cached_property`` listed once per descriptor elsewhere."""

    def contains(self, x: int) -> bool:
        i = bisect_left(self.members, x)
        return i < len(self.members) and self.members[i] == x

    def enumerate_upto(self, horizon: int) -> list:
        if horizon < 0:
            raise ValueError("horizon must be a natural")
        return list(self.members[:bisect_left(self.members, horizon)])

    def shape(self):
        return ("finite", self.members)


@record(frozen=True)
class Finite(_Listed):
    members: Tuple[int, ...]

    def __init__(self, members: Iterable[int]):
        object.__setattr__(self, "members", _nat_tuple(members))

    def to_json(self) -> dict:
        return {"kind": "finite", "members": list(self.members)}


@record(frozen=True)
class Cofinite(DescribedSet):
    excluded: Tuple[int, ...]

    def __init__(self, excluded: Iterable[int]):
        object.__setattr__(self, "excluded", _nat_tuple(excluded))

    def contains(self, x: int) -> bool:
        return x >= 0 and x not in self.excluded

    def shape(self):
        return ("cofinite", self.excluded)

    def to_json(self) -> dict:
        return {"kind": "cofinite", "excluded": list(self.excluded)}


@record(frozen=True)
class Progression(DescribedSet):
    """Arithmetic progression {base + k*step : k >= 0}."""

    base: int
    step: int

    def __post_init__(self):
        if _int(self.base, "base") < 0 or _int(self.step, "step") < 1:
            raise ValueError("progression needs base >= 0, step >= 1")

    def contains(self, x: int) -> bool:
        return x >= self.base and (x - self.base) % self.step == 0

    def shape(self):
        return ("ap", self.base, self.step)

    def to_json(self) -> dict:
        return {"kind": "ap", "base": self.base, "step": self.step}


@record(frozen=True)
class Intervals(_Listed):
    """Union of half-open intervals [a, b)."""

    spans: Tuple[Tuple[int, int], ...]

    def __init__(self, spans: Iterable[Tuple[int, int]]):
        norm = tuple(sorted((_int(a, "span end"), _int(b, "span end")) for a, b in spans))
        covered = end = 0
        for a, b in norm:
            if a < 0 or b < a:
                raise StructuralError(f"bad interval [{a}, {b})")
            covered += max(0, b - max(a, end))
            end = max(end, b)
        if covered > _LISTED_CAP:
            raise StructuralError(f"intervals hold {covered} members, more than {_LISTED_CAP}")
        object.__setattr__(self, "spans", norm)

    @cached_property
    def members(self) -> Tuple[int, ...]:
        return tuple(sorted({x for a, b in self.spans for x in range(a, b)}))

    def to_json(self) -> dict:
        return {"kind": "intervals", "spans": [list(s) for s in self.spans]}


def subset_sums(gens: Tuple[int, ...]) -> Tuple[int, ...]:
    """All non-empty subset sums of a finite set of distinct naturals, ascending.

    0 is one exactly when 0 is in the set: {0} is a non-empty subset.
    """
    acc = {0}
    for g in gens:
        acc.update([s + g for s in acc])
    if 0 not in gens:
        acc.discard(0)
    return tuple(sorted(acc))


def ascending_tuples(size: int, lo: int, hi: int,
                     fits: Callable[[Tuple[int, ...], int], bool]) -> Iterator[Tuple[int, ...]]:
    """Ascending tuples of ``size`` entries from lo .. hi - 1 in lexicographic order.

    An entry ``x`` extends a prefix only when ``fits(prefix, x)``, so a
    prefix that fails is never extended further.
    """

    def extend(prefix: Tuple[int, ...], start: int) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == size:
            yield prefix
            return
        for x in range(start, hi):
            if fits(prefix, x):
                yield from extend(prefix + (x,), x + 1)

    return extend((), lo)


def delta(b: Iterable[int]) -> Tuple[int, ...]:
    """Positive differences of distinct elements."""
    members = sorted(set(b))
    return tuple(sorted({y - x for x, y in combinations(members, 2)}))


@record(frozen=True)
class SumsOf(_Listed):
    """Finite non-empty sums of distinct elements of a finite generator set."""

    generators: Tuple[int, ...]

    def __init__(self, generators: Iterable[int]):
        gens = _nat_tuple(generators)
        if len(gens) > _FS_GEN_CAP:
            raise StructuralError("generator set too large to expand")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def members(self) -> Tuple[int, ...]:
        return subset_sums(self.generators)

    def to_json(self) -> dict:
        return {"kind": "fs_closure", "generators": list(self.generators)}


@record(frozen=True)
class DiffsOf(_Listed):
    """Positive differences of distinct elements of a finite generator set."""

    generators: Tuple[int, ...]

    def __init__(self, generators: Iterable[int]):
        gens = _nat_tuple(generators)
        if len(gens) * (len(gens) - 1) // 2 > _LISTED_CAP:
            raise StructuralError(f"{len(gens)} generators have more than {_LISTED_CAP} "
                                  f"pairs to difference")
        object.__setattr__(self, "generators", gens)

    @cached_property
    def members(self) -> Tuple[int, ...]:
        return delta(self.generators)

    def to_json(self) -> dict:
        return {"kind": "delta_image", "generators": list(self.generators)}


@record(frozen=True)
class Union(DescribedSet):
    parts: Tuple[DescribedSet, ...]

    def __init__(self, parts: Iterable[DescribedSet]):
        object.__setattr__(self, "parts", tuple(parts))

    def contains(self, x: int) -> bool:
        return any(p.contains(x) for p in self.parts)

    def shape(self):
        shapes = [p.shape() for p in self.parts]
        if all(s is not None and s[0] == "finite" for s in shapes):
            acc = set()
            for s in shapes:
                acc.update(s[1])
            return ("finite", tuple(sorted(acc)))
        return None

    def to_json(self) -> dict:
        return {"kind": "union", "parts": [p.to_json() for p in self.parts]}


@record(frozen=True)
class Intersection(DescribedSet):
    parts: Tuple[DescribedSet, ...]

    def __init__(self, parts: Iterable[DescribedSet]):
        object.__setattr__(self, "parts", tuple(parts))

    def contains(self, x: int) -> bool:
        return all(p.contains(x) for p in self.parts)

    def shape(self):
        shapes = [p.shape() for p in self.parts]
        finites = [s for s in shapes if s is not None and s[0] == "finite"]
        if finites and len(finites) == len(shapes):
            acc = set(finites[0][1])
            for s in finites[1:]:
                acc &= set(s[1])
            return ("finite", tuple(sorted(acc)))
        if finites:
            # intersection with a finite set is finite and fully decidable
            members = tuple(sorted(x for x in finites[0][1] if self.contains(x)))
            return ("finite", members)
        return None

    def to_json(self) -> dict:
        return {"kind": "intersection", "parts": [p.to_json() for p in self.parts]}


@record(frozen=True)
class Complement(DescribedSet):
    inner: DescribedSet

    def contains(self, x: int) -> bool:
        return x >= 0 and not self.inner.contains(x)

    def shape(self):
        s = self.inner.shape()
        if s is None:
            return None
        if s[0] == "finite":
            return ("cofinite", s[1])
        if s[0] == "cofinite":
            return ("finite", s[1])
        if s[0] == "ap" and s[1] == 0 and s[2] >= 2:
            return ("modcomp", s[2])
        if s[0] == "modcomp":
            return ("ap", 0, s[1])
        return None

    def to_json(self) -> dict:
        return {"kind": "complement", "of": self.inner.to_json()}


# -- convenience constructors ---------------------------------------------

def modular_avoiders(m: int) -> Complement:
    """The set of naturals not divisible by m (m >= 2)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return Complement(Progression(0, m))


def full_set() -> Cofinite:
    return Cofinite(())


def set_from_json(obj: dict) -> DescribedSet:
    """Decode the tagged descriptor-tree serialization.

    A non-object, an unknown kind, a missing field, a field of the wrong
    type or a set its constructor refuses is a SchemaError.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("set descriptor must be a tagged object")
    try:
        return _decode_set(obj)
    except KeyError as exc:
        raise SchemaError(f"set descriptor {obj['kind']!r} lacks {exc.args[0]!r}") from None
    except TypeError as exc:
        raise SchemaError(f"set descriptor {obj['kind']!r} has a field of the wrong type: {exc}") from None
    except StructuralError as exc:
        raise SchemaError(f"set descriptor {obj['kind']!r}: {exc}") from None


def _decode_set(obj: dict) -> DescribedSet:
    kind = obj["kind"]
    if kind == "finite":
        return Finite(obj["members"])
    if kind == "cofinite":
        return Cofinite(obj["excluded"])
    if kind == "ap":
        return Progression(obj["base"], obj["step"])
    if kind == "intervals":
        return Intervals(tuple((a, b) for a, b in obj["spans"]))
    if kind == "fs_closure":
        return SumsOf(obj["generators"])
    if kind == "delta_image":
        return DiffsOf(obj["generators"])
    if kind == "union":
        return Union(set_from_json(p) for p in obj["parts"])
    if kind == "intersection":
        return Intersection(set_from_json(p) for p in obj["parts"])
    if kind == "complement":
        return Complement(set_from_json(obj["of"]))
    raise SchemaError(f"unknown set kind {kind!r}")


def is_co_infinite(s: DescribedSet) -> Optional[bool]:
    """Whether the complement of s is infinite, when the shape decides it."""
    sh = s.shape()
    if sh is None:
        return None
    if sh[0] == "finite":
        return True
    if sh[0] == "cofinite":
        return False
    if sh[0] == "ap":
        return sh[2] >= 2  # step 1 progressions are cofinite
    if sh[0] == "modcomp":
        return True  # complement is the multiples of m
    return None
