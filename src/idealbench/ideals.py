"""Ideal descriptors with honest three-valued membership.

Membership of an infinite set in an ideal is undecidable in general, so
verdicts are In / Out / Unknown and every In or Out carries evidence.  The
decision procedures form a closed whitelist keyed on the normalized shape
of the queried set (finite, cofinite, arithmetic progression, complement
of the multiples of m); anything else yields Unknown together with the
partial sums or exhausted search bounds computed at the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Dict, Iterable, Optional, Tuple

from .construction import (
    DEFAULT_DEPTH,
    MAX_DEPTH,
    PartitionData,
    WeightFunction,
    build_partition,
    harmonic_weight,
    weight_fn,
)
from .errors import SchemaError
from .pairing import code_unordered
from .serialize import integer_field, rat_str
from .sets import DescribedSet, is_co_infinite, set_from_json, subset_sums

IN = "in"
OUT = "out"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    value: str
    procedure: str
    evidence: Optional[dict] = None

    def __post_init__(self):
        if self.value in (IN, OUT) and self.evidence is None:
            raise ValueError("In/Out verdicts must carry evidence")

    def to_json(self) -> dict:
        return {"value": self.value, "procedure": self.procedure, "evidence": self.evidence}


def _in(procedure: str, **evidence) -> Verdict:
    return Verdict(IN, procedure, evidence)


def _out(procedure: str, **evidence) -> Verdict:
    return Verdict(OUT, procedure, evidence)


def _unknown(procedure: str, evidence: Optional[dict] = None) -> Verdict:
    return Verdict(UNKNOWN, procedure, evidence)


# -- descriptors ------------------------------------------------------------

class IdealDescriptor:
    kind = "abstract"


@dataclass(frozen=True)
class FinIdeal(IdealDescriptor):
    kind: str = field(default="fin", init=False)


@dataclass(frozen=True)
class SumHarmonic(IdealDescriptor):
    kind: str = field(default="sum_harmonic", init=False)

    @property
    def weight(self) -> WeightFunction:
        return harmonic_weight()


@dataclass(frozen=True)
class SumSelector(IdealDescriptor):
    """Summable ideal induced by a selector set over a partition."""

    selector: DescribedSet
    partition: PartitionData
    kind: str = field(default="sum_s", init=False)

    @property
    def weight(self) -> WeightFunction:
        return weight_fn(self.selector, self.partition)

    def degenerate(self) -> Optional[bool]:
        co = is_co_infinite(self.selector)
        return None if co is None else not co


@dataclass(frozen=True)
class DensityZero(IdealDescriptor):
    kind: str = field(default="den0", init=False)


@dataclass(frozen=True)
class DiffIdeal(IdealDescriptor):
    """Sets containing no full positive-difference image of an infinite set."""

    kind: str = field(default="diff", init=False)


@dataclass(frozen=True)
class HindmanIdeal(IdealDescriptor):
    """Sets omitting some finite sum of every infinite set."""

    kind: str = field(default="hindman", init=False)


@dataclass(frozen=True)
class RamseyIdeal(IdealDescriptor):
    """Pair-coded graphs without infinite complete subgraphs."""

    kind: str = field(default="ramsey", init=False)


@dataclass(frozen=True)
class PowerSet(IdealDescriptor):
    kind: str = field(default="powerset", init=False)


def sum_ideal_of(selector: DescribedSet, p: PartitionData) -> SumSelector:
    """The summable ideal induced by a selector set over the partition."""
    return SumSelector(selector, p)


# descriptors without fields, by the ``kind`` each class declares
_FIELDLESS = {cls.kind: cls for cls in (
    FinIdeal, SumHarmonic, DensityZero, DiffIdeal, HindmanIdeal, RamseyIdeal, PowerSet)}


def ideal_from_json(obj: dict, partition: Optional[PartitionData] = None) -> IdealDescriptor:
    """Decode an ideal descriptor; a ``sum_s`` selector is taken over ``partition``.

    Without a partition, ``sum_s`` builds the greedy one of its ``depth``.
    """
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind in _FIELDLESS:
        return _FIELDLESS[kind]()
    if kind == SumSelector.kind:
        p = partition or build_partition(
            integer_field(obj, "depth", DEFAULT_DEPTH, "a sum_s ideal", 1, MAX_DEPTH))
        return SumSelector(set_from_json(obj.get("selector")), p)
    raise SchemaError(f"unknown ideal kind {kind!r}")


# -- weights ----------------------------------------------------------------

def weight_of(w: WeightFunction, members: Iterable[int]) -> Fraction:
    total = Fraction(0)
    for m in set(members):
        total += w(m)
    return total


def density_at(a: DescribedSet, n: int) -> Fraction:
    """Exact |a intersect [0, n]| / n."""
    if n < 1:
        raise ValueError("density needs n >= 1")
    count = sum(1 for x in range(n + 1) if a.contains(x))
    return Fraction(count, n)


# -- membership -------------------------------------------------------------

def _sum_partial(ideal, s: DescribedSet, horizon: int) -> dict:
    w = ideal.weight
    total = Fraction(0)
    for x in s.enumerate_upto(horizon):
        total += w(x)
    return {"partial_weight": rat_str(total), "horizon": horizon}


def _sum_like_membership(ideal, shape, s, horizon) -> Verdict:
    """Shared rules for sum_harmonic / sum_s descriptors."""
    divergence = ideal.weight.divergence
    if shape is not None:
        tag = shape[0]
        if tag == "cofinite":
            if divergence in ("harmonic", "interval-block"):
                return _out(
                    "cofinite-divergence",
                    divergence=divergence,
                    excluded=list(shape[1]),
                )
        elif tag == "ap":
            if divergence == "harmonic":
                return _out(
                    "ap-harmonic-comparison",
                    base=shape[1],
                    step=shape[2],
                    note="subsum of the harmonic series along a progression diverges",
                )
        elif tag == "modcomp":
            if divergence == "harmonic":
                return _out(
                    "modcomp-harmonic-comparison",
                    modulus=shape[1],
                    note="contains the progression base 1 step m, whose harmonic subsum diverges",
                )
    return _unknown("outside-whitelist", _sum_partial(ideal, s, horizon))


def membership(ideal: IdealDescriptor, s: DescribedSet, horizon: int = 64) -> Verdict:
    """Three-valued membership of a described set in an ideal."""
    shape = s.shape()

    if isinstance(ideal, PowerSet):
        return _in("powerset", note="the full powerset contains every set")

    if shape is not None and shape[0] == "finite":
        return _in("finite-subset", witness=list(shape[1]))

    if isinstance(ideal, SumSelector):
        deg = ideal.degenerate()
        if deg:
            return _in(
                "degenerate-selector",
                note="cofinite selector: total weight is bounded by the decay condition",
            )
        if deg is None:
            return _unknown("selector-shape-unknown")
        return _sum_like_membership(ideal, shape, s, horizon)

    if isinstance(ideal, SumHarmonic):
        return _sum_like_membership(ideal, shape, s, horizon)

    if shape is None:
        return _unknown("outside-whitelist")

    tag = shape[0]

    if isinstance(ideal, FinIdeal):
        # finite shapes were handled above; the remaining shapes are infinite
        return _out("infinite-shape", shape=tag)

    if isinstance(ideal, DensityZero):
        if tag == "cofinite":
            return _out("positive-density", density="1/1", excluded=list(shape[1]))
        if tag == "ap":
            return _out("positive-density", density=rat_str(Fraction(1, shape[2])))
        if tag == "modcomp":
            m = shape[1]
            return _out("positive-density", density=rat_str(Fraction(m - 1, m)))
        return _unknown("outside-whitelist")

    if isinstance(ideal, DiffIdeal):
        return _diff_membership(tag, shape)

    if isinstance(ideal, HindmanIdeal):
        return _hindman_membership(tag, shape)

    if isinstance(ideal, RamseyIdeal):
        if tag == "cofinite":
            bound = (max(shape[1]) + 1) if shape[1] else 0
            k = 0
            while k * (k + 1) // 2 < bound:
                k += 1
            return _out(
                "tail-clique",
                note="every pair code over a high enough tail clears the excluded codes",
                clique_base=k,
            )
        return _unknown("outside-whitelist")

    return _unknown("outside-whitelist")


def _diff_membership(tag, shape) -> Verdict:
    if tag == "cofinite":
        g = (max(shape[1]) + 1) if shape[1] else 1
        return _out(
            "difference-witness",
            witness_ap=[g, g],
            note="differences of the multiples of g are multiples of g, all past the excluded points",
        )
    if tag == "ap":
        base, step = shape[1], shape[2]
        if base % step == 0:
            g = base if base > 0 else step
            return _out("difference-witness", witness_ap=[g, g])
        return _in(
            "difference-additivity",
            note="x+y=z among differences forces base = 0 mod step, which fails",
            base=base,
            step=step,
        )
    if tag == "modcomp":
        return _in(
            "pigeonhole-congruence",
            modulus=shape[1],
            note="any m+1 points give two congruent mod m, whose difference the set omits",
        )
    return _unknown("outside-whitelist")


def _hindman_membership(tag, shape) -> Verdict:
    if tag == "cofinite":
        g = (max(shape[1]) + 1) if shape[1] else 1
        return _out(
            "sum-witness",
            witness_generators=[g, 2 * g, 4 * g],
            note="sums of distinct multiples g*2^k are multiples of g past the excluded points",
        )
    if tag == "ap":
        base, step = shape[1], shape[2]
        if base % step == 0:
            g = base if base > 0 else step
            return _out("sum-witness", witness_generators=[g, 2 * g, 4 * g])
        return _in(
            "sum-congruence",
            base=base,
            step=step,
            note="two members of the set sum outside its residue class",
        )
    if tag == "modcomp":
        return _in(
            "prefix-sum-pigeonhole",
            modulus=shape[1],
            note="among m+1 prefix sums two agree mod m; their gap is a finite sum divisible by m",
        )
    return _unknown("outside-whitelist")


def is_positive(ideal: IdealDescriptor, s: DescribedSet, horizon: int = 64) -> Verdict:
    """Positivity for the dual filter: positive iff the set is not in the ideal."""
    inner = membership(ideal, s, horizon)
    if inner.value == OUT:
        return Verdict(IN, f"positive:{inner.procedure}", inner.evidence)
    if inner.value == IN:
        return Verdict(OUT, f"null:{inner.procedure}", inner.evidence)
    return Verdict(UNKNOWN, f"undetermined:{inner.procedure}", inner.evidence)


# -- bounded witness searches ------------------------------------------------

def hindman_witness_search(
    a: DescribedSet, size: int, horizon: int
) -> Optional[Tuple[int, ...]]:
    """Lexicographically least B with |B| = size and all sums inside a, below horizon."""
    if size < 1:
        raise ValueError("witness size must be >= 1")

    def extend(prefix: Tuple[int, ...], partial_sums: Tuple[int, ...], lo: int):
        if len(prefix) == size:
            return prefix
        for x in range(lo, horizon):
            if not a.contains(x):
                continue
            new_sums = [x] + [s + x for s in partial_sums]
            if any(t >= horizon or not a.contains(t) for t in new_sums):
                continue
            got = extend(prefix + (x,), partial_sums + tuple(new_sums), x + 1)
            if got is not None:
                return got
        return None

    return extend((), (), 0)


def ramsey_witness_search(
    a: DescribedSet, size: int, horizon: int
) -> Optional[Tuple[int, ...]]:
    """Least vertex set T with every pair code of T in a, vertices below horizon."""
    if size < 2:
        raise ValueError("clique size must be >= 2")

    def extend(prefix: Tuple[int, ...], lo: int):
        if len(prefix) == size:
            return prefix
        for v in range(lo, horizon):
            if all(a.contains(code_unordered(u, v)) for u in prefix):
                got = extend(prefix + (v,), v + 1)
                if got is not None:
                    return got
        return None

    return extend((), 0)


def verify_sum_witness(a: DescribedSet, b: Iterable[int]) -> bool:
    """Independent re-check that every non-empty subset sum of b lies in a."""
    return all(a.contains(t) for t in subset_sums(tuple(sorted(set(b)))))


def diff_multiplicity(a: Iterable[int]) -> Dict[int, int]:
    """Multiplicity table of positive differences over a finite set."""
    members = sorted(set(a))
    table: Dict[int, int] = {}
    for x, y in combinations(members, 2):
        table[y - x] = table.get(y - x, 0) + 1
    return table
