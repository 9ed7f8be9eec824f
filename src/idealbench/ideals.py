"""Ideal descriptors with honest three-valued membership.

Membership of an infinite set in an ideal is undecidable in general, so
verdicts are In / Out / Unknown and every In or Out carries evidence.  The
decision procedures form a closed whitelist keyed on the normalized shape
of the queried set (finite, cofinite, arithmetic progression, complement
of the multiples of m); anything else yields Unknown together with the
partial sums or exhausted search bounds computed at the horizon.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Optional, Tuple

import idealbench
from .errors import SchemaError
from .finite import (  # diff_multiplicity: also read as ideals.diff_multiplicity
    _sum_pairs, ascending_tuples, diff_multiplicity, subset_sums)
from .pairing import code_unordered
from .records import record
from .serialize import DEFAULT_DEPTH, MAX_DEPTH, integer_field, rat_str
from .sets import DescribedSet, is_co_infinite, set_from_json

if TYPE_CHECKING:
    from .construction import PartitionData, WeightFunction

IN = "in"
OUT = "out"
UNKNOWN = "unknown"


@record(frozen=True)
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


@record(frozen=True)
class FinIdeal(IdealDescriptor):
    kind = "fin"


@record(frozen=True)
class SumHarmonic(IdealDescriptor):
    kind = "sum_harmonic"

    @property
    def weight(self) -> WeightFunction:
        return idealbench.construction.harmonic_weight()


@record(frozen=True)
class SumSelector(IdealDescriptor):
    """Summable ideal induced by a selector set over a partition."""

    selector: DescribedSet
    partition: PartitionData
    kind = "sum_s"

    @property
    def weight(self) -> WeightFunction:
        return idealbench.construction.weight_fn(self.selector, self.partition)

    def degenerate(self) -> Optional[bool]:
        co = is_co_infinite(self.selector)
        return None if co is None else not co


@record(frozen=True)
class DensityZero(IdealDescriptor):
    kind = "den0"


@record(frozen=True)
class DiffIdeal(IdealDescriptor):
    """Sets containing no full positive-difference image of an infinite set."""

    kind = "diff"


@record(frozen=True)
class HindmanIdeal(IdealDescriptor):
    """Sets omitting some finite sum of every infinite set."""

    kind = "hindman"


@record(frozen=True)
class RamseyIdeal(IdealDescriptor):
    """Pair-coded graphs without infinite complete subgraphs."""

    kind = "ramsey"


@record(frozen=True)
class PowerSet(IdealDescriptor):
    kind = "powerset"


def sum_ideal_of(selector: DescribedSet, p: PartitionData) -> SumSelector:
    """The summable ideal induced by a selector set over the partition."""
    return SumSelector(selector, p)


# descriptors without fields, by the ``kind`` each class declares
_FIELDLESS = {cls.kind: cls for cls in (
    FinIdeal, SumHarmonic, DensityZero, DiffIdeal, HindmanIdeal, RamseyIdeal, PowerSet)}


def ideal_from_json(obj: dict) -> IdealDescriptor:
    """Decode an ideal descriptor; ``sum_s`` is over the greedy partition of its ``depth``."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind in _FIELDLESS:
        return _FIELDLESS[kind]()
    if kind == SumSelector.kind:
        depth = integer_field(obj, "depth", DEFAULT_DEPTH, "a sum_s ideal", 1, MAX_DEPTH)
        return SumSelector(set_from_json(obj.get("selector")),
                           idealbench.construction.build_partition(depth))
    raise SchemaError(f"unknown ideal kind {kind!r}")


# -- weights ----------------------------------------------------------------

def weight_of(w: WeightFunction, members: Iterable[int]) -> Fraction:
    """Exact weight of a finite set: the sum of ``w`` over its distinct members.

    Members of equal weight are counted together, since selector weights
    repeat per interval and ``_sum_pairs`` multiplies every denominator;
    the sum is reduced once.
    """
    counts = Counter((f.numerator, f.denominator) for f in map(w, set(members)))
    return Fraction(*_sum_pairs([(p * count, q) for (p, q), count in counts.items()]))


def density_at(a: DescribedSet, n: int) -> Fraction:
    """Exact |a intersect [0, n]| / n."""
    if n < 1:
        raise ValueError("density needs n >= 1")
    count = sum(1 for x in range(n + 1) if a.contains(x))
    return Fraction(count, n)


# -- membership -------------------------------------------------------------

def _sum_partial(ideal, s: DescribedSet, horizon: int) -> dict:
    total = weight_of(ideal.weight, s.enumerate_upto(horizon))
    return {"partial_weight": rat_str(total), "horizon": horizon}


_OUTSIDE = _unknown("outside-whitelist")


def _summable(ideal, shape, s, horizon) -> Verdict:
    """The rules of the sum_harmonic and sum_s descriptors.

    A sum_s descriptor comes here only with a co-infinite selector, whose
    weights diverge block by block (``interval-block``), so a cofinite set
    is in neither ideal.
    """
    divergence = ideal.weight.divergence
    tag = shape and shape[0]
    if tag == "cofinite":
        return _out("cofinite-divergence", divergence=divergence, excluded=list(shape[1]))
    if divergence == "harmonic" and tag == "ap":
        return _out(
            "ap-harmonic-comparison",
            base=shape[1],
            step=shape[2],
            note="subsum of the harmonic series along a progression diverges",
        )
    if divergence == "harmonic" and tag == "modcomp":
        return _out(
            "modcomp-harmonic-comparison",
            modulus=shape[1],
            note="contains the progression base 1 step m, whose harmonic subsum diverges",
        )
    return _unknown("outside-whitelist", _sum_partial(ideal, s, horizon))


def _infinite_shape(ideal, shape, s, horizon) -> Verdict:
    return _OUTSIDE if shape is None else _out("infinite-shape", shape=shape[0])


def _positive_density(ideal, shape, s, horizon) -> Verdict:
    tag = shape and shape[0]
    if tag == "cofinite":
        return _out("positive-density", density="1/1", excluded=list(shape[1]))
    if tag == "ap":
        return _out("positive-density", density=rat_str(Fraction(1, shape[2])))
    if tag == "modcomp":
        m = shape[1]
        return _out("positive-density", density=rat_str(Fraction(m - 1, m)))
    return _OUTSIDE


# each ideal's words in ``_witness_or_pigeonhole``: the OUT procedure, the
# evidence field of its witness and the multiples of g the witness lists,
# the note of a cofinite set's witness, and the IN procedure and note of a
# progression off its residue class and of a modcomp set
_WORDS = {
    DiffIdeal.kind: (
        "difference-witness", "witness_ap", (1, 1),
        "differences of the multiples of g are multiples of g, all past the excluded points",
        "difference-additivity", "x+y=z among differences forces base = 0 mod step, which fails",
        "pigeonhole-congruence",
        "any m+1 points give two congruent mod m, whose difference the set omits"),
    HindmanIdeal.kind: (
        "sum-witness", "witness_generators", (1, 2, 4),
        "sums of distinct multiples g*2^k are multiples of g past the excluded points",
        "sum-congruence", "two members of the set sum outside its residue class",
        "prefix-sum-pigeonhole",
        "among m+1 prefix sums two agree mod m; their gap is a finite sum divisible by m"),
}


def _witness_or_pigeonhole(ideal, shape, s, horizon) -> Verdict:
    """The one decision of the difference and the sum ideal, in the ideal's ``_WORDS``.

    A progression off its residue class fails the base-mod-step test and a
    modcomp set the pigeonhole on m+1 points (IN).  A cofinite set, or a
    progression of base 0 mod step, holds the witness on the multiples of
    g past the exclusions (OUT).
    """
    (witness, field, multiples, cofinite_note, residue, residue_note,
     pigeonhole, pigeonhole_note) = _WORDS[ideal.kind]
    tag = shape and shape[0]
    if tag == "ap" and shape[1] % shape[2]:
        return _in(residue, base=shape[1], step=shape[2], note=residue_note)
    if tag == "modcomp":
        return _in(pigeonhole, modulus=shape[1], note=pigeonhole_note)
    if tag == "cofinite":
        g = (max(shape[1]) + 1) if shape[1] else 1
        return _out(witness, **{field: [g * k for k in multiples]}, note=cofinite_note)
    if tag == "ap":
        g = shape[1] or shape[2]
        return _out(witness, **{field: [g * k for k in multiples]})
    return _OUTSIDE


def _tail_clique(ideal, shape, s, horizon) -> Verdict:
    if shape is None or shape[0] != "cofinite":
        return _OUTSIDE
    bound = (max(shape[1]) + 1) if shape[1] else 0
    k = 0
    while k * (k + 1) // 2 < bound:
        k += 1
    return _out(
        "tail-clique",
        note="every pair code over a high enough tail clears the excluded codes",
        clique_base=k,
    )


# each ideal's decision on a set of no finite shape, by the ideal's kind
_ON_INFINITE_SHAPES = {
    FinIdeal.kind: _infinite_shape,
    SumHarmonic.kind: _summable,
    SumSelector.kind: _summable,
    DensityZero.kind: _positive_density,
    DiffIdeal.kind: _witness_or_pigeonhole,
    HindmanIdeal.kind: _witness_or_pigeonhole,
    RamseyIdeal.kind: _tail_clique,
}


def membership(ideal: IdealDescriptor, s: DescribedSet, horizon: int = 64) -> Verdict:
    """Three-valued membership of a described set in an ideal.

    Past the powerset, the finite shapes and the cofinite or shapeless
    selectors of sum_s, the ideal's entry in ``_ON_INFINITE_SHAPES`` decides.
    """
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

    return _ON_INFINITE_SHAPES[ideal.kind](ideal, shape, s, horizon)


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
    # the sums of the prefixes on the search path, at most ``size`` of them
    prefix_sums = lru_cache(maxsize=size)(subset_sums)

    def fits(prefix: Tuple[int, ...], x: int) -> bool:
        return a.contains(x) and all(
            s + x < horizon and a.contains(s + x) for s in prefix_sums(prefix))

    return next(ascending_tuples(size, 0, horizon, fits), None)


def ramsey_witness_search(
    a: DescribedSet, size: int, horizon: int
) -> Optional[Tuple[int, ...]]:
    """Least vertex set T with every pair code of T in a, vertices below horizon."""
    if size < 2:
        raise ValueError("clique size must be >= 2")

    def fits(prefix: Tuple[int, ...], v: int) -> bool:
        return all(a.contains(code_unordered(u, v)) for u in prefix)

    return next(ascending_tuples(size, 0, horizon, fits), None)


def verify_sum_witness(a: DescribedSet, b: Iterable[int]) -> bool:
    """Independent re-check that every non-empty subset sum of b lies in a."""
    return all(a.contains(t) for t in subset_sums(tuple(sorted(set(b)))))
