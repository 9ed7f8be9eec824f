"""Interval partition of an initial segment of omega with descending weights.

The partition data consists of consecutive intervals I_0, I_1, ... and
strictly descending positive rationals r_0 > r_1 > ... subject to

  (1)  |I_0 u ... u I_{n-1}|  <=  r_n * |I_n|      for 1 <= n < depth,
  (2)  |I_n| * r_{n+1}        <=  2^(-n-1)         for 0 <= n < depth,
  (3)  I_0 = {0} and r_0 = 1.

The greedy rule takes the smallest interval and the largest next rational
permitted at each step:

  L_n = ceil(|I_<n| / r_n),   I_n = next L_n integers,
  r_{n+1} = min(r_n / 2, 2^(-n-1) / L_n).

Write S_n = |I_<n| and L_n = |I_n|.  From the base S_0 = 0, L_0 = 1,
r_0 = 1 and r_1 = 1/2, every r_n the rule produces is a unit fraction
1/R_n, so the ceiling is exact and L_n = S_n R_n.  For n >= 1 the decay
arm of the minimum binds, because 2^(n+1) L_n = 2^(n+1) S_n R_n >= 4 R_n
(S_n >= S_1 = 1).  So the greedy rule is exactly the recurrence

  S_{n+1} = S_n + L_n,   L_n = S_n R_n,   R_{n+1} = 2^(n+1) L_n,

and conditions (1) and (2) hold with equality-tight slack.  Conditions (1)
and (2) jointly force |I_{n+1}| >= 2^(n+1) |I_n|^2, i.e. interval sizes
whose digit counts double every level.

``greedy_numbers`` is the one place the recurrence is written; only its
arithmetic varies, ``int`` or exact ``Decimal``.  ``build_partition`` takes
its first terms in ``int``.  ``PartitionData.greedy_prefix`` counts the
leading indices on which given data agrees with it.  On that prefix
``PartitionData.decimal_replay`` runs it in ``Decimal``, so the decimal
text needs no radix conversion, and the descending slacks are in lowest
terms without a gcd (see ``verify_partition``).  Elsewhere
``serialize.int_str`` converts and ``Fraction`` reduces.  What remains is
the big-integer arithmetic itself: the recurrence's products grow three-
to fourfold per level, and so does parsing the decimal text back
(``serialize.int_parse``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import Callable, Iterator, List, Optional, Tuple, Union

from .errors import HorizonExhausted, SchemaError, StructuralError
from .sets import DescribedSet
from .serialize import EXACT, int_parse, int_str, rat_parse, rat_str

DEFAULT_DEPTH = 12

Number = Union[int, Decimal]


@dataclass(frozen=True)
class PartitionData:
    """Intervals as (start, length) pairs plus rationals r_0 .. r_depth."""

    starts: Tuple[int, ...]
    lengths: Tuple[int, ...]
    rationals: Tuple[Fraction, ...]

    @property
    def depth(self) -> int:
        return len(self.lengths)

    def end(self, n: int) -> int:
        return self.starts[n] + self.lengths[n]

    @property
    def coverage_end(self) -> int:
        return self.end(self.depth - 1)

    def interval_of(self, m: int) -> int:
        """Index n with m in I_n; raises beyond coverage."""
        if m < 0 or m >= self.coverage_end:
            raise HorizonExhausted(
                f"point {m} outside partition coverage [0, {self.coverage_end})"
            )
        lo, hi = 0, self.depth - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if m < self.end(mid):
                hi = mid
            else:
                lo = mid + 1
        return lo

    def prefix_size(self, n: int) -> int:
        """|I_<n| = number of points below interval n."""
        return self.starts[n]

    def interval_members(self, n: int, cap: int = 1 << 22) -> range:
        if self.lengths[n] > cap:
            raise HorizonExhausted(f"interval {n} too large to enumerate")
        return range(self.starts[n], self.end(n))

    @cached_property
    def greedy_prefix(self) -> int:
        """The number t of leading indices on which this data is the greedy partition.

        Index n counts when index n-1 does and S_n, L_n and r_{n+1} = 1/R_{n+1}
        are the n-th terms of ``greedy_numbers``; index 0 also needs r_0 = 1.
        So S_n and L_n for n < t and R_n for n <= t are what
        ``decimal_replay`` computes.  Computed on first use and kept with
        this instance only: ``dataclasses.replace`` makes a new one that
        computes its own.
        """
        S, L, r = self.starts, self.lengths, self.rationals
        depth = min(len(S), len(L), len(r) - 1)
        if depth < 1 or r[0] != 1:
            return 0
        for n, (s, l, R) in zip(range(depth), greedy_numbers()):
            if (S[n], L[n], r[n + 1].numerator, r[n + 1].denominator) != (s, l, 1, R):
                return n
        return depth

    @cached_property
    def decimal_replay(self) -> Tuple[List[Decimal], List[Decimal], List[Decimal]]:
        """Exact ``Decimal`` S_n, L_n (n < t) and R_n (n <= t), t = ``greedy_prefix``.

        ``greedy_numbers`` in ``Decimal``, so equal to the stored integers
        without converting any of them.
        """
        t = self.greedy_prefix
        if t == 0:
            return [], [], []
        S, L, R = zip(*islice(greedy_numbers(Decimal), t))
        return list(S), list(L), [Decimal(1), *R]

    def to_json(self) -> dict:
        S, L, R = self.decimal_replay
        return {
            "depth": self.depth,
            "starts": _texts(S, self.starts),
            "lengths": _texts(L, self.lengths),
            "rationals": [f"1/{d}" for d in R] + [rat_str(r) for r in self.rationals[len(R):]],
        }

    @staticmethod
    def from_json(obj: dict) -> "PartitionData":
        """Parse ``to_json`` output; raises SchemaError on any other shape."""
        if not isinstance(obj, dict):
            raise SchemaError("partition must be a JSON object")
        for key in ("starts", "lengths", "rationals"):
            if not isinstance(obj.get(key), list):
                raise SchemaError(f"partition needs a list {key!r}")
            if not all(isinstance(x, str) for x in obj[key]):
                raise SchemaError(f"partition {key!r} entries must be strings")
        try:
            starts = tuple(int_parse(s) for s in obj["starts"])
            lengths = tuple(int_parse(l) for l in obj["lengths"])
        except ValueError as exc:
            raise SchemaError(f"partition bounds must be decimal integers: {exc}") from exc
        rationals = tuple(rat_parse(r) for r in obj["rationals"])
        if len(starts) != len(lengths):
            raise SchemaError("partition needs as many starts as lengths")
        depth = obj.get("depth", len(lengths))
        if type(depth) is not int or depth != len(lengths):
            raise SchemaError(f"partition depth {depth!r} disagrees with {len(lengths)} lengths")
        return PartitionData(starts, lengths, rationals)


def _texts(replayed: List[Decimal], values: Tuple[int, ...]) -> List[str]:
    """Decimal text of each value: the replay's where it reaches, ``int_str`` past it."""
    return [str(d) for d in replayed] + [int_str(v) for v in values[len(replayed):]]


# add and multiply in each arithmetic that greedy_numbers runs in
_ARITHMETIC = {int: (operator.add, operator.mul), Decimal: (EXACT.add, EXACT.multiply)}


def greedy_numbers(number: Callable[[int], Number] = int) -> Iterator[Tuple[Number, ...]]:
    """S_n, L_n and R_{n+1} of the greedy partition for n = 0, 1, 2, ...

    The recurrence of the module docstring from its base S_0 = 0, L_0 = 1,
    R_1 = 2, in the arithmetic of ``number``: ``int``, or ``Decimal`` under
    ``serialize.EXACT``, which never rounds.  A term is computed only when
    it is asked for.
    """
    add, multiply = _ARITHMETIC[number]
    S, L, R = number(0), number(1), number(2)
    for n in count(1):
        yield S, L, R
        S = add(S, L)
        L = multiply(S, R)
        R = multiply(L, 1 << (n + 1))


def build_partition(depth: int) -> PartitionData:
    """Greedy partition of the given depth (number of intervals)."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    S, L, R = zip(*islice(greedy_numbers(), depth))
    return PartitionData(S, L, tuple(Fraction(1, d) for d in (1,) + R))


@dataclass(frozen=True)
class ReducedSlack:
    """A slack in lowest terms by ``verify_partition``'s lemma, and its replayed text."""

    numerator: int
    denominator: int
    text: str


Slack = Union[Fraction, ReducedSlack]


@dataclass(frozen=True)
class ConditionReport:
    name: str
    index: int
    holds: bool
    slack: Optional[Slack]  # bound minus attained value, exact

    def to_json(self) -> dict:
        slack = self.slack
        return {
            "condition": self.name,
            "index": self.index,
            "holds": self.holds,
            "slack": (
                None if slack is None
                else slack.text if isinstance(slack, ReducedSlack)
                else rat_str(slack)
            ),
        }


@dataclass(frozen=True)
class PartitionReport:
    passed: bool
    reports: Tuple[ConditionReport, ...]

    def failures(self) -> Tuple[ConditionReport, ...]:
        return tuple(r for r in self.reports if not r.holds)

    def to_json(self) -> dict:
        return {"passed": self.passed, "checks": [r.to_json() for r in self.reports]}


Slacks = Tuple[List[Fraction], List[Fraction], List[Slack]]


def _fraction_slacks(p: PartitionData) -> Slacks:
    """Growth, decay and descending slacks for arbitrary positive rationals."""
    r = p.rationals
    growth = [r[n] * p.lengths[n] - p.prefix_size(n) for n in range(1, p.depth)]
    decay = [Fraction(1, 1 << (n + 1)) - r[n + 1] * p.lengths[n] for n in range(p.depth)]
    descending = [r[n] - r[n + 1] for n in range(len(r) - 1)]
    return growth, decay, descending


def _unit_slacks(p: PartitionData) -> Slacks:
    """The same slacks when every r_n is a unit fraction 1/R_n.

    Growth and decay slacks are integer numerators over known denominators,
    and a Fraction (with its gcd) is built only for a non-zero numerator.
    On the greedy prefix those numerators are zero by ``greedy_prefix``'s
    checks, and each descending slack past index 0 is a ``ReducedSlack``.
    """
    R = [r.denominator for r in p.rationals]
    t = p.greedy_prefix
    replay_S, _, replay_R = p.decimal_replay
    # numerators of |I_n|/R_n - |I_<n| over R_n and of 2^(-n-1) - |I_n|/R_{n+1}
    # over 2^(n+1) R_{n+1}; grow_num[0] = |I_0| is never zero and never reported
    grow_num = [
        0 if 0 < n < t else p.lengths[n] - p.prefix_size(n) * R[n] for n in range(p.depth)
    ]
    decay_num = [0 if n < t else R[n + 1] - (p.lengths[n] << (n + 1)) for n in range(p.depth)]

    def over(num: int, den: int) -> Fraction:
        return Fraction(num, den) if num else Fraction(0)

    growth = [over(grow_num[n], R[n]) for n in range(1, p.depth)]
    decay = [over(decay_num[n], R[n + 1] << (n + 1)) for n in range(p.depth)]
    descending: List[Slack] = []
    for n in range(p.depth):
        if 0 < n < t:  # both numerators are zero: R_{n+1} = 2^(n+1) |I_<n| R_n
            numerator = EXACT.subtract(EXACT.multiply(replay_S[n], 1 << (n + 1)), 1)
            text = f"{numerator}/{replay_R[n + 1]}"
            descending.append(ReducedSlack((p.prefix_size(n) << (n + 1)) - 1, R[n + 1], text))
            continue
        k, rem = divmod(R[n + 1], R[n])
        if rem:
            descending.append(Fraction(R[n + 1] - R[n], R[n] * R[n + 1]))
        else:
            descending.append(p.rationals[n] * Fraction(k - 1, k))
    return growth, decay, descending


def verify_partition(p: PartitionData) -> PartitionReport:
    """Exact per-condition verification with rational slack.

    On the greedy prefix (indices n < t = ``p.greedy_prefix``) the growth
    and decay slacks are zero, and each descending slack at 1 <= n < t is
    kept as the pair (k-1, R_{n+1}) with k = 2^(n+1) S_n, which is in
    lowest terms, so no gcd is taken.

    Proof.  For 1 <= j <= n < t the prefix gives L_j = S_j R_j,
    R_{j+1} = 2^(j+1) L_j = 2^(j+1) S_j R_j and S_{j+1} = S_j + L_j =
    S_j (1 + R_j), with S_1 = 1 and R_1 = 2.  Hence R_{n+1} = k R_n, and
    r_n - r_{n+1} = 1/R_n - 1/R_{n+1} = (k-1)/R_{n+1}, with k - 1 >= 1
    because S_n >= S_1 = 1.  By induction R_n = 2^a * prod_{1<=j<n} S_j for
    some a >= 1, and each S_j with j <= n divides S_n.  Now k - 1 is odd
    (k is even), and k - 1 = -1 (mod S_j) for every j <= n, so gcd(k-1, R_n) = 1; and
    gcd(k-1, k) = 1.  So gcd(k-1, R_{n+1}) = gcd(k-1, k R_n) = 1.

    Index 0 and every index from t on take the ``Fraction`` paths.
    """
    if p.depth < 1 or len(p.rationals) != p.depth + 1:
        raise StructuralError("need depth intervals and depth+1 rationals")
    if p.starts[0] != 0:
        raise StructuralError("intervals must start at 0")
    for n in range(1, p.depth):
        if p.starts[n] != p.end(n - 1):
            raise StructuralError(f"interval {n} is not contiguous")
    if any(l < 1 for l in p.lengths):
        raise StructuralError("intervals must be non-empty")
    if any(r <= 0 for r in p.rationals):
        raise StructuralError("rationals must be positive")

    reports: List[ConditionReport] = []
    # condition (3): I_0 = {0}, r_0 = 1
    reports.append(
        ConditionReport(
            "base", 0, p.lengths[0] == 1 and p.rationals[0] == 1, None
        )
    )
    if all(r.numerator == 1 for r in p.rationals):
        growth, decay, descending = _unit_slacks(p)
    else:
        growth, decay, descending = _fraction_slacks(p)
    # condition (1): |I_<n| <= r_n |I_n|
    for n, slack in enumerate(growth, 1):
        reports.append(ConditionReport("growth", n, slack >= 0, slack))
    # condition (2): |I_n| r_{n+1} <= 2^{-n-1}
    for n, slack in enumerate(decay):
        reports.append(ConditionReport("decay", n, slack >= 0, slack))
    # strictly descending rationals; the sign of a slack is its numerator's
    for n, slack in enumerate(descending):
        reports.append(ConditionReport("descending", n, slack.numerator > 0, slack))

    return PartitionReport(all(r.holds for r in reports), tuple(reports))


@dataclass(frozen=True)
class WeightFunction:
    """Total weight assignment on the partition's coverage.

    divergence records why the induced ideal is proper: "harmonic" for the
    canonical 1/(n+1) weights, "interval-block" for selector weights with a
    co-infinite selector, "none" when no divergence certificate applies.
    """

    evaluator: Callable[[int], Fraction]
    divergence: str

    def __call__(self, m: int) -> Fraction:
        return self.evaluator(m)


def harmonic_weight() -> WeightFunction:
    return WeightFunction(lambda m: Fraction(1, m + 1), "harmonic")


def selector_weight(selector: DescribedSet, p: PartitionData, n: int) -> Fraction:
    """Weight of each point of I_n: r_{n+1} when n is on the selector, r_n when not."""
    return p.rationals[n + 1] if selector.contains(n) else p.rationals[n]


def weight_fn(selector: DescribedSet, p: PartitionData) -> WeightFunction:
    """Selector weights: r_n off the selector, r_{n+1} on it."""
    from .sets import is_co_infinite

    def evaluate(m: int) -> Fraction:
        return selector_weight(selector, p, p.interval_of(m))

    co_inf = is_co_infinite(selector)
    divergence = "interval-block" if co_inf else "none"
    return WeightFunction(evaluate, divergence)


def interval_weight(selector: DescribedSet, p: PartitionData, n: int) -> Fraction:
    """Exact selector-weight of the whole interval I_n, without enumeration."""
    return selector_weight(selector, p, n) * p.lengths[n]


def degenerate_prefix_weight(p: PartitionData, upto: int) -> Fraction:
    """Sum of full-selector weights over [0, upto), upto within coverage.

    With the selector equal to omega every point of I_n weighs r_{n+1}, so
    the sum telescopes interval by interval; the result stays below 1 by
    the decay condition.
    """
    if upto <= 0:
        return Fraction(0)
    last = p.interval_of(upto - 1)
    total = Fraction(0)
    for n in range(last):
        total += p.rationals[n + 1] * p.lengths[n]
    total += p.rationals[last + 1] * (upto - p.starts[last])
    return total


def degenerate_weight_below_last_point(p: PartitionData) -> Tuple[str, Fraction, str]:
    """The full-selector weight of [0, e), e = ``coverage_end`` - 1, with texts.

    Returns the text of e, the weight, and the weight's text.  On greedy
    data each full interval I_n (n < d-1) weighs r_{n+1} L_n = 2^-(n+1) by
    tight decay, and the L_{d-1} - 1 points of I_{d-1} below e weigh
    r_d = 1/R_d each, with R_d = 2^d L_{d-1}; so
      weight = 1 - 2^-(d-1) + (L_{d-1} - 1)/R_d = ((2^d - 1) L_{d-1} - 1)/R_d.
    When the reduced sum has exactly this numerator and denominator and the
    whole partition is its greedy prefix, the decimal replay holds L_{d-1},
    S_{d-1} and R_d exactly, so the texts are written from it.  (For d >= 2
    the closed form is reduced: its numerator is odd, as L_{d-1} =
    S_{d-1} R_{d-1} is even, and is -1 mod L_{d-1}.  At d = 1 it reads 0/2,
    which the reduced 0/1 does not match.)  Otherwise ``int_str`` and
    ``rat_str`` write them.
    """
    upto = p.coverage_end - 1
    total = degenerate_prefix_weight(p, upto)
    d = p.depth
    closed_form = (((1 << d) - 1) * p.lengths[-1] - 1, p.rationals[d].denominator)
    if p.greedy_prefix == d and (total.numerator, total.denominator) == closed_form:
        S, L, R = p.decimal_replay
        numerator = EXACT.subtract(EXACT.multiply(L[-1], (1 << d) - 1), 1)
        return str(EXACT.subtract(EXACT.add(S[-1], L[-1]), 1)), total, f"{numerator}/{R[d]}"
    return int_str(upto), total, rat_str(total)
