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
arithmetic varies, ``int`` or exact ``Decimal`` (``serialize.EXACT``).  The
two hold the same numbers.  A ``PartitionData`` is one of two things: the
greedy partition of a depth (``greedy`` is True), from ``build_partition``
or from a ``PartitionData.from_json`` document whose every entry writes
the greedy value, or the ints it was given.  Greedy data reads its numbers
from ``greedy_levels`` when they are first read in it.  That accessor keeps
one table per arithmetic for the whole process: the terms S_n, L_n and
R_{n+1} of the levels read so far, which depend on the level alone, and no
certificate, body or text.  It extends the table only as far as the deepest
level read, so each arithmetic runs at most once per process, however many
partitions, certificates and rechecks read it.  The weight-bound checker
(``checkers``) runs its own residue recurrence and reads no table.

* ``Decimal`` (``decimal_replay``) holds the greedy numbers for everything
  that writes or checks them.  The text needs no radix conversion, and a
  partition body writes each replay number's text once: the report's
  descending slacks (k-1)/R_{n+1} reuse the partition's text of R_{n+1}.
  ``verify_partition`` reads the identities and those slacks in lowest
  terms (its lemma) off the replay and writes no text itself.  The closed
  form of the weight below the last point
  (``degenerate_weight_below_last_point``), which the weight-bound
  certificate writes, is read off the replay too.  ``from_json`` reads each
  digit run as ``Decimal`` (linear time) and compares it with its level.
  libmpdec multiplies large numbers by a number-theoretic transform, where
  CPython's ``int`` uses Karatsuba, so this is the faster build.
* ``int`` fields (``starts``, ``lengths``, ``rationals``) of greedy data
  appear on first read, from the ``int`` levels; no ``Decimal`` is
  ever converted to ``int``, which CPython does in quadratic time.  The
  engines, ideals and reductions read ints, as does the exact ``Fraction``
  sum ``degenerate_prefix_weight``; no certificate of a partition, of its
  weight bound or of a subset reduction reads any.  Any other data (a tampered or foreign file) is
  parsed by ``serialize.int_parse``, written by ``serialize.int_str`` and
  checked by ``Fraction`` alone, unit fractions or not.

The greedy numbers double their digit count per level, so a depth is
accepted from outside only up to ``MAX_DEPTH``.
"""

from __future__ import annotations

import operator
import random
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import count, islice
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import HorizonExhausted, SchemaError, StructuralError
from .records import record
from .serialize import (  # the depths: also read as construction.DEFAULT_DEPTH, MAX_DEPTH
    DEFAULT_DEPTH, EXACT, MAX_DEPTH, digit_run, int_parse, int_str, rat_parse, rat_str)

if TYPE_CHECKING:
    from .sets import DescribedSet

Number = Union[int, Decimal]
Replay = Tuple[List[Decimal], List[Decimal], List[Decimal]]


@record(frozen=True)
class PartitionData:
    """Intervals as (start, length) pairs plus rationals r_0 .. r_depth.

    ``PartitionData(starts, lengths, rationals)`` holds the given ints.
    ``build_partition`` and ``from_json`` of greedy text hold only the
    depth of the greedy partition, and ``greedy`` is True.  Their int fields
    are made on first read from ``greedy_levels`` in ``int``, and their
    ``Decimal`` terms (``decimal_replay``) likewise in ``Decimal``.
    """

    starts: Tuple[int, ...]
    lengths: Tuple[int, ...]
    rationals: Tuple[Fraction, ...]
    greedy = False

    @staticmethod
    def _greedy(depth: int) -> "PartitionData":
        """The greedy partition of ``depth``."""
        p = object.__new__(PartitionData)
        vars(p).update(greedy=True, depth=depth)
        return p

    def __getattr__(self, name: str):
        # only reached for an int field of greedy data not read yet
        if not self.greedy or name not in ("starts", "lengths", "rationals"):
            raise AttributeError(name)
        S, L, R = zip(*greedy_levels(self.depth))
        vars(self).update(starts=S, lengths=L, rationals=tuple(Fraction(1, d) for d in (1,) + R))
        return vars(self)[name]

    @cached_property
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

    def interval_members(self, n: int) -> range:
        return range(self.starts[n], self.end(n))

    @cached_property
    def decimal_replay(self) -> Replay:
        """Exact ``Decimal`` S_n, L_n (n < depth) and R_n (n <= depth) of greedy data.

        ``greedy_numbers`` in ``Decimal``, so equal to the int fields
        without converting any of them.  The lists are this object's own,
        made from the process's levels, so editing them edits no table.
        """
        S, L, R = zip(*greedy_levels(self.depth, Decimal))
        return list(S), list(L), [Decimal(1), *R]

    def to_json(self) -> dict:
        """Decimal text: the replay's for greedy data, ``int_str`` and ``rat_str`` otherwise."""
        if self.greedy:
            S, L, R = self.decimal_replay
            starts, lengths = [str(d) for d in S], [str(d) for d in L]
            rationals = ["1/" + str(d) for d in R]
        else:
            starts, lengths = [int_str(s) for s in self.starts], [int_str(l) for l in self.lengths]
            rationals = [rat_str(r) for r in self.rationals]
        return {"depth": self.depth, "starts": starts, "lengths": lengths, "rationals": rationals}

    @staticmethod
    def from_json(obj: dict) -> "PartitionData":
        """Parse ``to_json`` output; raises SchemaError on any other shape.

        When every entry writes the greedy partition's value, read as exact
        ``Decimal`` (in linear time), the result is that greedy partition;
        otherwise every entry goes through ``int_parse``.
        """
        if not isinstance(obj, dict):
            raise SchemaError("partition must be a JSON object")
        for key in ("starts", "lengths", "rationals"):
            if not isinstance(obj.get(key), list):
                raise SchemaError(f"partition needs a list {key!r}")
            if not all(isinstance(x, str) for x in obj[key]):
                raise SchemaError(f"partition {key!r} entries must be strings")
        starts, lengths, rationals = obj["starts"], obj["lengths"], obj["rationals"]
        if len(starts) != len(lengths):
            raise SchemaError("partition needs as many starts as lengths")
        if not lengths:
            raise SchemaError("partition needs at least one interval")
        if len(rationals) != len(lengths) + 1:
            raise SchemaError("partition needs one more rational than lengths")
        depth = obj.get("depth", len(lengths))
        if type(depth) is not int or depth != len(lengths):
            raise SchemaError(f"partition depth {depth!r} disagrees with {len(lengths)} lengths")
        if _writes_greedy(starts, lengths, rationals):
            return PartitionData._greedy(depth)
        try:
            return PartitionData(tuple(int_parse(s) for s in starts),
                                 tuple(int_parse(l) for l in lengths),
                                 tuple(rat_parse(r) for r in rationals))
        except ValueError as exc:
            raise SchemaError(f"partition bounds must be decimal integers: {exc}") from exc


def _writes_greedy(starts: Sequence[str], lengths: Sequence[str],
                   rationals: Sequence[str]) -> bool:
    """Whether every text writes the greedy partition's value.

    A text counts only when it is a ``digit_run``, read as ``Decimal``; any
    other text makes the document plain ints, which ``int_parse`` reads.
    The levels are read one at a time, so a foreign document extends the
    ``Decimal`` table no further than its first text that differs.
    """
    if not _writes_unit(rationals[0], Decimal(1)):
        return False
    for n, (s, l, r) in enumerate(zip(starts, lengths, rationals[1:]), 1):
        gs, gl, gR = greedy_levels(n, Decimal)[-1]
        if not (_writes(s, gs) and _writes(l, gl) and _writes_unit(r, gR)):
            return False
    return True


def _writes(text: str, value: Decimal) -> bool:
    return digit_run(text) and Decimal(text) == value


def _writes_unit(text: str, R: Decimal) -> bool:
    """Whether ``text`` is 'p/q' with digit runs p != 0 and q = p R, so writes 1/R."""
    p, _, q = text.partition("/")
    if not (digit_run(p) and digit_run(q)):
        return False
    numerator = Decimal(p)
    return numerator != 0 and Decimal(q) == EXACT.multiply(numerator, R)


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


Level = Tuple[Number, Number, Number]
# per arithmetic, the levels read so far in this process and the
# greedy_numbers iterator that extends them; see greedy_levels
_LEVELS: Dict[Callable[[int], Number],
              Tuple[Tuple[Level, ...], Optional[Iterator[Level]]]] = {}


def greedy_levels(depth: int, number: Callable[[int], Number] = int) -> Tuple[Level, ...]:
    """The first ``depth`` terms (S_n, L_n, R_{n+1}) of ``greedy_numbers(number)``.

    Every reader of greedy numbers reads them here.  The process keeps one
    table per arithmetic, which holds the levels read so far and nothing
    else (no certificate, body or text: a level depends on its index
    alone), and extends it only as far as the deepest level asked for, so
    the recurrence runs at most once per arithmetic and process.  The
    entry is taken out while it is extended and put back whole, so a
    reader interrupted there, or a second thread, never finds a short or
    half-built table; at worst the recurrence runs again.
    """
    levels, numbers = _LEVELS.pop(number, ((), None))
    if depth > len(levels):
        numbers = numbers or greedy_numbers(number)
        levels += tuple(islice(numbers, depth - len(levels)))
    _LEVELS[number] = levels, numbers
    return levels[:depth]


def build_partition(depth: int) -> PartitionData:
    """Greedy partition of the given depth (number of intervals).

    It reads ``greedy_levels`` in each arithmetic only when its numbers are
    first read in it: ``int`` for the int fields, ``Decimal`` for the text
    and the checks.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return PartitionData._greedy(depth)


Check = Tuple[str, int, bool, Optional[Fraction]]  # condition, index, holds, slack


@record(frozen=True)
class PartitionReport:
    """What ``verify_partition`` found: whether every condition holds, and its rows.

    Data checked on its ints keeps its ``checks``, each slack the bound
    minus the attained value, exact.  Greedy data keeps its decimal
    ``replay`` instead, and ``to_json`` writes its rows from it by the lemma.
    """

    passed: bool
    checks: Tuple[Check, ...] = ()
    replay: Optional[Replay] = None

    def failures(self) -> Tuple[Check, ...]:
        return tuple(c for c in self.checks if not c[2])

    def to_json(self, rationals: Optional[Sequence[str]] = None) -> dict:
        """The rows; of greedy data, ``rationals`` are the texts '1/R_n' its body wrote, if any."""
        if self.replay is None:
            checks = [{"condition": name, "index": n, "holds": holds,
                       "slack": None if slack is None else rat_str(slack)}
                      for name, n, holds, slack in self.checks]
        else:
            checks = _greedy_rows(self.replay, rationals)
        return {"passed": self.passed, "checks": checks}


def _fraction_slacks(p: PartitionData) -> Tuple[List[Fraction], List[Fraction], List[Fraction]]:
    """Growth, decay and descending slacks for arbitrary positive rationals."""
    r = p.rationals
    growth = [r[n] * p.lengths[n] - p.prefix_size(n) for n in range(1, p.depth)]
    decay = [Fraction(1, 1 << (n + 1)) - r[n + 1] * p.lengths[n] for n in range(p.depth)]
    descending = [r[n] - r[n + 1] for n in range(len(r) - 1)]
    return growth, decay, descending


def _greedy_rows(replay: Replay, rationals: Optional[Sequence[str]]) -> List[dict]:
    """The rows of greedy data by ``verify_partition``'s lemma, every condition holding.

    Growth and decay slacks are 0/1 and the descending slack at 0 is 1/2;
    the one at n >= 1 is (k-1)/R_{n+1}, over the text of R_{n+1} that
    ``rationals`` already hold, or else written here.
    """
    S, _, R = replay
    depth = len(S)
    R_text = [r[2:] for r in rationals] if rationals is not None else [str(d) for d in R]
    rows = [{"condition": "base", "index": 0, "holds": True, "slack": None}]
    rows += [{"condition": "growth", "index": n, "holds": True, "slack": "0/1"}
             for n in range(1, depth)]
    rows += [{"condition": "decay", "index": n, "holds": True, "slack": "0/1"}
             for n in range(depth)]
    rows.append({"condition": "descending", "index": 0, "holds": True, "slack": "1/2"})
    for n in range(1, depth):  # k = 2^(n+1) S_n
        k_minus_1 = EXACT.subtract(EXACT.multiply(S[n], 1 << (n + 1)), 1)
        rows.append({"condition": "descending", "index": n, "holds": True,
                     "slack": f"{k_minus_1}/{R_text[n + 1]}"})
    return rows


def verify_partition(p: PartitionData) -> PartitionReport:
    """Exact per-condition verification with rational slack.

    On greedy data every condition holds, the growth and decay slacks are
    zero, and each descending slack at 1 <= n < depth is (k-1)/R_{n+1}
    with k = 2^(n+1) S_n, which is in lowest terms, so no gcd is taken.

    Proof.  For 1 <= j <= n the greedy identities give L_j = S_j R_j,
    R_{j+1} = 2^(j+1) L_j = 2^(j+1) S_j R_j and S_{j+1} = S_j + L_j =
    S_j (1 + R_j), with S_1 = 1 and R_1 = 2.  Hence R_{n+1} = k R_n, and
    r_n - r_{n+1} = 1/R_n - 1/R_{n+1} = (k-1)/R_{n+1}, with k - 1 >= 1
    because S_n >= S_1 = 1.  By induction R_n = 2^a * prod_{1<=j<n} S_j for
    some a >= 1, and each S_j with j <= n divides S_n.  Now k - 1 is odd
    (k is even), and k - 1 = -1 (mod S_j) for every j <= n, so gcd(k-1, R_n) = 1; and
    gcd(k-1, k) = 1.  So gcd(k-1, R_{n+1}) = gcd(k-1, k R_n) = 1.

    Greedy data has the shape, the base, contiguous non-empty intervals and
    unit rationals by those identities, so verifying it reads its decimal
    replay and writes nothing: its report holds the replay, and its rows
    (``_greedy_rows``) are written only by ``to_json``, with no
    ``Fraction``, comparison or record per condition.  Their texts are
    0/1 for growth and decay, 1/2, and (k-1)/R_{n+1}, where the report of a
    body that wrote ``p.to_json()`` reuses that text of R_{n+1}.  Any other
    data is checked on its ints, by ``Fraction`` arithmetic
    (``_fraction_slacks``), whatever its rationals, and written by ``rat_str``.
    """
    if p.greedy:
        return PartitionReport(True, replay=p.decimal_replay)
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

    growth, decay, descending = _fraction_slacks(p)
    # condition (3): I_0 = {0}, r_0 = 1
    checks: List[Check] = [("base", 0, p.lengths[0] == 1 and p.rationals[0] == 1, None)]
    # condition (1): |I_<n| <= r_n |I_n|
    checks += [("growth", n, slack >= 0, slack) for n, slack in enumerate(growth, 1)]
    # condition (2): |I_n| r_{n+1} <= 2^{-n-1}
    checks += [("decay", n, slack >= 0, slack) for n, slack in enumerate(decay)]
    # strictly descending rationals
    checks += [("descending", n, slack > 0, slack) for n, slack in enumerate(descending)]
    return PartitionReport(all(c[2] for c in checks), tuple(checks))


@record(frozen=True)
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


def degenerate_weight_below_last_point(depth: int) -> Tuple[str, str, bool]:
    """The full-selector weight of [0, e) on the greedy partition of ``depth``.

    Here e = ``coverage_end`` - 1.  Returns the text of e, the weight's text
    in lowest terms and whether the weight is below 1, all read off the
    decimal replay: no int is made and no ``Fraction`` summed.  Each full
    interval I_n (n < d-1) weighs r_{n+1} L_n = 2^-(n+1) by tight decay, and
    the L_{d-1} - 1 points of I_{d-1} below e weigh r_d = 1/R_d each, with
    R_d = 2^d L_{d-1}; so ``degenerate_prefix_weight(p, e)`` is
      1 - 2^-(d-1) + (L_{d-1} - 1)/R_d = ((2^d - 1) L_{d-1} - 1)/R_d.
    For d >= 2 this is in lowest terms: its numerator is odd, as L_{d-1} =
    S_{d-1} R_{d-1} is even, and is -1 mod L_{d-1}.  At d = 1 it is 0/2,
    written 0/1.
    """
    S, L, R = build_partition(depth).decimal_replay
    numerator = EXACT.subtract(EXACT.multiply(L[-1], (1 << depth) - 1), 1)
    points = str(EXACT.subtract(EXACT.add(S[-1], L[-1]), 1))
    weight = f"{numerator}/{R[depth]}" if numerator else "0/1"
    return points, weight, numerator < R[depth]


# -- certificate bodies: partition, weight-bound, pigeonhole ---------------------

def _partition(depth: int) -> dict:
    p = build_partition(depth)
    partition = p.to_json()
    # the report's denominators R_n are the texts the partition just wrote
    return {"partition": partition, "report": verify_partition(p).to_json(partition["rationals"])}


def _weight_bound(depth: int) -> dict:
    points_summed, total_weight, below_one = degenerate_weight_below_last_point(depth)
    return {
        "depth": depth,
        "points_summed": points_summed,
        "total_weight": total_weight,
        "below_one": below_one,
    }


# the most colour draws a pigeonhole certificate may make: samples * |I_interval|
PIGEONHOLE_DRAWS = 250_000


def _pigeonhole(depth: int, samples: int, interval: int, rng: random.Random) -> dict:
    """The least largest colour class of I_interval over random 3-colourings.

    Each member draws its colour: bottom, a label drawn below I_interval,
    or itself as label.  The largest class of a sample is its most frequent
    colour, so only the three counts are kept; the label draw of colour 1
    stays in the stream, which fixes the bytes of every later draw.  Levels
    0 .. interval are those of every greedy partition deeper than
    ``interval``, so ``build_partition(interval + 1)`` holds them whatever
    ``depth`` is.
    """
    from .sets import Progression

    if interval >= depth:
        raise SchemaError(f"interval {interval} must be below depth {depth}")
    # |I_n| grows with n, so the first length past the bound decides; the
    # levels are read one at a time, so no level past it is built
    for n in range(interval + 1):
        _, length, _ = greedy_levels(n + 1)[n]
        if samples * length > PIGEONHOLE_DRAWS:
            raise SchemaError(f"pigeonhole inputs: samples * |I_interval| must be at most "
                              f"{PIGEONHOLE_DRAWS}, and {samples} samples of I_{interval} exceed it")
    p = build_partition(interval + 1)
    start, length = p.starts[interval], p.lengths[interval]
    min_block = length
    for _ in range(samples):
        counts = [0, 0, 0]
        for _ in range(length):
            colour = rng.randrange(3)
            counts[colour] += 1
            if colour == 1:
                rng.randrange(start)
        min_block = min(min_block, max(counts))
    # even interval indices stay off the selector
    worst_weight = selector_weight(Progression(1, 2), p, interval) * min_block
    need = -(-length // 3)
    return {
        "samples": samples,
        "interval": interval,
        "interval_size": length,
        "required_block": need,
        "min_block": min_block,
        "block_bound_holds": min_block >= need,
        "worst_weight": rat_str(worst_weight),
        "weight_bound_holds": worst_weight >= Fraction(1, 3),
    }
