"""Finite-sums algebra and exhaustive canonical-form searches.

The canonical forms are the rigid shapes a colouring can take on a
structured domain: for pair colourings the four cases constant / min /
max / injective, and for colourings of finite sums over a block-disjoint
ground sequence the five cases constant / min-support / max-support /
min-and-max-support / injective.  A case holds on a finite domain when
f(x) = f(y) exactly when key(x) = key(y) for all x, y, with the case's key
(0, the least or greatest vertex or support element, both, or x itself).
That biconditional is tested in one pass: it holds exactly when keys and
values correspond one to one, i.e. when the domain has as many distinct
keys as distinct values and as distinct (key, value) pairs, since equal
counts make key -> value and value -> key both functions.  Cases are
tested in ascending order and ``classify_canonical`` stops at the first
that holds, so when several hold at once (possible on tiny domains) the
smallest case number wins and the answer is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .ideals import diff_multiplicity
from .sets import subset_sums

RAMSEY = "ramsey"
HINDMAN = "hindman"

_CASE_RANGE = {RAMSEY: (1, 2, 3, 4), HINDMAN: (1, 2, 3, 4, 5)}


@dataclass(frozen=True)
class CanonicalForm:
    family: str
    case: int

    def __post_init__(self):
        if self.case not in _CASE_RANGE[self.family]:
            raise ValueError(f"case {self.case} outside {self.family} range")


def fs(a: Iterable[int]) -> Tuple[int, ...]:
    """All non-empty sums of distinct elements, deduplicated and sorted."""
    seq = list(a)
    members = sorted(set(seq))
    if len(members) != len(seq):
        raise ValueError("finite-sum input must have distinct elements")
    if any(x < 0 for x in members):
        raise ValueError("finite-sum input must be naturals")
    return subset_sums(tuple(members))


def support(x: int) -> Tuple[int, ...]:
    """Unique powers-of-two decomposition of a positive natural."""
    if x < 1:
        raise ValueError("support is defined for positive naturals")
    out = []
    bit = 1
    while x:
        if x & 1:
            out.append(bit)
        x >>= 1
        bit <<= 1
    return tuple(out)


def min_support(x: int) -> int:
    """Least element of support(x): the lowest set bit."""
    if x < 1:
        raise ValueError("support is defined for positive naturals")
    return x & -x


def max_support(x: int) -> int:
    """Greatest element of support(x): the highest set bit."""
    if x < 1:
        raise ValueError("support is defined for positive naturals")
    return 1 << (x.bit_length() - 1)


def delta(b: Iterable[int]) -> Tuple[int, ...]:
    """Positive differences of distinct elements."""
    members = sorted(set(b))
    return tuple(sorted({y - x for x, y in combinations(members, 2)}))


def difference_mask(family: Iterable[int]) -> int:
    """Bitmask of ``delta(family)`` for a finite family of naturals.

    With ``M = sum(1 << a for a in A)``, ``M >> a`` has bit ``k`` set exactly
    when ``a + k`` is in ``A``, so ``D = OR of M >> a over a in A`` with bit 0
    cleared has bit ``d`` set exactly when ``d`` is a positive difference of
    ``A``.  Applied once more, the same identity counts the multiplicity of
    ``d`` in the difference table of ``delta(A)``: it is the number of ``x``
    with both ``x`` and ``x + d`` in the image, i.e.
    ``(D & (D >> d)).bit_count()``.  A negative member raises ``ValueError``.
    """
    members = tuple(family)
    mask = 0
    for a in members:
        mask |= 1 << a
    diffs = 0
    for a in members:
        diffs |= mask >> a
    return diffs & ~1


def block_disjoint(h: Sequence[int]) -> bool:
    """Whether consecutive supports are fully separated."""
    seq = list(h)
    if any(x < 1 for x in seq):
        raise ValueError("block disjointness needs positive entries")
    for cur, nxt in zip(seq, seq[1:]):
        if max_support(cur) >= min_support(nxt):
            return False
    return True


# -- canonical-form classification ----------------------------------------

# (case, key) in ascending case order
_CASE_KEYS = {
    RAMSEY: ((1, lambda x: 0), (2, min), (3, max), (4, lambda x: x)),
    HINDMAN: (
        (1, lambda x: 0),
        (2, min_support),
        (3, max_support),
        (4, lambda x: (min_support(x), max_support(x))),
        (5, lambda x: x),
    ),
}


def _biconditional(keys: Sequence, key_count: int, values: Sequence, value_count: int) -> bool:
    """Whether ``values[i] == values[j]`` exactly when ``keys[i] == keys[j]``.

    ``key_count`` and ``value_count`` are the numbers of distinct keys and
    values; the pairs are only counted when those agree.
    """
    return key_count == value_count == len(set(zip(keys, values)))


def _holding_cases(f: Dict, domain: Iterable, family: str) -> Iterator[int]:
    """Each case whose biconditional holds on the domain, in ascending order."""
    dom = list(domain)
    values = [f[x] for x in dom]
    distinct = len(set(values))
    for case, key in _CASE_KEYS[family]:
        keys = list(map(key, dom))
        if _biconditional(keys, len(set(keys)), values, distinct):
            yield case


def matching_cases(f: Dict, domain: Iterable, family: str) -> List[int]:
    """Every case whose biconditional holds on the finite domain."""
    return list(_holding_cases(f, domain, family))


def classify_canonical(f: Dict, domain: Iterable, family: str) -> Optional[CanonicalForm]:
    """The matching canonical case, smallest case number on ties."""
    case = next(_holding_cases(f, domain, family), None)
    if case is None:
        return None
    return CanonicalForm(family, case)


# the search tables of [n] for n <= _TABLE_N are kept: they hold no colouring
# data, and the 45 of them (m <= n) have fewer than 3,000 pairs together
_TABLE_N = 8


def _edge_rank(n: int, a: int, b: int) -> int:
    """The index of the pair ``a < b`` in ``combinations(range(n), 2)``."""
    return a * (2 * n - a - 1) // 2 + b - a - 1


def _colours_at(ranks: Tuple[int, ...]) -> Callable[[Sequence], tuple]:
    """The tuple of a colour sequence's entries at ``ranks``."""
    if len(ranks) > 1:
        return itemgetter(*ranks)
    return lambda colours: tuple(colours[k] for k in ranks)


def _pair_row(n: int, t: Tuple[int, ...]):
    """``t``, its pairs' colours, and its pair cases in order, grouped by distinct-key count.

    A case can only hold when its keys take as many distinct values as the
    colours do, so the search tries only the cases of that count.
    """
    pairs = tuple(combinations(t, 2))
    domain = tuple(map(frozenset, pairs))
    by_count: Dict[int, list] = {}
    for case, key in _CASE_KEYS[RAMSEY]:
        keys = tuple(map(key, domain))
        by_count.setdefault(len(set(keys)), []).append((CanonicalForm(RAMSEY, case), keys))
    return t, _colours_at(tuple(_edge_rank(n, a, b) for a, b in pairs)), by_count


@lru_cache(maxsize=None)
def _pair_table(n: int, m: int):
    """The rows of every T in [n] of size m, in search order."""
    return tuple(_pair_row(n, t) for t in combinations(range(n), m))


def canonical_ramsey_search(
    f: Union[tuple, Dict], n: int, m: int
) -> Optional[Tuple[Tuple[int, ...], CanonicalForm]]:
    """Least T in [n] of size m whose pair restriction is canonical.

    ``f`` is the colouring as a tuple of colours by edge rank, the colour
    of the ``k``-th pair of ``combinations(range(n), 2)`` at index ``k``
    (a restricted-growth string is one), or as a mapping from frozenset
    pairs of [n] to values, total there, which is read into that tuple
    once.  Each T's pair ranks and case keys come from a table of [n]; a
    colouring costs one ``itemgetter`` call per T and one biconditional
    per case whose key count equals T's colour count, the same answer as
    ``classify_canonical`` on that domain.
    """
    if m > n:
        return None
    if not isinstance(f, tuple):
        f = tuple(f[frozenset(pair)] for pair in combinations(range(n), 2))
    if n <= _TABLE_N:
        rows = _pair_table(n, m)
    else:
        rows = (_pair_row(n, t) for t in combinations(range(n), m))
    for t, colours_of, by_count in rows:
        values = colours_of(f)
        distinct = len(set(values))
        for form, keys in by_count.get(distinct, ()):
            if len(set(zip(keys, values))) == distinct:
                return t, form
    return None


def _block_disjoint_tuples(length: int, bound: int):
    """Ascending block-disjoint tuples with all entries below bound, lex order."""

    def extend(prefix: Tuple[int, ...], lo: int):
        if len(prefix) == length:
            yield prefix
            return
        for h in range(lo, bound):
            if not prefix or max_support(prefix[-1]) < min_support(h):
                yield from extend(prefix + (h,), h + 1)

    yield from extend((), 1)


def canonical_hindman_search(
    f: Dict, sum_bound: int, m: int
) -> Optional[Tuple[Tuple[int, ...], CanonicalForm]]:
    """Least block-disjoint tuple of length m with canonical sums below sum_bound.

    ``f`` maps every positive natural below sum_bound to a value.
    """
    if m < 1:
        raise ValueError("need at least one element")
    for h in _block_disjoint_tuples(m, sum_bound):
        if sum(h) >= sum_bound:
            continue
        domain = list(fs(h))
        if domain[-1] >= sum_bound:
            continue
        form = classify_canonical(f, domain, HINDMAN)
        if form is not None:
            return h, form
    return None


# -- sparseness ------------------------------------------------------------------

@dataclass(frozen=True)
class SparsenessReport:
    passed: bool
    bound: int
    violations: Tuple[Tuple[int, int], ...]  # (difference, multiplicity)


def eventually_sparse_check(a: Iterable[int], multiplicity_bound: int) -> SparsenessReport:
    """Check every difference multiplicity against a bound on this window."""
    table = diff_multiplicity(a)
    bad = tuple(sorted((d, c) for d, c in table.items() if c > multiplicity_bound))
    return SparsenessReport(passed=not bad, bound=multiplicity_bound, violations=bad)
