"""Exact helpers over finite sets of naturals, on the standard library alone: the
engines import them from here, and ``ideals``, ``sets`` and ``ramsey`` re-export them."""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, Optional, Sequence, Tuple


def _sum_pairs(pairs: Sequence[Tuple[int, int]], lo: int = 0, hi: Optional[int] = None) -> Tuple[int, int]:
    """Unreduced sum of the fractions P/Q in ``pairs[lo:hi]``.

    Binary splitting: halves combine as (P1*Q2 + P2*Q1, Q1*Q2), so Q is
    the product of the denominators and every product is balanced.
    """
    if hi is None:
        hi = len(pairs)
    if hi - lo <= 16:
        p, q = 0, 1
        for j in range(lo, hi):
            a, b = pairs[j]
            p, q = p * b + a * q, q * b
        return p, q
    mid = (lo + hi) // 2
    p1, q1 = _sum_pairs(pairs, lo, mid)
    p2, q2 = _sum_pairs(pairs, mid, hi)
    return p1 * q2 + p2 * q1, q1 * q2


def diff_multiplicity(a: Iterable[int]) -> Dict[int, int]:
    """Multiplicity table of positive differences over a finite set."""
    members = sorted(set(a))
    table: Dict[int, int] = {}
    for x, y in combinations(members, 2):
        table[y - x] = table.get(y - x, 0) + 1
    return table


def delta(b: Iterable[int]) -> Tuple[int, ...]:
    """Positive differences of distinct elements."""
    members = sorted(set(b))
    return tuple(sorted({y - x for x, y in combinations(members, 2)}))


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
