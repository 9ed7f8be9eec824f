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

import random
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .finite import (  # delta: also read as ramsey.delta
    ascending_tuples, delta, diff_multiplicity, subset_sums)
from .records import record

RAMSEY = "ramsey"
HINDMAN = "hindman"


@record(frozen=True)
class CanonicalForm:
    family: str
    case: int

    def __post_init__(self):
        if self.case not in CASES[self.family]:
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
# each family's case numbers, ascending
CASES = {family: tuple(case for case, _ in keys) for family, keys in _CASE_KEYS.items()}


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


def case_holds(f: Dict, domain: Iterable, family: str, case: int) -> bool:
    """Whether the biconditional of ``case`` alone holds on the finite domain."""
    dom = list(domain)
    keys, values = list(map(dict(_CASE_KEYS[family])[case], dom)), [f[x] for x in dom]
    return _biconditional(keys, len(set(keys)), values, len(set(values)))


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


def canonical_hindman_search(
    f: Dict, sum_bound: int, m: int
) -> Optional[Tuple[Tuple[int, ...], CanonicalForm]]:
    """Least block-disjoint tuple of length m with canonical sums below sum_bound.

    ``f`` maps every positive natural below sum_bound to a value.
    """
    if m < 1:
        raise ValueError("need at least one element")

    def fits(prefix: Tuple[int, ...], h: int) -> bool:
        # a tuple's largest sum is its total, which extending only raises
        return sum(prefix) + h < sum_bound and block_disjoint(prefix[-1:] + (h,))

    for h in ascending_tuples(m, 1, sum_bound, fits):
        form = classify_canonical(f, fs(h), HINDMAN)
        if form is not None:
            return h, form
    return None


# -- sparseness ------------------------------------------------------------------

@record(frozen=True)
class SparsenessReport:
    passed: bool
    bound: int
    violations: Tuple[Tuple[int, int], ...]  # (difference, multiplicity)


def eventually_sparse_check(a: Iterable[int], multiplicity_bound: int) -> SparsenessReport:
    """Check every difference multiplicity against a bound on this window."""
    table = diff_multiplicity(a)
    bad = tuple(sorted((d, c) for d, c in table.items() if c > multiplicity_bound))
    return SparsenessReport(passed=not bad, bound=multiplicity_bound, violations=bad)


# -- certificate bodies: sparseness, ramsey-oracle ---------------------------------

def _sparseness(universe: int, sizes: List[int]) -> dict:
    """Check that the difference image of every small family is not sparse.

    For each family A of ``size`` members of ``range(universe)`` this is
    ``eventually_sparse_check(delta(A), size - 3)`` together with the check
    that the difference ``shared`` of the two smallest members has
    multiplicity at least ``size - 2`` among the violations, computed on
    the bitmask ``D`` of ``delta(A)`` instead of tables: the multiplicity of
    ``d`` in the difference table of ``delta(A)`` is
    ``(D & (D >> d)).bit_count()`` (``ramsey.difference_mask``).  Only
    multiplicities >= 1 are ever tabulated, so the violations are the
    differences whose multiplicity exceeds ``floor = max(size - 3, 0)``.  At
    size 2 the image is a single difference: nothing is violated, yet
    ``0 >= size - 2`` witnesses it.

    The families are grown in lexicographic order one member at a time
    (``_family_tallies``), so each costs one shift-or on its prefix's masks
    and the multiplicity test; ``check_sparseness`` confirms the tallies
    without enumerating.
    """
    checked = failed = witnessed = 0
    for size in sizes:
        tallies = _family_tallies(universe, size)
        checked += tallies[0]
        failed += tallies[1]
        witnessed += tallies[2]
    return {
        "universe": universe,
        "sizes": list(sizes),
        "checked": checked,
        "failed_as_predicted": failed,
        "shared_difference_witnessed": witnessed,
        "all_fail": failed == checked,
        "all_witnessed": witnessed == checked,
    }


def _family_tallies(universe: int, size: int) -> Tuple[int, int, int]:
    """How many ``size``-member families of ``range(universe)`` were checked, failed and witnessed.

    A prefix ``a_0 < ... < a_j`` of a family carries its reversed member
    mask ``R`` (bit ``top - a`` per member, ``top = universe - 1``) and the
    bitmask ``D`` of its differences.  Adding ``b > a_j`` adds the
    differences ``b - a``, which are the bits of ``R >> (top - b)``: every
    bit ``top - a`` of ``R`` lies above ``top - b``, so the shift keeps it
    as bit ``b - a >= 1``.  So the grown family's masks are
    ``R | 1 << (top - b)`` and ``D | R >> (top - b)``.
    """
    top = universe - 1
    floor = max(size - 3, 0)
    need = size - 2
    differences = range(1, universe)

    # a prefix of ``count`` members, all below ``lo``: its masks ``R`` and ``D``, its
    # first member, and the gap ``shared`` to its second (0 until there is one)
    def grow(count: int, lo: int, members: int, diffs: int, shared: int, first: int):
        checked = failed = witnessed = 0
        if count < size - 1:
            for a in range(lo, universe - (size - 1 - count)):
                tallies = grow(count + 1, a + 1, members | 1 << (top - a),
                               diffs | members >> (top - a),
                               a - first if count == 1 else shared, a if count == 0 else first)
                checked += tallies[0]
                failed += tallies[1]
                witnessed += tallies[2]
            return checked, failed, witnessed
        for b in range(lo, universe):
            grown = diffs | members >> (top - b)
            # the two smallest members anchor size-2 pairs sharing one difference
            m = (grown & (grown >> (shared or b - first))).bit_count()
            if m > floor or any((grown & (grown >> d)).bit_count() > floor for d in differences):
                failed += 1
            if (m if m > floor else 0) >= need:
                witnessed += 1
        return len(range(lo, universe)), failed, witnessed

    return grow(0, 0, 0, 0, 0, 0)


def _partitions_rgs(count: int) -> Iterator[Tuple[int, ...]]:
    """All restricted-growth strings of the given length, in lexicographic order.

    The next string raises the last value that is at most the largest value
    before it and resets the values after it to 0.
    """
    string = [0] * count
    tops = [0] * count  # tops[k]: the largest of string[:k + 1]
    while True:
        yield tuple(string)
        k = count - 1
        while k > 0 and string[k] > tops[k - 1]:
            k -= 1
        if k <= 0:
            return
        string[k] += 1
        tops[k] = top = max(tops[k - 1], string[k])
        for j in range(k + 1, count):
            string[j] = 0
            tops[j] = top


def _random_rgs(samples: int, length: int, rng: random.Random) -> Iterator[Tuple[int, ...]]:
    """``samples`` random restricted-growth strings of ``length``, made one at a time.

    Each value is drawn below ``bound = top + 2``, ``top`` the largest value
    so far in its string (-1 at the start): with ``k = bound.bit_length()``
    it is the first ``rng.getrandbits(k)`` that is below ``bound``.  That is
    how ``random.Random.randrange(bound)`` draws, so the strings and the
    state ``rng`` is left in are those of ``samples * length`` such calls.
    """
    getrandbits = rng.getrandbits
    for _ in range(samples):
        string = []
        bound = 1
        for _ in range(length):
            k = bound.bit_length()
            value = getrandbits(k)
            while value >= bound:
                value = getrandbits(k)
            string.append(value)
            if value == bound - 1:
                bound += 1
        yield tuple(string)


def _agreement(n: int, size: int, strings: Callable[[int], Iterable[tuple]]) -> Tuple[int, int]:
    """How many colourings were checked, and on how many the search and the oracle agree.

    Each colouring of K_n is a restricted-growth string of ``strings(edge
    count)``, read by both as the colour tuple by edge rank.
    """
    from .checkers import _oracle_domains, oracle_ramsey_search

    checked = agree = 0
    domains = _oracle_domains(n, size)
    for colours in strings(n * (n - 1) // 2):
        mine = canonical_ramsey_search(colours, n, size)
        oracle = oracle_ramsey_search(colours, domains)
        checked += 1
        if (None if mine is None else (mine[0], mine[1].case)) == oracle:
            agree += 1
    return checked, agree


def _ramsey_oracle(size: int, exhaustive_n: int, sample_n: int, samples: int,
                   rng: random.Random) -> dict:
    from .checkers import _oracle_domains, oracle_ramsey_search

    exhaustive_checked, exhaustive_agree = _agreement(exhaustive_n, size, _partitions_rgs)
    sample_checked, sample_agree = _agreement(
        sample_n, size, lambda count: _random_rgs(samples, count, rng)
    )
    minimal_n = None
    for n in range(size, 6):
        domains = _oracle_domains(n, size)
        if all(oracle_ramsey_search(colours, domains) is not None
               for colours in _partitions_rgs(n * (n - 1) // 2)):
            minimal_n = n
            break
    return {
        "size": size,
        "exhaustive_n": exhaustive_n,
        "exhaustive_checked": exhaustive_checked,
        "exhaustive_agree": exhaustive_agree,
        "sample_n": sample_n,
        "sample_checked": sample_checked,
        "sample_agree": sample_agree,
        "agreement": exhaustive_agree == exhaustive_checked
        and sample_agree == sample_checked,
        "minimal_n_for_size": minimal_n,
    }
