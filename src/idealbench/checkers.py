"""Checkers: code that confirms a certificate body without its producer.

A checker reads a body and the parsed inputs of its certificate and
raises ``CheckFailed`` at the first field they refute.  The brute-force
ramsey oracle lives here too: it is the independent side of the
``ramsey-oracle`` comparison.  This module imports only ``serialize`` and
the standard library, so no checker can share code with a producer.
"""

from __future__ import annotations

from decimal import Decimal
from itertools import combinations
from math import comb
from typing import Iterable, List, Tuple

from .serialize import EXACT, digit_run


class CheckFailed(Exception):
    """A checker refutes the body at ``path``."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"check failed at {path}: {reason}")


def _body_fields(body: object, fields: Iterable[str]) -> dict:
    """``body`` when it is an object with exactly ``fields``, else CheckFailed at the first stray."""
    if not isinstance(body, dict):
        raise CheckFailed("$.body", "is not an object")
    stray = sorted(set(fields) ^ body.keys())
    if stray:
        raise CheckFailed(f"$.body.{stray[0]}",
                          "is not a field" if stray[0] in body else "is missing")
    return body


# primes below 10^19, libmpdec's word radix, so that the residue of a Decimal
# is one short division
_RESIDUE_PRIMES = (10**19 - 39, 10**19 - 57, 10**19 - 81)


def _greedy_residues(depth: int, q: int) -> Tuple[int, int, int]:
    """S_{d-1}, L_{d-1} and R_d of the greedy partition of ``depth`` modulo ``q``."""
    S, L, R = 0, 1, 2
    for n in range(1, depth):
        S = (S + L) % q
        L = S * R % q
        R = (L << (n + 1)) % q
    return S, L, R


def _natural(text, path: str) -> Decimal:
    """``text`` as an exact Decimal when it is an unsigned run of ASCII digits."""
    if not (isinstance(text, str) and text[:1] not in ("+", "-") and digit_run(text)):
        raise CheckFailed(path, "is not a run of decimal digits")
    return Decimal(text)


def check_weight_bound(body: object, depth: int) -> None:
    """Confirm a weight-bound body from its own numbers, or raise CheckFailed.

    With N/D the weight and d >= 2, the closed form is N = (2^d - 1) L_{d-1} - 1
    and D = R_d = 2^d L_{d-1} (``degenerate_weight_below_last_point``), so D
    is divisible by 2^d and N = (2^d - 1) D/2^d - 1, both checked exactly
    (N on its text: writing N costs less than reading it); at d = 1 the
    weight is 0/1.  ``below_one`` must be N < D.  That D is R_d
    (and so D/2^d is L_{d-1}) and ``points_summed`` is S_{d-1} + L_{d-1} - 1
    is checked modulo each of ``_RESIDUE_PRIMES``, against the greedy
    recurrence run in small ints.
    """
    body = _body_fields(body, ("below_one", "depth", "points_summed", "total_weight"))
    if type(body["depth"]) is not int or body["depth"] != depth:
        raise CheckFailed("$.body.depth", f"is not the input depth {depth}")
    points = _natural(body["points_summed"], "$.body.points_summed")
    weight = body["total_weight"]
    if not isinstance(weight, str):
        raise CheckFailed("$.body.total_weight", "is not a 'p/q' text")
    numerator, _, denominator = weight.partition("/")  # no '/': no denominator digits
    D = _natural(denominator, "$.body.total_weight")
    if depth == 1:
        if weight != "0/1":
            raise CheckFailed("$.body.total_weight", "is not 0/1 at depth 1")
        N = Decimal(0)
    else:
        L, rest = EXACT.divmod(D, 1 << depth)
        if rest:
            raise CheckFailed("$.body.total_weight",
                              f"has a denominator not divisible by 2^{depth}")
        N = EXACT.subtract(EXACT.multiply(L, (1 << depth) - 1), 1)
        if numerator != str(N):
            raise CheckFailed("$.body.total_weight", f"is not ((2^{depth} - 1) D/2^{depth} - 1)/D")
    if type(body["below_one"]) is not bool or body["below_one"] != (N < D):
        raise CheckFailed("$.body.below_one", f"is not {N < D}")
    for q in _RESIDUE_PRIMES:
        S, L, R = _greedy_residues(depth, q)
        if depth > 1 and EXACT.remainder(D, q) != R:
            raise CheckFailed("$.body.total_weight", f"has a denominator other than R_{depth}")
        if EXACT.remainder(points, q) != (S + L - 1) % q:
            raise CheckFailed("$.body.points_summed",
                              f"is not S_{depth - 1} + L_{depth - 1} - 1")


def check_sparseness(body: object, universe: int, sizes: List[int]) -> None:
    """Confirm a sparseness body from the inputs alone, or raise CheckFailed.

    The tallies have a closed form.  Let A = {a_0 < ... < a_{s-1}} and
    d = a_1 - a_0.  For each j >= 2 both a_j - a_1 and a_j - a_0 are in
    delta(A), and they differ by d; the s - 2 pairs (a_j - a_1, a_j - a_0)
    are distinct, so d has multiplicity at least s - 2 in the difference
    table of delta(A).  For s >= 3 that exceeds the bound s - 3, so every
    family fails and d witnesses it.  At s = 2, delta(A) = {d} has an empty
    difference table: nothing fails, and the multiplicity 0 >= s - 2 still
    witnesses.  So ``checked`` and ``shared_difference_witnessed`` are
    Σ C(universe, s) over the sizes, ``failed_as_predicted`` is that sum
    over the sizes s >= 3 only, ``all_fail`` is whether the two sums are
    equal, and ``all_witnessed`` is true.  ``universe`` and ``sizes`` echo
    the inputs.
    """
    body = _body_fields(body, ("all_fail", "all_witnessed", "checked", "failed_as_predicted",
                               "shared_difference_witnessed", "sizes", "universe"))
    checked = sum(comb(universe, size) for size in sizes)
    failed = sum(comb(universe, size) for size in sizes if size >= 3)
    if type(body["universe"]) is not int or body["universe"] != universe:
        raise CheckFailed("$.body.universe", f"is not the input universe {universe}")
    echoed = body["sizes"]
    if not isinstance(echoed, list) or len(echoed) != len(sizes):
        raise CheckFailed("$.body.sizes", f"is not the input sizes {sizes}")
    for i, (got, size) in enumerate(zip(echoed, sizes)):
        if type(got) is not int or got != size:
            raise CheckFailed(f"$.body.sizes[{i}]", f"is not the input size {size}")
    for field, value in (("checked", checked), ("failed_as_predicted", failed),
                         ("shared_difference_witnessed", checked),
                         ("all_fail", failed == checked), ("all_witnessed", True)):
        if type(body[field]) is not type(value) or body[field] != value:
            raise CheckFailed(f"$.body.{field}", f"is not {value}")


# -- independent brute-force oracle for the canonical pair search ---------------

# a domain: T in [n] of size m, the edge ranks (i, j) of each two of its
# pairs, and per case 1-4 whether that case's key is equal on those two pairs
Domain = Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], Tuple[Tuple[bool, ...], ...]]

# each case's key on a pair (a, b) with a < b: none, the least point, the
# greatest point, the pair
_ORACLE_KEYS = (lambda pair: 0, lambda pair: pair[0], lambda pair: pair[1], lambda pair: pair)


def _oracle_domains(n: int, m: int) -> List[Domain]:
    """Each T in [n] of size m with its pairs of pairs, in the order the oracle tries them.

    Edge ranks are indices into ``combinations(range(n), 2)``, the order in
    which a restricted-growth string colours the edges.
    """
    rank = {pair: k for k, pair in enumerate(combinations(range(n), 2))}
    domains = []
    for t in combinations(range(n), m):
        twos = list(combinations(combinations(t, 2), 2))
        domains.append((t, tuple((rank[x], rank[y]) for x, y in twos),
                        tuple(tuple(key(x) == key(y) for x, y in twos) for key in _ORACLE_KEYS)))
    return domains


def oracle_ramsey_search(colours: tuple, domains: List[Domain]):
    """The first ``(t, case)`` of ``_oracle_domains(n, m)`` whose case holds on ``colours``.

    ``colours`` holds each edge's colour by rank.  A case holds when every
    two pairs of T have equal colours exactly when the case expects it.
    """
    for t, ranks, expected in domains:
        same = tuple([colours[i] == colours[j] for i, j in ranks])
        for case, expect in enumerate(expected, 1):
            if same == expect:
                return t, case
    return None
