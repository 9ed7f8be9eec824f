"""Fixed enumerations of pairs and prefix order on finite strings.

Two bijections are fixed once and used everywhere:

* ``pair_diag`` enumerates ordered pairs by diagonals of constant sum,
  increasing in the second coordinate.  For fixed ``i`` it is strictly
  increasing in ``b``, and ``b <= pair_diag(i, b)`` always holds; the
  diagonalization engines rely on both facts.
* ``code_unordered`` enumerates distinct unordered pairs via the
  combinatorial number system ``max*(max-1)/2 + min``.  It is O(1) both
  ways and symmetric in its arguments.
"""

from __future__ import annotations

from math import isqrt
from typing import Tuple


def pair_diag(i: int, b: int) -> int:
    """Diagonal pairing code of the ordered pair (i, b).

    With s = i + b and T_s = s(s+1)/2 the code is T_s + b, 0 <= b <= s.
    The diagonals' codes [T_s, T_s + s] tile the naturals, as
    T_{s+1} = T_s + s + 1, so distinct pairs get distinct codes (injective).
    For fixed i, raising b by one moves to diagonal s + 1 and adds
    (s + 1) + 1 > 0 (strictly increasing in b); and T_s >= 0 gives
    b <= T_s + b (the second argument is dominated).
    """
    if i < 0 or b < 0:
        raise ValueError("pair_diag expects naturals")
    s = i + b
    return s * (s + 1) // 2 + b


def unpair_diag(k: int) -> Tuple[int, int]:
    """Inverse of pair_diag.

    k = T_s + b with 0 <= b <= s lies in [T_s, T_{s+1}), so s is the
    largest with T_s <= k, that is (isqrt(8k + 1) - 1) // 2; then
    b = k - T_s and i = s - b.  So unpair_diag(pair_diag(i, b)) == (i, b)
    for all naturals i and b.
    """
    if k < 0:
        raise ValueError("unpair_diag expects a natural")
    # largest s with s(s+1)/2 <= k
    s = (isqrt(8 * k + 1) - 1) // 2
    b = k - s * (s + 1) // 2
    return s - b, b


def code_unordered(a: int, b: int) -> int:
    """Code of the unordered pair {a, b}, a != b.

    The code C(hi, 2) + lo, lo < hi, reads the pair only as the set
    {lo, hi}, so it is symmetric in a and b.  For fixed hi the codes fill
    [C(hi, 2), C(hi + 1, 2)), and these ranges tile the naturals, so
    distinct pairs get distinct codes (injective): the distinct pairs of
    0..u have exactly u(u + 1)/2 codes.
    """
    if a == b:
        raise ValueError("unordered pairs must have distinct members")
    if a < 0 or b < 0:
        raise ValueError("code_unordered expects naturals")
    hi, lo = (a, b) if a > b else (b, a)
    return hi * (hi - 1) // 2 + lo


def decode_unordered(k: int) -> Tuple[int, int]:
    """Inverse of code_unordered; returns (lo, hi)."""
    if k < 0:
        raise ValueError("decode_unordered expects a natural")
    # largest hi with hi(hi-1)/2 <= k
    hi = (isqrt(8 * k + 1) + 1) // 2
    while hi * (hi - 1) // 2 > k:
        hi -= 1
    lo = k - hi * (hi - 1) // 2
    if lo >= hi:  # k sits on the next column
        hi += 1
        lo = k - hi * (hi - 1) // 2
    return lo, hi


def is_prefix(shorter, longer) -> bool:
    """Prefix order on finite strings (tuples of naturals)."""
    return len(shorter) <= len(longer) and tuple(longer[: len(shorter)]) == tuple(shorter)


def comparable(s, t) -> bool:
    return is_prefix(s, t) or is_prefix(t, s)


def _pairing(bound: int, unordered_bound: int) -> dict:
    """The body of a ``pairing`` certificate: both codes checked on every pair up to the bounds."""
    codes = {}
    monotone = True
    dominates = True
    for i in range(bound + 1):
        prev = None
        for b in range(bound + 1):
            k = pair_diag(i, b)
            codes[k] = (i, b)
            if unpair_diag(k) != (i, b):
                raise AssertionError("pairing failed to invert")
            if prev is not None and not (prev < k):
                monotone = False
            if b > k:
                dominates = False
            prev = k
    injective = len(codes) == (bound + 1) ** 2
    ucodes = set()
    symmetric = True
    for a in range(unordered_bound + 1):
        for b in range(unordered_bound + 1):
            if a == b:
                continue
            if code_unordered(a, b) != code_unordered(b, a):
                symmetric = False
            ucodes.add(code_unordered(a, b))
    u_injective = len(ucodes) == (unordered_bound + 1) * unordered_bound // 2
    return {
        "bound": bound,
        "ordered_injective": injective,
        "ordered_monotone": monotone,
        "second_argument_dominated": dominates,
        "unordered_bound": unordered_bound,
        "unordered_symmetric": symmetric,
        "unordered_injective": u_injective,
        "all_hold": injective and monotone and dominates and symmetric and u_injective,
    }
