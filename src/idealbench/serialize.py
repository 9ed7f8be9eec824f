"""Structured-text serialization shared by scenario and certificate files.

All rationals travel as decimal-free "numerator/denominator" strings, so
round-trips are lossless and diffs stay readable.  Canonical form is JSON
with sorted keys and fixed separators.  Certificates are compared by the
strict structural walk of ``diff_paths``, which on JSON-native documents
finds a difference exactly when their canonical bytes differ.

Partition data carries integers with hundreds of thousands of digits, and
CPython's own int/str conversions are quadratic in the digit count.
``int_str`` and ``int_parse`` convert such integers by divide and conquer,
the method CPython 3.12 adopted in ``Lib/_pylong.py``, and fall back to the
built-ins below ``PLAIN_DIGITS`` digits, where those are faster.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from typing import Any, List, Optional, Tuple, Union

from .errors import SchemaError

SCENARIO_SCHEMA = "scenario/1"
CERTIFICATE_SCHEMA = "certificate/1"

# the partition depths of ``construction``, here so that validating a depth
# loads no construction.  MAX_DEPTH is the largest depth built for a request (a
# certificate or scenario input, a descriptor, a command-line flag); the Decimal
# build there takes about 0.5 s on a 2-core x86-64 machine, and each level doubles it
DEFAULT_DEPTH = 12
MAX_DEPTH = 24


# Up to this many decimal digits the built-in str() and int() are used as
# they are; longer integers are split in halves down to pieces of about
# this size.
PLAIN_DIGITS = 10_000
_PLAIN_BITS = 33_219  # floor(PLAIN_DIGITS * log2(10))
# int_str's recursion converts pieces of at most this many bits to Decimal;
# on a million-digit integer this is about 15% faster than stopping at
# _PLAIN_BITS.
_DECIMAL_LEAF_BITS = 1024

# Exact decimal arithmetic on integers: unbounded precision and exponents,
# and any result that would be rounded raises Inexact instead.
EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def int_str(n: int) -> str:
    """``str(n)`` in time subquadratic in the number of digits."""
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    D = decimal.Decimal
    pow2 = {}  # w -> Decimal 2**w, per call: the split widths recur

    def two_to(w: int) -> decimal.Decimal:
        got = pow2.get(w)
        if got is None:
            if w <= _DECIMAL_LEAF_BITS:
                got = D(1 << w)
            elif w - 1 in pow2:
                got = pow2[w - 1] * 2
            else:
                half = w >> 1
                got = two_to(half) * two_to(w - half)
            pow2[w] = got
        return got

    def to_decimal(m: int, w: int) -> decimal.Decimal:
        # m >= 0 and m < 2**w
        if w <= _DECIMAL_LEAF_BITS:
            return D(m)
        half = w >> 1
        hi = m >> half
        lo = m - (hi << half)
        return to_decimal(lo, half) + to_decimal(hi, w - half) * two_to(half)

    with decimal.localcontext(EXACT):
        m = abs(n)
        digits = str(to_decimal(m, m.bit_length()))
    return "-" + digits if n < 0 else digits


def digit_run(s: str) -> bool:
    """Whether ``s`` is an optionally signed run of ASCII digits.

    These are the texts that ``int_parse`` splits, and the only ones that
    may be read as ``Decimal`` in its place: ``Decimal()`` also accepts
    exponents, points, NaN and Infinity, which ``int()`` refuses.
    """
    body = s[1:] if s[:1] in ("+", "-") else s
    # bytes.isdigit reads a table of the ASCII digits, str.isdigit a Unicode
    # one: about six times faster on the long texts of a partition file
    return body.isascii() and body.encode().isdigit()


def int_parse(s: str) -> int:
    """``int(s)`` in time subquadratic in the length of ``s``.

    Accepts and rejects exactly what ``int()`` does: only a ``digit_run``
    takes the split path, and everything else (underscores, whitespace,
    non-ASCII digits) goes to ``int()`` itself.
    """
    body = s[1:] if s[:1] in ("+", "-") else s
    if len(body) <= PLAIN_DIGITS or not digit_run(s):
        return int(s)
    pow5 = {}  # w -> 5**w, per call: the split widths recur

    def five_to(w: int) -> int:
        got = pow5.get(w)
        if got is None:
            if w <= PLAIN_DIGITS:
                got = 5**w
            elif w - 1 in pow5:
                got = pow5[w - 1] * 5
            else:
                half = w >> 1
                got = five_to(half) * five_to(w - half)
            pow5[w] = got
        return got

    def value(a: int, b: int) -> int:
        # the digits body[a:b]; 10**w == 5**w << w
        if b - a <= PLAIN_DIGITS:
            return int(body[a:b])
        mid = (a + b + 1) >> 1
        w = b - mid
        return value(mid, b) + ((value(a, mid) * five_to(w)) << w)

    n = value(0, len(body))
    return -n if s[0] == "-" else n


def rat_str(q: Union[Fraction, int]) -> str:
    """'p/q' in lowest terms; an ``int`` carries its own ``numerator`` and ``denominator`` 1."""
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def rat_parse(s: str) -> Fraction:
    if not isinstance(s, str) or "/" not in s:
        raise SchemaError(f"rational must be a 'p/q' string, got {s!r}")
    num, den = s.split("/", 1)
    try:
        return Fraction(int_parse(num), int_parse(den))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}: {exc}") from exc


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def canonical_bytes(obj: Any) -> bytes:
    return canonical_dumps(obj).encode("utf-8")


def load_json(path) -> Any:
    """The JSON document at ``path``; a SchemaError naming it if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def dump_json(path, obj: Any) -> None:
    """Write ``obj`` to ``path``; a SchemaError naming it if unwritable."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot write: {exc.strerror}") from exc


def check_assumptions(entries: Any, where: str) -> List[dict]:
    """Validate assumption lists: every stipulated fact must carry a tag."""
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise SchemaError(f"{where}: assumptions must be a list")
    out = []
    for e in entries:
        if not isinstance(e, dict) or "statement" not in e or "tag" not in e:
            raise SchemaError(f"{where}: assumption entries need 'tag' and 'statement'")
        if e["tag"] not in ("assumption", "derived"):
            raise SchemaError(f"{where}: assumption tag must be assumption|derived")
        if not isinstance(e["statement"], str):
            raise SchemaError(f"{where}: an assumption statement must be a string")
        out.append({"tag": e["tag"], "statement": e["statement"]})
    return out


def integer_field(
    obj: dict, key: str, default: Optional[int], where: str,
    minimum: Optional[int] = None, maximum: Optional[int] = None,
) -> int:
    """``obj[key]`` (or ``default`` when absent) as an integer; bools are not.

    With ``minimum`` or ``maximum``, an integer outside them is refused too,
    and an ``obj`` that is not an object is refused always.
    """
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    value = obj.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: {key} must be an integer")
    if minimum is not None and value < minimum:
        raise SchemaError(f"{where}: {key} must be at least {minimum}")
    if maximum is not None and value > maximum:
        raise SchemaError(f"{where}: {key} must be at most {maximum}")
    return value


def diff_paths(a: Any, b: Any, prefix: str = "$") -> Optional[str]:
    """First JSON path at which two documents differ, or None when they are equal.

    One strict structural walk: values of different types differ (``True``
    is not ``1``, a tuple is not a list), dict keys are visited in sorted
    order with a key present on one side only naming its path, a length
    difference names ``.length`` before any element, and leaves of one type
    are compared with ``==``.  On documents of JSON-native types only (dicts
    with str keys, lists, str, int, bool, None) the walk finds no difference
    exactly when their ``canonical_bytes`` are equal.  The path is built only
    on the way out of the first difference.
    """
    steps = _first_difference(a, b)
    return None if steps is None else prefix + "".join(reversed(steps))


_LEAF_TYPES = frozenset((str, int, bool, type(None)))


def _first_difference(a: Any, b: Any) -> Optional[List[str]]:
    """The path steps to the first difference of ``a`` and ``b``, innermost first; None if equal."""
    if type(a) is not type(b):
        return []
    if isinstance(a, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                return [f".{key}"]
            steps = _first_difference(a[key], b[key])
            if steps is not None:
                steps.append(f".{key}")
                return steps
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return [".length"]
        types = list(map(type, a))
        # a list of leaves whose types agree pairwise is decided by one C-level compare
        if _LEAF_TYPES.issuperset(types) and types == list(map(type, b)) and a == b:
            return None
        for i, (x, y) in enumerate(zip(a, b)):
            steps = _first_difference(x, y)
            if steps is not None:
                steps.append(f"[{i}]")
                return steps
        return None
    return None if a == b else []


def _is_rational_str(s: str) -> bool:
    return "/" in s and s.split("/", 1)[0].lstrip("-").isdigit()


def mutate_one_field(obj: Any) -> Tuple[Any, str]:
    """Return a deep copy with one leaf altered, plus the path touched.

    Used by integrity tests: a certified document must stop verifying after
    any single-field edit.  Rational strings are preferred targets, then
    integers, numeric strings, other strings, and booleans.  A document that
    is itself one such leaf comes back edited, with the path ``$``; one with
    no such leaf raises ValueError.
    """
    doc = json.loads(json.dumps(obj))
    leaves: List[Tuple[int, list, Any, str]] = []

    def walk(node, trail, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], trail + [key], f"{path}.{key}")
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, trail + [i], f"{path}[{i}]")
        elif isinstance(node, bool):
            leaves.append((4, trail, node, path))
        elif isinstance(node, int):
            leaves.append((1, trail, node, path))
        elif isinstance(node, str):
            if _is_rational_str(node):
                leaves.append((0, trail, node, path))
            elif node.lstrip("-").isdigit():
                leaves.append((2, trail, node, path))
            else:
                leaves.append((3, trail, node, path))

    walk(doc, [], "$")
    if not leaves:
        raise ValueError("document has no mutable leaf")
    rank, trail, value, path = min(leaves, key=lambda l: l[0])
    if rank == 0:
        num, den = value.split("/", 1)
        replacement: Any = f"{int_str(int_parse(num) + 1)}/{den}"
    elif rank == 1:
        replacement = value + 1
    elif rank == 2:
        replacement = int_str(int_parse(value) + 1)
    elif rank == 3:
        replacement = value + "~"
    else:
        replacement = not value
    if not trail:
        return replacement, path
    target = doc
    for step in trail[:-1]:
        target = target[step]
    target[trail[-1]] = replacement
    return doc, path
