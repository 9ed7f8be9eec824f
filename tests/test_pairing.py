"""Pairing enumerations against independent generation oracles."""

from itertools import product

import pytest
from hypothesis import given, strategies as st

from idealbench import certify, pairing
from idealbench.cli import run
from idealbench.serialize import dump_json, mutate_one_field
from idealbench.pairing import (
    code_unordered,
    comparable,
    decode_unordered,
    is_prefix,
    pair_diag,
    unpair_diag,
)


def diagonal_enumeration(count):
    """Oracle: list ordered pairs by diagonals of constant sum, increasing in b."""
    out = []
    s = 0
    while len(out) < count:
        for b in range(s + 1):
            out.append((s - b, b))
        s += 1
    return out[:count]


def test_pair_diag_matches_diagonal_enumeration():
    oracle = diagonal_enumeration(500)
    for k, (i, b) in enumerate(oracle):
        assert pair_diag(i, b) == k
        assert unpair_diag(k) == (i, b)


@pytest.mark.parametrize(
    "i,b,expected", [(0, 0, 0), (1, 0, 1), (0, 1, 2), (1, 1, 4)]
)
def test_pair_diag_anchor_values(i, b, expected):
    assert pair_diag(i, b) == expected


@pytest.mark.parametrize("k,expected", [(0, (0, 0)), (4, (1, 1)), (5, (0, 2))])
def test_unpair_anchor_values(k, expected):
    assert unpair_diag(k) == expected


def test_pairing_exhaustive_properties():
    codes = {}
    for i in range(101):
        previous = None
        for b in range(101):
            k = pair_diag(i, b)
            assert b <= k
            if previous is not None:
                assert previous < k
            previous = k
            codes[k] = (i, b)
            assert unpair_diag(k) == (i, b)
    assert len(codes) == 101 * 101


@given(st.integers(0, 10**9))
def test_unpair_roundtrip(k):
    i, b = unpair_diag(k)
    assert pair_diag(i, b) == k


@pytest.mark.parametrize("k", [10**18, 10**30 - 1, 10**30, 3**77])
def test_inversions_hold_for_big_codes(k):
    i, b = unpair_diag(k)
    assert pair_diag(i, b) == k
    lo, hi = decode_unordered(k)
    assert code_unordered(lo, hi) == k


@pytest.mark.parametrize("pair,expected", [((0, 1), 0), ((1, 2), 2), ((0, 3), 3)])
def test_code_unordered_values(pair, expected):
    a, b = pair
    assert code_unordered(a, b) == expected
    assert code_unordered(b, a) == expected


def test_code_unordered_bijective_below_50():
    codes = {}
    for a in range(51):
        for b in range(a + 1, 51):
            k = code_unordered(a, b)
            assert k not in codes
            codes[k] = (a, b)
            assert decode_unordered(k) == (a, b)
    assert len(codes) == 51 * 50 // 2


def test_code_unordered_rejects_equal():
    with pytest.raises(ValueError):
        code_unordered(3, 3)


@given(st.integers(0, 10**6))
def test_decode_roundtrip(k):
    lo, hi = decode_unordered(k)
    assert lo < hi
    assert code_unordered(lo, hi) == k


@given(st.integers(2, 2**200))
def test_decode_at_column_edges_of_big_codes(h):
    # decode_unordered computes hi in closed form, with no correction: these
    # are the codes where an off-by-one hi would show
    c = h * (h - 1) // 2
    expected = {c - 1: (h - 2, h - 1), c: (0, h), c + h - 1: (h - 1, h), c + h: (0, h + 1)}
    for k, pair in expected.items():
        assert decode_unordered(k) == pair
        assert code_unordered(*pair) == k


def test_prefix_order():
    assert is_prefix((), (1, 2))
    assert is_prefix((1,), (1, 2))
    assert not is_prefix((2,), (1, 2))
    assert comparable((1,), (1, 2, 3))
    assert not comparable((1, 2), (1, 3))
    # reflexive, antisymmetric, transitive on a small sample
    strings = [(), (0,), (0, 1), (0, 1, 2), (1,), (1, 0)]
    for s in strings:
        assert is_prefix(s, s)
        for t in strings:
            if is_prefix(s, t) and is_prefix(t, s):
                assert s == t
            for u in strings:
                if is_prefix(s, t) and is_prefix(t, u):
                    assert is_prefix(s, u)


# -- the pairing certificate -------------------------------------------------------

def refuse_the_pairing_producer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the pairing checker ran producer code")

    monkeypatch.setattr(pairing, "_pairing", refuse)
    monkeypatch.setitem(certify._PRODUCERS, "pairing", refuse)


def pairing_certificate(bound, unordered_bound):
    return certify.produce("pairing", {"bound": bound, "unordered_bound": unordered_bound}, 0)


def test_the_pairing_checker_accepts_every_genuine_body_without_the_producer(monkeypatch):
    # every input up to 30, and the largest bound beside the smallest
    inputs = [*product(range(31), repeat=2), (500, 500), (0, 500), (500, 0)]
    certs = [pairing_certificate(bound, unordered_bound) for bound, unordered_bound in inputs]
    refuse_the_pairing_producer(monkeypatch)
    slot = certify._last
    for cert in certs:
        assert certify.recheck(cert) == (True, "certificate re-verified")
    assert certify._last is slot


@pytest.mark.parametrize("bound, unordered_bound", [(0, 0), (3, 1), (100, 50), (500, 500)])
def test_the_pairing_checker_alone_rejects_a_mutant_of_every_leaf(monkeypatch, bound,
                                                                  unordered_bound):
    cert = pairing_certificate(bound, unordered_bound)
    refuse_the_pairing_producer(monkeypatch)
    for field, leaf in cert["body"].items():
        body = {**cert["body"], field: mutate_one_field([leaf])[0][0]}
        passed, detail = certify.recheck({**cert, "body": body})
        assert not passed
        assert detail.startswith(f"check failed at $.body.{field}: "), detail
    assert len(cert["body"]) == 8


PAIRING_FIELDS = ["all_hold", "bound", "ordered_injective", "ordered_monotone",
                  "second_argument_dominated", "unordered_bound", "unordered_injective",
                  "unordered_symmetric"]


@pytest.mark.parametrize(
    "field, value",
    [("bound", "4"), ("bound", True), ("bound", 4.0), ("bound", 5),
     ("unordered_bound", None), ("unordered_bound", 2),
     ("ordered_injective", 1), ("ordered_monotone", "true"),
     ("second_argument_dominated", False), ("unordered_symmetric", None),
     ("unordered_injective", [True]), ("all_hold", 1.0), ("extra", True)],
    ids=["bound-a-string", "bound-a-bool", "bound-a-float", "bound-off-by-one",
         "unordered-bound-null", "unordered-bound-off-by-one", "injective-an-int",
         "monotone-a-string", "dominated-false", "symmetric-null", "unordered-injective-a-list",
         "all-hold-a-float", "a-stray-field"],
)
def test_cli_certify_fails_a_malformed_pairing_body_with_exit_1(tmp_path, capsys, field,
                                                                value):
    cert = pairing_certificate(4, 3)
    cert["body"][field] = value
    src = tmp_path / "certificate.json"
    dump_json(src, cert)
    assert run(["certify", "--in", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"check failed at $.body.{field}: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("field", PAIRING_FIELDS)
def test_cli_certify_fails_a_pairing_body_missing_a_field_with_exit_1(tmp_path, capsys, field):
    cert = pairing_certificate(4, 3)
    del cert["body"][field]
    src = tmp_path / "certificate.json"
    dump_json(src, cert)
    assert run(["certify", "--in", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"check failed at $.body.{field}: is missing\n"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("body", [[True], "all_hold", None], ids=["a-list", "a-string", "null"])
def test_cli_certify_fails_a_pairing_body_that_is_not_an_object(tmp_path, capsys, body):
    src = tmp_path / "certificate.json"
    dump_json(src, {**pairing_certificate(4, 3), "body": body})
    assert run(["certify", "--in", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("check failed at $.body: ")
    assert "Traceback" not in captured.err
