"""Greedy partition data: exact conditions and weight behavior."""

import decimal
import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from idealbench import certify, checkers, construction
from idealbench.cli import run
from idealbench.construction import (
    PartitionData,
    _fraction_slacks,
    build_partition,
    degenerate_prefix_weight,
    interval_weight,
    verify_partition,
    weight_fn,
)
from idealbench.errors import HorizonExhausted, SchemaError, StructuralError
from idealbench.serialize import (
    EXACT,
    canonical_bytes,
    dump_json,
    int_parse,
    int_str,
    load_json,
    rat_parse,
    rat_str,
)
from idealbench.sets import Finite, Progression, full_set


def test_greedy_hand_run_depth_three():
    p = build_partition(3)
    assert p.starts == (0, 1, 3)
    assert p.lengths == (1, 2, 24)
    assert p.rationals == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 8),
        Fraction(1, 192),
    )
    # decay condition is tight at the last interval: 24 * 1/192 = 1/8
    assert p.lengths[2] * p.rationals[3] == Fraction(1, 8)


@pytest.mark.parametrize("depth", range(1, 13))
def test_builder_follows_the_greedy_rule_in_fractions(depth):
    # the rule as the module docstring states it, in Fraction arithmetic:
    # I_0 = {0}, r_0 = 1, L_n = ceil(S_n / r_n), r_{n+1} = min(r_n/2, 2^-(n+1)/L_n)
    starts, lengths, rationals = [], [], [Fraction(1)]
    covered = 0
    for n in range(depth):
        r = rationals[n]
        length = 1 if n == 0 else math.ceil(Fraction(covered) / r)
        starts.append(covered)
        lengths.append(length)
        covered += length
        rationals.append(min(r / 2, Fraction(1, 2 ** (n + 1)) / length))
    assert build_partition(depth) == PartitionData(tuple(starts), tuple(lengths),
                                                   tuple(rationals))


def test_greedy_depth_four_interval():
    p = build_partition(4)
    assert p.starts[3] == 27
    assert p.lengths[3] == 27 * 192
    assert p.rationals[4] == Fraction(1, 16 * 5184)


def independent_condition_check(p):
    """Conditions re-derived from scratch, not through verify_partition."""
    assert p.lengths[0] == 1 and p.starts[0] == 0 and p.rationals[0] == 1
    covered = 0
    for n in range(p.depth):
        assert p.starts[n] == covered
        covered += p.lengths[n]
        if n >= 1:
            assert Fraction(p.starts[n]) <= p.rationals[n] * p.lengths[n]
        assert p.lengths[n] * p.rationals[n + 1] <= Fraction(1, 2 ** (n + 1))
    for a, b in zip(p.rationals, p.rationals[1:]):
        assert a > b


@pytest.mark.parametrize("depth", [1, 2, 3, 5, 8, 12, 16])
def test_verify_matches_independent_check(depth):
    p = build_partition(depth)
    independent_condition_check(p)
    report = verify_partition(p)
    assert report.passed
    assert not report.failures()


def test_greedy_conditions_are_equality_tight():
    # the greedy rule spends no slack: growth holds with equality at every
    # index and decay with equality wherever the halving arm is not binding
    p = build_partition(10)
    report = verify_partition(p)
    by_check = {(r.name, r.index): r for r in report.reports}
    for n in range(1, p.depth):
        assert by_check[("growth", n)].slack == 0
    for n in range(p.depth):
        assert by_check[("decay", n)].slack == 0


def test_depth_one_is_vacuous():
    report = verify_partition(build_partition(1))
    assert report.passed


def test_tampered_rational_fails_decay_and_descent():
    p = build_partition(3)
    rationals = list(p.rationals)
    rationals[2] = Fraction(1)
    tampered = PartitionData(p.starts, p.lengths, tuple(rationals))
    report = verify_partition(tampered)
    assert not report.passed
    failing = {(r.name, r.index) for r in report.failures()}
    assert ("decay", 1) in failing       # 2 * 1 > 1/4
    assert ("descending", 1) in failing  # 1/2 < 1


def test_non_unit_rationals_take_the_fraction_path():
    p = PartitionData.from_json(
        {"starts": ["0", "1", "3"], "lengths": ["1", "2", "24"],
         "rationals": ["1/1", "2/3", "1/8", "1/192"]}
    )
    report = verify_partition(p).to_json()
    assert not report["passed"]
    got = [(c["condition"], c["index"], c["holds"], c["slack"]) for c in report["checks"]]
    assert got == [
        ("base", 0, True, None),
        ("growth", 1, True, "1/3"),
        ("growth", 2, True, "0/1"),
        ("decay", 0, False, "-1/6"),
        ("decay", 1, True, "0/1"),
        ("decay", 2, True, "0/1"),
        ("descending", 0, True, "1/3"),
        ("descending", 1, True, "13/24"),
        ("descending", 2, True, "23/192"),
    ]


def reference_partition_bytes(p):
    """``p.to_json()`` as plain ``int_str`` and ``rat_str`` write it."""
    return canonical_bytes({
        "depth": p.depth,
        "starts": [int_str(s) for s in p.starts],
        "lengths": [int_str(l) for l in p.lengths],
        "rationals": [rat_str(r) for r in p.rationals],
    })


def reference_report_bytes(p):
    """The report of ``verify_partition(p)`` from ``_fraction_slacks`` and ``rat_str``."""
    growth, decay, descending = _fraction_slacks(p)
    checks = [{"condition": "base", "index": 0, "slack": None,
               "holds": p.lengths[0] == 1 and p.rationals[0] == 1}]
    for name, first, slacks, strict in (("growth", 1, growth, False), ("decay", 0, decay, False),
                                        ("descending", 0, descending, True)):
        for n, slack in enumerate(slacks, first):
            holds = slack > 0 if strict else slack >= 0
            checks.append({"condition": name, "index": n, "holds": holds, "slack": rat_str(slack)})
    return canonical_bytes({"passed": all(c["holds"] for c in checks), "checks": checks})


def assert_matches_reference(p):
    assert canonical_bytes(p.to_json()) == reference_partition_bytes(p)
    # a document parses as the greedy partition or as plain ints, never a mix
    back = PartitionData.from_json(p.to_json())
    assert back.greedy == (p == build_partition(p.depth))
    assert canonical_bytes(back.to_json()) == reference_partition_bytes(p)
    if all(p.starts[n] == sum(p.lengths[:n]) for n in range(p.depth)):
        report = canonical_bytes(verify_partition(p).to_json())
        assert report == reference_report_bytes(p)
        assert canonical_bytes(verify_partition(back).to_json()) == report
    else:
        with pytest.raises(StructuralError):
            verify_partition(p)
        with pytest.raises(StructuralError):
            verify_partition(back)


# the identity a break offsets: the base (S_0, L_0, R_0 or R_1 by index mod
# 4), contiguity S_n = S_{n-1} + L_{n-1}, tight growth L_n = S_n R_n, tight
# decay R_{n+1} = 2^(n+1) L_n, or the unit numerator of r_n
BREAKS = ("base", "contiguity", "growth", "decay", "unit")


def greedy_with_breaks(depth, breaks):
    """Data built by the greedy identities, each (what, n, delta) offsetting one at n."""
    offset = {}
    base = [0, 1, 1, 2]
    for what, n, delta in breaks:
        if what == "base":
            base[n % 4] += delta
        else:
            key = (what, n % (depth + 1 if what == "unit" else depth))
            offset[key] = offset.get(key, 0) + delta
    S, L, R = [base[0]], [base[1]], base[2:]
    for n in range(1, depth):
        S.append(S[n - 1] + L[n - 1] + offset.get(("contiguity", n), 0))
        L.append(S[n] * R[n] + offset.get(("growth", n), 0))
        R.append((L[n] << (n + 1)) + offset.get(("decay", n), 0))
    rationals = tuple(Fraction(1 + offset.get(("unit", n), 0), R[n]) for n in range(depth + 1))
    return PartitionData(tuple(S), tuple(L), rationals)


@settings(deadline=None, max_examples=200)
@given(
    depth=st.integers(1, 9),
    breaks=st.lists(st.tuples(st.sampled_from(BREAKS), st.integers(0, 9), st.integers(1, 3)),
                    max_size=2),
)
@example(depth=9, breaks=[])
@example(depth=6, breaks=[("growth", 3, 1)])
@example(depth=6, breaks=[("contiguity", 2, 1)])
@example(depth=6, breaks=[("base", 3, 2)])
def test_replayed_text_and_reduced_slacks_match_plain_conversion(depth, breaks):
    # a break anywhere makes the whole document plain ints, although the
    # identities hold again past it; its texts and slacks take int_str and
    # the Fraction paths, and the bytes never change
    p = greedy_with_breaks(depth, breaks)
    if not breaks:
        assert p == build_partition(depth)
    assert_matches_reference(p)


def test_replace_with_an_edited_integer_emits_fresh_text():
    p = build_partition(8)
    p.to_json()
    verify_partition(p).to_json()  # fills p's replay
    lengths = list(p.lengths)
    lengths[5] += 1
    starts = p.starts[:6] + tuple(s + 1 for s in p.starts[6:])
    edited = PartitionData(starts, tuple(lengths), p.rationals)
    assert p.greedy and not edited.greedy
    assert edited.to_json()["lengths"][5] == str(lengths[5])
    assert_matches_reference(edited)
    rationals = list(p.rationals)
    rationals[3] = Fraction(1, rationals[3].denominator * 3)
    assert_matches_reference(PartitionData(p.starts, p.lengths, tuple(rationals)))


@pytest.mark.parametrize("depth", range(1, 20))
def test_weight_bound_texts_match_plain_conversion(depth):
    # the closed form against the exact Fraction sum; depth 1 sums 0/1,
    # which the closed form 0/2 does not match
    p = build_partition(depth)
    upto = p.coverage_end - 1
    body = certify.produce("weight-bound", {"depth": depth}, 0)["body"]
    assert body["points_summed"] == int_str(upto)
    assert body["total_weight"] == rat_str(degenerate_prefix_weight(p, upto))


def refuse_the_producer(monkeypatch):
    """Make every helper that builds or sums greedy numbers raise."""
    def refuse(*args):
        raise AssertionError("the weight-bound checker ran producer code")

    for module, name in [(construction, "greedy_numbers"), (construction, "greedy_levels"),
                         (construction, "build_partition"),
                         (construction, "degenerate_prefix_weight"),
                         (construction, "degenerate_weight_below_last_point"),
                         (certify, "produce")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(PartitionData, "decimal_replay", property(refuse))


def test_the_weight_bound_checker_accepts_every_genuine_body_without_the_producer(monkeypatch):
    bodies = {d: certify.produce("weight-bound", {"depth": d}, 0)["body"] for d in range(1, 20)}
    refuse_the_producer(monkeypatch)
    for depth, body in bodies.items():
        assert checkers.check_weight_bound(body, depth) is None


def plus_one(text):
    return str(EXACT.add(decimal.Decimal(text), 1))


def plus_one_in_weight(body, part):
    """``body`` with part 0 (numerator) or 1 (denominator) of its weight raised by 1."""
    texts = body["total_weight"].split("/")
    texts[part] = plus_one(texts[part])
    return {**body, "total_weight": "/".join(texts)}


# one mutant of each leaf of a weight-bound body
LEAF_MUTANTS = {
    "depth": lambda body: {**body, "depth": body["depth"] + 1},
    "points_summed": lambda body: {**body, "points_summed": plus_one(body["points_summed"])},
    "numerator": lambda body: plus_one_in_weight(body, 0),
    "denominator": lambda body: plus_one_in_weight(body, 1),
    "below_one": lambda body: {**body, "below_one": not body["below_one"]},
}


@pytest.mark.parametrize("depth", [1, 2, 12, 19])
def test_the_weight_bound_checker_alone_rejects_a_mutant_of_every_leaf(monkeypatch, depth):
    cert = certify.produce("weight-bound", {"depth": depth}, 0)
    refuse_the_producer(monkeypatch)
    for leaf, mutate in LEAF_MUTANTS.items():
        body = mutate(cert["body"])
        field = "total_weight" if leaf in ("numerator", "denominator") else leaf
        passed, detail = certify.recheck({**cert, "body": body})
        assert not passed
        assert detail.startswith(f"check failed at $.body.{field}: "), detail


@pytest.mark.parametrize(
    "field, value",
    [("points_summed", 21), ("points_summed", "2.5e1"), ("total_weight", "79"),
     ("total_weight", ["79", "192"]), ("total_weight", "79/192/1"), ("total_weight", "-79/192"),
     ("below_one", "true"), ("below_one", 1), ("depth", True), ("extra", 1)],
    ids=["points-an-int", "points-not-digits", "weight-not-p-q", "weight-a-list",
         "weight-two-slashes", "weight-signed", "below-one-a-string", "below-one-an-int",
         "depth-a-bool", "a-stray-field"],
)
def test_cli_certify_fails_a_malformed_weight_bound_body_with_exit_1(tmp_path, capsys, field,
                                                                      value):
    cert = certify.produce("weight-bound", {"depth": 3}, 0)
    cert["body"][field] = value
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"check failed at $.body.{field}: ")


@pytest.mark.parametrize("field", ["depth", "points_summed", "total_weight", "below_one"])
def test_cli_certify_fails_a_weight_bound_body_missing_a_field_with_exit_1(
    tmp_path, capsys, field
):
    cert = certify.produce("weight-bound", {"depth": 3}, 0)
    del cert["body"][field]
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 1
    assert capsys.readouterr().out == f"check failed at $.body.{field}: is missing\n"


def test_a_weight_bound_text_the_checker_admits_is_caught_by_the_recomputation():
    # the checker reads D only modulo three primes: D' = D + 2^d p1 p2 p3, with N'
    # written from D' by the closed form, passes it, and only the recomputation differs
    depth = 5
    cert = certify.produce("weight-bound", {"depth": depth}, 0)
    D = int(cert["body"]["total_weight"].split("/")[1])
    D += (1 << depth) * math.prod(checkers._RESIDUE_PRIMES)
    N = ((1 << depth) - 1) * D // (1 << depth) - 1
    body = {**cert["body"], "total_weight": f"{N}/{D}"}
    checkers.check_weight_bound(body, depth)
    assert certify.recheck({**cert, "body": body}) == (
        False, "recomputation differs at $.body.total_weight")


def test_the_weight_bound_checker_refuses_a_leading_zero(monkeypatch):
    # a leading zero writes the same number; the checker refuses it before any recomputation
    cert = certify.produce("weight-bound", {"depth": 5}, 0)
    numerator, denominator = cert["body"]["total_weight"].split("/")
    # "0" itself is canonical: depth 1 sums no point and weighs 0/1
    zero = certify.produce("weight-bound", {"depth": 1}, 0)
    assert (zero["body"]["points_summed"], zero["body"]["total_weight"]) == ("0", "0/1")
    refuse_the_producer(monkeypatch)
    for field, text in (("points_summed", "0" + cert["body"]["points_summed"]),
                        ("total_weight", f"0{numerator}/{denominator}"),
                        ("total_weight", f"{numerator}/0{denominator}")):
        passed, detail = certify.recheck({**cert, "body": {**cert["body"], field: text}})
        assert not passed
        assert detail.startswith(f"check failed at $.body.{field}: "), detail
    checkers.check_weight_bound(zero["body"], 1)


def test_tampered_report_bytes_are_pinned(tmp_path):
    # r_9 of a depth-17 partition moved off its greedy value: the document
    # is read as ints, and the report takes the gcd paths
    doc = build_partition(17).to_json()
    num, den = doc["rationals"][9].split("/")
    doc["rationals"][9] = f"{num}/{int_str(int_parse(den) + 1)}"
    src, out = tmp_path / "partition.json", tmp_path / "report.json"
    dump_json(src, doc)
    assert run(["verify-construction", "--in", str(src), "--out", str(out)]) == 1
    digest = hashlib.sha256(canonical_bytes(load_json(out))).hexdigest()
    assert digest == "52bc54205015a6e9567432b506dfd3ecb3ce85d256603ae7a74ea1f8ca776a54"


# sha256 of the canonical certificate bytes (seed 0) as plain str() writes
# them; depths 16 to 19 carry integers long enough for int_str to split,
# and 18 and 19 are the deepest that the benchmark's partition workload draws
PINNED_CERTIFICATES = {
    ("partition", 16): "fe0e61ba38752c8f891761d1f8ea080485bacd16057a2c0f62b712a89851449f",
    ("partition", 17): "c5e20ae0278265e6253b10ca9df62e6713ee9f536a566d60610c1fcb11a577d4",
    ("partition", 18): "589fbeec6af57f8ef7d8d590ac3a9f6863a78e9aff093f6fdab3d77798e8cb03",
    ("partition", 19): "53038c9f0ccadfc906d4055912424db29fb60e6a1fb040295c8febaf59b5de95",
    ("weight-bound", 16): "752157cbf2f829ea0c53b99b0360a22406f84481126ece7e67c87ce0a2e1163d",
    ("weight-bound", 17): "1397d3a1b9cb386e63f713f18cac440cb96550f035ab5fead32dc0789e2a527d",
    ("weight-bound", 18): "7e225a8e8a9385856d2dfb9e120581e04ece59a7a9a8930a143a24da01abadf7",
    ("weight-bound", 19): "4c8ce22cdd94e4b50782b3c6140e7805b9b2c6c4b9660da67e3322217fc3dab9",
}


@pytest.mark.parametrize("kind, depth", sorted(PINNED_CERTIFICATES))
def test_partition_certificate_bytes_are_pinned(kind, depth):
    cert = certify.produce(kind, {"depth": depth}, 0)
    digest = hashlib.sha256(canonical_bytes(cert)).hexdigest()
    assert digest == PINNED_CERTIFICATES[(kind, depth)]


# sha256 of the canonical pigeonhole certificate bytes per (depth, interval,
# samples, seed), as the per-sample table model and extract_profile wrote them;
# depth 24 is MAX_DEPTH, and 48 samples of I_3 are nearly all the draws allowed
PINNED_PIGEONHOLE = {
    (4, 2, 200, 0): "7a399e596b53b6c91bf2cb947fb6357c1df60baa8e2bc6718a343cccfa930f9d",
    (4, 2, 200, 1): "c36859c2c47985176a2d203e7960ae9a0e20dbfc035dedac921115074bca80ea",
    (4, 2, 200, 5): "a841c979650f411599bd45e03b8e025beaa4346ff980eb073cf29281bb5bf264",
    (4, 2, 200, 99): "d78b5819ae6a18819c989204f13398a690fe61846ca7c5b3f787e51b5d464594",
    (12, 3, 48, 0): "296457819c3213047d28f9884a08b222781e232f4e0c7767ed8f6ac722e9b7b5",
    (12, 3, 48, 1): "eaae9266495e6bcdbf1419f8e678e099249c3a2a604189e63c3126910acd3d34",
    (12, 3, 48, 5): "828036366ee8bda8d8397d937dcffe47a7b32b8aca2603c81fc01f479a263089",
    (12, 3, 48, 99): "587193fff37c49d966d58ec521020604d52475f89eebe8c69aa4e202c248a676",
    (24, 1, 7, 0): "d74b9e55206476c044f61eb1aac7aed79d80df10ef89f5aec79a2fb971c274ed",
    (24, 1, 7, 1): "ce9361086b60cc4ec3f608ec902e8230b7ee46b873703a309cfa36f9c5127009",
    (24, 1, 7, 5): "4df580c81799ff49fe30abc23d8d4064506afec45779bc58eb5eb5336e1d0aea",
    (24, 1, 7, 99): "bf55992821f8d3cf04f462dd3a6852285d9e71b43866a332d37b10c123fd1326",
    (24, 1, 1, 0): "d940de7c6863805955b3d16660a3915fe1cd58c188a66e4bb66339ced084cb8c",
    (24, 1, 1, 1): "0126c990a4844f22da63dd45ba5319f17b06d43f7c3aebd79010bdc1e5c87067",
    (24, 1, 1, 5): "3c77802478556e586ea3f574e00dfca1abc720e5fbf121b375b6cc92a1cdeba1",
    (24, 1, 1, 99): "b01bacd678c0b151e85cdc1be252d7231aa9e5967b28d956fed50d4c79ed1c4d",
}


@pytest.mark.parametrize("depth, interval, samples, seed", sorted(PINNED_PIGEONHOLE))
def test_pigeonhole_certificate_bytes_are_pinned(depth, interval, samples, seed):
    inputs = {"depth": depth, "interval": interval, "samples": samples}
    cert = certify.produce("pigeonhole", inputs, seed)
    digest = hashlib.sha256(canonical_bytes(cert)).hexdigest()
    assert digest == PINNED_PIGEONHOLE[(depth, interval, samples, seed)]


def test_verify_construction_report_of_depth_19_is_pinned(tmp_path):
    # construct, emit, parse and verify through the CLI at the benchmark's deepest depth
    src, out = tmp_path / "partition.json", tmp_path / "report.json"
    assert run(["construct", "--depth", "19", "--out", str(src)]) == 0
    assert run(["verify-construction", "--in", str(src), "--out", str(out)]) == 0
    digest = hashlib.sha256(canonical_bytes(load_json(out))).hexdigest()
    assert digest == "ab73f943b8e9ff5e1a2bddfd14b521d59d608cbd416a52443fe92d567f72637e"


def test_non_contiguous_intervals_rejected():
    p = build_partition(3)
    broken = PartitionData((0, 2, 4), p.lengths, p.rationals)
    with pytest.raises(StructuralError):
        verify_partition(broken)


def test_weight_function_values():
    p = build_partition(4)
    empty = weight_fn(Finite(()), p)
    assert empty(0) == 1
    assert empty(1) == Fraction(1, 2)
    assert empty(3) == Fraction(1, 8)

    on_one = weight_fn(Finite({1}), p)
    assert on_one(1) == Fraction(1, 8)
    assert on_one(0) == 1

    with pytest.raises(HorizonExhausted):
        empty(p.coverage_end)


def test_degenerate_weight_against_full_enumeration():
    # independent oracle: pointwise evaluation over the whole prefix
    p = build_partition(4)
    w = weight_fn(full_set(), p)
    upto = p.coverage_end - 1
    direct = sum((w(m) for m in range(upto)), Fraction(0))
    assert direct == degenerate_prefix_weight(p, upto)
    assert direct < 1
    # the bound holds at every intermediate horizon as well
    for horizon in (1, 2, 3, 10, 100, 5000):
        assert degenerate_prefix_weight(p, horizon) < 1


@pytest.mark.parametrize("depth", [4, 8, 12, 16])
def test_degenerate_weight_stays_below_one(depth):
    p = build_partition(depth)
    total = degenerate_prefix_weight(p, p.coverage_end - 1)
    assert total < 1
    # closed form: every full interval contributes exactly 2^-(n+1) here
    for n in range(depth - 1):
        assert p.rationals[n + 1] * p.lengths[n] == Fraction(1, 2 ** (n + 1))


def test_coinfinite_selector_divergence_prefix_bound():
    p = build_partition(10)
    evens = Progression(0, 2)
    # every index off the selector contributes at least the covered prefix
    for n in range(2, p.depth):
        total = Fraction(0)
        off_selector = 0
        for j in range(n):
            total += interval_weight(evens, p, j)
            if not evens.contains(j) and j >= 1:
                off_selector += 1
        assert total >= off_selector


def test_positive_direction_weights_dominated():
    p = build_partition(10)
    q_set = Progression(0, 2)
    p_set = Progression(0, 4)  # nested: P subset of Q at every index
    wq = weight_fn(q_set, p)
    wp = weight_fn(p_set, p)
    for n in range(p.depth):
        point = p.starts[n]
        assert wq(point) <= wp(point)


def test_interval_of_bisection():
    p = build_partition(6)
    for n in range(p.depth):
        assert p.interval_of(p.starts[n]) == n
        assert p.interval_of(p.end(n) - 1) == n
    with pytest.raises(HorizonExhausted):
        p.interval_of(p.coverage_end)


def test_partition_serialization_roundtrip():
    p = build_partition(5)
    back = PartitionData.from_json(p.to_json())
    assert back == p


def _depth_six_with(position, text):
    """A depth-6 greedy document with one entry, or one side of a rational, replaced."""
    doc = build_partition(6).to_json()
    key, index, side = position
    if side is None:
        doc[key][index] = text
    else:
        num, den = doc[key][index].split("/")
        doc[key][index] = f"{text}/{den}" if side == "num" else f"{num}/{text}"
    return doc


def _reference_verdict(doc):
    """Exit code and report bytes of verify-construction with every text read by ``int_parse``."""
    try:
        p = PartitionData(tuple(int_parse(s) for s in doc["starts"]),
                          tuple(int_parse(l) for l in doc["lengths"]),
                          tuple(rat_parse(r) for r in doc["rationals"]))
    except (ValueError, SchemaError):
        return 2, None
    try:
        report = verify_partition(p)
    except StructuralError:
        return 1, None
    return (0 if report.passed else 1), canonical_bytes(report.to_json())


@pytest.mark.parametrize(
    "text", ["1e3", "NaN", "Infinity", "1.0", "-0", "+5", "0005", "1_000", " 5 ", "٣", "²"]
)
@pytest.mark.parametrize(
    "position",
    [("starts", 0, None), ("starts", 4, None), ("lengths", 0, None), ("lengths", 5, None),
     ("rationals", 0, "num"), ("rationals", 1, "den"), ("rationals", 6, "num")],
    ids=["S0", "S4", "L0", "L5", "r0-num", "r1-den", "r6-num"],
)
def test_verify_construction_reads_every_text_as_int_parse_does(tmp_path, text, position):
    # Decimal() takes texts that int() refuses, and keeps signs and exponents;
    # only a signed ASCII digit run may be read as Decimal against the replay
    doc = _depth_six_with(position, text)
    src, out = tmp_path / "partition.json", tmp_path / "report.json"
    dump_json(src, doc)
    code = run(["verify-construction", "--in", str(src), "--out", str(out)])
    report = canonical_bytes(load_json(out)) if code != 2 and out.exists() else None
    assert (code, report) == _reference_verdict(doc)


def test_texts_equal_to_greedy_values_stay_on_the_prefix():
    doc = build_partition(6).to_json()
    doc["starts"][0], doc["lengths"][2], doc["rationals"][3] = "-0", "+0024", "2/384"
    p = PartitionData.from_json(doc)
    assert p.greedy
    assert p == build_partition(6)


def test_greedy_prefix_is_parsed_without_int_parse(monkeypatch):
    doc = build_partition(12).to_json()
    num, den = doc["rationals"][11].split("/")
    doc["rationals"][11] = f"{num}/{int_parse(den) + 1}"

    def refuse(text):
        raise AssertionError(f"int_parse on greedy text: {text[:20]}")

    with monkeypatch.context() as patch:
        patch.setattr(construction, "int_parse", refuse)
        assert PartitionData.from_json(build_partition(12).to_json()).greedy
    seen = []
    monkeypatch.setattr(construction, "int_parse", lambda text: seen.append(text) or int_parse(text))
    p = PartitionData.from_json(doc)
    assert not p.greedy
    assert seen == doc["starts"] + doc["lengths"]
    assert verify_partition(p).to_json() == verify_partition(
        PartitionData(p.starts, p.lengths, p.rationals)).to_json()


def test_depth_19_bytes_are_exact_under_a_rounding_context(monkeypatch):
    # every large Decimal operation runs in serialize.EXACT, never in the
    # thread's context, so a 28-digit context that traps rounding changes nothing;
    # each round trip starts from an empty table, so both run the recurrence
    def round_trip():
        monkeypatch.setattr(construction, "_LEVELS", {})
        p = build_partition(19)
        emitted = canonical_bytes(p.to_json())
        parsed = PartitionData.from_json(json.loads(emitted))
        return [emitted, canonical_bytes(verify_partition(p).to_json()),
                canonical_bytes(verify_partition(parsed).to_json()),
                canonical_bytes(certify.produce("weight-bound", {"depth": 19}, 0))]

    plain = round_trip()
    with decimal.localcontext(decimal.Context(prec=28, traps=[decimal.Inexact, decimal.Rounded])):
        assert round_trip() == plain


def test_partition_certificates_run_no_int_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("int arithmetic on greedy terms")

    # an int table filled by an earlier test would serve an int read unseen
    monkeypatch.delitem(construction._LEVELS, int, raising=False)
    monkeypatch.setitem(construction._ARITHMETIC, int, (refuse, refuse))
    cert = certify.produce("partition", {"depth": 19}, 0)
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert cert["body"]["report"]["passed"]
    cert = certify.produce("weight-bound", {"depth": 19}, 0)
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert cert["body"]["below_one"]


@pytest.mark.parametrize(
    "kind, inputs, arithmetics",
    [("partition", {"depth": 19}, ["Decimal"]),
     ("weight-bound", {"depth": 19}, ["Decimal"]),
     ("subset-reduction", {"depth": 12, "pairs": 2}, []),
     ("pigeonhole", {"depth": 12, "samples": 3, "interval": 3}, ["int"])],
)
def test_a_certificate_runs_the_recurrence_once_per_arithmetic_it_reads(
    monkeypatch, kind, inputs, arithmetics
):
    # from an empty table: the produce runs each arithmetic it reads once, and
    # neither the recheck right after it nor a later produce at a lower depth
    # runs any
    builds = []
    greedy_numbers = construction.greedy_numbers

    def counted(number=int):
        builds.append(number.__name__)
        return greedy_numbers(number)

    monkeypatch.setattr(construction, "_LEVELS", {})
    monkeypatch.setattr(construction, "greedy_numbers", counted)
    cert = certify.produce(kind, inputs, 0)
    assert sorted(builds) == arithmetics
    builds.clear()
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert builds == []
    cert = certify.produce(kind, {**inputs, "depth": inputs["depth"] - 4}, 0)
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert builds == []


def certificate_digest(kind, depth):
    cert = certify.produce(kind, {"depth": depth}, 0)
    return hashlib.sha256(canonical_bytes(cert)).hexdigest()


def test_partition_certificates_do_not_depend_on_the_order_depths_are_read(monkeypatch):
    depths = list(range(1, 20))
    kinds = ("partition", "weight-bound")
    fresh = {}
    for kind in kinds:
        for depth in depths:
            monkeypatch.setattr(construction, "_LEVELS", {})
            fresh[kind, depth] = certificate_digest(kind, depth)
    shuffled = depths[:]
    random.Random(35).shuffle(shuffled)
    monkeypatch.setattr(construction, "_LEVELS", {})
    for order in (depths[::-1], depths, shuffled):
        assert {(kind, depth): certificate_digest(kind, depth)
                for depth in order for kind in kinds} == fresh


def scalar_leaves(node, path="$.body"):
    """(container, key, path) of every scalar leaf, paths written as ``diff_paths`` writes them."""
    for key, child in (sorted(node.items()) if isinstance(node, dict) else enumerate(node)):
        at = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(child, (dict, list)):
            yield from scalar_leaves(child, at)
        else:
            yield node, key, at


def edited(leaf):
    """``leaf`` with one edit of its own type; null becomes 0."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, str):
        return leaf + "0"
    return 0


@pytest.mark.parametrize("kind, depth", [("partition", 12), ("partition", 19),
                                         ("weight-bound", 12), ("weight-bound", 19)])
def test_with_a_full_table_a_mutant_of_every_leaf_is_refuted(monkeypatch, kind, depth):
    # the table past every level read: the recheck rebuilds from it and still
    # refutes each single-field edit at its path
    monkeypatch.setattr(construction, "_LEVELS", {})
    construction.greedy_levels(20, decimal.Decimal)
    cert = certify.produce(kind, {"depth": depth}, 0)
    leaves = 0
    for node, key, path in scalar_leaves(cert["body"]):
        leaf = node[key]
        node[key] = edited(leaf)
        passed, detail = certify.recheck(cert)
        node[key] = leaf
        leaves += 1
        assert not passed
        assert path in detail, (path, detail)
    assert leaves
    assert certify.recheck(cert) == (True, "certificate re-verified")


def test_editing_a_decimal_replay_changes_no_later_certificate(monkeypatch):
    monkeypatch.setattr(construction, "_LEVELS", {})
    before = [certificate_digest(kind, 12) for kind in ("partition", "weight-bound")]
    for terms in build_partition(12).decimal_replay:
        terms[-1] = EXACT.add(terms[-1], 1)
        terms.append(decimal.Decimal(7))
        del terms[0]
    after = [certificate_digest(kind, 12) for kind in ("partition", "weight-bound")]
    assert after == before


def test_a_subset_reduction_at_max_depth_reads_no_greedy_number(monkeypatch):
    def refuse(*args):
        raise AssertionError("greedy numbers read")

    # a table filled by an earlier test would serve a read without either call
    monkeypatch.setattr(construction, "_LEVELS", {})
    monkeypatch.setattr(construction, "greedy_numbers", refuse)
    monkeypatch.setattr(construction, "greedy_levels", refuse)
    cert = certify.produce("subset-reduction", {"depth": construction.MAX_DEPTH, "pairs": 100}, 0)
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert cert["body"]["all_included"] and cert["body"]["all_certificates"]
