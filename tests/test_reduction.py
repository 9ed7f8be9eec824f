"""Map-based and tree-based reduction witnesses at finite horizon."""

import pytest

from idealbench.construction import build_partition
from idealbench.ideals import SumHarmonic, SumSelector, membership
from idealbench.reduction import (
    CoherentWitness,
    IdentityHeightOne,
    KatetovMap,
    ReductionClaim,
    check_reduction_witness,
    check_subset_reduction,
    katetov_witness_check,
    revalidate_certificate,
)
from idealbench.serialize import canonical_bytes
from idealbench.sets import (
    Cofinite,
    Complement,
    Finite,
    Progression,
    Union,
)
from idealbench.trees import CoherentMap


def claim_with(witness):
    return ReductionClaim(SumHarmonic(), SumHarmonic(), witness)


def test_katetov_identity_on_cofinite():
    got = katetov_witness_check(claim_with(KatetovMap("identity")), Cofinite({3}))
    assert got.value == "in"


def test_katetov_constant_misses_the_set():
    got = katetov_witness_check(
        claim_with(KatetovMap("constant", 4)), Progression(1, 2)
    )
    assert got.value == "out"  # preimage empty, complement everything


def test_katetov_constant_inside_the_set():
    got = katetov_witness_check(
        claim_with(KatetovMap("constant", 3)), Progression(1, 2)
    )
    # preimage is all of omega, whose complement is empty, inside the ideal
    assert got.value == "in"


def test_katetov_unknown_outside_algebra():
    mixed = Union((Progression(0, 2), Progression(1, 3)))
    got = katetov_witness_check(claim_with(KatetovMap("identity")), mixed)
    assert got.value == "unknown"


def test_katetov_identity_agrees_with_plain_membership():
    for queried in (Cofinite({1}), Finite({2, 5}), Progression(0, 3)):
        via_map = katetov_witness_check(claim_with(KatetovMap("identity")), queried)
        direct = membership(SumHarmonic(), Complement(queried))
        assert via_map.value == direct.value


def test_subset_reduction_examples():
    p = build_partition(12)
    evens = Progression(0, 2)
    evens_plus = Union((Progression(0, 2), Finite({1})))
    report = check_subset_reduction(evens, evens_plus, p)
    assert report.verdict.value == "in"
    assert report.exceptions == ()

    nested = Union((Finite({0}), Progression(0, 4)))
    report = check_subset_reduction(nested, evens, p)
    assert report.verdict.value == "in"

    report = check_subset_reduction(evens, Progression(1, 2), p)
    assert report.verdict.value == "out"
    assert report.verdict.procedure == "unbounded-exceptions"


def test_subset_reduction_reports_exception_bound():
    p = build_partition(12)
    q_set = Progression(0, 2)
    p_set = Union((Progression(0, 4), Finite({1})))  # one exception at index 1
    report = check_subset_reduction(p_set, q_set, p)
    assert report.verdict.value == "in"
    assert report.exceptions == (1,)
    assert report.exception_bound == 2


def test_weight_domination_failure_below_a_short_horizon():
    # a horizon below the depth hides the exception at 5 from the window, so
    # the weight comparison past the bound meets r_6 < r_5 there
    report = check_subset_reduction(Finite({5}), Finite(()), build_partition(12), horizon=4)
    assert canonical_bytes(report.to_json()) == (
        b'{"compared_intervals":5,"exception_bound":0,"exceptions":[],"verdict":'
        b'{"evidence":{"index":5,"wp":"1/382602043807645040640","wq":"1/13831077888"},'
        b'"procedure":"weight-domination-failure","value":"out"}}'
    )


def test_height_one_certificate_and_revalidation():
    p = build_partition(10)
    p_set = Progression(0, 4)
    q_set = Progression(0, 2)
    claim = ReductionClaim(
        SumSelector(p_set, p), SumSelector(q_set, p), IdentityHeightOne()
    )
    witnessed = Cofinite({0, 2})
    cert = check_reduction_witness(claim, witnessed, horizon=12)
    assert cert is not None
    assert cert.branching[()].value == "in"
    assert all(witnessed.contains(v) for v in cert.values.values())
    assert revalidate_certificate(cert, claim, witnessed, horizon=12)


def test_height_one_small_horizon_trivial_certificate():
    claim = claim_with(IdentityHeightOne())
    witnessed = Cofinite(())
    cert = check_reduction_witness(claim, witnessed, depth=0, horizon=1)
    assert cert is not None
    assert cert.values == {(0,): 0}


def test_coherent_witness_requires_values_inside_the_set():
    witness = CoherentWitness(
        CoherentMap({(n,): 9 for n in range(8)}), (Cofinite(()),)
    )
    claim = claim_with(witness)
    assert check_reduction_witness(claim, Cofinite(()), 1, 8) is not None
    # the single branching family forces value 9 on every path; a set
    # avoiding 9 admits no certificate
    assert check_reduction_witness(claim, Finite({1, 2}), 1, 8) is None


def test_coherent_witness_skips_non_branching_families():
    witness = CoherentWitness(
        CoherentMap({(n,): 9 for n in range(8)}),
        (Finite({0, 1}), Cofinite(())),
    )
    claim = claim_with(witness)
    cert = check_reduction_witness(claim, Cofinite(()), 1, 8)
    assert cert is not None
    # the finite family can never branch inside a proper dual filter
    spec = cert.tree.successor_spec(())
    assert spec.described.shape()[0] == "cofinite"


def test_unknown_witness_kind_rejected():
    with pytest.raises(ValueError):
        check_reduction_witness(claim_with(object()), Cofinite(()))
