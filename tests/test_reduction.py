"""Map-based and tree-based reduction witnesses at finite horizon."""

import hashlib

import pytest

from idealbench import certify
from idealbench.construction import build_partition
from idealbench.errors import SchemaError
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


@pytest.mark.parametrize("kind", ["junk", "identity-height-one", 5])
def test_katetov_maps_are_identity_or_constant(kind):
    with pytest.raises(SchemaError, match="identity or constant"):
        KatetovMap(kind)


def test_katetov_unknown_outside_algebra():
    mixed = Union((Progression(0, 2), Progression(1, 3)))
    got = katetov_witness_check(claim_with(KatetovMap("identity")), mixed)
    assert got.value == "unknown"


def test_katetov_identity_agrees_with_plain_membership():
    mixed = Union((Progression(0, 2), Progression(1, 3)))
    for queried in (Cofinite({1}), Finite({2, 5}), Progression(0, 3), mixed):
        via_map = katetov_witness_check(claim_with(KatetovMap("identity")), queried)
        direct = membership(SumHarmonic(), Complement(queried))
        assert via_map.to_json() == {**direct.to_json(),
                                     "procedure": f"dual-filter:{direct.procedure}"}


def test_subset_reduction_examples():
    evens = Progression(0, 2)
    evens_plus = Union((Progression(0, 2), Finite({1})))
    report = check_subset_reduction(evens, evens_plus, 12)
    assert report.verdict.value == "in"
    assert report.exceptions == ()

    nested = Union((Finite({0}), Progression(0, 4)))
    report = check_subset_reduction(nested, evens, 12)
    assert report.verdict.value == "in"

    report = check_subset_reduction(evens, Progression(1, 2), 12)
    assert report.verdict.value == "out"
    assert report.verdict.procedure == "unbounded-exceptions"


def test_subset_reduction_reports_exception_bound():
    q_set = Progression(0, 2)
    p_set = Union((Progression(0, 4), Finite({1})))  # one exception at index 1
    report = check_subset_reduction(p_set, q_set, 12)
    assert report.verdict.value == "in"
    assert report.exceptions == (1,)
    assert report.exception_bound == 2


# sha256 over the canonical bytes of subset-reduction certificates at depths
# 4-20 and 22, per (seed, pairs) in SUBSET_REDUCTION_RUNS, as the exact
# weight comparison past the exception bound wrote them
SUBSET_REDUCTION_RUNS = ((0, 1), (1, 5), (5, 12))
PINNED_SUBSET_REDUCTIONS = "4ac1b25a348d263391738dee04060cb03f2e5c5339e2aaa8fc2eeabf6cb5fc49"


def test_subset_reduction_certificate_bytes_are_pinned():
    digest = hashlib.sha256()
    for depth in (*range(4, 21), 22):
        for seed, pairs in SUBSET_REDUCTION_RUNS:
            cert = certify.produce("subset-reduction", {"depth": depth, "pairs": pairs}, seed)
            digest.update(canonical_bytes(cert))
    assert digest.hexdigest() == PINNED_SUBSET_REDUCTIONS


def test_subset_reduction_below_depth_4_produces_and_rechecks():
    # below depth 4 a pair may draw more extra points than the depth has;
    # each draw takes as many as there are
    for depth in (1, 2, 3):
        for seed in range(20):
            cert = certify.produce("subset-reduction", {"depth": depth, "pairs": 5}, seed)
            assert cert["body"]["all_included"]
            assert certify.recheck(cert) == (True, "certificate re-verified")


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
    # each path value is its successor, a member below the horizon, so
    # check_reduction_witness does not re-check that the values lie in the set
    assert cert.values == {(n,): n for n in (1, *range(3, 12))}
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
