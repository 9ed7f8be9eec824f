"""Acceptance criteria, one test per criterion, one printed line each.

Criteria 1 and 2 pin the depth-30 partition pipeline under a one second
budget.  Conditions (1) and (2) jointly force |I_{n+1}| >= 2^(n+1)|I_n|^2,
so depth-30 interval sizes carry about 3.5e8 decimal digits; neither
building nor verifying such data can finish inside one second on any
hardware, and the two tests below fail by construction.  They attempt the
run under a wall-clock budget so the rest of the suite is not stalled,
and the identical checks pass at the diagnostic depth.  Every other
criterion must pass.
"""

import json
from pathlib import Path

import pytest

from idealbench import certify
from idealbench.acceptance import run_all


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=0, depth30_budget=12.0)}


def show(result):
    print(result.line())
    return result


def test_c01_partition_conditions_depth30_under_one_second(results):
    r = show(results[1])
    assert r.passed, r.detail


def test_c02_degenerate_weight_bound_depth30(results):
    r = show(results[2])
    assert r.passed, r.detail


def test_c03_positive_direction_20_random_pairs(results):
    r = show(results[3])
    assert r.passed, r.detail


def test_c04_pigeonhole_extraction_200_samples(results):
    r = show(results[4])
    assert r.passed, r.detail


def test_c05_stage_bounds_all_four_engines(results):
    r = show(results[5])
    assert r.passed, r.detail


def test_c06_structural_identities_at_horizon(results):
    r = show(results[6])
    assert r.passed, r.detail


def test_c07_canonical_search_matches_oracle(results):
    r = show(results[7])
    assert r.passed, r.detail
    # computed by the brute-force oracle, then frozen: the least point count
    # whose every edge partition contains a canonical triple
    cert = dict(r.certificates)["ramsey-oracle.json"]
    assert cert["body"]["minimal_n_for_size"] == 4


def test_c08_sparseness_mechanism(results):
    r = show(results[8])
    assert r.passed, r.detail


def test_c09_finite_horizon_separation_lemmas(results):
    r = show(results[9])
    assert r.passed, r.detail


def test_c10_pairing_properties(results):
    r = show(results[10])
    assert r.passed, r.detail


def test_c11_certificate_integrity(results):
    r = show(results[11])
    assert r.passed, r.detail


def test_c11_rechecks_every_certificate_of_c01_to_c10(results):
    produced = sum(len(results[n].certificates) for n in range(1, 11))
    assert results[11].detail.startswith(f"{produced} certificates re-verified")


def test_suite_runtime_budget(results):
    # the whole acceptance pass must stay comfortably inside five minutes
    total = sum(r.elapsed for r in results.values())
    print(f"[INFO] acceptance suite total {total:.1f}s")
    assert total < 300


def body_leaves(node, path="$.body"):
    """(container, key, path) of every scalar leaf, paths written as ``diff_paths`` writes them."""
    items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        at = f"{path}.{key}" if isinstance(node, dict) else f"{path}[{key}]"
        if isinstance(child, (dict, list)):
            yield from body_leaves(child, at)
        else:
            yield node, key, at


def edited(leaf):
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, str):
        return leaf + "0"
    return 0  # null


def test_every_body_leaf_edit_is_rejected_at_its_path(results):
    leaves = by_checker = 0
    for n in range(1, 11):
        for name, cert in results[n].certificates:
            body = json.loads(json.dumps(cert["body"]))
            tampered = {**cert, "body": body}
            for node, key, path in body_leaves(body):
                leaf = node[key]
                node[key] = edited(leaf)
                passed, detail = certify.recheck(tampered)
                node[key] = leaf
                leaves += 1
                assert not passed, (name, path)
                if certify.KINDS[cert["kind"]].check is not None:
                    assert detail.startswith(f"check failed at {path}: "), (name, detail)
                    by_checker += 1
                else:
                    assert detail == f"recomputation differs at {path}", (name, detail)
    print(f"[INFO] {leaves} body leaves edited, each rejected at its path, "
          f"{by_checker} by a checker alone")
    assert leaves


def json_native_violation(node, path="$"):
    """The first path under ``node`` whose value is not JSON-native, or None.

    JSON-native values are dicts with str keys, lists, str, int, bool and
    None, each of exactly that type: no tuple, no float, no subclass.  On
    such values ``diff_paths``' strict walk and canonical bytes agree, and
    ``recheck`` relies on that.
    """
    if type(node) is dict:
        for key, value in node.items():
            if type(key) is not str:
                return f"{path} (key {key!r})"
            got = json_native_violation(value, f"{path}.{key}")
            if got:
                return got
        return None
    if type(node) is list:
        for i, value in enumerate(node):
            got = json_native_violation(value, f"{path}[{i}]")
            if got:
                return got
        return None
    return None if type(node) in (str, int, bool, type(None)) else path


def assert_json_native(cert, name):
    for field in ("body", "assumptions"):
        assert json_native_violation(cert[field], f"$.{field}") is None, name


def test_suite_certificates_are_json_native_and_recheck_read_back(results):
    certs = [(name, cert) for n in range(1, 11) for name, cert in results[n].certificates]
    assert len(certs) == 29
    for name, cert in certs:
        assert_json_native(cert, name)
        assert certify.recheck(json.loads(json.dumps(cert))) == (
            True, "certificate re-verified"), name


def test_perfbench_certificates_are_json_native(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench import workloads

    # the first certificate job of each label family: partition-d12, C05-pw-2b, ...
    families = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.universe(workload):
            if job["type"] == "cert":
                families.setdefault(job["label"].split("-")[0], job)
    assert set(families) == {"partition", "weight", "hindman", "ramsey", "pwfin", "posdiff",
                             *(f"C{n:02d}" for n in range(3, 11))}
    for family, job in families.items():
        assert_json_native(certify.produce(job["kind"], job["inputs"], job["seed"]), family)
