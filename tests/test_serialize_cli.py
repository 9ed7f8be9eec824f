"""Serialization schema, scenario loading, certificates, and the CLI."""

import hashlib
import json
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from idealbench import anchored, certify, diagonal, posdiff, pwfin, scenarios, trees
from idealbench.anchored import PAIRS_SCAN_MAX, SUMS_SCAN_MAX
from idealbench.cli import run
from idealbench.construction import MAX_DEPTH
from idealbench.diagonal import rule_from_json
from idealbench.errors import SchemaError
from idealbench.scenarios import MAX_HORIZON, TreeScenario, load_scenario, scenario_from_json
from idealbench.serialize import (
    PLAIN_DIGITS,
    canonical_bytes,
    canonical_dumps,
    diff_paths,
    dump_json,
    int_parse,
    int_str,
    load_json,
    mutate_one_field,
    rat_parse,
    rat_str,
)


def test_rational_strings_roundtrip():
    for q in (Fraction(19, 20), Fraction(-3, 7), Fraction(0), Fraction(10**40, 3)):
        assert rat_parse(rat_str(q)) == q
    with pytest.raises(SchemaError):
        rat_parse("0.5")
    with pytest.raises(SchemaError):
        rat_parse("1/0")


# integers from a few digits to three times the plain-conversion cut-off
_LONG = 10 ** (3 * PLAIN_DIGITS)


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.integers(), st.integers(-_LONG, _LONG)))
@example(0)
@example(-1)
@example(10**PLAIN_DIGITS - 1)
@example(10**PLAIN_DIGITS)
@example(-(10**PLAIN_DIGITS) - 7)
@example(1 << 33219)  # the first bit length past int_str's cut-off
@example((1 << 33220) - 1)
@example(-(10 ** (2 * PLAIN_DIGITS + 1)))
def test_int_str_and_int_parse_match_builtins(n):
    text = int_str(n)
    assert text == str(n)
    assert int_parse(text) == n
    assert int_parse("+" + text.lstrip("-")) == abs(n)


def _int_or_error(convert, text):
    try:
        return convert(text)
    except ValueError:
        return ValueError


_ODD_CHARS = st.sampled_from([" ", "\n", "_", "+", "-", "a", "\u0663", "\u00b2", "\uff11", "0"])


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.text(),
        st.builds(
            lambda sign, digits, insert, where: sign + (digits[:where] + insert + digits[where:]),
            st.sampled_from(["", "+", "-", "--", " "]),
            st.integers(PLAIN_DIGITS - 2, PLAIN_DIGITS + 40).map(lambda k: "7" * k),
            st.text(_ODD_CHARS, max_size=2),
            st.integers(0, PLAIN_DIGITS + 40),
        ),
    )
)
@example("\u00b2" * (PLAIN_DIGITS + 1))
@example("\u0663" * (PLAIN_DIGITS + 1))
@example("1_" * PLAIN_DIGITS + "1")
@example(" " + "5" * (PLAIN_DIGITS + 1) + "\n")
@example("-")
@example("")
def test_int_parse_accepts_and_rejects_like_int(text):
    assert _int_or_error(int_parse, text) == _int_or_error(int, text)


def test_canonical_dumps_is_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [2, {"d": 3, "c": 4}]})
    b = canonical_dumps({"a": [2, {"c": 4, "d": 3}], "b": 1})
    assert a == b


def test_diff_paths_finds_first_difference():
    left = {"x": [1, 2], "y": {"z": "3/4"}}
    assert diff_paths(left, {"x": [1, 2], "y": {"z": "3/4"}}) is None
    assert diff_paths(left, {"x": [1, 5], "y": {"z": "3/4"}}) == "$.x[1]"
    assert diff_paths(left, {"x": [1, 2], "y": {"z": "3/5"}}) == "$.y.z"


def reference_diff_paths(a, b, prefix="$"):
    """``diff_paths`` as first written: it formats a path at every step, even where none differs."""
    if type(a) is not type(b):
        return prefix
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{prefix}.{key}"
            got = reference_diff_paths(a[key], b[key], f"{prefix}.{key}")
            if got:
                return got
        return None
    if isinstance(a, list):
        if len(a) != len(b):
            return f"{prefix}.length"
        for i, (x, y) in enumerate(zip(a, b)):
            got = reference_diff_paths(x, y, f"{prefix}[{i}]")
            if got:
                return got
        return None
    return None if a == b else prefix


_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 2) | st.integers()
                | st.sampled_from(["", "1/2", "1/3", "a", "true", "1"]))
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.dictionaries(st.sampled_from(["a", "b", "c", "1"]), children, max_size=4)),
    max_leaves=24,
)


def _variant(draw, node):
    """A copy of ``node`` with edits drawn at random; most subtrees come back equal."""
    if not isinstance(node, (dict, list)):
        edit = draw(st.sampled_from(["keep", "keep", "swap", "swap", "fresh"]))
        # swap True for 1 and 0 for False or back: equal under ==, unequal in canonical bytes
        if edit == "swap":
            if type(node) is bool:
                return int(node)
            return bool(node) if type(node) is int and node in (0, 1) else node
        return draw(_JSON_DOCS) if edit == "fresh" else node
    edit = draw(st.sampled_from(["keep", "walk", "walk", "walk", "shape", "fresh"]))
    if edit == "fresh":
        return draw(_JSON_DOCS)
    if isinstance(node, dict):
        items = [(key, _variant(draw, value) if edit == "walk" else value)
                 for key, value in node.items()]
        if edit == "shape":
            key = draw(st.sampled_from(["a", "b", "c", "d"]))
            items = [item for item in items if item[0] != key]
            if draw(st.booleans()):
                items.append((key, draw(_JSON_DOCS)))
        if draw(st.booleans()):  # insertion order is not part of a document
            items.reverse()
        return dict(items)
    items = [_variant(draw, value) if edit == "walk" else value for value in node]
    if edit == "shape":
        if items and draw(st.booleans()):
            items.pop(draw(st.integers(0, len(items) - 1)))
        else:
            items.insert(draw(st.integers(0, len(items))), draw(_JSON_DOCS))
    return items


@st.composite
def _near_documents(draw):
    doc = draw(_JSON_DOCS)
    return doc, _variant(draw, doc)


@settings(deadline=None, max_examples=400)
@given(_near_documents())
@example(([1, True], [True, 1]))
@example(({"a": [0, 1]}, {"a": [False, 1]}))
@example(({"a": 1, "b": [2]}, {"b": [2], "a": 1}))
@example(({"a": 1}, {"a": 1, "b": 1}))
@example(([1, [2, 3]], [1, [2, 3, 4]]))
def test_diff_paths_agrees_with_canonical_bytes_and_the_first_implementation(pair):
    a, b = pair
    path = diff_paths(a, b)
    assert (path is None) == (canonical_bytes(a) == canonical_bytes(b))
    assert path == reference_diff_paths(a, b)
    assert diff_paths(a, b, "$.body") == reference_diff_paths(a, b, "$.body")


@pytest.mark.parametrize("leaf, edited", [(True, False), (5, 6), ("1/2", "2/2"), ("abc", "abc~")])
def test_mutate_one_field_edits_a_document_that_is_one_leaf(leaf, edited):
    assert mutate_one_field(leaf) == (edited, "$")
    assert type(mutate_one_field(leaf)[0]) is type(leaf)


def test_mutate_one_field_refuses_a_document_without_leaves():
    for doc in (None, [], {}, {"a": [None]}):
        with pytest.raises(ValueError, match="no mutable leaf"):
            mutate_one_field(doc)


def test_mutate_one_field_prefers_rationals():
    doc = {"note": "hello", "mass": "19/20", "count": 3}
    mutated, path = mutate_one_field(doc)
    assert path == "$.mass"
    assert mutated["mass"] == "20/20"
    text_only = {"summary": "all good", "flag": True}
    mutated, path = mutate_one_field(text_only)
    assert path == "$.summary"
    assert mutated["summary"].endswith("~")


def test_scenario_loading_and_env_dir(tmp_path, monkeypatch):
    assert load_scenario("pw-2b").engine == "pwfin"
    custom = load_scenario("posdiff-identity").to_json()
    custom["name"] = "my-posdiff"
    path = tmp_path / "my-posdiff.json"
    dump_json(path, custom)
    assert load_scenario(str(path)).name == "my-posdiff"
    monkeypatch.setenv("IDEALBENCH_SCENARIOS", str(tmp_path))
    assert load_scenario("my-posdiff").name == "my-posdiff"
    with pytest.raises(SchemaError):
        load_scenario("no-such-scenario")


def test_untagged_assumption_is_rejected(tmp_path):
    broken = load_scenario("posdiff-identity").to_json()
    broken["assumptions"] = [{"statement": "stipulated without a tag"}]
    path = tmp_path / "broken.json"
    dump_json(path, broken)
    with pytest.raises(SchemaError):
        load_scenario(str(path))


def test_certificates_recheck_and_reject_mutations():
    scn = load_scenario("hindman-case3")
    cert = certify.produce(
        "diagonalization", {"scenario": scn.to_json(), "stages": 4}, 0
    )
    ok, detail = certify.recheck(cert)
    assert ok, detail
    tampered = dict(cert)
    tampered["body"], path = mutate_one_field(cert["body"])
    ok, detail = certify.recheck(tampered)
    assert not ok
    assert "differs at" in detail


def test_certificate_schema_violations():
    with pytest.raises(SchemaError):
        certify.recheck({"kind": "pairing"})
    cert = certify.produce("pairing", {"bound": 10, "unordered_bound": 5}, 0)
    bad = dict(cert)
    bad["assumptions"] = [{"statement": "untagged"}]
    with pytest.raises(SchemaError):
        certify.recheck(bad)


def test_certificates_are_reproducible():
    inputs = {"scenario": load_scenario("ramsey-case2").to_json(), "stages": 4}
    first = certify.produce("diagonalization", inputs, 7)
    second = certify.produce("diagonalization", inputs, 7)
    assert canonical_dumps(first) == canonical_dumps(second)


# -- command line ------------------------------------------------------------------

def test_cli_construct_depth_three(capsys):
    assert run(["construct", "--depth", "3"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["starts"] == ["0", "1", "3"]
    assert got["lengths"] == ["1", "2", "24"]
    assert got["rationals"] == ["1/1", "1/2", "1/8", "1/192"]


def test_cli_verify_construction(tmp_path, capsys):
    out = tmp_path / "partition.json"
    assert run(["construct", "--depth", "4", "--out", str(out)]) == 0
    assert run(["verify-construction", "--in", str(out)]) == 0
    capsys.readouterr()

    data = load_json(out)
    data["rationals"][2] = "1/1"
    tampered = tmp_path / "tampered.json"
    dump_json(tampered, data)
    assert run(["verify-construction", "--in", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert "decay" in err


@pytest.mark.parametrize(
    "document",
    [
        {},
        {"starts": ["0"], "lengths": ["1"]},
        {"starts": 5, "lengths": ["1"], "rationals": ["1/1", "1/2"]},
        [1],
        {"depth": 2, "starts": ["0"], "lengths": ["1"], "rationals": ["1/1", "1/2"]},
        {"depth": 5, "starts": ["0", "1", "3", "27", "5211"],
         "lengths": ["1", "2", "24", "5184", "432221184"],
         "rationals": ["1/1", "1/2", "1/8", "1/192", "1/82944"]},
        {"depth": 0, "starts": [], "lengths": [], "rationals": ["1/1"]},
    ],
    ids=["empty", "no-rationals", "starts-not-list", "top-level-list", "wrong-depth",
         "rationals-one-short", "no-intervals"],
)
def test_cli_verify_construction_rejects_malformed_files(tmp_path, capsys, document):
    path = tmp_path / "partition.json"
    dump_json(path, document)
    assert run(["verify-construction", "--in", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


# sha256 of the canonical bytes of the whole bundled registry: every bundled
# scenario, field for field, however the registry is written
BUNDLED_DIGEST = "1f98514d5114cb5a7fb8a16ae07a9554b32b9a7d4f9342a5fd54ff698a984cd9"


def test_bundled_registry_bytes_are_pinned():
    assert hashlib.sha256(canonical_bytes(scenarios._bundled())).hexdigest() == BUNDLED_DIGEST


def _changed_scenario(name: str, **changes) -> dict:
    """A bundled scenario with fields replaced; None drops one."""
    scenario = load_scenario(name).to_json()
    scenario.update(changes)
    return {k: v for k, v in scenario.items() if v is not None}


def _hindman_scenario(**changes) -> dict:
    return _changed_scenario("hindman-case2", **changes)


# the one oracle row of sep1-basic: its root's class labelled 5 is positive
_SEP1_ROW = load_scenario("sep1-basic").to_json()["oracle"][0]


@pytest.mark.parametrize(
    "scenario",
    [
        _hindman_scenario(models=None),
        _hindman_scenario(models=[]),
        _hindman_scenario(
            models=[{"index": 0, "form": 1, "labels": {"kind": "constant"}}]
        ),
        _hindman_scenario(scan_cap="x"),
        _changed_scenario("posdiff-blocks", horizon=None),
        _changed_scenario("posdiff-blocks", horizon="1200"),
        _changed_scenario("posdiff-blocks", horizon=MAX_HORIZON + 1),
        _changed_scenario("posdiff-blocks", horizon=10**12),
        _hindman_scenario(stages_default="4"),
        _hindman_scenario(stages_default=17),
        _hindman_scenario(
            models=[{"index": 0, "form": 2, "labels": {"kind": "min-support"},
                     "ground": {"kind": "explicit"}}]
        ),
        _changed_scenario(
            "ramsey-case2",
            models=[{"index": 0, "form": 2, "labels": {"kind": "pair-min"},
                     "ground": {"kind": "explicit"}}],
        ),
        _changed_scenario("collision-posdiff", stages="4"),
        _changed_scenario("collision-posdiff", model_index=3),
        _changed_scenario("collision-posdiff", model_index="0"),
        _changed_scenario("collision-posdiff", model_index=-1),
        _changed_scenario("collision-posdiff", horizon="1200"),
        _changed_scenario("collision-posdiff", stages=0),
        _changed_scenario("collision-posdiff", stages=-1),
        _changed_scenario("collision-posdiff", horizon=MAX_HORIZON + 1),
        _changed_scenario("collision-posdiff", horizon=-1),
        _hindman_scenario(stages_default=0),
        _changed_scenario(
            "posdiff-blocks", models=[{"index": 0, "labels": {"kind": "block-geometrical"}}]
        ),
        _hindman_scenario(models=[{"index": 0, "form": 6, "labels": {"kind": "identity"}}]),
        _changed_scenario(
            "ramsey-case2", models=[{"index": 0, "form": 5, "labels": {"kind": "pair-min"}}]
        ),
        _changed_scenario(
            "pw-2b", models=[{"index": 0, "case": "2d", "labels": {"kind": "identity"}}]
        ),
        _changed_scenario(
            "ramsey-case2", models=[{"index": 0, "form": 4, "labels": {"kind": "identity"}}]
        ),
        _changed_scenario("pw-2b", P=None),
        _changed_scenario("pw-2b", Q=None),
        _changed_scenario("pw-2b", P={"kind": "ap", "base": 0}),
        _changed_scenario("pw-2b", P={"kind": "nope"}),
        _changed_scenario("pw-2b", P={"kind": "finite"}),
        _changed_scenario("pw-2b", P=[0, 1]),
        _changed_scenario("collision-posdiff", tree=None),
        _changed_scenario("collision-posdiff", diag=None),
        _changed_scenario("collision-posdiff", diag="sep1-basic"),
        _changed_scenario("collision-posdiff", tree={"engine": "tree"}),
        _hindman_scenario(
            models=[{"index": 0, "form": 2, "labels": {"kind": "min-support"},
                     "ground": {"kind": "odd"}}]
        ),
        _changed_scenario(
            "ramsey-case2",
            models=[{"index": 0, "form": 2, "labels": {"kind": "pair-min"},
                     "ground": {"kind": "odd"}}],
        ),
        _changed_scenario(
            "posdiff-finite-labels",
            models=[{"index": 0, "labels": {"kind": "table", "entries": 5}}],
        ),
        *(
            _changed_scenario(
                "ramsey-case2",
                models=[{"index": 0, "form": 2, "labels": {"kind": "pair-min"},
                         "ground": {"kind": "ap", **ground}}],
            )
            for ground in ({"base": 0}, {"base": "0", "step": 2}, {"base": 0, "step": 1.5})
        ),
        *(_changed_scenario("pw-2b", depth=depth) for depth in ("3", 2.5, True, 0, 25)),
        _changed_scenario("sep1-basic", horizon="10"),
        _changed_scenario("sep1-basic", horizon=-1),
        _changed_scenario("sep1-basic", horizon=MAX_HORIZON + 1),
        _changed_scenario("sep1-basic", successors=[5]),
        _changed_scenario("label-tie", successors=[[[0], 5]]),
        _changed_scenario("sep1-basic", successors=[[[0], {"kind": "explicit"}]]),
        _changed_scenario("sep1-basic", oracle=[5]),
        _changed_scenario("label-tie", assignments=[5]),
        _changed_scenario("sep1-basic", nodes_extra=[5]),
        _changed_scenario("label-tie", declared_critical=[5]),
        _changed_scenario("pw-2b", models=[{"index": 0, "case": "2b",
                                            "labels": {"kind": "constant", "value": "a"}}]),
        _changed_scenario("hindman-case1", models=[{"index": 0, "form": 1, "labels": {
            "kind": "constant", "value": [1]}, "ground": {"kind": "powers-of-two"}}]),
        _changed_scenario("ramsey-case1", models=[{"index": 0, "form": 1, "labels": {
            "kind": "pair-constant", "value": "a"}, "ground": {"kind": "all"}}]),
        _changed_scenario("posdiff-finite-labels",
                          models=[{"index": 0, "labels": {"kind": "constant", "value": 2.5}}]),
        _changed_scenario("posdiff-finite-labels",
                          models=[{"index": 0, "labels": {"kind": "constant", "value": -3}}]),
        _changed_scenario("pw-2b", models=[{"index": 0, "case": "2b", "labels": {
            "kind": "table", "entries": [[x, -1 - x] for x in range(27)]}}]),
        _changed_scenario("posdiff-blocks", models=[{"index": 0, "labels": {
            "kind": "block-geometric", "start": 2, "base_label": -5, "ratio": 3}}]),
        *(_changed_scenario("sep1-basic", oracle=[{**_SEP1_ROW, **change}])
          for change in ({"candidate": 5.9}, {"candidate": "5"}, {"candidate": True},
                         {"verdict": "maybe"}, {"verdict": None}, {"tag": "guess"},
                         {"node": [0.5]}, {"node": [-1]}, {"statement": [1, {"a": 2}]})),
        _changed_scenario("sep1-basic", assignments=[[[0], 5.9]]),
        _changed_scenario("sep1-basic", assignments=[[[0], True]]),
        *(_changed_scenario("posdiff-finite-labels", models=[{"index": 0, "labels": {
            "kind": "table", "entries": entries}}])
          for entries in ([[x, x % 3 + 0.9] for x in range(64)], [["5", 1]], [[5, True]],
                          [[5, 1, 2]])),
        _hindman_scenario(expect=7),
        _hindman_scenario(expect="stage"),
        _hindman_scenario(assumptions=[{"tag": "assumption", "statement": [1, {"a": 2}]}]),
        _hindman_scenario(models=[{"index": "junk", "form": 2, "labels": {"kind": "min-support"},
                                   "ground": {"kind": "powers-of-two"}}]),
        _hindman_scenario(models=[{"index": -1, "form": 2, "labels": {"kind": "min-support"},
                                   "ground": {"kind": "powers-of-two"}}]),
        _changed_scenario("sep1-basic", expect_root_label={"x": 1}),
        _changed_scenario("sep1-basic", expect_root_label=-1),
        _changed_scenario("sep1-basic", expect_root_label="5"),
        *(_hindman_scenario(models=[{"index": 0, "form": 2, "labels": {"kind": "min-support"},
                                     "ground": {"kind": "explicit", "members": members}}])
          for members in (["a", "b"], [1.5, 2.5])),
        *(_changed_scenario("ramsey-case2", models=[{
            "index": 0, "form": 2, "labels": {"kind": "pair-min"},
            "ground": {"kind": "explicit", "members": members}}])
          for members in ([0.5, 1, 2], [-3, -1, 2], [True, 2, 3])),
        *(_changed_scenario("sep1-basic", successors=[[[], spec]])
          for spec in ({"kind": "junk", "members": [0, 2]}, {"kind": 5, "members": [0, 2]},
                       {"members": [0, 2]}, {"members": [-2]},
                       {"kind": "explicit", "members": [-2]},
                       {"kind": "explicit", "members": [True, 2]})),
        _hindman_scenario(scan_cap=SUMS_SCAN_MAX + 1),
        _changed_scenario("ramsey-case2", scan_cap=PAIRS_SCAN_MAX + 1),
        [1, 2],
        "x",
    ],
    ids=["no-models", "empty-models", "constant-without-value", "scan-cap-not-int",
         "posdiff-no-horizon", "posdiff-horizon-not-int", "posdiff-horizon-past-max",
         "posdiff-horizon-1e12", "stages-default-not-int", "hindman-family-past-max",
         "explicit-ground-without-members", "explicit-vertices-without-members",
         "collision-stages-not-int", "collision-model-index-out-of-range",
         "collision-model-index-not-int", "collision-model-index-negative",
         "collision-horizon-not-int", "collision-stages-zero", "collision-stages-negative",
         "collision-horizon-past-max", "collision-horizon-negative", "stages-default-zero", "unknown-label-kind", "hindman-form-6", "ramsey-form-5",
         "pwfin-case-2d", "ramsey-rule-without-pair-form", "pwfin-no-P", "pwfin-no-Q",
         "pwfin-ap-without-step", "pwfin-unknown-set-kind", "pwfin-finite-without-members",
         "pwfin-P-not-an-object", "collision-no-tree", "collision-no-diag",
         "collision-diag-not-diagonalization", "collision-tree-without-name",
         "hindman-ground-kind-odd", "ramsey-vertex-kind-odd", "table-entries-not-pairs",
         "ramsey-ap-without-step", "ramsey-ap-base-not-int", "ramsey-ap-step-not-int",
         "pwfin-depth-string", "pwfin-depth-float", "pwfin-depth-bool", "pwfin-depth-zero",
         "pwfin-depth-past-max", "tree-horizon-string", "tree-horizon-negative",
         "tree-horizon-past-max",
         "tree-successors-not-a-pair", "tree-successors-spec-not-an-object",
         "tree-explicit-successors-without-members", "tree-oracle-row-not-an-object",
         "tree-assignment-not-a-pair", "tree-nodes-extra-not-a-list",
         "tree-declared-critical-not-a-list", "pwfin-constant-label-text",
         "hindman-constant-label-list", "ramsey-pair-constant-label-text",
         "posdiff-constant-label-float", "posdiff-constant-label-negative",
         "pwfin-table-labels-negative", "posdiff-block-base-label-negative",
         "tree-oracle-candidate-float", "tree-oracle-candidate-text",
         "tree-oracle-candidate-bool", "tree-oracle-verdict-maybe", "tree-oracle-no-verdict",
         "tree-oracle-tag-guess", "tree-oracle-node-float", "tree-oracle-node-negative",
         "tree-oracle-statement-not-a-string",
         "tree-assignment-value-float", "tree-assignment-value-bool",
         "posdiff-table-labels-float", "posdiff-table-successor-text",
         "posdiff-table-label-bool", "posdiff-table-entry-a-triple",
         "expect-a-number", "expect-unknown", "assumption-statement-not-a-string",
         "model-index-text", "model-index-negative", "tree-expect-root-label-object",
         "tree-expect-root-label-negative", "tree-expect-root-label-text",
         "hindman-explicit-ground-text", "hindman-explicit-ground-float",
         "ramsey-explicit-vertex-float", "ramsey-explicit-vertex-negative",
         "ramsey-explicit-vertex-bool", "tree-successors-kind-junk",
         "tree-successors-kind-number", "tree-successors-without-kind",
         "tree-successors-without-kind-negative-member",
         "tree-explicit-successors-negative-member", "tree-explicit-successors-bool-member",
         "hindman-scan-cap-past-max", "ramsey-scan-cap-past-max",
         "top-level-list", "top-level-string"],
)
def test_cli_diagonalize_rejects_malformed_scenarios(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    dump_json(path, scenario)
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("name, bound", [("hindman-case2", SUMS_SCAN_MAX),
                                         ("ramsey-case2", PAIRS_SCAN_MAX)])
def test_a_scan_cap_past_its_engines_bound_is_refused_before_any_stage(
        tmp_path, capsys, monkeypatch, name, bound):
    path = tmp_path / "scenario.json"
    dump_json(path, _changed_scenario(name, scan_cap=bound))
    assert run(["diagonalize", "--scenario", str(path), "--out", str(tmp_path / "c.json")]) == 0
    monkeypatch.setattr(anchored, "run_stages", None)
    dump_json(path, _changed_scenario(name, scan_cap=bound + 1))
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert f"scan_cap must be at most {bound}" in capsys.readouterr().err


def test_cli_diagonalize_records_an_assembly_contradiction(tmp_path):
    # identity labels pass three form 4 stages; the assembly finds form 4 false
    scenario = _hindman_scenario(models=[{"index": 0, "form": 4, "ground": {
        "kind": "powers-of-two"}, "labels": {"kind": "identity"}}])
    path, out = tmp_path / "scenario.json", tmp_path / "certificate.json"
    dump_json(path, scenario)
    assert run(["diagonalize", "--scenario", str(path), "--stages", "3", "--out", str(out)]) == 1
    body = load_json(out)["body"]
    assert (body["outcome"], body["as_expected"]) == ("contradiction", False)
    assert run(["certify", "--in", str(out)]) == 0


def test_cli_posdiff_horizon_error_names_the_bound(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    dump_json(path, _changed_scenario("posdiff-blocks", horizon=MAX_HORIZON + 1))
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert f"horizon must be at most {MAX_HORIZON}" in capsys.readouterr().err


def test_cli_hindman_family_past_its_bound_is_a_schema_error_that_names_it(tmp_path, capsys):
    # hindman-case2 has one model, so stage k gives it anchor k + 1; 16 anchors
    # make 2^16 - 1 sums, and a 17th would pass 2^16
    out, scenario = tmp_path / "certificate.json", tmp_path / "scenario.json"
    assert run(["diagonalize", "--scenario", "hindman-case2", "--stages", "16",
                "--out", str(out)]) == 0
    assert run(["certify", "--in", str(out)]) == 0
    cert = load_json(out)
    cert["inputs"]["stages"] = 17
    dump_json(out, cert)
    dump_json(scenario, _hindman_scenario(stages_default=17))
    capsys.readouterr()
    for argv in (["diagonalize", "--scenario", "hindman-case2", "--stages", "17"],
                 ["diagonalize", "--scenario", str(scenario)],
                 ["certify", "--in", str(out)]):
        assert run(argv) == 2
        assert ("schema error: stage 16: anchor 17 of model 0 would give its anchored sums "
                "family 131071 members, past the bound of 2^16 = 65536") in capsys.readouterr().err


@pytest.mark.parametrize("name", ["sep1-basic", "collision-posdiff"])
def test_cli_tree_and_collision_horizon_errors_name_the_bound(tmp_path, capsys, name):
    path = tmp_path / "scenario.json"
    dump_json(path, _changed_scenario(name, horizon=MAX_HORIZON + 1))
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert f"horizon must be at most {MAX_HORIZON}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, path",
    [
        (["certify", "--in", "{}"], "missing.json"),
        (["verify-construction", "--in", "{}"], "missing.json"),
        (["diagonalize", "--scenario", "{}"], "a-directory"),
        (["construct", "--depth", "3", "--out", "{}"], "no-such-dir/x.json"),
        (["suite", "--budget", "0.5", "--out", "{}"], "a-file"),
    ],
    ids=["certify-missing-in", "verify-construction-missing-in", "diagonalize-directory",
         "construct-out-in-missing-dir", "suite-out-a-file"],
)
def test_cli_unreadable_or_unwritable_paths_are_schema_errors(tmp_path, capsys, argv, path):
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "a-file").write_text("", encoding="utf-8")
    target = str(tmp_path / path)
    assert run([arg.format(target) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"schema error: {target}: cannot ")
    assert out == ""  # the suite ran no criterion


@pytest.mark.parametrize(
    "inputs",
    [
        {"universe": 6, "sizes": [1]},
        {"universe": 6, "sizes": [0]},
        {"universe": 6, "sizes": [True]},
        {"universe": "6", "sizes": [3]},
        {"universe": True, "sizes": [3]},
        {"universe": -1, "sizes": [3]},
        {"sizes": [3]},
        {"universe": 6, "sizes": 4},
        {"universe": 6},
    ],
    ids=["size-one", "size-zero", "size-bool", "universe-not-int", "universe-bool",
         "universe-negative", "no-universe", "sizes-not-list", "no-sizes"],
)
def test_cli_certify_rejects_malformed_sparseness_inputs(tmp_path, capsys, inputs):
    cert = certify.produce("sparseness", {"universe": 6, "sizes": [3]}, 0)
    cert["inputs"] = inputs
    path = tmp_path / "sparseness.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("stages", ["2", None, 2.0, True, 0, -1],
                         ids=["string", "null", "float", "bool", "zero", "negative"])
def test_cli_certify_rejects_bad_diagonalization_stages(tmp_path, capsys, stages):
    inputs = {"scenario": load_scenario("posdiff-identity").to_json(), "stages": 2}
    cert = certify.produce("diagonalization", inputs, 0)
    cert["inputs"]["stages"] = stages
    path = tmp_path / "diagonalization.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


def _without_name(name: str) -> dict:
    scenario = load_scenario(name).to_json()
    del scenario["name"]
    return {"scenario": scenario, "stages": 2}


@pytest.mark.parametrize(
    "kind, inputs",
    [
        ("diagonalization", _without_name("hindman-case2")),
        ("structural-identity", _without_name("hindman-case2")),
        ("tree-labelling", _without_name("sep1-basic")),
        ("collision", _without_name("collision-posdiff")),
        ("diagonalization", []),
        ("diagonalization", {"scenario": "hindman-case2", "stages": 2}),
        ("diagonalization",
         {"scenario": _changed_scenario("posdiff-blocks", horizon=MAX_HORIZON + 1), "stages": 1}),
        ("structural-identity", {"scenario": _changed_scenario("posdiff-blocks"), "stages": 2}),
        ("diagonalization", {"scenario": _hindman_scenario(), "stages": 17}),
        ("structural-identity", {"scenario": _hindman_scenario(), "stages": 17}),
        ("collision", {"scenario": _changed_scenario(
            "collision-posdiff", diag=_hindman_scenario(), stages=17)}),
        ("structural-identity", {"scenario": _changed_scenario("pw-2b"), "stages": 2}),
        ("tree-labelling", {"scenario": _changed_scenario("posdiff-blocks")}),
        ("diagonalization", {"scenario": _changed_scenario("hindman-case2", schema=None),
                             "stages": 2}),
        ("collision", {"scenario": _changed_scenario(
            "collision-posdiff", tree=_changed_scenario("posdiff-blocks"))}),
        ("partition", {}),
        ("partition", {"depth": 0}),
        ("weight-bound", {"depth": "3"}),
        ("subset-reduction", {"depth": 12}),
        ("pigeonhole", {"depth": 4}),
        ("pigeonhole", {"depth": 4, "samples": 3, "interval": 4}),
        ("partition", {"depth": 25}),
        ("weight-bound", {"depth": 100000}),
        ("subset-reduction", {"depth": 25, "pairs": 1}),
        ("subset-reduction", {"depth": 4, "pairs": 101}),
        ("pigeonhole", {"depth": 25, "samples": 1}),
        ("pigeonhole", {"depth": 4, "samples": 100000000, "interval": 2}),
        ("pigeonhole", {"depth": 4, "samples": 10417, "interval": 2}),
        ("pigeonhole", {"depth": 5, "samples": 1, "interval": 4}),
        ("ramsey-oracle", {"size": "x"}),
        ("ramsey-oracle", {"samples": -1}),
        ("pairing", {"bound": "x"}),
        ("pairing", []),
        ("ramsey-oracle", {"size": 6}),
        ("ramsey-oracle", {"exhaustive_n": 6}),
        ("ramsey-oracle", {"sample_n": 7}),
        ("ramsey-oracle", {"samples": 20001}),
        ("pairing", {"bound": 501}),
        ("pairing", {"unordered_bound": 501}),
        ("sparseness", {"universe": 26, "sizes": [4]}),
        ("sparseness", {"universe": 25, "sizes": [8]}),
        ("sparseness", {"universe": 25, "sizes": [4, 4, 4, 4]}),
    ],
    ids=["diagonalization-no-name", "structural-identity-no-name", "tree-labelling-no-name",
         "collision-no-name", "inputs-a-list", "scenario-not-an-object",
         "posdiff-horizon-past-max",
         "structural-identity-on-posdiff", "diagonalization-hindman-family-past-max",
         "structural-identity-hindman-family-past-max", "collision-hindman-family-past-max",
         "structural-identity-on-pwfin",
         "tree-labelling-on-posdiff", "scenario-without-schema", "collision-tree-not-a-tree",
         "partition-no-depth", "partition-depth-zero", "weight-bound-depth-not-int",
         "subset-reduction-no-pairs", "pigeonhole-no-samples", "pigeonhole-interval-past-depth",
         "partition-depth-past-max", "weight-bound-depth-past-max",
         "subset-reduction-depth-past-max", "subset-reduction-pairs-past-max",
         "pigeonhole-depth-past-max",
         "pigeonhole-samples-past-max", "pigeonhole-draws-past-max",
         "pigeonhole-interval-past-max",
         "ramsey-oracle-size-not-int", "ramsey-oracle-samples-negative", "pairing-bound-not-int",
         "pairing-inputs-a-list", "ramsey-oracle-size-past-max",
         "ramsey-oracle-exhaustive-n-past-max", "ramsey-oracle-sample-n-past-max",
         "ramsey-oracle-samples-past-max", "pairing-bound-past-max",
         "pairing-unordered-bound-past-max", "sparseness-universe-past-max",
         "sparseness-size-past-max", "sparseness-sizes-past-max-count"],
)
def test_cli_certify_rejects_malformed_scenario_inputs(tmp_path, capsys, kind, inputs):
    cert = certify.produce("pairing", {"bound": 3, "unordered_bound": 3}, 0)
    cert["kind"] = kind
    cert["inputs"] = inputs
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_cli_certify_refuses_a_scenario_of_another_kind(tmp_path, capsys):
    # a certificate's scenario passes the scenario-file checks, class included
    cert = certify.produce("tree-labelling", load_scenario("sep1-basic").certificate_inputs(None))
    cert["inputs"]["scenario"] = load_scenario("posdiff-blocks").to_json()
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert ("tree-labelling inputs scenario: scenario 'posdiff-blocks' is a DiagScenario, "
            "not a TreeScenario") in capsys.readouterr().err


_EMPTY = '{"kind": "finite", "members": []}'
_ALL = '{"kind": "cofinite", "excluded": []}'


def _claim(witness_kind):
    return json.dumps({"source": {"kind": "sum_harmonic"}, "target": {"kind": "sum_harmonic"},
                       "witness": {"kind": witness_kind}})


@pytest.mark.parametrize(
    "argv",
    [["construct", "--depth", "25"], ["construct", "--depth", "0"],
     ["weights", "--depth", "25", "--selector", _EMPTY],
     ["membership", "--ideal", '{"kind": "fin"}', "--set", _ALL, "--horizon", "-5"],
     ["weights", "--depth", "4", "--selector", _EMPTY, "--horizon", "-3"],
     ["ramsey-search", "--set", _ALL, "--size", "3", "--horizon", "-1"],
     ["hindman-search", "--set", _ALL, "--size", "2", "--horizon", "-4"],
     ["check-reduction", "--claim", _claim("identity-height-one"), "--set",
      '{"kind": "finite", "members": [3]}', "--horizon", "-1"],
     ["check-reduction", "--claim", _claim("identity-height-one"), "--set",
      '{"kind": "fs_closure", "generators": [1, 2]}', "--horizon", "-1"],
     ["check-reduction", "--claim", _claim("identity"), "--set", _ALL, "--horizon", "-1"]],
    ids=["construct-past-max", "construct-zero", "weights-past-max",
         "membership-horizon-negative", "weights-horizon-negative",
         "ramsey-search-horizon-negative", "hindman-search-horizon-negative",
         "check-reduction-horizon-negative-over-finite",
         "check-reduction-horizon-negative-over-fs-closure",
         "check-reduction-horizon-negative-identity-map"],
)
def test_cli_depth_flags_are_bounded(capsys, argv):
    assert run(argv) == 2
    assert "schema error" in capsys.readouterr().err


def test_a_deep_certificate_is_refused_before_any_work(tmp_path, capsys):
    # depth 100000 would build numbers of about 10^30000 digits
    cert = certify.produce("weight-bound", {"depth": 3}, 0)
    cert["inputs"]["depth"] = 100000
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    started = time.perf_counter()
    assert run(["certify", "--in", str(path)]) == 2
    assert time.perf_counter() - started < 1.0
    assert f"depth must be at most {MAX_DEPTH}" in capsys.readouterr().err


def test_a_huge_ramsey_sample_is_refused_before_any_work(tmp_path, capsys):
    # 10^9 sampled colourings would take hours
    cert = certify.produce("ramsey-oracle", MINIMAL_INPUTS["ramsey-oracle"](), 0)
    cert["inputs"]["samples"] = 10**9
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    started = time.perf_counter()
    assert run(["certify", "--in", str(path)]) == 2
    assert time.perf_counter() - started < 1.0
    assert "samples must be at most 20000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("kind", ["partition"]), ("kind", 5), ("kind", None),
     ("seed", None), ("seed", True), ("seed", 1.5), ("seed", "x"), ("seed", [1])],
    ids=["kind-a-list", "kind-an-int", "kind-null", "seed-null", "seed-bool", "seed-float",
         "seed-string", "seed-a-list"],
)
def test_cli_certify_rejects_malformed_envelopes(tmp_path, capsys, field, value):
    cert = certify.produce("pigeonhole", {"samples": 2}, 0)
    cert[field] = value
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


# a small valid input per kind
MINIMAL_INPUTS = {
    "partition": lambda: {"depth": 3},
    "weight-bound": lambda: {"depth": 3},
    "subset-reduction": lambda: {"depth": 4, "pairs": 2},
    "pigeonhole": lambda: {"samples": 2},
    "diagonalization": lambda: {"scenario": load_scenario("hindman-case2").to_json(),
                                "stages": 2},
    "structural-identity": lambda: {"scenario": load_scenario("ramsey-case2").to_json(),
                                    "stages": 2},
    "tree-labelling": lambda: {"scenario": load_scenario("sep1-basic").to_json()},
    "sparseness": lambda: {"universe": 6, "sizes": [3]},
    "ramsey-oracle": lambda: {"size": 2, "exhaustive_n": 3, "sample_n": 3, "samples": 4},
    "collision": lambda: {"scenario": load_scenario("collision-posdiff").to_json()},
    "pairing": lambda: {"bound": 3, "unordered_bound": 3},
}


@pytest.mark.parametrize("kind", sorted(certify._PRODUCERS))
def test_every_kind_rechecks_and_seedless_kinds_ignore_the_seed(kind):
    assert set(MINIMAL_INPUTS) == set(certify._PRODUCERS)
    cert = certify.produce(kind, MINIMAL_INPUTS[kind](), 7)
    assert cert["seed"] == 7
    ok, detail = certify.recheck(cert)
    assert ok, detail
    if not certify.KINDS[kind].seeded:
        for seed in (0, 8, -3):
            ok, detail = certify.recheck({**cert, "seed": seed})
            assert ok, detail


@pytest.mark.parametrize("kind", sorted(certify.KINDS))
def test_a_certificate_body_follows_from_its_inputs_alone(tmp_path, monkeypatch, kind):
    # no file of the producing machine: not its working directory, not its scenario directory
    normal = canonical_bytes(certify.produce(kind, MINIMAL_INPUTS[kind](), 7))
    (tmp_path / "cwd").mkdir()
    (tmp_path / "scenarios").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    monkeypatch.setenv("IDEALBENCH_SCENARIOS", str(tmp_path / "scenarios"))
    assert canonical_bytes(certify.produce(kind, MINIMAL_INPUTS[kind](), 7)) == normal


def refuse_the_producer(monkeypatch, kind):
    def refused(inputs, seed):
        raise AssertionError(f"the {kind} producer ran")

    monkeypatch.setitem(certify._PRODUCERS, kind, refused)


@pytest.mark.parametrize("kind", sorted(certify.KINDS))
def test_a_tampered_certificate_is_refuted_from_the_last_recompute(monkeypatch, kind):
    cert = certify.produce(kind, MINIMAL_INPUTS[kind](), 7)
    assert certify.recheck(cert) == (True, "certificate re-verified")
    refuse_the_producer(monkeypatch, kind)
    tampered = dict(cert)
    tampered["body"], path = mutate_one_field(cert["body"])
    path = "$.body" + path[1:]
    ok, detail = certify.recheck(tampered)
    assert not ok
    if certify.KINDS[kind].check is None:
        assert detail == f"recomputation differs at {path}"
    else:
        assert detail.startswith(f"check failed at {path}: ")
    edited = [*cert["assumptions"], {"tag": "assumption", "statement": "one more"}]
    assert certify.recheck({**cert, "assumptions": edited}) == (
        False, "assumptions differ at $.assumptions.length")
    if certify.KINDS[kind].complete:
        # the checker decides the body, so an acceptance runs no producer
        assert certify.recheck(cert) == (True, "certificate re-verified")
    else:
        # an acceptance is never read from the slot
        with pytest.raises(AssertionError, match="producer ran"):
            certify.recheck(cert)


@pytest.mark.parametrize("kind", sorted(certify.KINDS))
def test_a_certificate_read_back_from_json_rechecks(kind):
    cert = certify.produce(kind, MINIMAL_INPUTS[kind](), 7)
    assert certify.recheck(json.loads(json.dumps(cert))) == (True, "certificate re-verified")


def test_recheck_serializes_no_body(monkeypatch):
    # bodies are compared by diff_paths' walk; canonical bytes only key the slot
    serialized = []

    def recording(obj):
        serialized.append(obj)
        return canonical_bytes(obj)

    monkeypatch.setattr(certify, "canonical_bytes", recording)
    partition = certify.produce("partition", {"depth": 12}, 0)
    diag = certify.produce("diagonalization", MINIMAL_INPUTS["diagonalization"](), 0)
    tampered, path = mutate_one_field(diag["body"])
    for cert, verdict in ((partition, (True, "certificate re-verified")),
                          (diag, (True, "certificate re-verified")),
                          ({**diag, "body": tampered},
                           (False, "recomputation differs at $.body" + path[1:]))):
        serialized.clear()
        assert certify.recheck(cert) == verdict
        assert serialized == [[cert["kind"], cert["inputs"], cert["seed"]]]


@pytest.mark.parametrize("kind", sorted(certify.KINDS))
def test_inputs_are_validated_before_the_last_recompute_is_read(monkeypatch, kind):
    cert = certify.produce(kind, MINIMAL_INPUTS[kind](), 1)
    assert certify.recheck(cert)[0]
    refuse_the_producer(monkeypatch, kind)
    tampered = dict(cert)
    tampered["body"], _ = mutate_one_field(cert["body"])
    with pytest.raises(SchemaError, match="seed must be an integer"):
        certify.recheck({**tampered, "seed": True})
    if kind == "sparseness":
        inputs = {**cert["inputs"], "sizes": tuple(cert["inputs"]["sizes"])}
        assert canonical_dumps(inputs) == canonical_dumps(cert["inputs"])
        with pytest.raises(SchemaError, match="sizes must be a list"):
            certify.recheck({**tampered, "inputs": inputs})


@pytest.mark.parametrize("stages", ["0", "-1"])
def test_cli_diagonalize_rejects_stage_counts_below_one(capsys, stages):
    assert run(["diagonalize", "--scenario", "posdiff-blocks", "--stages", stages]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, stages", [("sep1-basic", "0"), ("sep1-basic", "4"),
                                              ("collision-posdiff", "99")])
def test_cli_diagonalize_refuses_stages_for_scenarios_without_a_stage_count(
        tmp_path, capsys, scenario, stages):
    # a tree certificate has no stage count and a collision names its own,
    # so --stages would be dropped; without it both keep their certificates
    assert run(["diagonalize", "--scenario", scenario, "--stages", stages]) == 2
    assert "schema error" in capsys.readouterr().err
    out = tmp_path / "cert.json"
    assert run(["diagonalize", "--scenario", scenario, "--out", str(out)]) == 0
    scn = load_scenario(scenario)
    assert load_json(out) == certify.produce(scn.certificate_kind, {"scenario": scn.to_json()}, 0)


@pytest.mark.parametrize("scenario", [
    _hindman_scenario(expect=7),
    _hindman_scenario(models=[{"index": "junk", "form": 2, "labels": {"kind": "min-support"},
                               "ground": {"kind": "powers-of-two"}}]),
    _changed_scenario("sep1-basic", expect_root_label={"x": 1}),
    _changed_scenario("sep1-basic", oracle=[{**_SEP1_ROW, "statement": 5}]),
], ids=["expect", "model-index", "expect-root-label", "oracle-statement"])
def test_untyped_scenario_fields_are_refused_before_any_work(
        tmp_path, capsys, monkeypatch, scenario):
    def no_work(*args, **kwargs):
        raise AssertionError("a stage or a labelling ran")

    # each engine module's run_<engine> reads its own binding of the stage loop
    for engine in (pwfin, posdiff, anchored):
        monkeypatch.setattr(engine, "run_stages", no_work)
    monkeypatch.setattr(trees, "compute_labels", no_work)
    path = tmp_path / "scenario.json"
    dump_json(path, scenario)
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


def test_cli_collision_over_a_pwfin_run_is_refused_before_any_stage(
        tmp_path, capsys, monkeypatch):
    # pwfin families list intervals, not members, so no member can meet the tree
    def no_stage(*args, **kwargs):
        raise AssertionError("a pwfin stage ran")

    monkeypatch.setattr(diagonal, "run_pwfin", no_stage)
    path = tmp_path / "scenario.json"
    dump_json(path, _changed_scenario("collision-posdiff", diag="pw-2b"))
    assert run(["diagonalize", "--scenario", str(path)]) == 2
    assert "schema error" in capsys.readouterr().err


@pytest.mark.parametrize("form", ["path", "scenario-dir-name"])
def test_cli_certify_refuses_a_collision_diag_outside_the_bundle(
        tmp_path, capsys, monkeypatch, form):
    # a file of the rechecking machine would decide the body, not the inputs
    dump_json(tmp_path / "blocks.json", load_scenario("posdiff-blocks").to_json())
    monkeypatch.setenv("IDEALBENCH_SCENARIOS", str(tmp_path))
    diag = str(tmp_path / "blocks.json") if form == "path" else "blocks"
    cert = certify.produce("collision", MINIMAL_INPUTS["collision"]())
    cert["inputs"] = {"scenario": _changed_scenario("collision-posdiff", diag=diag)}
    path = tmp_path / "certificate.json"
    dump_json(path, cert)
    assert run(["certify", "--in", str(path)]) == 2
    assert "diag must be a bundled scenario name" in capsys.readouterr().err


def test_a_collision_embeds_its_diagonalization_scenario(tmp_path, monkeypatch):
    bundled = certify.produce("collision", MINIMAL_INPUTS["collision"]())
    embedded = _changed_scenario("collision-posdiff",
                                 diag=load_scenario("posdiff-blocks").to_json())
    cert = certify.produce("collision", {"scenario": embedded})
    assert certify.recheck(cert) == (True, "certificate re-verified")
    assert canonical_dumps(cert["body"]) == canonical_dumps(bundled["body"])
    # a bundled name resolves without any scenario directory
    monkeypatch.setenv("IDEALBENCH_SCENARIOS", str(tmp_path))
    assert canonical_dumps(certify.produce("collision", MINIMAL_INPUTS["collision"]())) == (
        canonical_dumps(bundled))


@pytest.mark.parametrize("kind", ["constant", "pair-constant", "table", "block-geometric"])
def test_label_rules_without_their_parameters_are_rejected(kind):
    with pytest.raises(SchemaError):
        rule_from_json({"kind": kind})


@pytest.mark.parametrize(
    "params",
    [
        {"start": -1, "base_label": 5, "ratio": 3},
        {"start": "2", "base_label": 5, "ratio": 3},
        {"start": 2, "base_label": 5.0, "ratio": 3},
        {"start": 2, "base_label": 5, "ratio": True},
        {"start": 2, "base_label": -5, "ratio": 3},
        {"start": 2, "base_label": 5, "ratio": -3},
    ],
)
def test_block_geometric_rules_need_integer_parameters(params):
    with pytest.raises(SchemaError):
        rule_from_json({"kind": "block-geometric", **params})


@pytest.mark.parametrize("kind", ["constant", "pair-constant"])
@pytest.mark.parametrize("value", ["a", [1], 2.5, -3, True])
def test_constant_rules_need_a_natural_label(kind, value):
    with pytest.raises(SchemaError, match="value must be"):
        rule_from_json({"kind": kind, "value": value})


def test_table_rules_refuse_negative_labels():
    with pytest.raises(SchemaError, match="naturals"):
        rule_from_json({"kind": "table", "entries": [[0, 2], [1, -1]]})
    assert rule_from_json({"kind": "table", "entries": [[0, 0], [1, None]]}).label(1) is None


def test_tree_successor_rows_round_trip():
    rows = [[[], {"kind": "described", "set": {"base": 0, "kind": "ap", "step": 2}}],
            [[0], {"kind": "explicit", "members": [1, 3]}]]
    scenario = _changed_scenario("sep1-basic", default_successors=None, successors=rows)
    tree = scenario_from_json(scenario, "test", TreeScenario).tree()
    assert tree.to_json()["successors"] == rows


def test_cli_weights(capsys):
    code = run(
        ["weights", "--depth", "4", "--selector", '{"kind": "finite", "members": []}',
         "--horizon", "4"]
    )
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["values"]["0"] == "1/1"
    assert got["values"]["3"] == "1/8"


def test_cli_membership(capsys):
    code = run(
        ["membership", "--ideal", '{"kind": "diff"}',
         "--set", '{"kind": "complement", "of": {"kind": "ap", "base": 0, "step": 3}}']
    )
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["value"] == "in"


def test_cli_membership_witness_keeps_a_zero_generator(capsys):
    code = run(["membership", "--ideal", '{"kind": "fin"}',
                "--set", '{"kind": "fs_closure", "generators": [0, 3]}'])
    assert code == 0
    got = json.loads(capsys.readouterr().out)
    assert got["value"] == "in"
    assert got["evidence"]["witness"] == [0, 3]


@pytest.mark.parametrize(
    "ideal, described",
    [
        ('{"kind": "fin"}', '{"kind": "finite"}'),
        ('{"kind": "fin"}', '{"kind": "odd"}'),
        ('{"kind": "fin"}', '[1, 2]'),
        ('{"kind": "fin"}', '{"kind": "union", "parts": [{"kind": "ap", "base": 1}]}'),
        ('{"kind": "nope"}', '{"kind": "finite", "members": []}'),
        ('[]', '{"kind": "finite", "members": []}'),
        ('{"kind": "sum_s", "selector": {"kind": "finite", "members": []}, "depth": "3"}',
         '{"kind": "finite", "members": []}'),
        ('{"kind": "sum_s", "selector": {"kind": "finite", "members": []}, "depth": 0}',
         '{"kind": "finite", "members": []}'),
        ('{"kind": "sum_s", "selector": {"kind": "finite", "members": []}, "depth": 25}',
         '{"kind": "finite", "members": []}'),
        ('{"kind": "fin"}', '{"kind": "ap", "base": "x", "step": 2}'),
        ('{"kind": "fin"}', '{"kind": "union", "parts": 5}'),
        ('{"kind": "fin"}', '{"kind": "intervals", "spans": [[5, 2]]}'),
        ('{"kind": "fin"}', json.dumps({"kind": "fs_closure", "generators": list(range(1, 24))})),
        ('{"kind": "fin"}', '{"kind": "finite", "members": [1.5]}'),
        ('{"kind": "fin"}', '{"kind": "finite", "members": [true]}'),
        ('{"kind": "fin"}', '{"kind": "finite", "members": ["3"]}'),
        ('{"kind": "fin"}', '{"kind": "intervals", "spans": [[1.5, 8]]}'),
        ('{"kind": "fin"}', '{"kind": "intervals", "spans": [[1, "8"]]}'),
        ('{"kind": "fin"}', '{"kind": "ap", "base": true, "step": 2}'),
        ('{"kind": "fin"}', '{"kind": "ap", "base": 1, "step": 2.0}'),
        ('{"kind": "fin"}', '{"kind": "intervals", "spans": [[0, 65537]]}'),
        ('{"kind": "fin"}', '{"kind": "intervals", "spans": [[0, 1000000000]]}'),
        ('{"kind": "fin"}', json.dumps({"kind": "delta_image", "generators": list(range(363))})),
    ],
    ids=["finite-without-members", "unknown-set-kind", "set-not-an-object",
         "nested-ap-without-step", "unknown-ideal-kind", "ideal-not-an-object",
         "sum-s-depth-not-int", "sum-s-depth-zero", "sum-s-depth-past-max",
         "ap-base-text", "union-parts-number", "intervals-reversed-span",
         "fs-closure-past-generator-cap", "finite-member-float", "finite-member-bool",
         "finite-member-text", "intervals-end-float", "intervals-end-text", "ap-base-bool",
         "ap-step-float", "intervals-past-member-cap", "intervals-of-a-billion",
         "delta-image-past-pair-cap"],
)
def test_cli_membership_rejects_malformed_descriptors(capsys, ideal, described):
    assert run(["membership", "--ideal", ideal, "--set", described]) == 2
    assert "schema error" in capsys.readouterr().err


def test_cli_witness_searches(capsys):
    assert run(["hindman-search", "--set", '{"kind": "intervals", "spans": [[1, 8]]}',
                "--size", "3", "--horizon", "8"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["witness"] == [1, 2, 3]

    assert run(["ramsey-search", "--set", '{"kind": "cofinite", "excluded": []}',
                "--size", "4", "--horizon", "6"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["witness"] == [0, 1, 2, 3]


def test_cli_diagonalize_and_certify(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert run(["diagonalize", "--scenario", "posdiff-identity", "--stages", "2",
                "--out", str(out)]) == 0
    cert = load_json(out)
    assert cert["body"]["outcome"] == "stages"

    assert run(["certify", "--in", str(out)]) == 0
    capsys.readouterr()

    cert["body"], _ = mutate_one_field(cert["body"])
    mutated = tmp_path / "mutated.json"
    dump_json(mutated, cert)
    assert run(["certify", "--in", str(mutated)]) == 1

    broken = tmp_path / "broken.json"
    dump_json(broken, {"schema": "certificate/1", "kind": "pairing"})
    assert run(["certify", "--in", str(broken)]) == 2


def test_cli_diagonalize_identity_exhausts_at_four_stages(tmp_path, capsys):
    code = run(["diagonalize", "--scenario", "posdiff-identity", "--stages", "4"])
    assert code == 3
    assert "horizon exhausted" in capsys.readouterr().err


def test_cli_contradiction_scenarios_exit_zero(capsys):
    assert run(["diagonalize", "--scenario", "hindman-case1"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["body"]["outcome"] == "contradiction"
    assert got["body"]["as_expected"]


def test_cli_check_reduction(capsys):
    claim = json.dumps(
        {"source": {"kind": "sum_harmonic"}, "target": {"kind": "sum_harmonic"},
         "witness": {"kind": "identity"}}
    )
    assert run(["check-reduction", "--claim", claim,
                "--set", '{"kind": "cofinite", "excluded": [2]}']) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["value"] == "in"


def test_cli_check_reduction_height_one_witness(capsys):
    claim = json.dumps(
        {"source": {"kind": "sum_harmonic"}, "target": {"kind": "sum_harmonic"},
         "witness": {"kind": "identity-height-one"}}
    )
    assert run(["check-reduction", "--claim", claim,
                "--set", '{"kind": "cofinite", "excluded": [2]}',
                "--horizon", "10"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["certificate"] is not None

    # a finite witnessed set cannot brace a branching tree
    assert run(["check-reduction", "--claim", claim,
                "--set", '{"kind": "finite", "members": [3]}']) == 1


CONSTANT_TEXT_VALUE = json.dumps(
    {"source": {"kind": "fin"}, "target": {"kind": "fin"},
     "witness": {"kind": "constant", "value": "x"}}
)


@pytest.mark.parametrize(
    "claim, described",
    [
        ("{}", '{"kind": "finite", "members": [3]}'),
        ("[]", '{"kind": "finite", "members": [3]}'),
        ('{"source": {"kind": "fin"}, "target": {"kind": "fin"}, "witness": 5}',
         '{"kind": "finite", "members": [3]}'),
        (CONSTANT_TEXT_VALUE, '{"kind": "ap", "base": 1, "step": 2}'),
        (CONSTANT_TEXT_VALUE, '{"kind": "finite", "members": [3]}'),
        (_claim("junk"), '{"kind": "ap", "base": 1, "step": 2}'),
        (_claim("junk"), '{"kind": "finite", "members": [3]}'),
        (_claim(5), '{"kind": "cofinite", "excluded": [2]}'),
    ],
    ids=["claim-without-source", "claim-not-object", "witness-not-object",
         "constant-value-text-over-ap", "constant-value-text-over-finite",
         "witness-kind-junk-over-ap", "witness-kind-junk-over-finite",
         "witness-kind-number"],
)
def test_cli_check_reduction_rejects_malformed_claims(capsys, claim, described):
    assert run(["check-reduction", "--claim", claim, "--set", described]) == 2
    err = capsys.readouterr().err
    assert "schema error" in err and "Traceback" not in err


def test_cli_witness_search_reports_absence(capsys):
    assert run(["hindman-search", "--set", '{"kind": "ap", "base": 1, "step": 2}',
                "--size", "2", "--horizon", "64"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["witness"] is None


def test_cli_usage_errors(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["membership", "--ideal", "{not json", "--set", "{}"]) == 2
    capsys.readouterr()
    assert run(["diagonalize", "--scenario", "missing-name"]) == 2
