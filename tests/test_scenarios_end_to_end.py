"""Every bundled scenario through the CLI, plus certificate rechecks."""

import json

import pytest

from idealbench import certify
from idealbench.cli import run
from idealbench.diagonal import CriticalNodeModel, LabelRule, run_hindman, run_ramsey
from idealbench.scenarios import bundled_names, load_scenario
from idealbench.serialize import load_json, mutate_one_field

DIAG_ENGINES = ("pwfin", "posdiff", "hindman", "ramsey")


@pytest.mark.parametrize("name", bundled_names())
def test_every_bundled_scenario_through_the_cli(name, tmp_path, capsys):
    scn = load_scenario(name)
    out = tmp_path / f"{name}.json"
    code = run(["diagonalize", "--scenario", name, "--out", str(out)])
    capsys.readouterr()
    assert code == 0, name
    cert = load_json(out)
    assert run(["certify", "--in", str(out)]) == 0
    capsys.readouterr()
    engine = scn.payload.get("engine")
    if engine in DIAG_ENGINES:
        assert cert["body"]["as_expected"]
    elif engine == "collision":
        assert cert["body"]["forbidden_label_hit"]
    else:
        assert cert["body"]["root_as_expected"]


@pytest.mark.parametrize("kind_inputs", [
    ("collision", lambda: {"scenario": load_scenario("collision-posdiff").to_json()}),
    ("pairing", lambda: {"bound": 40, "unordered_bound": 20}),
])
def test_remaining_certificate_kinds_recheck_and_reject_mutation(kind_inputs):
    kind, make_inputs = kind_inputs
    cert = certify.produce(kind, make_inputs(), 0)
    ok, detail = certify.recheck(cert)
    assert ok, detail
    tampered = dict(cert)
    tampered["body"], _ = mutate_one_field(cert["body"])
    ok, detail = certify.recheck(tampered)
    assert not ok


def test_explicit_ground_sequences():
    # hand-listed block-disjoint ground values behave like the generated ones
    model = CriticalNodeModel(
        0,
        LabelRule("min-support"),
        form=2,
        ground={"kind": "explicit", "members": [2, 4, 8, 16, 32, 64]},
    )
    state = run_hindman([model], 3, scan_cap=6)
    assert [h for _, h in state.anchors(0)] == [2, 4, 8]


def test_explicit_ground_exhaustion_is_reported():
    from idealbench.errors import HorizonExhausted

    model = CriticalNodeModel(
        0,
        LabelRule("min-support"),
        form=2,
        ground={"kind": "explicit", "members": [2, 4]},
    )
    with pytest.raises(HorizonExhausted):
        run_hindman([model], 4, scan_cap=16)


def test_progression_vertex_ground():
    model = CriticalNodeModel(
        0,
        LabelRule("pair-min"),
        form=2,
        ground={"kind": "ap", "base": 1, "step": 3},
    )
    state = run_ramsey([model], 3, scan_cap=64)
    verts = state.anchors(0)
    assert all(v % 3 == 1 for v in verts)
    assert verts == sorted(verts)
    # thresholds still hold: the common label of later pairs is the vertex
    for rec, bound in zip(state.stages, (1, 2, 4)):
        assert rec.anchor > bound


def test_scenario_files_roundtrip_through_certify(tmp_path, capsys):
    # a scenario loaded from a file yields the same certificate as the name
    scn = load_scenario("hindman-case4")
    path = tmp_path / "copy.json"
    from idealbench.serialize import dump_json

    dump_json(path, scn.to_json())
    by_name = certify.produce(
        "diagonalization", {"scenario": scn.to_json(), "stages": 4}, 0
    )
    by_file = certify.produce(
        "diagonalization", {"scenario": load_scenario(str(path)).to_json(), "stages": 4}, 0
    )
    assert json.dumps(by_name, sort_keys=True) == json.dumps(by_file, sort_keys=True)
