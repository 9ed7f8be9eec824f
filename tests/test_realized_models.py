"""Models realized as concrete coherent maps close the end-to-end loop.

The engines consume declared label models; the realizer turns such a model
into an actual coherent assignment with a criticality-stipulating oracle.
Labelling that realization must reproduce the model's labels on the
window, leave the modelled node bottom and critical, and feed straight
into the collision check.
"""

import pytest

from idealbench.diagonal import assemble, collision_check, run_posdiff
from idealbench.ideals import SumHarmonic
from idealbench.scenarios import load_scenario, realize_model
from idealbench.sets import Cofinite
from idealbench.trees import (
    BOT,
    check_branching,
    compute_labels,
    find_critical,
)

WINDOWS = {
    "posdiff-blocks": 60,
    "hindman-case2": 64,
    "hindman-case5": 64,
    "ramsey-case2": 64,
    "ramsey-case4": 64,
}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_realization_reproduces_model_labels(name):
    scn = load_scenario(name)
    model = scn.models()[0]
    horizon = WINDOWS[name]
    cmap, tree, oracle = realize_model(model, horizon)
    labelled = compute_labels(tree, cmap, oracle)
    for x in range(horizon):
        expected = model.rule.label(x)
        got = labelled.labels[(x,)]
        assert got == (BOT if expected is None else expected)
    assert labelled.labels[()] is BOT
    report = find_critical(labelled, oracle)
    assert () in report.critical


def test_realization_claims_branching_everywhere():
    scn = load_scenario("hindman-case2")
    _, tree, _ = realize_model(scn.models()[0], 32)
    branching = check_branching(tree, SumHarmonic(), 32)
    assert all(v.value == "in" for v in branching.values())


def test_realized_tree_collides_with_the_obstruction_family():
    diag = load_scenario("posdiff-blocks")
    state = run_posdiff(diag.models(), diag.payload["horizon"], 4)
    payload = assemble(state)
    model = diag.models()[0]
    cmap, tree, oracle = realize_model(model, 60, branching_set=Cofinite((0, 1)))
    report = collision_check(
        tree, SumHarmonic(), cmap, oracle, payload, 0, model
    )
    assert report.outcome == "collision"
    assert report.successor == 2
    assert report.label == 5
    assert report.path is not None
