"""Collision checking: an assembled diagonalization run against a labelled tree."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from .diagonal import ENGINES, CriticalNodeModel, _staged_run
from .errors import SchemaError
from .records import record
from .trees import check_branching, compute_labels, path_value_search

if TYPE_CHECKING:
    from .scenarios import CollisionScenario


@record(frozen=True)
class CollisionReport:
    outcome: str                 # "collision" | "inconclusive" | "rejected"
    node: Tuple[int, ...] = ()
    successor: Optional[int] = None
    label: Optional[int] = None
    path: Optional[list] = None
    reason: str = ""

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "node": list(self.node),
            "successor": None if self.successor is None else str(self.successor),
            "label": None if self.label is None else str(self.label),
            "path": None if self.path is None else [list(n) for n in self.path],
            "reason": self.reason,
        }


def collision_check(
    tree,
    branching_ideal,
    coherent_map,
    oracle,
    payload: dict,
    model_index: int,
    model: CriticalNodeModel,
    horizon: int = 4096,
) -> CollisionReport:
    """Locate an obstruction-family member among a tree's root successors.

    The tree must claim branching inside the dual filter at every node; an
    explicit finite successor set fails that claim outright.  A member x of
    the family below the horizon yields the forbidden label and a realizing
    path; absence below the horizon is reported as inconclusive, never as a
    refutation.  ``payload`` comes from ``assemble`` on a run whose engine has
    ``explicit_forbidden`` set, so that its families list their members.
    """
    branching = check_branching(tree, branching_ideal, horizon)
    for node in sorted(branching):
        if branching[node].value != "in":
            return CollisionReport(
                "rejected",
                node=node,
                reason=f"successor set at {list(node)} is not in the dual filter "
                f"({branching[node].procedure})",
            )
    spec = tree.successor_spec(())
    described = spec.described if hasattr(spec, "described") else None
    if described is None:
        return CollisionReport("rejected", reason="explicit successor set")

    members = map(int, payload["families"][str(model_index)]["members"])
    hit = next((x for x in members if x < horizon and described.contains(x)), None)
    if hit is None:
        return CollisionReport(
            "inconclusive",
            reason="no obstruction member meets the tree below the horizon",
        )
    label = model.rule.label(hit)
    labelled = compute_labels(tree, coherent_map, oracle)
    path = path_value_search(labelled, label)
    if str(label) not in payload["forbidden_labels"]:
        return CollisionReport(
            "rejected", successor=hit, label=label,
            reason="label of the located successor is not forbidden",
        )
    return CollisionReport(
        "collision",
        node=(),
        successor=hit,
        label=label,
        path=path,
        reason="forbidden label realized on a branching tree",
    )


def _collision(scenario: CollisionScenario) -> dict:
    """The body of a ``collision`` certificate."""
    horizon = scenario.horizon
    diag_scn = scenario.diag()
    if not ENGINES[diag_scn.engine].explicit_forbidden:
        raise SchemaError(f"scenario {scenario.name!r}: a {diag_scn.engine} run forbids "
                          f"label descriptors, so its families list no members to collide")
    stages = scenario.stages(diag_scn.default_stages)
    state, payload = _staged_run(diag_scn, stages)
    tree_scn = scenario.tree_scenario()
    model_index = scenario.model_index(len(state.models))
    report = collision_check(tree_scn.tree(), tree_scn.branching_ideal(), tree_scn.coherent_map(),
                             tree_scn.oracle(), payload, model_index, state.models[model_index],
                             horizon=horizon)
    return {
        "diag": diag_scn.name,
        "stages": stages,
        "collision": report.to_json(),
        "forbidden_label_hit": report.outcome == "collision",
    }
