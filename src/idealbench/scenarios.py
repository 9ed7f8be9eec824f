"""Bundled scenarios and the scenario-file schema.

A scenario file declares everything a run needs: engine, label models,
horizons, and the infinitary facts it stipulates (each tagged as an
assumption or as derived).  The bundled registry provides one scenario per
engine case; ``emit`` writes them out as JSON so external files and the
registry share one schema.  The environment variable IDEALBENCH_SCENARIOS
points at a directory searched when a name is neither bundled nor a path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .construction import DEFAULT_DEPTH, MAX_DEPTH, PartitionData, build_partition
from .diagonal import ENGINES, LABEL_KINDS, CriticalNodeModel, LabelRule
from .errors import SchemaError
from .ideals import IdealDescriptor, ideal_from_json
from .serialize import SCENARIO_SCHEMA, check_assumptions, integer_field, load_json
from .sets import Cofinite, set_from_json
from .trees import (
    BOT,
    CoherentMap,
    Described,
    Explicit,
    FiniteTree,
    PositivityOracle,
    canonical_tree,
)

ENV_SCENARIO_DIR = "IDEALBENCH_SCENARIOS"

# Largest posdiff ``horizon``.  A run scans every successor below it, and the
# blocks it carves or stops in are summed exactly, so the cost grows faster
# than the horizon (docs/schemas.md states the worst admitted case).
MAX_HORIZON = 50_000


def rule_from_json(obj: dict, partition: Optional[PartitionData] = None) -> LabelRule:
    if not isinstance(obj, dict):
        raise SchemaError("a label rule must be an object")
    kind = obj.get("kind")
    spec = LABEL_KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise SchemaError(f"unknown label rule {kind!r}")
    missing = [name for name in spec.params if name not in obj]
    if missing:
        raise SchemaError(f"label rule {kind!r} lacks {', '.join(missing)}")
    return LabelRule(kind, spec.parse({k: v for k, v in obj.items() if k != "kind"}, partition))


def model_from_json(obj: dict, partition: Optional[PartitionData] = None) -> CriticalNodeModel:
    if not isinstance(obj, dict) or "labels" not in obj:
        raise SchemaError("a model must be an object with labels")
    return CriticalNodeModel(
        index=obj.get("index", 0),
        rule=rule_from_json(obj["labels"], partition),
        case=obj.get("case"),
        form=obj.get("form"),
        ground=obj.get("ground"),
    )


@dataclass(frozen=True)
class Scenario:
    """A named scenario and its full JSON payload (schema form).

    ``certificate_kind`` names the certificate kind that ``idealbench
    diagonalize`` produces for the scenario from ``certificate_inputs``.
    """

    name: str
    payload: dict

    @classmethod
    def from_json(cls, obj, where: str):
        """The scenario ``obj``; a SchemaError unless it is an object with a string name."""
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise SchemaError(f"{where}: not a scenario object with a string name")
        return cls(obj["name"], obj)

    def required(self, key: str):
        """``payload[key]``; a SchemaError when the scenario lacks it."""
        if key not in self.payload:
            raise SchemaError(f"scenario {self.name!r} needs {key!r}")
        return self.payload[key]

    def _integer(self, key: str, default: Optional[int], minimum: Optional[int] = None,
                 maximum: Optional[int] = None) -> int:
        return integer_field(self.payload, key, default, f"scenario {self.name!r}",
                             minimum, maximum)

    def assumptions(self) -> List[dict]:
        return check_assumptions(self.payload.get("assumptions"), self.name)

    def to_json(self) -> dict:
        return dict(self.payload)

    def certificate_inputs(self, stages: Optional[int]) -> dict:
        """The inputs of this scenario's certificate; a SchemaError if ``stages`` is set.

        Only a diagonalization certificate takes a stage count (a collision
        scenario names its own ``stages``), so a count given here would be
        dropped.
        """
        if stages is not None:
            raise SchemaError(f"scenario {self.name!r}: a {self.certificate_kind} "
                              f"certificate takes no stage count")
        return {"scenario": self.to_json()}


class DiagScenario(Scenario):
    certificate_kind = "diagonalization"

    @property
    def engine(self):
        return self.payload.get("engine")

    @property
    def expect(self) -> str:
        return self.payload.get("expect", "stages")

    @property
    def default_stages(self) -> int:
        return self._integer("stages_default", 4, minimum=1)

    @property
    def horizon(self) -> int:
        return self._integer("horizon", None, maximum=MAX_HORIZON)

    def partition(self) -> PartitionData:
        return build_partition(self._integer("depth", DEFAULT_DEPTH, 1, MAX_DEPTH))

    def models(self, partition: Optional[PartitionData] = None) -> List[CriticalNodeModel]:
        models = self.payload.get("models")
        if not isinstance(models, list) or not models:
            raise SchemaError(f"scenario {self.name!r} needs a non-empty models list")
        return [model_from_json(m, partition) for m in models]

    def scan_cap(self, default: int) -> int:
        return self._integer("scan_cap", default)

    def certificate_inputs(self, stages: Optional[int]) -> dict:
        """The run of ``stages`` stages, or of ``stages_default`` when None."""
        return {"scenario": self.to_json(),
                "stages": self.default_stages if stages is None else stages}


def _node(row) -> bool:
    return isinstance(row, list)


def _node_pair(row) -> bool:
    return isinstance(row, list) and len(row) == 2 and _node(row[0])


class TreeScenario(Scenario):
    certificate_kind = "tree-labelling"

    @property
    def horizon(self) -> int:
        return self._integer("horizon", 16, minimum=0)

    def _rows(self, key: str, shape: str, fits: Callable[[object], bool]) -> list:
        """The list ``payload[key]``, empty when absent; a SchemaError that names
        ``key`` and its ``shape`` unless every row ``fits``."""
        rows = self.payload.get(key, [])
        if not isinstance(rows, list) or not all(map(fits, rows)):
            raise SchemaError(f"scenario {self.name!r}: {key} must be a list of {shape}")
        return rows

    def coherent_map(self) -> CoherentMap:
        rows = self._rows("assignments", "[node, value] pairs", _node_pair)
        return CoherentMap({tuple(k): v for k, v in rows})

    def tree(self) -> FiniteTree:
        base = canonical_tree(self.coherent_map(), self.horizon)
        extra = self._rows("nodes_extra", "node lists", _node)
        nodes = set(base.nodes) | {tuple(n) for n in extra}
        successors = {}
        default = self.payload.get("default_successors")
        if default is not None:
            default_set = set_from_json(default)
            for node in nodes:
                successors[node] = Described(default_set)
        for key, spec in self._rows("successors", "[node, spec object] pairs",
                                    lambda row: _node_pair(row) and isinstance(row[1], dict)):
            if spec.get("kind") == "described":
                successors[tuple(key)] = Described(set_from_json(spec.get("set")))
            else:
                members = spec.get("members")
                if not isinstance(members, list) or not all(type(m) is int for m in members):
                    raise SchemaError(f"scenario {self.name!r}: an explicit successors spec "
                                      f"needs a members list of integers")
                successors[tuple(key)] = Explicit(tuple(members))
        return FiniteTree(nodes, successors)

    def oracle(self) -> PositivityOracle:
        oracle = PositivityOracle()
        for row in self._rows("oracle", "objects with a node list",
                              lambda row: isinstance(row, dict) and _node(row.get("node"))):
            candidate = row.get("candidate")
            oracle.stipulate(
                tuple(row["node"]),
                BOT if candidate is None else int(candidate),
                row.get("verdict"),
                row.get("tag", "assumption"),
                row.get("statement", ""),
            )
        return oracle

    def branching_ideal(self) -> IdealDescriptor:
        return ideal_from_json(self.payload.get("branching_ideal", {"kind": "sum_harmonic"}))

    def declared_critical(self) -> List[Tuple[int, ...]]:
        return [tuple(n) for n in self._rows("declared_critical", "node lists", _node)]

    def assumptions(self) -> List[dict]:
        return super().assumptions() + self.oracle().assumption_entries()


# -- bundled registry ---------------------------------------------------------

def _assume(statement: str) -> dict:
    return {"tag": "assumption", "statement": statement}


def _derived(statement: str) -> dict:
    return {"tag": "derived", "statement": statement}


_CRITICAL = _assume("each modelled node is critical: its bottom successor class is "
                    "null and no single label class is positive")


def _pwfin(name: str, case: str, rule: dict, expect: str = "stages") -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": name,
        "engine": "pwfin",
        "expect": expect,
        "stages_default": 4,
        "depth": 10,
        "P": {"kind": "cofinite", "excluded": []},
        "Q": {"kind": "ap", "base": 0, "step": 2},
        "models": [{"index": 0, "case": case, "labels": rule}],
        "assumptions": [
            _CRITICAL,
            _derived("the difference of the selectors is the odd indices, an "
                     "infinite set"),
        ],
    }


def _bundled() -> Dict[str, dict]:
    out: Dict[str, dict] = {}
    out["pw-2b"] = _pwfin("pw-2b", "2b", {"kind": "prev-interval-max"})
    out["pw-2c"] = _pwfin("pw-2c", "2c", {"kind": "identity"})
    out["pw-2a"] = _pwfin("pw-2a", "2a", {"kind": "all-bot"}, expect="contradiction")

    out["posdiff-blocks"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "posdiff-blocks",
        "engine": "posdiff",
        "expect": "stages",
        "stages_default": 4,
        "horizon": 1200,
        "models": [
            {
                "index": 0,
                "labels": {"kind": "block-geometric", "start": 2, "base_label": 5, "ratio": 3},
            }
        ],
        "assumptions": [
            _CRITICAL,
            _assume("every label class of the block rule extends to divergent "
                    "harmonic mass beyond the horizon"),
        ],
    }
    out["posdiff-identity"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "posdiff-identity",
        "engine": "posdiff",
        "expect": "stages",
        "stages_default": 2,
        "horizon": 2200,
        "models": [{"index": 0, "labels": {"kind": "identity"}}],
        "assumptions": [
            _CRITICAL,
            _assume("every residue class of the identity labels has divergent "
                    "harmonic mass beyond the horizon"),
        ],
    }
    out["posdiff-finite-labels"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "posdiff-finite-labels",
        "engine": "posdiff",
        "expect": "contradiction",
        "stages_default": 1,
        "horizon": 64,
        "models": [
            {"index": 0, "labels": {"kind": "table", "entries": [[x, x % 3] for x in range(64)]}}
        ],
        "assumptions": [_CRITICAL],
    }

    hindman_rules = {
        2: {"kind": "min-support"},
        3: {"kind": "max-support"},
        4: {"kind": "support-pair-code"},
        5: {"kind": "identity"},
    }
    for form, rule in hindman_rules.items():
        out[f"hindman-case{form}"] = {
            "schema": SCENARIO_SCHEMA,
            "name": f"hindman-case{form}",
            "engine": "hindman",
            "expect": "stages",
            "stages_default": 4,
            "scan_cap": 64,
            "models": [
                {"index": 0, "form": form, "ground": {"kind": "powers-of-two"}, "labels": rule}
            ],
            "assumptions": [
                _CRITICAL,
                _derived("the powers of two are block disjoint"),
            ],
        }
    out["hindman-case1"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "hindman-case1",
        "engine": "hindman",
        "expect": "contradiction",
        "stages_default": 1,
        "scan_cap": 64,
        "models": [
            {"index": 0, "form": 1, "ground": {"kind": "powers-of-two"},
             "labels": {"kind": "constant", "value": 7}}
        ],
        "assumptions": [_CRITICAL],
    }

    ramsey_rules = {2: {"kind": "pair-min"}, 3: {"kind": "pair-max"}, 4: {"kind": "pair-code"}}
    for form, rule in ramsey_rules.items():
        out[f"ramsey-case{form}"] = {
            "schema": SCENARIO_SCHEMA,
            "name": f"ramsey-case{form}",
            "engine": "ramsey",
            "expect": "stages",
            "stages_default": 4,
            "scan_cap": 4096,
            "models": [{"index": 0, "form": form, "ground": {"kind": "all"}, "labels": rule}],
            "assumptions": [_CRITICAL],
        }
    out["ramsey-case1"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "ramsey-case1",
        "engine": "ramsey",
        "expect": "contradiction",
        "stages_default": 1,
        "scan_cap": 4096,
        "models": [
            {"index": 0, "form": 1, "ground": {"kind": "all"},
             "labels": {"kind": "pair-constant", "value": 7}}
        ],
        "assumptions": [_CRITICAL],
    }

    # labelled-tree scenarios
    out["sep1-basic"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "sep1-basic",
        "engine": "tree",
        "horizon": 10,
        "assignments": [[[n], 5] for n in range(0, 10, 2)],
        "default_successors": {"kind": "cofinite", "excluded": []},
        "branching_ideal": {"kind": "sum_harmonic"},
        "oracle": [
            {"node": [], "candidate": 5, "verdict": "in", "tag": "assumption",
             "statement": "the class of successors labelled 5 is positive"}
        ],
        "declared_critical": [],
        "expect_root_label": 5,
        "assumptions": [],
    }
    out["sep2-critical"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "sep2-critical",
        "engine": "tree",
        "horizon": 10,
        "assignments": [[[n], n + 20] for n in range(10)],
        "default_successors": {"kind": "cofinite", "excluded": []},
        "branching_ideal": {"kind": "sum_harmonic"},
        "oracle": (
            [
                {"node": [], "candidate": n + 20, "verdict": "out", "tag": "assumption",
                 "statement": f"the class labelled {n + 20} is not positive"}
                for n in range(10)
            ]
            + [{"node": [], "candidate": None, "verdict": "in", "tag": "assumption",
                "statement": "the bottom successor class of the root is null"}]
        ),
        "declared_critical": [[]],
        "expect_root_label": "bot",
        "assumptions": [],
    }
    out["label-tie"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "label-tie",
        "engine": "tree",
        "horizon": 10,
        "assignments": [[[n], 5 if n % 2 == 0 else 7] for n in range(10)],
        "default_successors": {"kind": "cofinite", "excluded": []},
        "branching_ideal": {"kind": "sum_harmonic"},
        "oracle": [
            {"node": [], "candidate": 5, "verdict": "in", "tag": "assumption",
             "statement": "the even successors form a positive class"},
            {"node": [], "candidate": 7, "verdict": "in", "tag": "assumption",
             "statement": "the odd successors form a positive class"},
        ],
        "declared_critical": [],
        "expect_root_label": 5,
        "assumptions": [],
    }
    out["pwfin-case2b"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "pwfin-case2b",
        "engine": "tree",
        "horizon": 27,
        "assignments": [[[x], 0] for x in (1, 2)] + [[[x], 2] for x in range(3, 27)],
        "default_successors": {"kind": "cofinite", "excluded": [0]},
        "branching_ideal": {"kind": "sum_harmonic"},
        "oracle": [
            {"node": [], "candidate": 0, "verdict": "out", "tag": "assumption",
             "statement": "the class labelled 0 is not positive"},
            {"node": [], "candidate": 2, "verdict": "out", "tag": "assumption",
             "statement": "the class labelled 2 is not positive"},
            {"node": [], "candidate": None, "verdict": "in", "tag": "assumption",
             "statement": "the bottom successor class of the root is null"},
        ],
        "declared_critical": [[]],
        "expect_root_label": "bot",
        "assumptions": [],
    }
    out["collision-posdiff"] = {
        "schema": SCENARIO_SCHEMA,
        "name": "collision-posdiff",
        "engine": "collision",
        "diag": "posdiff-blocks",
        "stages": 4,
        "model_index": 0,
        "horizon": 1200,
        "tree": {
            "schema": SCENARIO_SCHEMA,
            "name": "collision-posdiff-tree",
            "engine": "tree",
            "horizon": 64,
            "assignments": [[[2], 5], [[7], 15], [[21], 45]],
            "default_successors": {"kind": "cofinite", "excluded": [0, 1]},
            "branching_ideal": {"kind": "sum_harmonic"},
            "oracle": [
                {"node": [], "candidate": 5, "verdict": "out", "tag": "assumption",
                 "statement": "no single label class at the root is positive"},
                {"node": [], "candidate": 15, "verdict": "out", "tag": "assumption",
                 "statement": "no single label class at the root is positive"},
                {"node": [], "candidate": 45, "verdict": "out", "tag": "assumption",
                 "statement": "no single label class at the root is positive"},
                {"node": [], "candidate": None, "verdict": "in", "tag": "assumption",
                 "statement": "the bottom successor class of the root is null"},
            ],
            "declared_critical": [[]],
            "expect_root_label": "bot",
            "assumptions": [],
        },
        "assumptions": [_CRITICAL],
    }
    return out


_BUNDLED = _bundled()


def bundled_names() -> List[str]:
    return sorted(_BUNDLED)


def load_scenario(name_or_path: str):
    """Resolve a scenario by bundled name, scenario-dir name, or file path."""
    payload = None
    if name_or_path in _BUNDLED:
        payload = _BUNDLED[name_or_path]
    elif os.path.exists(name_or_path):
        payload = load_json(name_or_path)
    else:
        directory = os.environ.get(ENV_SCENARIO_DIR)
        if directory:
            candidate = os.path.join(directory, f"{name_or_path}.json")
            if os.path.exists(candidate):
                payload = load_json(candidate)
    if payload is None:
        raise SchemaError(f"unknown scenario {name_or_path!r}")
    if not isinstance(payload, dict):
        raise SchemaError(f"scenario {name_or_path!r} must be a JSON object")
    if payload.get("schema") != SCENARIO_SCHEMA:
        raise SchemaError(f"scenario {name_or_path!r} lacks schema {SCENARIO_SCHEMA}")
    check_assumptions(payload.get("assumptions"), payload.get("name", name_or_path))
    engine = payload.get("engine")
    name = payload.get("name", name_or_path)
    if isinstance(engine, str) and engine in ENGINES:
        return DiagScenario(name, payload)
    if engine == "tree":
        return TreeScenario(name, payload)
    if engine == "collision":
        return CollisionScenario(name, payload)
    raise SchemaError(f"unknown engine {engine!r}")


def realize_model(
    model,
    horizon: int,
    branching_set=None,
    critical_tag: str = "assumption",
):
    """Concrete coherent map, tree, and oracle realizing a label model.

    The modelled critical node becomes the root: every successor with a
    non-bottom label is assigned that value outright, the successor
    descriptors claim the given branching set at every node, and the oracle
    stipulates criticality (no single label class positive, bottom class
    null).  Labelling the result reproduces the model on the realized
    window and leaves the root bottom and critical, which is what the
    engines assume of their models.
    """
    if branching_set is None:
        branching_set = Cofinite(())
    assignments = {}
    for x in range(horizon):
        label = model.rule.label(x)
        if label is not None:
            assignments[(x,)] = label
    cmap = CoherentMap(assignments)
    nodes = set(canonical_tree(cmap, horizon).nodes) | {(x,) for x in range(horizon)}
    tree = FiniteTree(nodes, {node: Described(branching_set) for node in nodes})
    oracle = PositivityOracle()
    for label in sorted(set(assignments.values())):
        oracle.stipulate(
            (), label, "out", critical_tag,
            f"no single label class at the modelled node is positive ({label})",
        )
    oracle.stipulate(
        (), BOT, "in", critical_tag,
        "the bottom successor class of the modelled node is null",
    )
    return cmap, tree, oracle


class CollisionScenario(Scenario):
    certificate_kind = "collision"

    def diag(self) -> DiagScenario:
        name = self.required("diag")
        scn = load_scenario(name) if isinstance(name, str) else None
        if not isinstance(scn, DiagScenario):
            raise SchemaError(f"scenario {self.name!r}: diag must name a diagonalization scenario")
        return scn

    def tree_scenario(self) -> TreeScenario:
        return TreeScenario.from_json(self.required("tree"), f"scenario {self.name!r} tree")

    def assumptions(self) -> List[dict]:
        """What the diagonalization and the tree stipulate, then this scenario's own."""
        own = super().assumptions()
        return self.diag().assumptions() + self.tree_scenario().assumptions() + own

    @property
    def horizon(self) -> int:
        return self._integer("horizon", 4096)

    def stages(self, default: int) -> int:
        return self._integer("stages", default, minimum=1)

    def model_index(self, count: int) -> int:
        index = self._integer("model_index", 0)
        if not 0 <= index < count:
            raise SchemaError(
                f"scenario {self.name!r}: model_index {index} is not in 0..{count - 1}"
            )
        return index
