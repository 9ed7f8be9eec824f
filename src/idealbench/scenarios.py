"""Bundled scenarios and the scenario-file schema.

A scenario file declares everything a run needs: engine, label models,
horizons, and the infinitary facts it stipulates (each tagged as an
assumption or as derived).  The bundled registry provides one scenario per
engine case; ``scripts/emit_scenarios.py`` writes them out as JSON so
external files and the registry share one schema.  Every scenario, bundled,
from a file or inside a certificate, is parsed by ``scenario_from_json``.
The environment variable IDEALBENCH_SCENARIOS points at a directory
searched when a name is neither bundled nor a path.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

import idealbench
from .errors import SchemaError
from .records import record
from .serialize import (DEFAULT_DEPTH, MAX_DEPTH, SCENARIO_SCHEMA, check_assumptions,
                        integer_field, load_json)

if TYPE_CHECKING:
    from .construction import PartitionData
    from .diagonal import CriticalNodeModel
    from .ideals import IdealDescriptor
    from .trees import CoherentMap, FiniteTree, PositivityOracle

ENV_SCENARIO_DIR = "IDEALBENCH_SCENARIOS"

# Largest ``horizon`` of a posdiff, tree or collision scenario.  Exact sums up
# to the horizon make a run's or a labelling's cost grow faster than it
# (docs/schemas.md states the worst admitted cases).
MAX_HORIZON = 50_000


@record(frozen=True)
class Scenario:
    """A named scenario and its full JSON payload (schema form).

    ``certificate_kind`` names the certificate kind that ``idealbench
    diagonalize`` produces for the scenario from ``certificate_inputs``.
    """

    name: str
    payload: dict

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


@record(frozen=True)
class DiagScenario(Scenario):
    certificate_kind = "diagonalization"

    @property
    def engine(self):
        return self.payload.get("engine")

    @property
    def expect(self) -> str:
        return self.payload.get("expect", "stages")

    def __post_init__(self):
        if self.expect not in ("stages", "contradiction"):
            raise SchemaError(f"scenario {self.name!r}: expect must be stages or "
                              f"contradiction, not {self.expect!r}")

    @property
    def default_stages(self) -> int:
        return self._integer("stages_default", 4, minimum=1)

    @property
    def horizon(self) -> int:
        return self._integer("horizon", None, maximum=MAX_HORIZON)

    def partition(self) -> PartitionData:
        depth = self._integer("depth", DEFAULT_DEPTH, 1, MAX_DEPTH)
        return idealbench.construction.build_partition(depth)

    def models(self, partition: Optional[PartitionData] = None) -> List[CriticalNodeModel]:
        models = self.payload.get("models")
        if not isinstance(models, list) or not models:
            raise SchemaError(f"scenario {self.name!r} needs a non-empty models list")
        return [idealbench.diagonal.model_from_json(m, partition) for m in models]

    def scan_cap(self, default: int, maximum: int) -> int:
        return self._integer("scan_cap", default, maximum=maximum)

    def certificate_inputs(self, stages: Optional[int]) -> dict:
        """The run of ``stages`` stages, or of ``stages_default`` when None."""
        return {"scenario": self.to_json(),
                "stages": self.default_stages if stages is None else stages}


def _node(row) -> bool:
    return isinstance(row, list) and all(type(x) is int and x >= 0 for x in row)


def _node_pair(row) -> bool:
    return isinstance(row, list) and len(row) == 2 and _node(row[0])


def _oracle_row(row) -> bool:
    return (isinstance(row, dict) and _node(row.get("node"))
            and (row.get("candidate") is None or type(row["candidate"]) is int)
            and row.get("verdict") in ("in", "out")
            and row.get("tag", "assumption") in ("assumption", "derived")
            and isinstance(row.get("statement", ""), str))


@record(frozen=True)
class TreeScenario(Scenario):
    certificate_kind = "tree-labelling"

    @property
    def expect_root_label(self):
        return self.payload.get("expect_root_label")

    def __post_init__(self):
        label = self.expect_root_label
        if not (label is None or label == "bot" or type(label) is int and label >= 0):
            raise SchemaError(f"scenario {self.name!r}: expect_root_label must be a natural, "
                              f"\"bot\" or null, not {label!r}")

    @property
    def horizon(self) -> int:
        return self._integer("horizon", 16, 0, MAX_HORIZON)

    def _rows(self, key: str, shape: str, fits: Callable[[object], bool]) -> list:
        """The list ``payload[key]``, empty when absent; a SchemaError that names
        ``key`` and its ``shape`` unless every row ``fits``."""
        rows = self.payload.get(key, [])
        if not isinstance(rows, list) or not all(map(fits, rows)):
            raise SchemaError(f"scenario {self.name!r}: {key} must be a list of {shape}")
        return rows

    def coherent_map(self) -> CoherentMap:
        rows = self._rows("assignments", "[node, integer value] pairs",
                          lambda row: _node_pair(row) and type(row[1]) is int)
        return idealbench.trees.CoherentMap({tuple(k): v for k, v in rows})

    def tree(self) -> FiniteTree:
        trees, set_from_json = idealbench.trees, idealbench.sets.set_from_json
        base = trees.canonical_tree(self.coherent_map(), self.horizon)
        extra = self._rows("nodes_extra", "node lists", _node)
        nodes = set(base.nodes) | {tuple(n) for n in extra}
        successors = {}
        default = self.payload.get("default_successors")
        if default is not None:
            default_set = set_from_json(default)
            for node in nodes:
                successors[node] = trees.Described(default_set)
        for key, spec in self._rows("successors", "[node, spec object] pairs",
                                    lambda row: _node_pair(row) and isinstance(row[1], dict)):
            if spec.get("kind") == "described":
                successors[tuple(key)] = trees.Described(set_from_json(spec.get("set")))
            elif spec.get("kind") == "explicit" and _node(spec.get("members")):
                successors[tuple(key)] = trees.Explicit(tuple(spec["members"]))
            else:
                raise SchemaError(f"scenario {self.name!r}: a successors spec must be described "
                                  f"with a set, or explicit with a members list of naturals")
        return trees.FiniteTree(nodes, successors)

    def oracle(self) -> PositivityOracle:
        trees = idealbench.trees
        oracle = trees.PositivityOracle()
        for row in self._rows("oracle", "objects with a node list, an integer or null "
                              "candidate, an in/out verdict, an assumption/derived tag "
                              "and a string statement",
                              _oracle_row):
            oracle.stipulate(
                tuple(row["node"]),
                row.get("candidate", trees.BOT),
                row["verdict"],
                row.get("tag", "assumption"),
                row.get("statement", ""),
            )
        return oracle

    def branching_ideal(self) -> IdealDescriptor:
        ideal = self.payload.get("branching_ideal", {"kind": "sum_harmonic"})
        return idealbench.ideals.ideal_from_json(ideal)

    def declared_critical(self) -> List[Tuple[int, ...]]:
        return [tuple(n) for n in self._rows("declared_critical", "node lists", _node)]

    def assumptions(self) -> List[dict]:
        return super().assumptions() + self.oracle().assumption_entries()


@record(frozen=True)
class CollisionScenario(Scenario):
    certificate_kind = "collision"

    def diag(self) -> DiagScenario:
        """The diagonalization ``diag`` names among the bundled scenarios, or embeds.

        A file path or a scenario-directory name is refused: the body of a
        collision certificate must follow from its inputs alone.
        """
        diag = self.required("diag")
        if isinstance(diag, str) and diag in _BUNDLED:
            diag = _BUNDLED[diag]
        elif not isinstance(diag, dict):
            raise SchemaError(f"scenario {self.name!r}: diag must be a bundled scenario name "
                              f"or a diagonalization scenario object")
        return scenario_from_json(diag, f"scenario {self.name!r} diag", DiagScenario)

    def tree_scenario(self) -> TreeScenario:
        return scenario_from_json(self.required("tree"), f"scenario {self.name!r} tree",
                                  TreeScenario)

    def assumptions(self) -> List[dict]:
        """What the diagonalization and the tree stipulate, then this scenario's own."""
        own = super().assumptions()
        return self.diag().assumptions() + self.tree_scenario().assumptions() + own

    @property
    def horizon(self) -> int:
        return self._integer("horizon", 4096, 0, MAX_HORIZON)

    def stages(self, default: int) -> int:
        return self._integer("stages", default, minimum=1)

    def model_index(self, count: int) -> int:
        index = self._integer("model_index", 0)
        if not 0 <= index < count:
            raise SchemaError(
                f"scenario {self.name!r}: model_index {index} is not in 0..{count - 1}"
            )
        return index


def scenario_from_json(payload, where: str, expected: Optional[type] = None,
                       name: Optional[str] = None) -> Scenario:
    """The scenario ``payload``, checked as every scenario is; a SchemaError otherwise.

    ``payload`` must be an object of schema ``scenario/1`` with a string
    name (``name`` stands in for a missing one) and tagged assumptions.
    Its engine picks the class: ``tree`` a ``TreeScenario``, ``collision`` a
    ``CollisionScenario`` and an engine of ``diagonal.ENGINES`` (read only
    then, which loads that engine's module) a ``DiagScenario``.  With
    ``expected`` set, a scenario of another class is refused.  ``where``
    names the payload in the messages.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"{where} must be a JSON object")
    if payload.get("schema") != SCENARIO_SCHEMA:
        raise SchemaError(f"{where} lacks schema {SCENARIO_SCHEMA}")
    name = payload.get("name", name)
    if not isinstance(name, str):
        raise SchemaError(f"{where}: not a scenario object with a string name")
    check_assumptions(payload.get("assumptions"), name)
    engine = payload.get("engine")
    if engine == "tree":
        cls = TreeScenario
    elif engine == "collision":
        cls = CollisionScenario
    elif isinstance(engine, str) and engine in idealbench.diagonal.ENGINES:
        cls = DiagScenario
    else:
        raise SchemaError(f"unknown engine {engine!r}")
    if expected is not None and cls is not expected:
        raise SchemaError(f"{where}: scenario {name!r} is a {cls.__name__}, "
                          f"not a {expected.__name__}")
    return cls(name, payload)


# -- bundled registry ---------------------------------------------------------

def _assume(statement: str) -> dict:
    return {"tag": "assumption", "statement": statement}


def _derived(statement: str) -> dict:
    return {"tag": "derived", "statement": statement}


_CRITICAL = _assume("each modelled node is critical: its bottom successor class is "
                    "null and no single label class is positive")

# what a scenario declares that runs into its contradiction in the first stage
_AT_ONCE = {"expect": "contradiction", "stages_default": 1}


def _scenario(name: str, engine: str, **fields) -> dict:
    return {"schema": SCENARIO_SCHEMA, "name": name, "engine": engine, **fields}


def _diag(name: str, engine: str, model: dict, facts=(), expect: str = "stages",
          stages_default: int = 4, **fields) -> dict:
    """A diagonalization scenario of one critical model (index 0) and further ``facts``."""
    return _scenario(name, engine, expect=expect, stages_default=stages_default, **fields,
                     models=[{"index": 0, **model}], assumptions=[_CRITICAL, *facts])


def _pwfin(case: str, rule: dict, expect: str = "stages") -> dict:
    return _diag(f"pw-{case}", "pwfin", {"case": case, "labels": rule},
                 [_derived("the difference of the selectors is the odd indices, an "
                           "infinite set")],
                 expect=expect, depth=10, P={"kind": "cofinite", "excluded": []},
                 Q={"kind": "ap", "base": 0, "step": 2})


def _posdiff(name: str, horizon: int, rule: dict, *assumed: str, **fields) -> dict:
    return _diag(f"posdiff-{name}", "posdiff", {"labels": rule}, map(_assume, assumed),
                 horizon=horizon, **fields)


def _hindman(form: int, rule: dict) -> dict:
    """Form 1 (constant labels) contradicts criticality at its first probe."""
    facts = [] if form == 1 else [_derived("the powers of two are block disjoint")]
    return _diag(f"hindman-case{form}", "hindman",
                 {"form": form, "ground": {"kind": "powers-of-two"}, "labels": rule},
                 facts, scan_cap=64, **(_AT_ONCE if form == 1 else {}))


def _ramsey(form: int, rule: dict) -> dict:
    """Form 1 (constant labels) contradicts criticality at its first probe."""
    return _diag(f"ramsey-case{form}", "ramsey",
                 {"form": form, "ground": {"kind": "all"}, "labels": rule},
                 scan_cap=4096, **(_AT_ONCE if form == 1 else {}))


def _row(candidate: Optional[int], verdict: str, statement: str) -> dict:
    """An oracle row: the root's class labelled ``candidate`` (None: bottom) is ``verdict``."""
    return {"node": [], "candidate": candidate, "verdict": verdict, "tag": "assumption",
            "statement": statement}


def _tree(name: str, horizon: int, assignments: list, rows: List[dict], root,
          excluded: Tuple[int, ...] = ()) -> dict:
    """A tree scenario over cofinite successors and the summable branching ideal.

    A ``"bot"`` root is declared critical, and its bottom class is
    stipulated null after the ``rows``.
    """
    critical = root == "bot"
    if critical:
        rows = rows + [_row(None, "in", "the bottom successor class of the root is null")]
    return _scenario(name, "tree", horizon=horizon, assignments=assignments,
                     default_successors={"kind": "cofinite", "excluded": list(excluded)},
                     branching_ideal={"kind": "sum_harmonic"}, oracle=rows,
                     declared_critical=[[]] if critical else [], expect_root_label=root,
                     assumptions=[])


def _not_positive(labels) -> List[dict]:
    return [_row(c, "out", f"the class labelled {c} is not positive") for c in labels]


def _bundled() -> Dict[str, dict]:
    hindman_rules = {
        1: {"kind": "constant", "value": 7},
        2: {"kind": "min-support"},
        3: {"kind": "max-support"},
        4: {"kind": "support-pair-code"},
        5: {"kind": "identity"},
    }
    ramsey_rules = {1: {"kind": "pair-constant", "value": 7}, 2: {"kind": "pair-min"},
                    3: {"kind": "pair-max"}, 4: {"kind": "pair-code"}}
    scenarios = [
        _pwfin("2b", {"kind": "prev-interval-max"}),
        _pwfin("2c", {"kind": "identity"}),
        _pwfin("2a", {"kind": "all-bot"}, expect="contradiction"),
        _posdiff("blocks", 1200,
                 {"kind": "block-geometric", "start": 2, "base_label": 5, "ratio": 3},
                 "every label class of the block rule extends to divergent harmonic mass "
                 "beyond the horizon"),
        _posdiff("identity", 2200, {"kind": "identity"},
                 "every residue class of the identity labels has divergent harmonic mass "
                 "beyond the horizon", stages_default=2),
        _posdiff("finite-labels", 64,
                 {"kind": "table", "entries": [[x, x % 3] for x in range(64)]}, **_AT_ONCE),
        *(_hindman(form, rule) for form, rule in hindman_rules.items()),
        *(_ramsey(form, rule) for form, rule in ramsey_rules.items()),
        # labelled-tree scenarios
        _tree("sep1-basic", 10, [[[n], 5] for n in range(0, 10, 2)],
              [_row(5, "in", "the class of successors labelled 5 is positive")], 5),
        _tree("sep2-critical", 10, [[[n], n + 20] for n in range(10)],
              _not_positive(range(20, 30)), "bot"),
        _tree("label-tie", 10, [[[n], 5 if n % 2 == 0 else 7] for n in range(10)],
              [_row(5, "in", "the even successors form a positive class"),
               _row(7, "in", "the odd successors form a positive class")], 5),
        _tree("pwfin-case2b", 27, [[[x], 0] for x in (1, 2)] + [[[x], 2] for x in range(3, 27)],
              _not_positive((0, 2)), "bot", excluded=(0,)),
        _scenario("collision-posdiff", "collision", diag="posdiff-blocks", stages=4,
                  model_index=0, horizon=1200,
                  tree=_tree("collision-posdiff-tree", 64, [[[2], 5], [[7], 15], [[21], 45]],
                             [_row(c, "out", "no single label class at the root is positive")
                              for c in (5, 15, 45)], "bot", excluded=(0, 1)),
                  assumptions=[_CRITICAL]),
    ]
    return {scenario["name"]: scenario for scenario in scenarios}


_BUNDLED = _bundled()


def bundled_names() -> List[str]:
    return sorted(_BUNDLED)


def load_scenario(name_or_path: str):
    """Resolve a scenario by bundled name, scenario-dir name, or file path, and parse it."""
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
    return scenario_from_json(payload, f"scenario {name_or_path!r}", name=name_or_path)


def realize_model(model, horizon: int, branching_set=None):
    """Concrete coherent map, tree, and oracle realizing a label model.

    The modelled critical node becomes the root: every successor with a
    non-bottom label is assigned that value outright, the successor
    descriptors claim the given branching set at every node, and the oracle
    stipulates criticality (no single label class positive, bottom class
    null), each stipulation tagged an assumption.  Labelling the result
    reproduces the model on the realized window and leaves the root bottom
    and critical, which is what the engines assume of their models.
    """
    trees = idealbench.trees
    if branching_set is None:
        branching_set = idealbench.sets.Cofinite(())
    assignments = {}
    for x in range(horizon):
        label = model.rule.label(x)
        if label is not None:
            assignments[(x,)] = label
    cmap = trees.CoherentMap(assignments)
    nodes = set(trees.canonical_tree(cmap, horizon).nodes) | {(x,) for x in range(horizon)}
    tree = trees.FiniteTree(nodes, {node: trees.Described(branching_set) for node in nodes})
    oracle = trees.PositivityOracle()
    for label in sorted(set(assignments.values())):
        oracle.stipulate(
            (), label, "out", "assumption",
            f"no single label class at the modelled node is positive ({label})",
        )
    oracle.stipulate(
        (), trees.BOT, "in", "assumption",
        "the bottom successor class of the modelled node is null",
    )
    return cmap, tree, oracle
