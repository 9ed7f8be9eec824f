"""The anchored engines of the diagonalization: sums (hindman) and pairs (ramsey).

Each stage extends one model's anchor subsequence of its ground sequence
under the threshold of its canonical case; ``_assemble_anchored`` then
builds each model's obstruction family block by block and checks every
stage bound and the declared canonical form on it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .diagonal import (LABEL_KINDS, CriticalNodeModel, Engine, _by_model, harmonic,
                       model_for_stage, run_stages)
from .errors import HorizonExhausted, ScenarioContradiction, SchemaError
from .pairing import code_unordered, decode_unordered
from .ramsey import CASES, HINDMAN, RAMSEY, block_disjoint, case_holds, fs, matching_cases
from .records import field, record
from .serialize import integer_field, rat_str


def _explicit(what: str):
    def sequence(ground: dict) -> Callable[[int], int]:
        seq = ground.get("members")
        if not isinstance(seq, list) or not all(type(x) is int and x >= 0 for x in seq):
            raise SchemaError(f"an explicit {what} sequence needs a members list of naturals")
        if any(a >= b for a, b in zip(seq, seq[1:])):
            raise SchemaError(f"the members of an explicit {what} sequence must strictly ascend")

        def element(j: int) -> int:
            if j >= len(seq):
                raise HorizonExhausted(f"{what} sequence exhausted")
            return seq[j]
        return element
    return sequence


def _ap(ground: dict) -> Callable[[int], int]:
    base = integer_field(ground, "base", None, "an ap vertex sequence", minimum=0)
    step = integer_field(ground, "step", None, "an ap vertex sequence", minimum=1)
    return lambda j: base + j * step


# the element function j -> element j of a ground sequence, by kind; the first
# kind of a table is the one a ground without "kind" has.  Every kind's
# sequence strictly ascends, which ``_scan`` and ``_assemble_anchored`` rest on
GroundKinds = Dict[str, Callable[[dict], Callable[[int], int]]]

# the kinds of a sums-engine ground and of a pairs-engine vertex sequence
GROUND_KINDS: GroundKinds = {
    "powers-of-two": lambda ground: lambda j: 1 << j,
    "explicit": _explicit("ground"),
}
VERTEX_KINDS: GroundKinds = {
    "all": lambda ground: lambda j: j,
    "ap": _ap,
    "explicit": _explicit("vertex"),
}

SUMS_SCAN_CAP = 64
PAIRS_SCAN_CAP = 4096
# the largest scan_cap a scenario may declare: each admits about 0.5 CPU s
# of scanning at worst (docs/schemas.md)
SUMS_SCAN_MAX = 1 << 16
PAIRS_SCAN_MAX = 1 << 18
# the most members a sums-engine model's family may have: a anchors give it
# 2^a - 1 sums, so a model takes at most 16 anchors.  The family doubles per
# anchor; the costliest bundled form (5) takes about 4 CPU s to produce at
# 16 anchors, and the others about 0.1 s (docs/schemas.md)
SUMS_FAMILY_CAP = 1 << 16


@record
class AnchorStageRecord:
    """The anchor stage k adds to model i: element j of the model's ground
    sequence (its vertex sequence under the pairs engine), of value ``anchor``."""

    k: int
    i: int
    j: int
    anchor: int


@record
class AnchorState:
    """Run state of the sums or the pairs engine."""

    engine: str
    models: Tuple[CriticalNodeModel, ...]
    elements: Tuple[Callable[[int], int], ...]  # each model's ground sequence
    scan_cap: int
    stages: List[AnchorStageRecord] = field(default_factory=list)

    def anchors(self, i: int) -> List[int]:
        """Model i's anchor values in stage order."""
        return [rec.anchor for rec in self.stages if rec.i == i]


def _grounded(engine: str, models: Sequence[CriticalNodeModel], kinds: GroundKinds,
              pairs: bool = False) -> Tuple[Tuple[CriticalNodeModel, ...], tuple]:
    """The models and each one's element function, after a SchemaError for the
    first model that does not fit the engine: its form, then (pairs) its
    rule's pair form, then its ground's kind and parameters."""
    elements = []
    for model in models:
        ENGINES[engine].checked((model,))
        if pairs and LABEL_KINDS[model.rule.kind].pair is None:
            raise SchemaError(
                f"model {model.index}: label rule {model.rule.kind!r} has no pair form")
        ground = model.ground
        if not isinstance(ground, (dict, type(None))):
            raise SchemaError(f"model {model.index}: ground must be an object")
        kind = (ground or {}).get("kind", next(iter(kinds)))
        if not isinstance(kind, str) or kind not in kinds:
            raise SchemaError(f"model {model.index}: ground kind {kind!r} is not one "
                              f"of {', '.join(kinds)}")
        elements.append(kinds[kind](ground))
    return tuple(models), tuple(elements)


def _clears(label: Optional[int], threshold: int) -> bool:
    return label is not None and label > threshold


def _probe_constant(labels: set, summary: str, assumption: str, **extra) -> None:
    """Probes that all share one label put a whole family in one label class."""
    if len(labels) == 1:
        raise ScenarioContradiction(
            {"summary": summary.format(next(iter(labels))), **extra, "assumption": assumption}
        )


def _scan(state: AnchorState, k: int, i: int, clears, threshold: int,
          what: str) -> AnchorStageRecord:
    """Stage k's record for model i: the first element j of the model's ground
    sequence after its last anchor, below ``scan_cap``, with ``clears(j, element j)``.

    The scan resumes after the last anchor because every ground sequence
    strictly ascends: the elements after it are exactly those above it.
    """
    element = state.elements[i]
    last = [rec.j for rec in state.stages if rec.i == i]
    for j in range(last[-1] + 1 if last else 0, state.scan_cap):
        x = element(j)
        if clears(j, x):
            return AnchorStageRecord(k, i, j, x)
    raise HorizonExhausted(f"stage {k}: no {what} clears threshold {threshold}")


def _family_bound(models: Sequence[CriticalNodeModel], stages: int) -> None:
    """A SchemaError for the first of ``stages`` stages whose anchor would take
    its model's family past ``SUMS_FAMILY_CAP`` members.

    The schedule ``model_for_stage`` is fixed, so each model's anchor count
    after each stage follows from the stage and the model count alone, and
    the bound is decided before any stage runs.  With m models, some model
    takes its 17th anchor by stage 16m, so the loop raises by then.
    """
    anchors = [0] * len(models)
    for k in range(stages):
        i, _ = model_for_stage(models, k)
        anchors[i] += 1
        members = (1 << anchors[i]) - 1
        if members > SUMS_FAMILY_CAP:
            raise SchemaError(f"stage {k}: anchor {anchors[i]} of model {i} would give its "
                              f"anchored sums family {members} members, past the bound of "
                              f"2^{SUMS_FAMILY_CAP.bit_length() - 1} = {SUMS_FAMILY_CAP}")


def hindman_stage(state: AnchorState, k: int, i: int,
                  model: CriticalNodeModel) -> AnchorStageRecord:
    """Extend one model's anchor subsequence under its case threshold."""
    element = state.elements[i]
    label_of = model.rule.label

    if model.form == 1:
        probes = list(fs([element(j) for j in range(4)]))
        _probe_constant(
            {label_of(x) for x in probes},
            "constant form: all probed values share the label {!r}, so the full "
            "structured family sits inside one label class, against the criticality "
            "of the node",
            "the modelled node is critical, so each label class omits the structured family",
            probes=[str(x) for x in probes],
        )

    prev = state.anchors(i)
    sums = (0,) + fs(prev)   # at every form: fs refuses repeated or negative anchors
    # h + y must clear the threshold for every offset y; the whole anchored
    # block under form 5 (and 1), whose anchor must exceed every earlier sum
    if model.form in (2, 3):
        threshold, offsets, floor = 1 << k, (0,), None
    elif model.form == 4:
        threshold, offsets, floor = (k + 1) * (1 << k), (0, *prev), None
    else:
        threshold, offsets, floor = 1 << (2 * k), sums, sums[-1] if prev else None

    def clears(j, h):
        return (floor is None or h > floor) and all(
            _clears(label_of(h + y), threshold) for y in offsets)

    return _scan(state, k, i, clears, threshold, "anchor")


def run_hindman(models: Sequence[CriticalNodeModel], stages: int,
                scan_cap: int = SUMS_SCAN_CAP) -> AnchorState:
    models, elements = _grounded("hindman", models, GROUND_KINDS)
    _family_bound(models, stages)
    return run_stages(AnchorState("hindman", models, elements, scan_cap), stages, hindman_stage)


def ramsey_stage(state: AnchorState, k: int, i: int,
                 model: CriticalNodeModel) -> AnchorStageRecord:
    """Extend one model's vertex subsequence under its case threshold.

    Minimum-form stages need the common label of the new vertex with later
    vertices, probed on the next ground element; maximum-form and injective
    stages need every pair with an earlier anchor to clear the threshold,
    which is exactly what their stage smallness uses.  The scan starts
    after the model's last vertex (``_scan``), and the vertex sequence
    strictly ascends, so each vertex lies above the one before.
    """
    vertex = state.elements[i]
    label_of = model.rule.pair_label

    if model.form == 1:
        verts = [vertex(j) for j in range(5)]
        _probe_constant(
            {label_of(a, b) for a, b in combinations(verts, 2)},
            "constant form: every probed pair shares the label {!r}, putting a full "
            "clique inside one label class, against the criticality of the node",
            "the modelled node is critical",
        )

    anchors = state.anchors(i)
    threshold = (1 << k) if model.form in (2, 3) else k * (1 << k)

    def clears(j, t):
        if model.form == 2:
            return _clears(label_of(t, vertex(j + 1)), threshold)
        return all(_clears(label_of(s, t), threshold) for s in anchors)

    return _scan(state, k, i, clears, threshold, "vertex")


def run_ramsey(models: Sequence[CriticalNodeModel], stages: int,
               scan_cap: int = PAIRS_SCAN_CAP) -> AnchorState:
    models, elements = _grounded("ramsey", models, VERTEX_KINDS, pairs=True)
    return run_stages(AnchorState("ramsey", models, elements, scan_cap), stages, ramsey_stage)


# -- assembly -------------------------------------------------------------------

def _sums_blocks(i: int, model: CriticalNodeModel, anchors: list):
    """Blocks and family head of one sums-engine model.

    Block b holds the sums whose least summand (form 2) or greatest summand
    (the other forms) is anchor b.  Block-disjoint anchors have distinct
    subset sums, so each block is anchor b plus ``fs`` of the other side.
    """
    if not block_disjoint(anchors):
        raise ScenarioContradiction(
            {"summary": f"model {i}: anchors are not block disjoint"}
        )
    blocks = [[h + y for y in (0,) + fs(anchors[b + 1:] if model.form == 2 else anchors[:b])]
              for b, h in enumerate(anchors)]
    return blocks, {"structure": "finite-sums", "anchors": [str(v) for v in anchors]}


def _pairs_blocks(i: int, model: CriticalNodeModel, verts: list):
    """Blocks and family head of one pairs-engine model.

    Block b holds the pairs of vertex b with the later vertices (form 2)
    or with the earlier ones, each pair as its ``code_unordered``.
    """
    blocks = [[code_unordered(t, verts[r])
               for r in (range(b + 1, len(verts)) if model.form == 2 else range(b))]
              for b, t in enumerate(verts)]
    return blocks, {"structure": "clique", "vertices": [str(v) for v in verts]}


def _assemble_anchored(state: AnchorState, blocks_of, canonical: str, point,
                       texts: Tuple[str, str, str]) -> dict:
    """Verify the sums or pairs engine invariants and return the run's payload.

    ``blocks_of(i, model, anchors)`` gives a model's blocks and its family
    head; the family's members are the union of the blocks, in ascending
    order.  ``point`` maps a member to its point of the ``canonical`` form
    domain.  Each block has no bottom label, label mass below 2^-k, and a
    single label under forms 2 and 3, and the declared canonical form
    holds on the family.  Each member is labelled once.  ``texts`` words
    the engine's own reports.

    Partition lemma: a model's blocks are pairwise disjoint and their union
    is the whole family (all finite sums of the anchors, or all pairs of
    the vertices), whatever form the model declares, so neither is checked
    here; a structural-identity certificate compares the union with the
    family enumerated afresh.  Sums: ``_sums_blocks`` refuses anchors that
    are not block disjoint, and block-disjoint anchors ascend with disjoint
    binary supports, so distinct sets of anchors have distinct sums.  Block
    b holds the sums of the sets whose least (form 2) or greatest anchor is
    anchor b, and each non-empty set has exactly one.  Pairs: each stage
    takes a vertex after its model's last one (``_scan``) from a vertex
    sequence that strictly ascends (every ground kind does; ``explicit``
    refuses members that do not), so the vertices ascend and distinct
    pairs have distinct ``code_unordered`` codes.  Block b holds the pairs
    whose earlier (form 2) or later vertex is vertex b, and each pair has
    exactly one.
    """
    bottom, single, domain_name = texts
    forbidden: set = set()
    measure = Fraction(0)
    families: Dict[str, dict] = {}
    stage_rows: List[dict] = []
    for i, records in _by_model(state).items():
        model = state.models[i]
        blocks, family = blocks_of(i, model, [rec.anchor for rec in records])
        label_of = model.rule.label
        labels: Dict[int, int] = {}
        for b, (block, rec) in enumerate(zip(blocks, records)):
            k = rec.k
            block_labels = [label_of(x) for x in block]
            if any(lab is None for lab in block_labels):
                raise ScenarioContradiction(
                    {"summary": f"model {i} stage {k}: {bottom}"}
                )
            c_block = sorted(set(block_labels))
            small = harmonic(c_block)
            bound = Fraction(1, 1 << k)
            if small >= bound:
                raise ScenarioContradiction(
                    {
                        "summary": f"model {i} stage {k}: label mass "
                        f"{rat_str(small)} not below {rat_str(bound)}"
                    }
                )
            if model.form in (2, 3) and block and len(c_block) != 1:
                raise ScenarioContradiction(
                    {"summary": f"model {i} stage {k}: {single}"}
                )
            labels.update(zip(block, block_labels))
            forbidden.update(c_block)
            measure += small
            stage_rows.append(
                {
                    "i": i,
                    "b": b,
                    "k": k,
                    "block_size": len(block),
                    "labels": [str(c) for c in c_block],
                    "label_mass": rat_str(small),
                    "bound": rat_str(bound),
                }
            )
        members = sorted(labels)
        domain = [point(x) for x in members]
        f = dict(zip(domain, map(labels.get, members)))
        # only the declared form decides; every holding case only words the report
        if not case_holds(f, domain, canonical, model.form):
            raise ScenarioContradiction(
                {
                    "summary": f"model {i}: declared form {model.form} does not "
                    f"hold on the {domain_name} "
                    f"(holding: {matching_cases(f, domain, canonical)})"
                }
            )
        families[str(i)] = {**family, "members": [str(x) for x in members], "size": len(members)}
    stages = len(state.stages)
    closed = Fraction(2) - Fraction(1, 1 << (stages - 1)) if stages else Fraction(0)
    return {
        "engine": state.engine,
        "stages": stage_rows,
        "forbidden_labels": [str(c) for c in sorted(forbidden)],
        "forbidden_mass": rat_str(measure),
        "per_stage_bound_sum": rat_str(closed),
        "tail_bound": rat_str(Fraction(1, 1 << (stages - 1))) if stages else "0/1",
        "families": families,
    }


def assemble_hindman(state: AnchorState) -> dict:
    """Verify the sums engine invariants and return the run's payload."""
    return _assemble_anchored(state, _sums_blocks, HINDMAN, lambda x: x, (
        "bottom label inside a block", "extreme-support form must give a single label per block",
        "anchored sums"))


def assemble_ramsey(state: AnchorState) -> dict:
    """Verify the pairs engine invariants and return the run's payload."""
    return _assemble_anchored(state, _pairs_blocks, RAMSEY, decode_unordered, (
        "bottom label on a pair", "extreme form must give a single label per block",
        "anchored pairs"))


def _sums_enumeration(family: dict) -> Tuple[list, List[int]]:
    anchors = family["anchors"]
    return anchors, list(fs(int(a) for a in anchors))


def _clique_enumeration(family: dict) -> Tuple[list, List[int]]:
    vertices = family["vertices"]
    pairs = combinations([int(v) for v in vertices], 2)
    return vertices, sorted(code_unordered(a, b) for a, b in pairs)


ENGINES = {
    "hindman": Engine(
        lambda scn, stages: run_hindman(scn.models(), stages,
                                        scn.scan_cap(SUMS_SCAN_CAP, SUMS_SCAN_MAX)),
        lambda state: assemble_hindman(state),
        enumerate_family=_sums_enumeration, declares="form", values=CASES[HINDMAN],
    ),
    "ramsey": Engine(
        lambda scn, stages: run_ramsey(scn.models(), stages,
                                       scn.scan_cap(PAIRS_SCAN_CAP, PAIRS_SCAN_MAX)),
        lambda state: assemble_ramsey(state),
        enumerate_family=_clique_enumeration, declares="form", values=CASES[RAMSEY],
    ),
}
