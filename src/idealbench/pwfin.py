"""The interval engine (pwfin) of the diagonalization: the embedding argument.

Each stage takes a fresh difference index n, an interval I_n on which the
source selector P weighs and the target Q does not, extracts the largest
monochromatic class of the model's labels there (``extract_profile``) and
forbids its labels.  The stage bounds are proved in ``pwfin_stage``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .construction import PartitionData, interval_weight, selector_weight
from .diagonal import (CriticalNodeModel, Engine, LabelRule, _by_model, _prev_interval_label,
                       run_stages)
from .errors import HorizonExhausted, ScenarioContradiction, StructuralError
from .records import field, record
from .serialize import rat_str
from .sets import DescribedSet, set_from_json


@record(frozen=True)
class IntervalClassProfile:
    """Homogeneous data extracted from one interval of successors."""

    n: int
    colour: int
    f_count: int
    g_count: int
    label_kind: str                 # "none" | "single" | "interval" | "explicit"
    label_value: Optional[int] = None
    label_members: Tuple[int, ...] = ()

    def labels_json(self):
        if self.label_kind == "single":
            return {"kind": "single", "value": str(self.label_value)}
        if self.label_kind == "interval":
            return {"kind": "interval", "n": self.n}
        if self.label_kind == "explicit":
            return {"kind": "explicit", "members": [str(m) for m in self.label_members]}
        return {"kind": "none"}


def _uniform_profile(p: PartitionData, n: int, label: Optional[int]) -> IntervalClassProfile:
    """Profile of I_n when every member carries ``label`` (None is bottom)."""
    length = p.lengths[n]
    if label is None:
        return IntervalClassProfile(n, 0, length, length, "none")
    return IntervalClassProfile(n, 1 if label < p.starts[n] else 2, length, length, "single", label)


# the profile of I_n in closed form, by label rule kind: (rule, p, n) -> profile
_CLOSED_PROFILES: Dict[str, Callable[[LabelRule, PartitionData, int], IntervalClassProfile]] = {
    "identity": lambda rule, p, n: IntervalClassProfile(
        n, 2, p.lengths[n], p.lengths[n], "interval"),
    "constant": lambda rule, p, n: _uniform_profile(p, n, rule.params["value"]),
    "all-bot": lambda rule, p, n: _uniform_profile(p, n, None),
    "prev-interval-max": lambda rule, p, n: _uniform_profile(p, n, _prev_interval_label(p, n)),
}


def coarse_colour(model: CriticalNodeModel, p: PartitionData, n: int, x: int) -> int:
    """0 for bottom, 1 for a label below I_n, 2 for a label in or past I_n."""
    if not (p.starts[n] <= x < p.end(n)):
        raise ValueError(f"{x} is not in interval {n}")
    label = model.rule.label(x)
    if label is None:
        return 0
    return 1 if label < p.starts[n] else 2


_ENUM_CAP = 1 << 16


def extract_profile(model: CriticalNodeModel, p: PartitionData, n: int) -> IntervalClassProfile:
    """Largest monochromatic class of I_n with its label data.

    Kinds with a closed form in ``_CLOSED_PROFILES`` avoid enumerating the
    interval, which matters once interval sizes leave the enumerable range.
    Ties go to the least colour; within colour 1 the largest label class
    wins, least label on ties.
    """
    closed = _CLOSED_PROFILES.get(model.rule.kind)
    if closed is not None:
        return closed(model.rule, p, n)
    if p.lengths[n] > _ENUM_CAP:
        raise HorizonExhausted(f"interval {n} too large for a table model")
    by_colour: Dict[int, List[int]] = {0: [], 1: [], 2: []}
    for x in p.interval_members(n):
        by_colour[coarse_colour(model, p, n, x)].append(x)
    colour = max((0, 1, 2), key=lambda t: (len(by_colour[t]), -t))
    block = by_colour[colour]
    if colour == 0:
        return IntervalClassProfile(n, 0, len(block), len(block), "none")
    labels = sorted({model.rule.label(x) for x in block})
    if colour == 2:
        return IntervalClassProfile(
            n, 2, len(block), len(block), "explicit", None, tuple(labels)
        )
    by_label: Dict[int, int] = {}
    for x in block:
        lab = model.rule.label(x)
        by_label[lab] = by_label.get(lab, 0) + 1
    best = max(sorted(by_label), key=lambda lab: by_label[lab])
    return IntervalClassProfile(
        n, 1, len(block), by_label[best], "single", best
    )


def profile_label_weight(
    prof: IntervalClassProfile, selector: DescribedSet, p: PartitionData
) -> Fraction:
    """Exact selector-weight of the profile's label set."""
    if prof.label_kind == "interval":
        return interval_weight(selector, p, prof.n)
    if prof.label_kind == "none":
        raise StructuralError("bottom class has no label weight")
    members = (prof.label_value,) if prof.label_kind == "single" else prof.label_members
    return sum((selector_weight(selector, p, p.interval_of(c)) for c in members), Fraction(0))


@record
class PwfinStageRecord:
    k: int
    i: int
    n: int
    case: str
    c_labels: dict
    c_weight_p: Fraction
    c_bound: Fraction
    d_count: int
    d_weight_q: Fraction

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "i": self.i,
            "n": self.n,
            "case": self.case,
            "forbidden_labels": self.c_labels,
            "wP_of_C": rat_str(self.c_weight_p),
            "wP_bound": rat_str(self.c_bound),
            "D_count": str(self.d_count),
            "wQ_of_D": rat_str(self.d_weight_q),
        }


PWFIN_CASES = ("2a", "2b", "2c")


@record
class PwfinState:
    engine = "pwfin"
    partition: PartitionData
    p_set: DescribedSet
    q_set: DescribedSet
    models: Tuple[CriticalNodeModel, ...]
    stages: List[PwfinStageRecord] = field(default_factory=list)

    def difference_indices(self, after: int = 0) -> List[int]:
        """The n in after + 1 .. depth - 1 that P holds and Q does not."""
        return [
            n
            for n in range(after + 1, self.partition.depth)
            if self.p_set.contains(n) and not self.q_set.contains(n)
        ]


def pwfin_stage(state: PwfinState, k: int, i: int,
                model: CriticalNodeModel) -> PwfinStageRecord:
    """One stage of the interval engine.

    The stage takes the first difference index after the one its model
    chose last that fits the model's case, so a model's intervals ascend
    and two models may each take the same interval.  The late start skips
    no interval that fits: the stage that chose the last one took or
    rejected every index before it, and a rejected candidate stays
    rejected at every later stage of the model, because its profile
    (colour and label) is fixed per interval, ``p.starts[k]`` grows with
    k, and n <= k persists.

    Bound lemma: the stage bounds hold without a check.  The partition is
    greedy (``run_pwfin`` refuses any other), the labels are naturals (the
    label rule parsers refuse any other), and ``Engine.checked`` admits
    the cases 2a, 2b and 2c only; 2a always ends in ``_pwfin_refute_2a``.
    Write S_n = |I_<n|, L_n = |I_n| and r_n = 1/R_n.  The greedy identities
    (``construction``) give L_n = S_n R_n, r_{n+1} L_n = 2^-(n+1),
    R_k >= 2^k and r_0 > r_1 > ....  The chosen n >= 1 is in P and not in
    Q, and a point of I_m weighs r_{m+1} or r_m under P, so at most r_m.

    * 2b, label weight: the chosen label is at least min I_k, so it lies in
      some I_m with m >= k and weighs at most r_k <= 2^-k.
    * 2c, label weight: each of the at most L_n labels of the colour-2 class
      lies in some I_m with m >= n, and n is in P, so each weighs at most
      r_{n+1}; together at most 2^-(n+1) < 2^-k, as n > k.
    * Block weight: every point of I_n weighs r_n under Q, as n is not in Q.
      In 2c the block is the largest of three colour classes, f >= L_n/3
      points, so it weighs f/R_n >= S_n/3 >= 1/3.  In 2b the f labels of
      the class are naturals below S_n, so by pigeonhole the most frequent
      one holds g >= f/S_n of them, and the block weighs
      g/R_n >= f/L_n >= 1/3.

    Horizon lemma: no stage k >= depth runs, so ``p.starts[k]`` exists.
    The chosen n exceeds k: 2c skips n <= k, and in 2b the label lies in
    [S_k, S_n) (fresh, and of colour 1), so S_k < S_n.  Every candidate n
    is below the depth, so stage depth - 1 finds none and raises "no fresh
    difference index" (or, for 2a, its contradiction), ending the run.
    """
    p = state.partition
    last = [rec.n for rec in state.stages if rec.i == i]
    candidates = state.difference_indices(last[-1] if last else 0)

    if model.case == "2a":
        _pwfin_refute_2a(state, model, candidates)

    for n in candidates:
        prof = extract_profile(model, p, n)
        # 2b takes a fresh label: outside I_<k, read as at least min I_k
        if ((prof.colour == 1 and prof.label_value >= p.starts[k]) if model.case == "2b"
                else (prof.colour == 2 and n > k)):
            break
    else:
        raise HorizonExhausted(f"stage {k}: no fresh difference index fits case {model.case}")

    c_weight = profile_label_weight(prof, state.p_set, p)
    d_count = prof.g_count if model.case == "2b" else prof.f_count
    # members of the extracted block all sit in I_n, off the target selector
    d_weight = selector_weight(state.q_set, p, n) * d_count
    return PwfinStageRecord(
        k, i, n, model.case, prof.labels_json(), c_weight, Fraction(1, 1 << k), d_count, d_weight
    )


def _pwfin_refute_2a(state: PwfinState, model: CriticalNodeModel, candidates):
    """A declared-null bottom class accumulating weight is a contradiction."""
    p = state.partition
    total = Fraction(0)
    rows = []
    for n in candidates:
        prof = extract_profile(model, p, n)
        if prof.colour != 0:
            continue
        weight = selector_weight(state.q_set, p, n) * prof.f_count
        total += weight
        rows.append({"n": n, "wQ": rat_str(weight)})
        if total >= 1:
            break
    raise ScenarioContradiction(
        {
            "summary": "case 2a: bottom-coloured blocks accumulate target weight "
            f"{rat_str(total)} although the bottom class is declared null",
            "blocks": rows,
            "assumption": "the modelled node is critical, so its bottom class is null",
        }
    )


def run_pwfin(
    partition: PartitionData,
    p_set: DescribedSet,
    q_set: DescribedSet,
    models: Sequence[CriticalNodeModel],
    stages: int,
) -> PwfinState:
    """A run of the interval engine on a greedy partition; ValueError for any other."""
    if not partition.greedy:
        raise ValueError("the interval engine runs on a greedy partition only")
    state = PwfinState(partition, p_set, q_set, ENGINES["pwfin"].checked(models))
    return run_stages(state, stages, pwfin_stage)


def assemble_pwfin(state: PwfinState) -> dict:
    """The interval engine's payload.

    Each stage's label weight is at most its bound 2^-k (the bound lemma
    of ``pwfin_stage``), so the forbidden weight is at most the bound sum
    below 2, the closed form recorded.
    """
    return {
        "engine": "pwfin",
        "stages": [rec.to_json() for rec in state.stages],
        "forbidden_labels": [rec.c_labels for rec in state.stages],
        "forbidden_weight": rat_str(sum((rec.c_weight_p for rec in state.stages), Fraction(0))),
        "closed_form_bound": "2/1",
        "families": {
            str(i): {
                "structure": "divergent-weight",
                "intervals": sorted(rec.n for rec in records),
                "target_weight": rat_str(sum((rec.d_weight_q for rec in records), Fraction(0))),
                "stages": len(records),
            }
            for i, records in _by_model(state).items()
        },
    }


def _run_pwfin_scenario(scn, stages: int) -> PwfinState:
    partition = scn.partition()
    models = scn.models(partition)
    return run_pwfin(partition, set_from_json(scn.required("P")),
                     set_from_json(scn.required("Q")), models, stages)


ENGINES = {
    "pwfin": Engine(
        _run_pwfin_scenario, lambda state: assemble_pwfin(state),
        explicit_forbidden=False, declares="case", values=PWFIN_CASES,
    ),
}


