"""The difference engine (posdiff) of the diagonalization.

Each stage filters a model's successors to fresh, large labels, keeps the
residue class of largest harmonic mass and carves off a prefix of mass at
least 1; the forbidden labels stay strongly sparse (``posdiff_stage``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import diagonal
from .diagonal import (CriticalNodeModel, Engine, _by_model, _classes, _reach_one, harmonic,
                       run_stages)
from .errors import HorizonExhausted, ScenarioContradiction
from .finite import _sum_pairs, delta, diff_multiplicity
from .records import field, record
from .serialize import rat_str


def _heaviest_class(groups: Dict[int, list], bracket: Callable[[object], Tuple[int, int]],
                    mass: Callable[[object], Tuple[int, int]]) -> int:
    """Class of largest mass, decided by brackets first and exact sums last.

    ``groups`` maps each class to its runs.  ``bracket(run)`` is a pair
    (low, width), width >= 1, with low <= _SCALE * m < low + width for the
    run's mass m, and ``mass(run)`` is m as an unreduced P/Q.  A class's
    bracket is the sum of its runs' brackets.  Let F be the largest low, and
    c a class that has it.  A class whose upper end low + width does not
    pass F has mass below F / _SCALE <= mass(c), so it is neither heaviest
    nor tied with the heaviest.  Only the others are summed exactly
    (``_sum_pairs``) and compared by integer cross-multiplication, and a
    lone survivor needs no exact sum.  They are visited in ascending order
    and the best is replaced only on a strict ``>``, so the smallest class
    wins ties.
    """
    keys = sorted(groups)
    spans = {}
    for key in keys:
        low = width = 0
        for run in groups[key]:
            run_low, run_width = bracket(run)
            low, width = low + run_low, width + run_width
        spans[key] = (low, low + width)
    floor = max(low for low, _ in spans.values())
    keys = [key for key in keys if spans[key][1] > floor]
    if len(keys) == 1:
        return keys[0]
    best, best_p, best_q = None, 0, 1
    for key in keys:
        p, q = _sum_pairs([mass(run) for run in groups[key]])
        if p * best_q > best_p * q:
            best, best_p, best_q = key, p, q
    return best


@record
class PosdiffStageRecord:
    k: int
    i: int
    n_bound: int
    m_bound: int
    residue: int
    d_members: Tuple[int, ...]
    c_labels: Tuple[int, ...]
    d_harmonic: Fraction

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "i": self.i,
            "max_prev_label": self.n_bound,
            "difference_bound": self.m_bound,
            "residue": self.residue,
            "D": [str(x) for x in self.d_members],
            "C": [str(c) for c in self.c_labels],
            "harmonic_of_D": rat_str(self.d_harmonic),
        }


@record
class PosdiffState:
    engine = "posdiff"
    models: Tuple[CriticalNodeModel, ...]
    horizon: int
    stages: List[PosdiffStageRecord] = field(default_factory=list)

    def labels(self) -> List[int]:
        """The labels every stage so far has forbidden, ascending."""
        return sorted({c for rec in self.stages for c in rec.c_labels})


def posdiff_stage(state: PosdiffState, k: int, i: int,
                  model: CriticalNodeModel) -> PosdiffStageRecord:
    """One stage of the difference engine.

    Filters successors to fresh, large labels, splits them into residue
    classes modulo the difference bound, takes the class with the largest
    exact harmonic mass at the horizon, and carves off a prefix of mass at
    least 1.  Strong sparseness holds by the sparseness lemma below.

    The stage reads the rule's label runs, not single successors.
    Eligibility and residue depend only on the label, so each class is a
    union of whole runs, and its mass is the sum of its runs' masses.

    Bracket lemma: a run's bracket (L, n), n its length, has
    L <= _SCALE * S < L + n for its mass S (see ``_BlockEnds``), and a
    class's bracket is the sum of its runs'.  ``_heaviest_class`` drops
    every class whose upper end does not pass the largest lower end, since
    each is strictly lighter than the class with that lower end, and
    compares the rest by exact unreduced P/Q and cross-multiplication, the
    smallest residue winning ties.  So the choice is the exact one, and a
    class is summed exactly only when the brackets leave it in the running.
    The carve takes whole runs, each with its exact mass, while the mass
    stays below 1; inside the run that takes it to 1 or above,
    ``_reach_one`` finds the exact successor where it does.  Only the
    recorded mass is reduced, once.  A stage costs O(runs + |D|) besides
    its exact sums.

    Whole-block lemma: on a ``block-geometric`` rule each run is a whole
    block, and a block closes exactly where its mass first reaches 1.  So
    the first run of the chosen class, if closed, has mass at least 1 and
    one term less is below 1: the carve stops at its last successor, and D
    is that one whole block, with the block's mass.  If that first run is
    the open block cut off at the horizon, it is also the class's last
    run; the stage succeeds only when the block closes exactly at
    horizon - 1, and otherwise stops with its partial mass.

    Sparseness lemma: no new label repeats a difference of the earlier
    labels, so the stage does not check it.  Every such difference is
    below m_bound.  A new label exceeds n_bound + m_bound, so it lies more
    than m_bound above every earlier label; two new labels share their
    residue modulo m_bound, so they differ by a non-zero multiple of it.
    """
    rule = model.rule
    if rule.finite_alphabet():
        _posdiff_refute_finite(state, i)

    prev = state.labels()
    diffs = delta(prev)
    n_bound = max(prev) if prev else 0
    m_bound = (max(diffs) if diffs else 0) + 1

    floor = n_bound + m_bound
    groups = _classes(
        (lab % m_bound, (start, end, lab))
        for start, end, lab in rule.label_runs(0, state.horizon)
        if lab is not None and lab > floor
    )
    if not groups:
        raise HorizonExhausted(f"stage {k}: no eligible successors below horizon")

    best = _heaviest_class(groups, lambda run: rule.run_bracket(run[0], run[1]),
                           lambda run: rule.run_mass(run[0], run[1]))
    p, q = 0, 1
    taken = []
    for start, end, lab in groups[best]:
        rp, rq = rule.run_mass(start, end)
        new_p, new_q = p * rq + rp * q, q * rq
        if new_p >= new_q and new_p * end - new_q >= new_q * end:
            # one term less already reaches 1: find where inside the run
            end, new_p, new_q = _reach_one(start, end - 1, p, q)
        p, q = new_p, new_q
        taken.append((start, end, lab))
        if p >= q:
            break
    acc = Fraction(p, q)
    if p < q:
        raise HorizonExhausted(
            f"stage {k}: residue class {best} reaches only {rat_str(acc)} at the horizon"
        )
    members = [x for start, end, _ in taken for x in range(start, end)]
    labels = sorted({lab for _, _, lab in taken})
    return PosdiffStageRecord(
        k, i, n_bound, m_bound, best, tuple(members), tuple(labels), acc
    )


def _posdiff_refute_finite(state: PosdiffState, i: int):
    """Finite label alphabets contradict a divergent successor sum."""
    rule = state.models[i].rule
    groups = _classes(
        (lab, rule.run_mass(start, end)) for start, end, lab in rule.label_runs(0, state.horizon)
    )
    classes = {lab: Fraction(*_sum_pairs(pairs)) for lab, pairs in groups.items()}
    raise ScenarioContradiction(
        {
            "summary": "finite label alphabet: finitely many label classes, each "
            "null for the critical node, cannot cover the divergent harmonic sum",
            "classes": {str(k): rat_str(v) for k, v in sorted(classes.items(), key=str)},
            "assumption": "the modelled node is critical and its successor set has "
            "divergent harmonic weight",
        }
    )


def run_posdiff(
    models: Sequence[CriticalNodeModel], horizon: int, stages: int
) -> PosdiffState:
    state = PosdiffState(ENGINES["posdiff"].checked(models), horizon)
    return run_stages(state, stages, posdiff_stage)


def assemble_posdiff(state: PosdiffState) -> dict:
    """Verify the difference engine invariants and return the run's payload."""
    members = state.labels()
    table = diff_multiplicity(members)
    return {
        "engine": "posdiff",
        "stages": [rec.to_json() for rec in state.stages],
        "forbidden_labels": [str(c) for c in members],
        "forbidden_mass": rat_str(harmonic(members)),
        "difference_multiplicities": {str(d): c for d, c in sorted(table.items())},
        "families": {
            str(i): {
                "structure": "divergent-harmonic",
                "members": [str(x) for x in sorted(x for rec in records for x in rec.d_members)],
                "harmonic_mass": rat_str(sum((rec.d_harmonic for rec in records), Fraction(0))),
                "stages": len(records),
            }
            for i, records in _by_model(state).items()
        },
    }


ENGINES = {
    "posdiff": Engine(
        lambda scn, stages: diagonal.run_posdiff(scn.models(), scn.horizon, stages),
        lambda state: diagonal.assemble_posdiff(state),
    ),
}
