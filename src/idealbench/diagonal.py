"""Stage-by-stage diagonalization engines with exact stage bounds.

Each engine consumes declared critical-node models (label rules standing in
for the successor labels of a critical node), extends its accumulators one
stage at a time, and records every stage bound in exact rational
arithmetic.  A bound that some input breaks is checked; a bound that the
construction forces on every input is proved in a docstring lemma instead
(``pwfin_stage``, ``posdiff_stage``, ``_assemble_anchored``):

* interval engine (pwfin): forbidden-label weight at most 2^-k against the
  source weights, extracted-block weight at least 1/3 against the target
  weights (both proved), case 2b and 2c selection rules, freshness
  bookkeeping;
* difference engine (posdiff): residue-class filtering with harmonic mass
  at least 1 per stage, strong sparseness of the forbidden labels (proved);
* sums engine (hindman): anchor thresholds per canonical case, harmonic
  smallness below 2^-k, block structure of the obstruction family (its
  disjointness and union proved);
* pairs engine (ramsey): same scheme over coded unordered pairs.

Stage numbering follows the diagonal pairing, so a model's per-visit
counter b never exceeds the stage number k; the smallness estimates lean
on exactly that inequality.  Constant-form scenarios cannot supply a
diagonalization stage at all; the engines turn them into structured
contradiction reports instead.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import combinations
from math import ceil, exp
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .construction import PartitionData, interval_weight, selector_weight
from .errors import HorizonExhausted, ScenarioContradiction, SchemaError, StructuralError
from .pairing import code_unordered, decode_unordered, pair_diag, unpair_diag
from .ramsey import (
    CASES,
    HINDMAN,
    RAMSEY,
    block_disjoint,
    fs,
    matching_cases,
    max_support,
    min_support,
)
from .records import field, record
from .serialize import integer_field, rat_str
from .sets import DescribedSet, delta, set_from_json
from .ideals import _sum_pairs, diff_multiplicity


def _harmonic_pair(members) -> Tuple[int, int]:
    """Unreduced P/Q equal to ``harmonic(members)``, by binary splitting."""
    return _sum_pairs([(1, x + 1) for x in members])


def harmonic(members) -> Fraction:
    """Exact sum of 1/(x+1) over the members: ``_harmonic_pair``, reduced once."""
    return Fraction(*_harmonic_pair(members))


def _reach_one(a: int, limit: int, p: int = 0, q: int = 1) -> Tuple[Optional[int], int, int]:
    """First end t in a+1 .. limit with p/q + S(a, t) >= 1, proved with integers.

    S(a, t) is the harmonic mass of the successors a .. t - 1, the
    unreduced ``_harmonic_pair`` of ``range(a, t)``, and p/q < 1 is a mass
    already taken.  A float estimate of H(t) - H(a) >= 1 - p/q, with
    H(n) ~ log(n + 1/2) + const, gives a first guess for t.  From there
    the scan steps one term at a time until the two integer comparisons
    p/q + S(a, t) >= 1 and p/q + S(a, t - 1) < 1 both hold.  S(a, .) is
    strictly increasing, so together they make t the first end at which
    the mass reaches 1, whatever the guess was: a poor guess costs steps,
    never the answer.

    Returns (t, P, Q) with P/Q = p/q + S(a, t) unreduced.  If the mass
    stays below 1 up to ``limit``, returns (None, P, Q) with
    P/Q = p/q + S(a, limit).  No term past successor ``limit - 1`` is
    ever added.
    """
    if limit <= a:
        return None, p, q
    guess = ceil((a + 0.5) * exp(1 - p / q) - 0.5)
    t = min(max(guess, a + 1), limit)
    s, r = _harmonic_pair(range(a, t))
    p, q = p * r + s * q, q * r
    if p >= q:
        while t > a + 1 and p * t - q >= q * t:
            p, q, t = p * t - q, q * t, t - 1
        return t, p, q
    while t < limit:
        t += 1
        p, q = p * t + q, q * t
        if p >= q:
            return t, p, q
    return None, p, q


def _classes(pairs) -> Dict[object, list]:
    """Members of each class, from (class, member) pairs."""
    groups: Dict[object, list] = {}
    for key, x in pairs:
        groups.setdefault(key, []).append(x)
    return groups


def _by_model(state) -> Dict[int, list]:
    """Each model's stage records in stage order, the models in order of their first
    stage, which is ascending: ``unpair_diag`` visits a new model after every lower one."""
    return _classes((rec.i, rec) for rec in state.stages)


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


# -- label rules -------------------------------------------------------------

# Fixed-point scale of the harmonic brackets (the bracket lemma of _BlockEnds)
_SCALE = 1 << 64


def _bracket_low(start: int, end: int) -> int:
    """The bracket L of start .. end - 1: the sum of _SCALE // (x + 1) over them."""
    return sum(map(_SCALE.__floordiv__, range(start + 1, end + 1)))


@record
class _BlockEnds:
    """Blocks of a ``block-geometric`` rule proven so far.

    ``starts[j]`` is the first successor of block j.  ``lows`` maps each
    closed block's (start, end) to its bracket L, and ``masses`` holds a
    closed block's exact unreduced mass once ``run_mass`` has been asked for
    it.  The last block is still open: ``low`` is its bracket over
    starts[-1] .. pos - 1, where its mass is below 1, so every successor up
    to pos belongs to it.

    Bracket lemma.  Write L_t for the bracket of a .. t - 1, the sum of
    _SCALE // (x + 1) over them.  Each floor loses less than 1, so
    L_t <= _SCALE * S(a, t) < L_t + (t - a) for t > a, and L_a = S(a, a) = 0.
    Then S(a, t) >= 1 when L_t >= _SCALE, and S(a, t) < 1 when
    L_t + (t - a) <= _SCALE.  So an end t is proven, S(a, t) >= 1 > S(a, t - 1),
    when L_t >= _SCALE and L_{t-1} + (t - 1 - a) <= _SCALE, and an open block
    is proven below 1 up to t when L_t + (t - a) <= _SCALE.  The scan decides
    with those two integer tests alone; where neither settles it, the mass
    is within (t - a) / _SCALE of 1 and ``_reach_one`` decides exactly.
    """

    starts: List[int] = field(default_factory=list)
    lows: Dict[Tuple[int, int], int] = field(default_factory=dict)
    masses: Dict[Tuple[int, int], Tuple[int, int]] = field(default_factory=dict)
    pos: int = 0
    low: int = 0


@record(frozen=True)
class LabelRule:
    """Successor-label assignment of a modelled critical node.

    ``label`` maps a successor to its value or None (bottom), and
    ``pair_label`` maps an unordered pair {s, t} to its value; a kind
    without a pair form raises ``StructuralError`` there.  Both are looked
    up in ``LABEL_KINDS`` once, when the rule is built, so a call is one
    plain function call.  They and the cache of scanned block ends are
    attributes set in ``__post_init__``, not fields, so a rule equals any
    rule of the same ``kind`` and ``params``.  For every kind with a pair
    form, ``label(code_unordered(s, t)) == pair_label(s, t)``.  Rules whose
    alphabet is provably finite are flagged; the difference engine must
    refuse them with the harmonic-partition contradiction.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = LABEL_KINDS.get(self.kind)
        if spec is None:
            raise StructuralError(f"unknown label rule {self.kind!r}")
        object.__setattr__(self, "_blocks", _BlockEnds())
        object.__setattr__(self, "pair_label", (spec.pair or _no_pair)(self))
        object.__setattr__(self, "label", spec.label(self))

    def finite_alphabet(self) -> bool:
        return LABEL_KINDS[self.kind].finite

    def label_runs(self, lo: int, hi: int) -> Iterator[Tuple[int, int, Optional[int]]]:
        """Runs (start, end, label) covering lo .. hi - 1 in ascending order.

        Every successor x of start .. end - 1 has ``label(x) == label``.  A
        ``block-geometric`` rule yields whole blocks, cut only at lo and hi;
        every other rule is read one successor at a time, equal neighbours
        merged.
        """
        if lo >= hi:
            return
        runs = LABEL_KINDS[self.kind].runs
        if runs is not None:
            yield from runs(self, lo, hi)
            return
        label = self.label
        start, current = lo, label(lo)
        for x in range(lo + 1, hi):
            lab = label(x)
            if lab != current:
                yield start, x, current
                start, current = x, lab
        yield start, hi, current

    def run_bracket(self, start: int, end: int) -> Tuple[int, int]:
        """Bracket (L, end - start) of the harmonic mass S of start .. end - 1.

        L <= _SCALE * S < L + (end - start).  A closed block, or the open
        block up to the end of the block scan, reuses the bracket that scan
        kept; any other run is summed term by term.
        """
        blocks = self._blocks
        low = blocks.lows.get((start, end))
        if low is None:
            if blocks.starts and (start, end) == (blocks.starts[-1], blocks.pos):
                low = blocks.low
            else:
                low = _bracket_low(start, end)
        return low, end - start

    def run_mass(self, start: int, end: int) -> Tuple[int, int]:
        """Unreduced harmonic mass P/Q of the successors start .. end - 1.

        Summed on first request; a closed block keeps its sum for the next.
        """
        blocks = self._blocks
        mass = blocks.masses.get((start, end))
        if mass is None:
            mass = _harmonic_pair(range(start, end))
            if (start, end) in blocks.lows:
                blocks.masses[(start, end)] = mass
        return mass

    def _block_label(self, x: int) -> Optional[int]:
        if x < self.params["start"]:
            return None
        j = bisect_right(self._block_bounds(x), x) - 1
        return self.params["base_label"] * self.params["ratio"] ** j

    def _block_runs(self, lo: int, hi: int) -> Iterator[Tuple[int, int, Optional[int]]]:
        start = self.params["start"]
        if lo < start:
            yield lo, min(start, hi), None
        starts = self._block_bounds(hi)
        base, ratio = self.params["base_label"], self.params["ratio"]
        j = max(bisect_right(starts, lo) - 1, 0)
        while j < len(starts) and starts[j] < hi:
            end = starts[j + 1] if j + 1 < len(starts) else hi
            yield max(starts[j], lo), min(end, hi), base * ratio ** j
            j += 1

    def _block_bounds(self, upto: int) -> List[int]:
        """First successors of the blocks up to the one holding ``upto``.

        A block ends where its harmonic mass first reaches 1.  The scan adds
        each successor's bracket term and proves each end, or the open
        block's mass below 1, by the bracket lemma of ``_BlockEnds``; where
        the bracket cannot tell, ``_reach_one`` decides exactly from the
        block start.  The scan stops at ``upto`` with the open block's
        bracket kept, and a later, larger query resumes from there, so no
        term past the largest query is ever added.
        """
        blocks = self._blocks
        if not blocks.starts:
            blocks.starts.append(self.params["start"])
            blocks.pos = self.params["start"]
        one = _SCALE
        while blocks.pos < upto:
            a, x, low = blocks.starts[-1], blocks.pos, blocks.low
            before = low
            while x < upto and low < one:
                # terms fall, so the next `room` terms, each at most `term`,
                # keep the bracket below one: add them at once
                term = one // (x + 1)
                room = (one - 1 - low) // term if term else upto - x
                if room > 1:
                    room = min(room, upto - x)
                    low += _bracket_low(x, x + room)
                    x += room
                    continue
                before = low
                low += term
                x += 1
            if low < one and low + (x - a) <= one:
                blocks.pos, blocks.low = x, low
                continue
            if not (low >= one and before + (x - 1 - a) <= one):
                x, p, q = _reach_one(a, upto)
                if x is None:
                    blocks.pos, blocks.low = upto, _bracket_low(a, upto)
                    continue
                low = _bracket_low(a, x)
                blocks.masses[(a, x)] = (p, q)
            blocks.lows[(a, x)] = low
            blocks.starts.append(x)
            blocks.pos, blocks.low = x, 0
        return blocks.starts

    def to_json(self) -> dict:
        """The rule in scenario form; a dict parameter becomes sorted (key, value) pairs."""
        params = {k: sorted(v.items()) if isinstance(v, dict) else v
                  for k, v in self.params.items()
                  if not k.startswith("_") and k != "partition"}
        return {"kind": self.kind, **params}


@record(frozen=True)
class LabelKind:
    """One kind of label rule.

    ``params`` are the parameters the kind reads unconditionally.  ``parse``
    turns the parameters of a scenario rule (every field but ``kind``) and
    the partition in scope into the rule's params, raising SchemaError on
    malformed ones.  ``label`` and ``pair`` take a rule and return its
    successor and pair labelling functions; ``pair`` is None for a kind
    without a pair form.  ``runs``, if set, yields the rule's label runs
    directly instead of reading one successor at a time.  ``profile``, if
    set, gives the rule's profile of an interval in closed form, without
    enumerating it.
    """

    label: Callable[[LabelRule], Callable[[int], Optional[int]]]
    pair: Optional[Callable[[LabelRule], Callable[[int, int], Optional[int]]]] = None
    params: Tuple[str, ...] = ()
    finite: bool = False
    runs: Optional[Callable[[LabelRule, int, int], Iterator[Tuple[int, int, Optional[int]]]]] = None
    parse: Callable[[dict, Optional[PartitionData]], dict] = lambda params, partition: params
    profile: Optional[Callable[[LabelRule, PartitionData, int], IntervalClassProfile]] = None


def _no_pair(rule: LabelRule):
    def pair_label(s: int, t: int):
        raise StructuralError(f"rule {rule.kind!r} has no pair form")
    return pair_label


def _constant(rule: LabelRule):
    value = rule.params["value"]
    return lambda *_: value


def _via_pair(rule: LabelRule):
    pair = rule.pair_label
    return lambda x: pair(*decode_unordered(x))


def _table_pair(rule: LabelRule):
    get = rule.params["entries"].get
    return lambda s, t: get(code_unordered(s, t))


def _parse_table(params: dict, partition) -> dict:
    entries = params["entries"]
    if not isinstance(entries, list) or not all(
        isinstance(pair, list) and len(pair) == 2 and type(pair[0]) is int for pair in entries
    ):
        raise SchemaError("table entries must be [successor, label or null] pairs, "
                          "the successor an integer")
    if not all(v is None or type(v) is int and v >= 0 for _, v in entries):
        raise SchemaError("table labels must be naturals or null")
    return {**params, "entries": dict(entries)}


def _parse_constant(params: dict, partition) -> dict:
    integer_field(params, "value", None, "a constant label rule", minimum=0)
    return params


def _parse_block_geometric(params: dict, partition) -> dict:
    for name in ("start", "base_label", "ratio"):
        integer_field(params, name, None, "a block-geometric label rule", minimum=0)
    return params


def _parse_prev_interval_max(params: dict, partition) -> dict:
    if partition is None:
        raise SchemaError("prev-interval-max needs the partition in scope")
    return {**params, "partition": partition}


def _prev_interval_label(p: PartitionData, n: int) -> Optional[int]:
    """The prev-interval-max label of every member of I_n: max I_(n-1), bottom on I_0."""
    return None if n == 0 else p.end(n - 1) - 1


def _prev_interval_max(rule: LabelRule):
    p: PartitionData = rule.params["partition"]
    return lambda x: _prev_interval_label(p, p.interval_of(x))


def _uniform_profile(p: PartitionData, n: int, label: Optional[int]) -> IntervalClassProfile:
    """Profile of I_n when every member carries ``label`` (None is bottom)."""
    length = p.lengths[n]
    if label is None:
        return IntervalClassProfile(n, 0, length, length, "none")
    return IntervalClassProfile(n, 1 if label < p.starts[n] else 2, length, length, "single", label)


def _support_pair_code(x: int) -> Optional[int]:
    if x < 1:
        return None
    return pair_diag(min_support(x).bit_length() - 1, max_support(x).bit_length() - 1)


LABEL_KINDS: Dict[str, LabelKind] = {
    "identity": LabelKind(
        lambda rule: lambda x: x,
        profile=lambda rule, p, n: IntervalClassProfile(
            n, 2, p.lengths[n], p.lengths[n], "interval")),
    "constant": LabelKind(
        _constant, _constant, ("value",), finite=True, parse=_parse_constant,
        profile=lambda rule, p, n: _uniform_profile(p, n, rule.params["value"])),
    "all-bot": LabelKind(lambda rule: lambda x: None, finite=True,
                         profile=lambda rule, p, n: _uniform_profile(p, n, None)),
    "table": LabelKind(lambda rule: rule.params["entries"].get, _table_pair, ("entries",),
                       finite=True, parse=_parse_table),
    "prev-interval-max": LabelKind(
        _prev_interval_max, parse=_parse_prev_interval_max,
        profile=lambda rule, p, n: _uniform_profile(p, n, _prev_interval_label(p, n))),
    "block-geometric": LabelKind(lambda rule: rule._block_label,
                                 params=("start", "base_label", "ratio"),
                                 runs=LabelRule._block_runs, parse=_parse_block_geometric),
    "min-support": LabelKind(lambda rule: lambda x: None if x < 1 else min_support(x)),
    "max-support": LabelKind(lambda rule: lambda x: None if x < 1 else max_support(x)),
    "support-pair-code": LabelKind(lambda rule: _support_pair_code),
    "pair-min": LabelKind(_via_pair, lambda rule: lambda s, t: s if s < t else t),
    "pair-max": LabelKind(_via_pair, lambda rule: lambda s, t: t if s < t else s),
    "pair-code": LabelKind(_via_pair, lambda rule: code_unordered),
    "pair-constant": LabelKind(_constant, _constant, ("value",), finite=True,
                               parse=_parse_constant),
}


@record(frozen=True)
class CriticalNodeModel:
    """Declared critical node: an index, a label source, and case data."""

    index: int
    rule: LabelRule
    case: Optional[str] = None     # pwfin: "2a" | "2b" | "2c"
    form: Optional[int] = None     # hindman 1..5 / ramsey 1..4
    ground: Optional[dict] = None  # hindman ground sequence / ramsey vertices


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
        index=integer_field(obj, "index", 0, "a model", minimum=0),
        rule=rule_from_json(obj["labels"], partition),
        case=obj.get("case"),
        form=obj.get("form"),
        ground=obj.get("ground"),
    )


def model_for_stage(models: Sequence[CriticalNodeModel], k: int) -> Tuple[int, CriticalNodeModel]:
    """Critical node handled at stage k, visiting every model infinitely often."""
    i_raw, _ = unpair_diag(k)
    i = i_raw % len(models)
    return i, models[i]


def run_stages(state, stages: int, stage):
    """The one stage loop of every engine: stages 0 .. stages - 1 of a run.

    Stage k goes to the model ``model_for_stage`` picks, and
    ``stage(state, k, i, model)`` returns its record, which is appended to
    ``state.stages``.  The records are the run's only state: a stage reads
    what earlier stages did from them, and a stage that raises appends
    nothing.
    """
    for k in range(stages):
        i, model = model_for_stage(state.models, k)
        state.stages.append(stage(state, k, i, model))
    return state


# -- interval engine (embedding argument) ------------------------------------

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

    Kinds with a closed-form ``LabelKind.profile`` avoid enumerating the
    interval, which matters once interval sizes leave the enumerable range.
    Ties go to the least colour; within colour 1 the largest label class
    wins, least label on ties.
    """
    closed = LABEL_KINDS[model.rule.kind].profile
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

    def difference_indices(self) -> List[int]:
        return [
            n
            for n in range(1, self.partition.depth)
            if self.p_set.contains(n) and not self.q_set.contains(n)
        ]


def pwfin_stage(state: PwfinState, k: int, i: int,
                model: CriticalNodeModel) -> PwfinStageRecord:
    """One stage of the interval engine.

    An interval is fresh for model i while no record of model i holds it,
    so two models may each take the same interval.

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
    """
    p = state.partition
    candidates = state.difference_indices()

    if model.case == "2a":
        _pwfin_refute_2a(state, model, candidates)

    used = {rec.n for rec in state.stages if rec.i == i}
    chosen = None
    for n in candidates:
        if n in used:
            continue
        prof = extract_profile(model, p, n)
        if model.case == "2b":
            if prof.colour != 1:
                continue
            # freshness of the label: outside I_<k, read as at least min I_k
            if k < p.depth and prof.label_value < p.starts[k]:
                continue
            if k >= p.depth:
                raise HorizonExhausted("stage index beyond partition depth")
        else:
            if prof.colour != 2 or n <= k:
                continue
        chosen = (n, prof)
        break
    if chosen is None:
        raise HorizonExhausted(
            f"stage {k}: no fresh difference index fits case {model.case}"
        )
    n, prof = chosen

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


# -- difference engine --------------------------------------------------------

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


# -- ground sequences ---------------------------------------------------------

def _explicit(what: str):
    def sequence(ground: dict) -> Callable[[int], int]:
        seq = ground.get("members")
        if not isinstance(seq, list) or not all(type(x) is int and x >= 0 for x in seq):
            raise SchemaError(f"an explicit {what} sequence needs a members list of naturals")

        def element(j: int) -> int:
            if j >= len(seq):
                raise HorizonExhausted(f"{what} sequence exhausted")
            return seq[j]
        return element
    return sequence


def _ap(ground: dict) -> Callable[[int], int]:
    base = integer_field(ground, "base", None, "an ap vertex sequence")
    step = integer_field(ground, "step", None, "an ap vertex sequence")
    return lambda j: base + j * step


# the element function j -> element j of a sums-engine ground and of a
# pairs-engine vertex sequence, by kind; the first kind of each table is the
# one a sequence without "kind" has
GroundKinds = Dict[str, Callable[[dict], Callable[[int], int]]]
GROUND_KINDS: GroundKinds = {
    "powers-of-two": lambda ground: lambda j: 1 << j,
    "explicit": _explicit("ground"),
}
VERTEX_KINDS: GroundKinds = {
    "all": lambda ground: lambda j: j,
    "ap": _ap,
    "explicit": _explicit("vertex"),
}


def _ground_kind(kinds: GroundKinds, ground) -> Optional[str]:
    """Kind of a model's ground; no ground, or one without "kind", has the table's first."""
    if ground is None:
        ground = {}
    return ground.get("kind", next(iter(kinds))) if isinstance(ground, dict) else None


def _sequence(kinds: GroundKinds, ground) -> Callable[[int], int]:
    """Element function of a model's ground, which ``Engine.checked`` has checked."""
    return kinds[_ground_kind(kinds, ground)](ground)


# -- anchored engines: sums and pairs --------------------------------------------

SUMS_SCAN_CAP = 64
PAIRS_SCAN_CAP = 4096
# the most members a sums-engine model's family may have: a anchors give it
# 2^a - 1 sums, so a model takes at most 16 anchors.  The family doubles per
# anchor; the costliest bundled form (5) takes about 4 CPU s to produce at
# 16 anchors, and the others about 0.1 s (docs/schemas.md)
SUMS_FAMILY_CAP = 1 << 16


@record
class AnchorStageRecord:
    """The anchor stage k adds to model i: a (ground index, value) pair for
    the sums engine, a vertex for the pairs engine."""

    k: int
    i: int
    anchor: object


@record
class AnchorState:
    """Run state of the sums or the pairs engine."""

    engine: str
    models: Tuple[CriticalNodeModel, ...]
    scan_cap: int
    stages: List[AnchorStageRecord] = field(default_factory=list)

    def anchors(self, i: int) -> list:
        """Model i's anchors in stage order."""
        return [rec.anchor for rec in self.stages if rec.i == i]


def _clears(label: Optional[int], threshold: int) -> bool:
    return label is not None and label > threshold


def _probe_constant(labels: set, summary: str, assumption: str, **extra) -> None:
    """Probes that all share one label put a whole family in one label class."""
    if len(labels) == 1:
        raise ScenarioContradiction(
            {"summary": summary.format(next(iter(labels))), **extra, "assumption": assumption}
        )


def _scan(state: AnchorState, k: int, first: int, element, clears, threshold: int,
          what: str) -> Tuple[int, int]:
    """First (j, element(j)) with j in first .. scan_cap - 1 that clears the threshold."""
    for j in range(first, state.scan_cap):
        x = element(j)
        if clears(j, x):
            return j, x
    raise HorizonExhausted(f"stage {k}: no {what} clears threshold {threshold}")


def hindman_stage(state: AnchorState, k: int, i: int,
                  model: CriticalNodeModel) -> AnchorStageRecord:
    """Extend one model's anchor subsequence under its case threshold.

    A SchemaError, before any scan, for an anchor that would take the
    model's family past ``SUMS_FAMILY_CAP`` members.
    """
    element = _sequence(GROUND_KINDS, model.ground)
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

    anchors = state.anchors(i)
    members = (2 << len(anchors)) - 1
    if members > SUMS_FAMILY_CAP:
        raise SchemaError(f"stage {k}: anchor {len(anchors) + 1} of model {i} would give its "
                          f"anchored sums family {members} members, past the bound of "
                          f"2^16 = {SUMS_FAMILY_CAP}")
    prev = [h for _, h in anchors]
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

    first = anchors[-1][0] + 1 if anchors else 0
    return AnchorStageRecord(k, i, _scan(state, k, first, element, clears, threshold, "anchor"))


def run_hindman(models: Sequence[CriticalNodeModel], stages: int,
                scan_cap: int = SUMS_SCAN_CAP) -> AnchorState:
    state = AnchorState("hindman", ENGINES["hindman"].checked(models), scan_cap)
    return run_stages(state, stages, hindman_stage)


def ramsey_stage(state: AnchorState, k: int, i: int,
                 model: CriticalNodeModel) -> AnchorStageRecord:
    """Extend one model's vertex subsequence under its case threshold.

    Minimum-form stages need the common label of the new vertex with later
    vertices, probed on the next ground element; maximum-form and injective
    stages need every pair with an earlier anchor to clear the threshold,
    which is exactly what their stage smallness uses.
    """
    vertex = _sequence(VERTEX_KINDS, model.ground)
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
        if anchors and t <= anchors[-1]:
            return False
        if model.form == 2:
            return _clears(label_of(t, vertex(j + 1)), threshold)
        return all(_clears(label_of(s, t), threshold) for s in anchors)

    _, t = _scan(state, k, 0, vertex, clears, threshold, "vertex")
    return AnchorStageRecord(k, i, t)


def run_ramsey(models: Sequence[CriticalNodeModel], stages: int,
               scan_cap: int = PAIRS_SCAN_CAP) -> AnchorState:
    state = AnchorState("ramsey", ENGINES["ramsey"].checked(models), scan_cap)
    return run_stages(state, stages, ramsey_stage)


# -- assembly -------------------------------------------------------------------

def _sums_blocks(i: int, model: CriticalNodeModel, anchors: list):
    """Blocks and family head of one sums-engine model.

    Block b holds the sums whose least summand (form 2) or greatest summand
    (the other forms) is anchor b.  Block-disjoint anchors have distinct
    subset sums, so each block is anchor b plus ``fs`` of the other side.
    """
    values = [h for _, h in anchors]
    if not block_disjoint(values):
        raise ScenarioContradiction(
            {"summary": f"model {i}: anchors are not block disjoint"}
        )
    blocks = [[h + y for y in (0,) + fs(values[b + 1:] if model.form == 2 else values[:b])]
              for b, h in enumerate(values)]
    return blocks, {"structure": "finite-sums", "anchors": [str(v) for v in values]}


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
    anchor b, and each non-empty set has exactly one.  Pairs: each vertex
    lies above the one before (``ramsey_stage``), so distinct pairs have
    distinct ``code_unordered`` codes.  Block b holds the pairs whose
    earlier (form 2) or later vertex is vertex b, and each pair has
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
        cases = matching_cases(dict(zip(domain, map(labels.get, members))), domain, canonical)
        if model.form not in cases:
            raise ScenarioContradiction(
                {
                    "summary": f"model {i}: declared form {model.form} does not "
                    f"hold on the {domain_name} (holding: {cases})"
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


def assemble(state) -> dict:
    """Re-verify every family invariant of a finished run and return its payload:
    the ``result`` a diagonalization certificate records, ``families`` keyed by ``str(i)``."""
    return ENGINES[state.engine].assemble(state)


# -- collision checking -----------------------------------------------------------

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
    from .trees import check_branching, compute_labels, path_value_search

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


# -- engine registry ------------------------------------------------------------------

@record(frozen=True)
class Engine:
    """One diagonalization engine; ``ENGINES`` is the one place an engine is declared.

    ``run`` takes a diagonalization scenario and a stage count and returns
    the run state; ``assemble`` turns a state into its payload.  Both look up the module's
    ``run_<name>`` and ``assemble_<name>`` at call time, so a wrapper bound
    to those names later (a tracer, a test spy) is the one that runs.
    ``explicit_forbidden`` says whether the payload's ``forbidden_labels``
    are label values rather than descriptors, and so whether each family
    lists its ``members``: only such a run can be checked for a collision.
    ``enumerate_family`` maps an assembled family payload to its anchors and
    to its members enumerated afresh, or is None.  A model declares its
    form or case in the attribute ``declares``, one of ``values``; the rules
    of a ``pairs`` engine need a pair form.  ``grounds``, if set, is the
    table of the ground kinds a model's ``ground`` may have.
    """

    run: Callable[[object, int], object]
    assemble: Callable[[object], dict]
    explicit_forbidden: bool = True
    enumerate_family: Optional[Callable[[dict], Tuple[list, List[int]]]] = None
    declares: Optional[str] = None
    values: tuple = ()
    pairs: bool = False
    grounds: Optional[GroundKinds] = None

    def checked(self, models: Sequence[CriticalNodeModel]) -> Tuple[CriticalNodeModel, ...]:
        """The models, after a SchemaError for any that does not fit this engine."""
        for model in models:
            if self.declares and getattr(model, self.declares) not in self.values:
                raise SchemaError(f"model {model.index}: {self.declares} "
                                  f"{getattr(model, self.declares)!r} is not one of "
                                  f"{', '.join(map(str, self.values))}")
            if self.pairs and LABEL_KINDS[model.rule.kind].pair is None:
                raise SchemaError(
                    f"model {model.index}: label rule {model.rule.kind!r} has no pair form")
            if self.grounds:
                kind = _ground_kind(self.grounds, model.ground)
                if kind not in self.grounds:
                    raise SchemaError(f"model {model.index}: ground kind {kind!r} is not one "
                                      f"of {', '.join(self.grounds)}")
                _sequence(self.grounds, model.ground)  # a SchemaError for bad parameters
        return tuple(models)


def _run_pwfin_scenario(scn, stages: int) -> PwfinState:
    partition = scn.partition()
    models = scn.models(partition)
    return run_pwfin(partition, set_from_json(scn.required("P")),
                     set_from_json(scn.required("Q")), models, stages)


def _sums_enumeration(family: dict) -> Tuple[list, List[int]]:
    anchors = family["anchors"]
    return anchors, list(fs(int(a) for a in anchors))


def _clique_enumeration(family: dict) -> Tuple[list, List[int]]:
    vertices = family["vertices"]
    pairs = combinations([int(v) for v in vertices], 2)
    return vertices, sorted(code_unordered(a, b) for a, b in pairs)


ENGINES: Dict[str, Engine] = {
    "pwfin": Engine(
        _run_pwfin_scenario, lambda state: assemble_pwfin(state),
        explicit_forbidden=False, declares="case", values=PWFIN_CASES,
    ),
    "posdiff": Engine(
        lambda scn, stages: run_posdiff(scn.models(), scn.horizon, stages),
        lambda state: assemble_posdiff(state),
    ),
    "hindman": Engine(
        lambda scn, stages: run_hindman(scn.models(), stages, scn.scan_cap(SUMS_SCAN_CAP)),
        lambda state: assemble_hindman(state),
        enumerate_family=_sums_enumeration, declares="form", values=CASES[HINDMAN],
        grounds=GROUND_KINDS,
    ),
    "ramsey": Engine(
        lambda scn, stages: run_ramsey(scn.models(), stages, scn.scan_cap(PAIRS_SCAN_CAP)),
        lambda state: assemble_ramsey(state),
        enumerate_family=_clique_enumeration, declares="form", values=CASES[RAMSEY], pairs=True,
        grounds=VERTEX_KINDS,
    ),
}
