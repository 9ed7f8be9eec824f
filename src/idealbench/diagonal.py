"""Stage-by-stage diagonalization engines with exact stage bounds: the shared core.

Each engine consumes declared critical-node models (label rules standing in
for the successor labels of a critical node), extends its accumulators one
stage at a time, and records every stage bound in exact rational
arithmetic.  A bound that some input breaks is checked; a bound that the
construction forces on every input is proved in a docstring lemma instead
(``pwfin_stage``, ``posdiff_stage``, ``_assemble_anchored``).  Each engine
has its own module:

* ``pwfin``, the interval engine: forbidden-label weight at most 2^-k
  against the source weights, extracted-block weight at least 1/3 against
  the target weights (both proved), case 2b and 2c selection rules,
  freshness bookkeeping;
* ``posdiff``, the difference engine: residue-class filtering with harmonic
  mass at least 1 per stage, strong sparseness of the forbidden labels
  (proved);
* ``anchored``, the sums engine (hindman): anchor thresholds per canonical
  case, harmonic smallness below 2^-k, block structure of the obstruction
  family (its disjointness and union proved); and the pairs engine
  (ramsey), the same scheme over coded unordered pairs.

``collision`` holds ``collision_check``.  This module holds what they
share: label rules, models, the stage loop ``run_stages``, ``assemble`` and
``ENGINES``, which reads an engine's module as ``idealbench.<module>``, so
the package imports it when a scenario first names the engine.  The names
this module exported before the split (``run_<engine>``,
``assemble_<engine>``, ``coarse_colour``, ``extract_profile``,
``collision_check``) are read from their module on every read here, and
none is bound here.

Stage numbering follows the diagonal pairing, so a model's per-visit
counter b never exceeds the stage number k; the smallness estimates lean
on exactly that inequality.  Constant-form scenarios cannot supply a
diagonalization stage at all; the engines turn them into structured
contradiction reports instead.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import ceil, exp
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import idealbench
from .errors import ScenarioContradiction, SchemaError, StructuralError
from .finite import _sum_pairs
from .pairing import code_unordered, decode_unordered, pair_diag, unpair_diag
from .records import field, record
from .serialize import integer_field

if TYPE_CHECKING:
    from .construction import PartitionData
    from .scenarios import DiagScenario


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


@record(frozen=True)
class LabelKind:
    """One kind of label rule.

    ``params`` are the parameters the kind reads unconditionally.  ``parse``
    turns the parameters of a scenario rule (every field but ``kind``) and
    the partition in scope into the rule's params, raising SchemaError on
    malformed ones.  ``label`` and ``pair`` take a rule and return its
    successor and pair labelling functions; ``pair`` is None for a kind
    without a pair form.  ``runs``, if set, yields the rule's label runs
    directly instead of reading one successor at a time.
    """

    label: Callable[[LabelRule], Callable[[int], Optional[int]]]
    pair: Optional[Callable[[LabelRule], Callable[[int, int], Optional[int]]]] = None
    params: Tuple[str, ...] = ()
    finite: bool = False
    runs: Optional[Callable[[LabelRule, int, int], Iterator[Tuple[int, int, Optional[int]]]]] = None
    parse: Callable[[dict, Optional[PartitionData]], dict] = lambda params, partition: params


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


# the support kinds read ``ramsey`` when a rule is built, so no other run loads it
def _support_label(extreme: Callable[[int], int]):
    """A support extreme as a label: bottom at 0, which has no support."""
    return lambda x: None if x < 1 else extreme(x)


def _support_pair_code(rule: LabelRule):
    low, high = idealbench.ramsey.min_support, idealbench.ramsey.max_support
    return lambda x: None if x < 1 else pair_diag(low(x).bit_length() - 1,
                                                  high(x).bit_length() - 1)


LABEL_KINDS: Dict[str, LabelKind] = {
    "identity": LabelKind(lambda rule: lambda x: x),
    "constant": LabelKind(_constant, _constant, ("value",), finite=True, parse=_parse_constant),
    "all-bot": LabelKind(lambda rule: lambda x: None, finite=True),
    "table": LabelKind(lambda rule: rule.params["entries"].get, _table_pair, ("entries",),
                       finite=True, parse=_parse_table),
    "prev-interval-max": LabelKind(_prev_interval_max, parse=_parse_prev_interval_max),
    "block-geometric": LabelKind(lambda rule: rule._block_label,
                                 params=("start", "base_label", "ratio"),
                                 runs=LabelRule._block_runs, parse=_parse_block_geometric),
    "min-support": LabelKind(lambda rule: _support_label(idealbench.ramsey.min_support)),
    "max-support": LabelKind(lambda rule: _support_label(idealbench.ramsey.max_support)),
    "support-pair-code": LabelKind(_support_pair_code),
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


def assemble(state) -> dict:
    """Re-verify every family invariant of a finished run and return its payload:
    the ``result`` a diagonalization certificate records, ``families`` keyed by ``str(i)``."""
    return ENGINES[state.engine].assemble(state)


# -- engine registry ------------------------------------------------------------------

@record(frozen=True)
class Engine:
    """One diagonalization engine, declared in its module and reached through ``ENGINES``.

    ``pwfin``, ``posdiff`` and ``anchored`` (``hindman`` and ``ramsey``)
    each declare their engines in a module-level ``ENGINES`` dict.  ``run``
    takes a diagonalization scenario and a stage count and returns the run
    state; ``assemble`` turns a state into its payload.  Both call
    ``run_<name>`` and ``assemble_<name>`` as globals of the engine's module,
    looked up at call time, so a wrapper bound to those names there later (a
    tracer, a test spy) is the one that runs.
    ``explicit_forbidden`` says whether the payload's ``forbidden_labels``
    are label values rather than descriptors, and so whether each family
    lists its ``members``: only such a run can be checked for a collision.
    ``enumerate_family`` maps an assembled family payload to its anchors and
    to its members enumerated afresh, or is None.  A model declares its
    form or case in the attribute ``declares``, one of ``values``.
    """

    run: Callable[[object, int], object]
    assemble: Callable[[object], dict]
    explicit_forbidden: bool = True
    enumerate_family: Optional[Callable[[dict], Tuple[list, List[int]]]] = None
    declares: Optional[str] = None
    values: tuple = ()

    def checked(self, models: Sequence[CriticalNodeModel]) -> Tuple[CriticalNodeModel, ...]:
        """The models, after a SchemaError for any that does not fit this engine."""
        for model in models:
            if self.declares and getattr(model, self.declares) not in self.values:
                raise SchemaError(f"model {model.index}: {self.declares} "
                                  f"{getattr(model, self.declares)!r} is not one of "
                                  f"{', '.join(map(str, self.values))}")
        return tuple(models)


# the module that declares each engine
_ENGINE_MODULES = {"pwfin": "pwfin", "posdiff": "posdiff", "hindman": "anchored",
                   "ramsey": "anchored"}

# the names this module exports from the engine modules and ``collision``, by
# module (``matching_cases`` is ``ramsey``'s, which perfbench's tests read here)
_EXPORTED_FROM = {
    "pwfin": ("run_pwfin", "assemble_pwfin", "coarse_colour", "extract_profile"),
    "posdiff": ("run_posdiff", "assemble_posdiff"),
    "anchored": ("run_hindman", "assemble_hindman", "run_ramsey", "assemble_ramsey",
                 "matching_cases"),
    "collision": ("collision_check",),
}
_MODULE_OF = {name: module for module, names in _EXPORTED_FROM.items() for name in names}


class _Engines(Mapping):
    """Every engine by name, read from its module as ``idealbench.<module>``.

    ``engine in ENGINES`` reads it too, so parsing a scenario loads its engine.
    """

    def __getitem__(self, name: str) -> Engine:
        return getattr(idealbench, _ENGINE_MODULES[name]).ENGINES[name]

    def __iter__(self) -> Iterator[str]:
        return iter(_ENGINE_MODULES)

    def __len__(self) -> int:
        return len(_ENGINE_MODULES)


# the one dispatch point of the engines
ENGINES: Mapping[str, Engine] = _Engines()


def __getattr__(name: str):
    """An exported name, read from its module (PEP 562)."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(getattr(idealbench, module), name)


# -- certificate bodies: diagonalization, structural-identity ----------------------

def _staged_run(scenario: DiagScenario, stages: int):
    """The state and payload of a run that must end in stages, not in a
    contradiction of a stage or of the assembly."""
    try:
        state = ENGINES[scenario.engine].run(scenario, stages)
        return state, assemble(state)
    except ScenarioContradiction as exc:
        raise SchemaError(f"scenario {scenario.name!r} needs a staged run, "
                          f"not a contradiction") from exc


def _diagonalization(scenario: DiagScenario, stages: int) -> dict:
    """The run's payload, or the report of the contradiction that a stage or the
    assembly ran into."""
    try:
        result = assemble(ENGINES[scenario.engine].run(scenario, stages))
    except ScenarioContradiction as exc:
        outcome = {"outcome": "contradiction", "report": exc.report}
    else:
        outcome = {"outcome": "stages", "result": result}
    expected = scenario.expect
    return {**outcome, "expected": expected, "as_expected": expected == outcome["outcome"]}


def _structural_identity(scenario: DiagScenario, stages: int) -> dict:
    enumerate_family = ENGINES[scenario.engine].enumerate_family
    if enumerate_family is None:
        raise SchemaError(f"the {scenario.engine} engine has no independent family enumeration")
    _, payload = _staged_run(scenario, stages)
    rows = []
    for i_str, family in payload["families"].items():
        members = [int(x) for x in family["members"]]
        anchors, independent = enumerate_family(family)
        rows.append({"model": int(i_str), "family_size": len(members), "anchors": anchors,
                     "union_matches_enumeration": members == independent})
    return {
        "engine": scenario.engine,
        "checks": rows,
        "all_match": all(r["union_matches_enumeration"] for r in rows),
    }
