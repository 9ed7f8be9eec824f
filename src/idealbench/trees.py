"""Finite prefix trees, coherent partial maps, and the labelling recursion.

A coherent map assigns values to finitely many finite strings so that
comparable strings never disagree; it presents a partial continuous
function on infinite strings.  The labelling recursion extends it to a
total assignment on a finite tree: assigned nodes keep their value, nodes
outside the canonical tree get bottom, and an unassigned node inside it
takes the least successor value whose witness class a positivity oracle
declares non-negligible, else bottom.

Positivity of a successor class is an infinitary fact no finite run can
decide, so it comes from an explicit oracle object whose stipulations are
tagged and surface in certificates.  Labelling never guesses: an Unknown
answer on a needed query aborts with that query.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union as TUnion

from .errors import CoherenceError, LabellingBlocked, StructuralError
from .ideals import IdealDescriptor, Verdict, membership, IN, OUT, UNKNOWN
from .pairing import comparable, is_prefix
from .records import field, record
from .sets import Complement, DescribedSet, Finite

Node = Tuple[int, ...]
BOT = None  # bottom label

ROOT: Node = ()


@record(frozen=True)
class CoherentMap:
    assignments: Dict[Node, int]

    def __init__(self, assignments: Optional[Dict[Node, int]] = None):
        clean: Dict[Node, int] = {}
        for sigma, value in (assignments or {}).items():
            clean[tuple(sigma)] = int(value)
        for s in clean:
            for t in clean:
                if s < t and comparable(s, t) and clean[s] != clean[t]:
                    raise CoherenceError(s, t, clean[s], clean[t])
        object.__setattr__(self, "assignments", clean)

    def value(self, sigma: Node) -> Optional[int]:
        return self.assignments.get(tuple(sigma))

    def in_canonical_tree(self, sigma: Node) -> bool:
        sigma = tuple(sigma)
        return any(is_prefix(sigma, t) for t in self.assignments)


def extend_coherent(m: CoherentMap, sigma: Iterable[int], value: int) -> CoherentMap:
    """New map with sigma assigned; rejects on any comparable disagreement."""
    sigma = tuple(sigma)
    for t, v in m.assignments.items():
        if comparable(sigma, t) and v != value:
            first, second = (t, sigma) if len(t) <= len(sigma) else (sigma, t)
            vf = m.assignments.get(first, value)
            vs = value if second == sigma else m.assignments[second]
            raise CoherenceError(first, second, vf, vs)
    new = dict(m.assignments)
    new[sigma] = int(value)
    return CoherentMap(new)


@record(frozen=True)
class Explicit:
    members: Tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": "explicit", "members": list(self.members)}


@record(frozen=True)
class Described:
    described: DescribedSet

    def to_json(self) -> dict:
        return {"kind": "described", "set": self.described.to_json()}


SuccessorSpec = TUnion[Explicit, Described]


@record(frozen=True)
class FiniteTree:
    """Prefix-closed finite node set plus per-node successor descriptors.

    The node set realizes finitely many successors; the descriptor speaks
    about the full successor set, which may be infinite.
    """

    nodes: frozenset
    successors: Dict[Node, SuccessorSpec]

    def __init__(self, nodes: Iterable[Node], successors: Optional[Dict] = None):
        node_set = frozenset(tuple(n) for n in nodes) | {ROOT}
        for n in node_set:
            if n and n[:-1] not in node_set:
                raise StructuralError(f"node {n} lacks its parent")
        object.__setattr__(self, "nodes", node_set)
        object.__setattr__(
            self, "successors", {tuple(k): v for k, v in (successors or {}).items()}
        )

    def children(self, sigma: Node) -> List[Node]:
        sigma = tuple(sigma)
        depth = len(sigma)
        return sorted(
            n for n in self.nodes if len(n) == depth + 1 and n[:depth] == sigma
        )

    def successor_spec(self, sigma: Node) -> SuccessorSpec:
        sigma = tuple(sigma)
        if sigma in self.successors:
            return self.successors[sigma]
        return Explicit(tuple(n[-1] for n in self.children(sigma)))

    def maximal_paths(self) -> List[List[Node]]:
        leaves = [n for n in self.nodes if not self.children(n)]
        return [[n[:i] for i in range(len(n) + 1)] for n in sorted(leaves)]

    def to_json(self) -> dict:
        return {
            "nodes": [list(n) for n in sorted(self.nodes)],
            "successors": [
                [list(k), v.to_json()] for k, v in sorted(self.successors.items())
            ],
        }


def canonical_tree(m: CoherentMap, horizon: int) -> FiniteTree:
    """Downward closure of the assigned strings, entries below the horizon."""
    nodes = {ROOT}
    for sigma in m.assignments:
        prefix = []
        for entry in sigma:
            if entry >= horizon:
                break
            prefix.append(entry)
            nodes.add(tuple(prefix))
    return FiniteTree(nodes)


@record
class PositivityOracle:
    """Stipulated answers to positivity and nullity queries.

    Keys are (node, candidate) where candidate is a label for "is the class
    of successors carrying this label positive", or BOT for "is the class of
    bottom successors null".  Each stipulation carries a tag (assumption or
    derived) that certificates must surface.
    """

    stipulations: Dict[Tuple[Node, Optional[int]], Tuple[str, str, str]] = field(
        default_factory=dict
    )

    def stipulate(
        self, node: Node, candidate: Optional[int], value: str,
        tag: str = "assumption", statement: str = "",
    ) -> None:
        if value not in (IN, OUT):
            raise ValueError("stipulations must be in/out")
        if tag not in ("assumption", "derived"):
            raise ValueError("tag must be assumption|derived")
        self.stipulations[(tuple(node), candidate)] = (value, tag, statement)

    def positivity(self, node: Node, candidate: int) -> Verdict:
        got = self.stipulations.get((tuple(node), candidate))
        if got is None:
            return Verdict(UNKNOWN, "no-stipulation")
        value, tag, statement = got
        return Verdict(value, "stipulated", {"tag": tag, "statement": statement})

    def bottom_null(self, node: Node) -> Verdict:
        return self.positivity(node, BOT)

    def assumption_entries(self) -> List[dict]:
        out = []
        for (node, cand), (value, tag, statement) in sorted(
            self.stipulations.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            out.append(
                {
                    "tag": tag,
                    "statement": statement
                    or f"node {list(node)} candidate {cand!r} declared {value}",
                }
            )
        return out


@record(frozen=True)
class LabelledTree:
    tree: FiniteTree
    labels: Dict[Node, Optional[int]]
    assigned: frozenset = frozenset()
    outside: frozenset = frozenset()  # nodes outside the canonical tree


def compute_labels(
    t: FiniteTree, m: CoherentMap, oracle: PositivityOracle
) -> LabelledTree:
    """Bottom-up labelling; deterministic and independent of node order."""
    labels: Dict[Node, Optional[int]] = {}
    assigned_nodes = set()
    outside_nodes = set()
    for sigma in sorted(t.nodes, key=len, reverse=True):
        assigned = m.value(sigma)
        if assigned is not None:
            labels[sigma] = assigned
            assigned_nodes.add(sigma)
            continue
        if not m.in_canonical_tree(sigma):
            labels[sigma] = BOT
            outside_nodes.add(sigma)
            continue
        candidates = sorted(
            {
                labels[child]
                for child in t.children(sigma)
                if labels[child] is not BOT
            }
            | {
                cand
                for (node, cand) in oracle.stipulations
                if node == sigma and cand is not BOT
            }
        )
        chosen = BOT
        for c in candidates:
            verdict = oracle.positivity(sigma, c)
            if verdict.value == IN:
                chosen = c
                break
            if verdict.value == UNKNOWN:
                raise LabellingBlocked(sigma, c)
        labels[sigma] = chosen
    return LabelledTree(t, labels, frozenset(assigned_nodes), frozenset(outside_nodes))


@record(frozen=True)
class CriticalReport:
    critical: Tuple[Node, ...]
    undetermined: Tuple[Node, ...]


def find_critical(lt: LabelledTree, oracle: PositivityOracle) -> CriticalReport:
    """Bottom-labelled nodes whose bottom successor class is null.

    An empty bottom class under an explicit successor list is null outright;
    otherwise nullity comes from the oracle, and Unknown answers land the
    node in the undetermined list.
    """
    critical: List[Node] = []
    undetermined: List[Node] = []
    for sigma in sorted(lt.tree.nodes):
        if lt.labels[sigma] is not BOT:
            continue
        if sigma in lt.outside:
            # every successor of a node outside the canonical tree carries
            # bottom, and the full successor class is never null
            continue
        bottom_children = [
            c for c in lt.tree.children(sigma) if lt.labels[c] is BOT
        ]
        spec = lt.tree.successor_spec(sigma)
        if not bottom_children and isinstance(spec, Explicit):
            realized = {c[-1] for c in lt.tree.children(sigma)}
            if set(spec.members) <= realized:
                critical.append(sigma)
                continue
        verdict = oracle.bottom_null(sigma)
        if verdict.value == IN:
            critical.append(sigma)
        elif verdict.value == UNKNOWN:
            undetermined.append(sigma)
    return CriticalReport(tuple(critical), tuple(undetermined))


def check_branching(
    t: FiniteTree, ideal: IdealDescriptor, horizon: int = 64
) -> Dict[Node, Verdict]:
    """Per node: does the successor descriptor lie in the ideal's dual filter.

    A set belongs to the dual filter exactly when its complement belongs to
    the ideal, so the verdict is membership of the complement descriptor.
    """
    out: Dict[Node, Verdict] = {}
    for sigma in sorted(t.nodes):
        spec = t.successor_spec(sigma)
        described = (
            Finite(spec.members) if isinstance(spec, Explicit) else spec.described
        )
        out[sigma] = membership(ideal, Complement(described), horizon)
    return out


def path_value_search(lt: LabelledTree, value: int) -> Optional[List[Node]]:
    """A maximal path whose deepest map-assigned value equals value."""
    for path in lt.tree.maximal_paths():
        deepest = BOT
        for node in path:
            if node in lt.assigned:
                deepest = lt.labels[node]
        if deepest == value:
            return path
    return None
