"""Finite-horizon checking of map-based and tree-based reduction witnesses.

A classical witness is a single map h: a source-large set must pull back to
a target-large set.  The tree-based order replaces the map by a coherent
assignment on finite strings and the single large set by a branching tree
of stage witnesses; here only the height-one identity case and bounded
scenario-driven searches are implemented, and failure to find a
certificate never asserts a non-reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .errors import SchemaError
from .ideals import (
    IN,
    OUT,
    IdealDescriptor,
    Verdict,
    membership,
)
from .sets import Complement, DescribedSet, Finite, full_set
from .trees import ROOT, Described, FiniteTree, check_branching


@dataclass(frozen=True)
class KatetovMap:
    """Total map given by a closed form the preimage algebra understands."""

    kind: str  # "identity" | "constant"
    value: int = 0

    def __post_init__(self):
        if self.kind not in ("identity", "constant"):
            raise SchemaError(f"a map witness kind is identity or constant, not {self.kind!r}")


@dataclass(frozen=True)
class IdentityHeightOne:
    """The height-one tree witness whose root successors are the witnessed set."""


@dataclass(frozen=True)
class CoherentWitness:
    """A coherent finite-string assignment plus candidate successor families.

    The branching trees of the underlying order are infinitary, so the
    search is restricted to trees whose successor descriptors are drawn
    from the declared family, one choice per level.
    """

    assignments: "CoherentMap"
    families: Tuple[DescribedSet, ...]


@dataclass(frozen=True)
class ReductionClaim:
    source: IdealDescriptor
    target: IdealDescriptor
    witness: object


def katetov_witness_check(
    claim: ReductionClaim, a: DescribedSet, horizon: int = 64
) -> Verdict:
    """Does h pull the source-dual-large set a back into the target dual.

    The preimage under the identity or a constant map is a described set;
    a complement whose membership the target cannot decide yields Unknown
    rather than a guess.
    """
    w = claim.witness
    if not isinstance(w, KatetovMap):
        raise ValueError("katetov_witness_check needs a map witness")
    if w.kind == "identity":
        preimage = a
    else:
        preimage = full_set() if a.contains(w.value) else Finite(())
    inner = membership(claim.target, Complement(preimage), horizon)
    return Verdict(inner.value, f"dual-filter:{inner.procedure}", inner.evidence)


@dataclass(frozen=True)
class SubsetReductionReport:
    verdict: Verdict
    exceptions: Tuple[int, ...]
    exception_bound: int
    compared_intervals: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.to_json(),
            "exceptions": list(self.exceptions),
            "exception_bound": self.exception_bound,
            "compared_intervals": self.compared_intervals,
        }


def check_subset_reduction(
    p_set: DescribedSet, q_set: DescribedSet, depth: int
) -> SubsetReductionReport:
    """Almost-inclusion of selectors, then weight domination, on the greedy partition of ``depth``.

    Exceptions are the indices in P minus Q below the depth.  Exceptions in
    the top half of that window count as evidence against almost
    inclusion; otherwise the selector weights dominate on every interval
    from the exception bound (one past the last exception) to the depth,
    which decides the sum-ideal inclusion at descriptor level.

    Lemma (descent).  A point of I_n weighs r_{n+1} under a selector
    containing n and r_n under one that does not
    (``construction.selector_weight``), and greedy rationals descend,
    r_{n+1} <= r_n.  So the target weight exceeds the source weight at n
    only when n is in P and not in Q, and every such n below the depth is
    an exception, below the bound.  Each interval past the bound is thus
    dominated, and no weight is read.
    """
    exceptions = tuple(
        n for n in range(depth) if p_set.contains(n) and not q_set.contains(n)
    )
    if any(n >= depth // 2 for n in exceptions):
        verdict = Verdict(
            OUT,
            "unbounded-exceptions",
            {"exceptions_upto_horizon": list(exceptions), "horizon": depth},
        )
        return SubsetReductionReport(verdict, exceptions, depth, 0)
    bound = (max(exceptions) + 1) if exceptions else 0
    compared = depth - bound
    verdict = Verdict(
        IN,
        "weight-domination",
        {
            "exception_bound": bound,
            "compared_intervals": compared,
            "note": "target weight at most source weight on every interval past the bound",
        },
    )
    return SubsetReductionReport(verdict, exceptions, bound, compared)


@dataclass(frozen=True)
class TreeCertificate:
    tree: FiniteTree
    branching: Dict[Tuple[int, ...], Verdict]
    values: Dict[Tuple[int, ...], int]  # realized successor -> asserted value

    def to_json(self) -> dict:
        return {
            "tree": self.tree.to_json(),
            "branching": [
                [list(k), v.to_json()] for k, v in sorted(self.branching.items())
            ],
            "values": [[list(k), v] for k, v in sorted(self.values.items())],
        }


def check_reduction_witness(
    claim: ReductionClaim,
    a: DescribedSet,
    depth: int = 1,
    horizon: int = 16,
) -> Optional[TreeCertificate]:
    """Bounded certificate search; None never asserts a non-reduction.

    For the identity height-one witness, the root's successor descriptor is
    the witnessed set itself and each realized successor n carries value n,
    so every path value lands in the set trivially.  For coherent witnesses,
    the search ranges over per-level choices from the declared successor
    family; every node must branch inside the target dual and every maximal
    path must reach an assigned value inside the witnessed set.
    """
    if isinstance(claim.witness, IdentityHeightOne):
        realized = a.enumerate_upto(horizon)
        nodes = [ROOT] + [(n,) for n in realized]
        tree = FiniteTree(nodes, {ROOT: Described(a)})
        branching = check_branching(tree, claim.target, horizon)
        if branching[ROOT].value != IN:
            return None
        values = {(n,): n for n in realized}
        if any(not a.contains(v) for v in values.values()):
            return None
        return TreeCertificate(tree, branching, values)
    if isinstance(claim.witness, CoherentWitness):
        return _coherent_search(claim, a, depth, horizon)
    raise ValueError("witness must be identity-height-one or coherent")


def _coherent_search(
    claim: ReductionClaim, a: DescribedSet, depth: int, horizon: int
) -> Optional[TreeCertificate]:
    from itertools import product

    witness: CoherentWitness = claim.witness
    assignments = witness.assignments

    for per_level in product(witness.families, repeat=depth):
        nodes = [ROOT]
        frontier = [ROOT]
        specs = {}
        for level in range(depth):
            family = per_level[level]
            realized = family.enumerate_upto(horizon)
            next_frontier = []
            for node in frontier:
                specs[node] = Described(family)
                for n in realized:
                    child = node + (n,)
                    nodes.append(child)
                    next_frontier.append(child)
            frontier = next_frontier
        tree = FiniteTree(nodes, specs)
        branching = check_branching(tree, claim.target, horizon)
        if any(
            branching[node].value != IN for node in specs
        ):
            continue
        values = {}
        complete = True
        for leaf in frontier:
            value = None
            for cut in range(len(leaf) + 1):
                got = assignments.value(leaf[:cut])
                if got is not None:
                    value = got
            if value is None or not a.contains(value):
                complete = False
                break
            values[leaf] = value
        if complete:
            return TreeCertificate(tree, branching, values)
    return None


def revalidate_certificate(
    cert: TreeCertificate, claim: ReductionClaim, a: DescribedSet, horizon: int = 16
) -> bool:
    """Round-trip: branching re-checks In at the root and values re-enumerate."""
    fresh = check_branching(cert.tree, claim.target, horizon)
    if fresh[ROOT].value != IN:
        return False
    return all(a.contains(v) for v in cert.values.values())
