"""Certificates: the envelope, the kinds, and independent rechecking.

A certificate is an envelope around a deterministic computation: the kind
and inputs (plus the recorded seed) fully determine the body.  A recheck
has two layers.  A kind with a checker first has its body confirmed from
the body's own numbers by ``idealbench.checkers``, which imports no
producer.  A kind whose checker ``KINDS`` declares complete is then
accepted once its assumptions equal those its producer records; every
other certificate is re-produced and compared with the rebuilt one by the
strict structural walk of ``serialize.diff_paths``, which agrees with a
byte-for-byte comparison in canonical JSON form on the JSON-native values
producers return.  A certificate that differs from the last re-production
of its kind, inputs and seed is refuted from that one; an acceptance of
such a kind always re-produces.  Every stipulated infinitary fact rides along in
the assumptions list and must carry its tag; untagged stipulations are
schema violations.

This module imports only ``errors``, ``serialize`` and ``records``.  Each
body lives in the module whose code it runs, and ``KINDS`` names it and the
checker, each read as ``idealbench.<module>``, which the package imports
when first read.  So a recheck loads the modules of its scenario's parse,
of its checker if any, and of its producer only when it re-produces: a
complete kind runs no producer, and a kind without a checker never loads
``checkers``.

Only the three kinds that ``KINDS`` declares ``seeded`` read the seed.  The
other eight record it but do not include it in their claim, so a
certificate of theirs with its seed changed still rechecks.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

import idealbench
from .errors import SchemaError
from .records import record
from .serialize import (CERTIFICATE_SCHEMA, MAX_DEPTH, canonical_bytes, check_assumptions,
                        diff_paths, integer_field)


@record(frozen=True)
class Kind:
    """One certificate kind; ``KINDS`` is the one place a kind is declared.

    Its inputs are ``integers``, each ``(key, default, minimum)`` or
    ``(key, default, minimum, maximum)`` with the default None when
    required; with ``sizes = (largest, most)``, a list of at most ``most``
    integers from 2 to ``largest``; with ``scenario``, naming a class of
    ``scenarios``, a scenario of that class, parsed by ``scenario_from_json``,
    whose assumptions the certificate records.  ``compute``, the body, is
    ``"<module>.<function>"``, read as ``idealbench.<module>`` at each call:
    it takes them by name, plus ``rng``, a fresh ``random.Random(seed)``,
    when ``seeded``, and returns the body.  ``expected`` names the body
    fields that are all true when a run came out as its scenario declares.
    ``check``, when given, names a ``checkers`` function that takes the body
    and the same named inputs (``rng`` aside) and raises ``CheckFailed``
    when they refute the body.  ``complete`` declares that ``check`` accepts exactly the bodies
    ``compute`` returns, so ``recheck`` need not run the producer.
    """

    name: str
    compute: str
    integers: Tuple[Tuple, ...] = ()
    sizes: Optional[Tuple[int, int]] = None
    scenario: Optional[str] = None
    seeded: bool = False
    expected: Tuple[str, ...] = ()
    check: Optional[str] = None
    complete: bool = False

    def arguments(self, inputs: dict, seed: int) -> dict:
        """The named inputs of ``compute`` but ``rng``; a SchemaError for bad ones."""
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise SchemaError(f"certificate seed must be an integer, not {seed!r}")
        where = f"{self.name} inputs"
        if not isinstance(inputs, dict):
            raise SchemaError(f"{where} must be an object")
        args = {key: integer_field(inputs, key, default, where, *bounds)
                for key, default, *bounds in self.integers}
        if self.sizes:
            largest, most = self.sizes
            args["sizes"] = sizes = inputs.get("sizes")
            if not isinstance(sizes, list) or len(sizes) > most or not all(
                isinstance(size, int) and not isinstance(size, bool) and 2 <= size <= largest
                for size in sizes
            ):
                raise SchemaError(f"{where}: sizes must be a list of at most {most} "
                                  f"integers from 2 to {largest}")
        if self.scenario is not None:
            scenarios = idealbench.scenarios
            args["scenario"] = scenarios.scenario_from_json(
                inputs.get("scenario"), f"{where} scenario", getattr(scenarios, self.scenario))
        return args

    def assumptions(self, args: dict) -> list:
        """The assumptions a certificate of the named inputs ``args`` records."""
        return args["scenario"].assumptions() if self.scenario is not None else []

    def produce(self, inputs: dict, seed: int) -> dict:
        """The certificate of ``inputs``; a SchemaError before any work for bad ones."""
        args = self.arguments(inputs, seed)
        assumptions = self.assumptions(args)
        if self.seeded:
            args["rng"] = random.Random(seed)
        module, function = self.compute.split(".")
        body = getattr(getattr(idealbench, module), function)(**args)
        return {"schema": CERTIFICATE_SCHEMA, "kind": self.name, "seed": seed, "inputs": inputs,
                "assumptions": assumptions, "body": body}


_DEPTH = ("depth", None, 1, MAX_DEPTH)
_STAGES = ("stages", None, 1)

KINDS: Dict[str, Kind] = {kind.name: kind for kind in (
    Kind("partition", "construction._partition", (_DEPTH,)),
    Kind("weight-bound", "construction._weight_bound", (_DEPTH,), check="check_weight_bound"),
    Kind("subset-reduction", "reduction._subset_reduction", (_DEPTH, ("pairs", None, 0, 100)),
         seeded=True),
    Kind("pigeonhole", "construction._pigeonhole",
         (("depth", 4, 1, MAX_DEPTH), ("samples", None, 1), ("interval", 2, 1)), seeded=True),
    Kind("diagonalization", "diagonal._diagonalization", (_STAGES,), scenario="DiagScenario",
         expected=("as_expected",)),
    Kind("structural-identity", "diagonal._structural_identity", (_STAGES,),
         scenario="DiagScenario"),
    Kind("tree-labelling", "trees._tree_labelling", scenario="TreeScenario",
         expected=("root_as_expected", "critical_as_declared")),
    Kind("sparseness", "ramsey._sparseness", (("universe", None, 0, 25),), sizes=(7, 3),
         check="check_sparseness", complete=True),
    Kind("ramsey-oracle", "ramsey._ramsey_oracle",
         (("size", 3, 0, 5), ("exhaustive_n", 4, 0, 5), ("sample_n", 5, 0, 6),
          ("samples", 10000, 0, 20000)), seeded=True),
    Kind("collision", "collision._collision", scenario="CollisionScenario",
         expected=("forbidden_label_hit",)),
    Kind("pairing", "pairing._pairing", (("bound", 100, 0, 500), ("unordered_bound", 50, 0, 500)),
         check="check_pairing", complete=True),
)}

# the callable ``produce`` runs per kind, looked up at call time so that a
# wrapper stored here (a tracer's span) is the one that runs
_PRODUCERS: Dict[str, Callable[[dict, int], dict]] = {
    name: kind.produce for name, kind in KINDS.items()
}


def _kind(name: str) -> Kind:
    kind = KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise SchemaError(f"unknown certificate kind {name!r}")
    return kind


def produce(kind: str, inputs: dict, seed: int = 0) -> dict:
    return _PRODUCERS[_kind(kind).name](inputs, seed)


@record(frozen=True)
class _Recompute:
    """A fresh recomputation: the rebuilt certificate, keyed by the canonical bytes of its
    ``[kind, inputs, seed]``."""

    key: bytes
    rebuilt: dict


# the last fresh recomputation of ``recheck``, or None; replaced whole, never edited
_last: Optional[_Recompute] = None


def _assumptions_differ(recorded: list, cert: dict) -> Optional[str]:
    path = diff_paths(recorded, cert["assumptions"], "$.assumptions")
    return None if path is None else f"assumptions differ at {path}"


def _refutation(rebuilt: dict, cert: dict) -> Optional[str]:
    """Where ``cert`` first differs from ``rebuilt``, body before assumptions; None if equal."""
    path = diff_paths(rebuilt["body"], cert["body"], "$.body")
    if path is not None:
        return f"recomputation differs at {path}"
    return _assumptions_differ(rebuilt["assumptions"], cert)


def recheck(cert: dict) -> Tuple[bool, str]:
    """Check a certificate's body with its kind's checker, if any, then its assumptions.

    A kind with a complete checker is accepted on the checker and on its
    assumptions equalling those ``Kind.produce`` records, with no producer
    run.  Any other kind is recomputed: its certificate is re-produced from
    its inputs, and body and assumptions are compared with the rebuilt ones
    by one strict structural walk, ``diff_paths``, which also names the
    first differing path.  Rebuilt bodies and assumptions hold JSON-native
    types only, and on those the walk accepts exactly when the canonical
    bytes are equal, so no body is serialized.  A recompute rebuilds the
    whole body; of the partition it reads the process's greedy levels
    (``construction.greedy_levels``), which hold numbers of the recurrence
    only, never a cached certificate, body or text.  A SchemaError for a
    malformed envelope or inputs, else ``(passed, detail)``.

    The last fresh recomputation stays in one slot, keyed by the canonical
    bytes of ``[kind, inputs, seed]`` once the inputs are accepted.  A
    certificate of that key whose body or assumptions differ from the
    slot's is refuted from the slot, with the detail a fresh recomputation
    would give.  Any other certificate is recomputed fresh, the slot cleared
    meanwhile, so an acceptance never rests on a cached recomputation.  A
    kind with a complete checker leaves the slot as it is.
    """
    global _last
    if not isinstance(cert, dict):
        raise SchemaError("certificate must be an object")
    for key in ("schema", "kind", "seed", "inputs", "assumptions", "body"):
        if key not in cert:
            raise SchemaError(f"certificate lacks {key!r}")
    if cert["schema"] != CERTIFICATE_SCHEMA:
        raise SchemaError(f"unsupported schema {cert['schema']!r}")
    check_assumptions(cert["assumptions"], "certificate")
    kind = _kind(cert["kind"])
    args = kind.arguments(cert["inputs"], cert["seed"])
    if kind.check is not None:
        checkers = idealbench.checkers
        try:
            getattr(checkers, kind.check)(cert["body"], **args)
        except checkers.CheckFailed as exc:
            return False, str(exc)
    if kind.complete:
        detail = _assumptions_differ(kind.assumptions(args), cert)
    else:
        key = canonical_bytes([kind.name, cert["inputs"], cert["seed"]])
        last = _last
        detail = _refutation(last.rebuilt, cert) if last is not None and last.key == key else None
        if detail is None:
            _last = None
            last = _last = _Recompute(key, produce(kind.name, cert["inputs"], cert["seed"]))
            detail = _refutation(last.rebuilt, cert)
    return (False, detail) if detail is not None else (True, "certificate re-verified")
