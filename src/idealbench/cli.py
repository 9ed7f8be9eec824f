"""Command-line entry point.

Exit codes: 0 success or pass, 1 verification failure, 2 usage or schema
error, 3 horizon exhausted.  Every run that emits a certificate records its
seed, so reruns are byte-identical.

Each command imports the modules it runs, so a process loads only those:
``construct`` never loads the engines, and ``certify --in`` only its
certificate kind's modules.  Start-up is most of a short command's cost,
and no command loads ``dataclasses`` or ``inspect`` (see ``records``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import HorizonExhausted, IdealbenchError, SchemaError, StructuralError
from .serialize import DEFAULT_DEPTH, MAX_DEPTH, dump_json, integer_field, load_json, rat_str

USAGE_ERROR = 2
FAILURE = 1
EXHAUSTED = 3


def _emit(obj, out: Optional[str]) -> None:
    if out:
        dump_json(out, obj)
    else:
        json.dump(obj, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")


def _depth(args) -> int:
    """``--depth``, from 1 to ``MAX_DEPTH``; a SchemaError outside."""
    return integer_field(vars(args), "depth", None, f"{args.command} --depth", 1, MAX_DEPTH)


def _horizon(args) -> int:
    """``--horizon``, a natural; a SchemaError otherwise."""
    return integer_field(vars(args), "horizon", None, f"{args.command} --horizon", 0)


def _cmd_construct(args) -> int:
    from .construction import build_partition

    p = build_partition(_depth(args))
    _emit(p.to_json(), args.out)
    return 0


def _cmd_verify_construction(args) -> int:
    from .construction import PartitionData, verify_partition

    data = PartitionData.from_json(load_json(args.infile))
    report = verify_partition(data)
    _emit(report.to_json(), args.out)
    if not report.passed:
        for name, index, _, _ in report.failures():
            print(f"condition {name} fails at index {index}", file=sys.stderr)
        return FAILURE
    return 0


def _cmd_weights(args) -> int:
    from .construction import build_partition, weight_fn
    from .sets import set_from_json

    horizon = _horizon(args)
    p = build_partition(_depth(args))
    selector = set_from_json(json.loads(args.selector))
    w = weight_fn(selector, p)
    upto = min(horizon, p.coverage_end)
    table = {str(m): rat_str(w(m)) for m in range(upto)}
    _emit({"divergence": w.divergence, "values": table}, args.out)
    return 0


def _cmd_membership(args) -> int:
    from .ideals import ideal_from_json, membership
    from .sets import set_from_json

    horizon = _horizon(args)
    ideal = ideal_from_json(json.loads(args.ideal))
    queried = set_from_json(json.loads(args.set))
    verdict = membership(ideal, queried, horizon)
    _emit(verdict.to_json(), args.out)
    return 0


def _cmd_witness_search(args) -> int:
    from . import ideals
    from .sets import set_from_json

    horizon = _horizon(args)
    queried = set_from_json(json.loads(args.set))
    witness = getattr(ideals, args.search)(queried, args.size, horizon)
    _emit({"witness": None if witness is None else list(witness)}, args.out)
    return 0


def _cmd_diagonalize(args) -> int:
    from . import certify
    from .scenarios import load_scenario

    scn = load_scenario(args.scenario)
    kind = certify.KINDS[scn.certificate_kind]
    cert = certify.produce(kind.name, scn.certificate_inputs(args.stages), args.seed)
    _emit(cert, args.out)
    return 0 if all(cert["body"][key] for key in kind.expected) else FAILURE


def _cmd_check_reduction(args) -> int:
    from .ideals import ideal_from_json
    from .reduction import (
        IdentityHeightOne,
        KatetovMap,
        ReductionClaim,
        check_reduction_witness,
        katetov_witness_check,
    )
    from .sets import set_from_json

    horizon = _horizon(args)
    claim_obj = json.loads(args.claim)
    if not isinstance(claim_obj, dict) or not {"source", "target"} <= claim_obj.keys():
        raise SchemaError("check-reduction --claim must be an object with 'source' and 'target'")
    witness_obj = claim_obj.get("witness", {"kind": "identity-height-one"})
    if not isinstance(witness_obj, dict) or "kind" not in witness_obj:
        raise SchemaError("check-reduction --claim witness must be an object with a 'kind'")
    source = ideal_from_json(claim_obj["source"])
    target = ideal_from_json(claim_obj["target"])
    queried = set_from_json(json.loads(args.set))
    if witness_obj.get("kind") == "identity-height-one":
        claim = ReductionClaim(source, target, IdentityHeightOne())
        cert = check_reduction_witness(claim, queried, horizon=horizon)
        _emit(
            {"certificate": None if cert is None else cert.to_json()},
            args.out,
        )
        return 0 if cert is not None else FAILURE
    value = integer_field(witness_obj, "value", 0, "check-reduction --claim witness", minimum=0)
    claim = ReductionClaim(source, target, KatetovMap(witness_obj["kind"], value))
    verdict = katetov_witness_check(claim, queried, horizon)
    _emit(verdict.to_json(), args.out)
    return 0


def _cmd_certify(args) -> int:
    from . import certify

    cert = load_json(args.infile)
    ok, detail = certify.recheck(cert)
    print(detail)
    return 0 if ok else FAILURE


def _cmd_suite(args) -> int:
    from .acceptance import DEPTH30_BUDGET, run_all

    budget = DEPTH30_BUDGET if args.budget is None else args.budget
    results = run_all(seed=args.seed, out_dir=args.out, depth30_budget=budget)
    stipulated = []
    for result in results:
        print(result.line())
        for _, cert in result.certificates:
            for entry in cert.get("assumptions", []):
                if entry["tag"] == "assumption":
                    stipulated.append(entry["statement"])
    print(f"stipulated assumptions recorded across certificates: {len(stipulated)}")
    for statement in sorted(set(stipulated)):
        print(f"  [assumption] {statement}")
    return 0 if all(r.passed for r in results) else FAILURE


class _ScenarioHelp(argparse.HelpFormatter):
    """Appends the bundled scenario names to ``--scenario``'s help.

    Only printing the help lists them, because ``scenarios`` loads the
    tree and ideal modules.
    """

    def _get_help_string(self, action):
        if action.dest != "scenario":
            return action.help
        from .scenarios import bundled_names

        return f"{action.help}; bundled: {', '.join(bundled_names())}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealbench",
        description="workbench for ideals over the naturals: partitions, "
        "labelled trees, canonical searches, diagonalization engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="emit greedy partition data")
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("verify-construction", help="verify partition data")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_verify_construction)

    sp = sub.add_parser("weights", help="tabulate selector weights")
    sp.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    sp.add_argument("--selector", required=True, help="set descriptor JSON")
    sp.add_argument("--horizon", type=int, default=32)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_weights)

    sp = sub.add_parser("membership", help="three-valued ideal membership")
    sp.add_argument("--ideal", required=True, help="ideal descriptor JSON")
    sp.add_argument("--set", required=True, help="set descriptor JSON")
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_membership)

    for name, witness, search in (("ramsey-search", "clique", "ramsey_witness_search"),
                                  ("hindman-search", "finite-sums", "hindman_witness_search")):
        sp = sub.add_parser(name, help=f"bounded {witness} witness search")
        sp.add_argument("--set", required=True)
        sp.add_argument("--size", type=int, required=True)
        sp.add_argument("--horizon", type=int, default=64)
        sp.add_argument("--out")
        sp.set_defaults(func=_cmd_witness_search, search=search)

    sp = sub.add_parser("diagonalize", help="run a scenario end to end",
                        formatter_class=_ScenarioHelp)
    sp.add_argument("--scenario", required=True, help="name or path")
    sp.add_argument("--stages", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_diagonalize)

    sp = sub.add_parser("check-reduction", help="check a reduction witness")
    sp.add_argument("--claim", required=True, help="claim JSON with source/target/witness")
    sp.add_argument("--set", required=True)
    sp.add_argument("--horizon", type=int, default=64)
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_check_reduction)

    sp = sub.add_parser("certify", help="recheck a certificate file")
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("suite", help="run the acceptance criteria")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="directory for certificates")
    sp.add_argument("--budget", type=float,
                    help="wall-clock budget for the depth-30 attempt")
    sp.set_defaults(func=_cmd_suite)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except HorizonExhausted as exc:
        print(f"horizon exhausted: {exc}", file=sys.stderr)
        return EXHAUSTED
    except StructuralError as exc:
        print(f"structural error: {exc}", file=sys.stderr)
        return FAILURE
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except IdealbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
