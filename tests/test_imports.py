"""A process loads only the idealbench modules that its command runs.

Each check runs in a fresh interpreter, because this test process has long
since imported every module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from idealbench import certify
from idealbench.scenarios import load_scenario
from idealbench.serialize import dump_json

SRC = Path(__file__).resolve().parent.parent / "src"

# every name `idealbench` has exported, with the submodule that defines it
EXPORTED = {
    "construction": ("PartitionData build_partition degenerate_prefix_weight harmonic_weight "
                     "verify_partition weight_fn"),
    "diagonal": ("CriticalNodeModel LabelRule assemble coarse_colour collision_check "
                 "extract_profile run_hindman run_posdiff run_pwfin run_ramsey"),
    "ideals": ("DensityZero DiffIdeal FinIdeal HindmanIdeal PowerSet RamseyIdeal SumHarmonic "
               "SumSelector Verdict density_at diff_multiplicity hindman_witness_search "
               "is_positive membership ramsey_witness_search sum_ideal_of weight_of"),
    "pairing": "code_unordered decode_unordered pair_diag unpair_diag",
    "ramsey": ("CanonicalForm block_disjoint canonical_hindman_search canonical_ramsey_search "
               "classify_canonical delta eventually_sparse_check fs max_support min_support "
               "support"),
    "reduction": ("IdentityHeightOne KatetovMap ReductionClaim check_reduction_witness "
                  "check_subset_reduction katetov_witness_check"),
    "scenarios": "bundled_names load_scenario realize_model",
    "sets": ("Cofinite Complement DescribedSet DiffsOf Finite Intersection Intervals "
             "Progression SumsOf Union set_from_json"),
    "trees": ("CoherentMap Described Explicit FiniteTree LabelledTree PositivityOracle "
              "canonical_tree check_branching compute_labels extend_coherent find_critical "
              "path_value_search"),
}


def python(code, **env):
    """Run ``code`` in a fresh interpreter that imports idealbench from src/; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(code):
    """The idealbench submodules in ``sys.modules`` after running ``code``."""
    out = python(code + "\nimport json, sys\n"
                 "print(json.dumps(sorted(m for m in sys.modules if m.startswith('idealbench.'))))")
    return set(json.loads(out.splitlines()[-1]))


def test_importing_the_package_loads_no_submodule():
    assert loaded_by("import idealbench") == set()


def test_reading_a_submodule_from_the_package_imports_it():
    assert loaded_by("import idealbench\nidealbench.pairing") == {"idealbench.pairing"}


def test_construct_and_verify_construction_leave_the_engines_unloaded(tmp_path):
    doc = tmp_path / "p.json"
    for argv in (["construct", "--depth", "6", "--out", str(doc)],
                 ["verify-construction", "--in", str(doc), "--out", str(tmp_path / "r.json")]):
        # none of diagonal, scenarios, certify, acceptance, ideals, trees,
        # reduction, ramsey or sets
        loaded = loaded_by(f"from idealbench.cli import run\nassert run({argv!r}) == 0")
        assert loaded == {"idealbench.cli", "idealbench.construction", "idealbench.errors",
                          "idealbench.records", "idealbench.serialize"}


def test_the_checkers_import_no_producer():
    assert loaded_by("import idealbench.checkers") == {
        "idealbench.checkers", "idealbench.errors", "idealbench.serialize"}


def certify_loads(tmp_path, certificates):
    """The idealbench modules a child loads to recheck each ``(kind, inputs)`` certificate."""
    paths = []
    for kind, inputs in certificates:
        paths.append(str(tmp_path / f"{kind}.json"))
        dump_json(paths[-1], certify.produce(kind, inputs, 0))
    return loaded_by("from idealbench.cli import run\n"
                     f"for path in {paths!r}:\n"
                     "    assert run(['certify', '--in', path]) == 0, path\n")


def test_certify_in_of_a_kind_without_a_scenario_loads_no_engine_scenario_or_ideal(tmp_path):
    loaded = certify_loads(tmp_path, [
        ("pairing", {"bound": 5, "unordered_bound": 5}),
        ("sparseness", {"universe": 8, "sizes": [3]}),
        ("weight-bound", {"depth": 5}),
        ("partition", {"depth": 5}),
        ("pigeonhole", {"depth": 4, "samples": 5, "interval": 2}),
    ])
    assert "idealbench.certify" in loaded
    assert not loaded & {f"idealbench.{name}" for name in (
        "diagonal", "scenarios", "trees", "reduction", "ideals", "ramsey")}


def test_certify_in_of_a_tree_labelling_loads_neither_the_engines_nor_ramsey(tmp_path):
    inputs = load_scenario("sep1-basic").certificate_inputs(None)
    loaded = certify_loads(tmp_path, [("tree-labelling", inputs)])
    assert "idealbench.trees" in loaded
    assert not loaded & {"idealbench.diagonal", "idealbench.ramsey"}


def test_an_unknown_sum_ideal_verdict_loads_neither_the_engines_nor_ramsey():
    # the partial weight of an unknown verdict sums through ``ideals.weight_of``,
    # which a tree scenario's branching check reaches
    loaded = loaded_by("from idealbench.ideals import SumHarmonic, membership\n"
                       "from idealbench.sets import Intersection, Progression\n"
                       "both = Intersection((Progression(0, 2), Progression(0, 3)))\n"
                       "verdict = membership(SumHarmonic(), both, 64)\n"
                       "assert verdict.value == 'unknown', verdict\n"
                       "weight = verdict.evidence['partial_weight']\n"
                       "assert weight == '14518986685813/10013535356825', verdict\n")
    assert "idealbench.ideals" in loaded
    assert not loaded & {"idealbench.diagonal", "idealbench.ramsey"}


def test_cli_commands_load_neither_dataclasses_nor_inspect(tmp_path):
    # dataclasses, and the inspect it imports, cost each CLI child about 35 ms of start-up
    cert = tmp_path / "cert.json"
    commands = (["diagonalize", "--scenario", "hindman-case2", "--out", str(cert)],
                ["certify", "--in", str(cert)],
                ["construct", "--depth", "6", "--out", str(tmp_path / "p.json")])
    code = ("import sys\n"
            "from idealbench.cli import run\n"
            f"for argv in {commands!r}:\n"
            "    assert run(argv) == 0, argv\n"
            "    assert not {'dataclasses', 'inspect'} & sys.modules.keys(), argv\n"
            "print('ok')\n")
    assert python(code).split()[-1] == "ok"


def test_every_exported_name_still_resolves():
    table = {module: names.split() for module, names in EXPORTED.items()}
    code = (
        "import importlib, idealbench\n"
        f"table = {table!r}\n"
        "for module, names in table.items():\n"
        "    defining = importlib.import_module('idealbench.' + module)\n"
        "    for name in names:\n"
        "        assert getattr(idealbench, name) is getattr(defining, name), name\n"
        "        assert name in dir(idealbench), name\n"
        "namespace = {}\n"
        "exec('from idealbench import *', namespace)\n"
        "assert {n for names in table.values() for n in names} <= namespace.keys()\n"
        "try:\n"
        "    idealbench.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert python(code).split() == ["ok"]


def test_diagonalize_help_lists_every_bundled_scenario():
    # wide enough that argparse does not wrap a name at its hyphen
    out = python("from idealbench.cli import run\nrun(['diagonalize', '--help'])", COLUMNS="400")
    names = python("from idealbench import bundled_names\nprint(*bundled_names())").split()
    assert len(names) == 20
    assert f"bundled: {', '.join(names)}\n" in out
