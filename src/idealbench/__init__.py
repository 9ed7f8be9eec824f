"""Workbench for ideals over the naturals.

Exact-rational machinery for summable, density, and pattern ideals;
interval partitions with selector weights; finite prefix trees with an
oracle-driven labelling recursion; canonical partition searches; and
stage-by-stage diagonalization engines that emit re-checkable
certificates.

Importing the package loads none of its submodules.  Reading
``idealbench.<module>`` imports that submodule the first time (PEP 562);
this is the one way the package's modules load each other on demand, so a
process pays only for the modules it uses.  Each name below is imported
from its submodule on first use and then cached here.
"""

import sys as _sys
from importlib import import_module as _import_module

# partition data legitimately carries integers far past the default guard;
# certificates serialize them as decimal strings
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

__version__ = "0.1.0"

# the submodule that defines each exported name
_EXPORTS = {
    "construction": (
        "PartitionData", "build_partition", "degenerate_prefix_weight",
        "harmonic_weight", "verify_partition", "weight_fn",
    ),
    "diagonal": (
        "CriticalNodeModel", "LabelRule", "assemble", "coarse_colour",
        "collision_check", "extract_profile", "run_hindman", "run_posdiff",
        "run_pwfin", "run_ramsey",
    ),
    "ideals": (
        "DensityZero", "DiffIdeal", "FinIdeal", "HindmanIdeal", "PowerSet",
        "RamseyIdeal", "SumHarmonic", "SumSelector", "Verdict", "density_at",
        "diff_multiplicity", "hindman_witness_search", "is_positive",
        "membership", "ramsey_witness_search", "sum_ideal_of", "weight_of",
    ),
    "pairing": ("code_unordered", "decode_unordered", "pair_diag", "unpair_diag"),
    "ramsey": (
        "CanonicalForm", "block_disjoint", "canonical_hindman_search",
        "canonical_ramsey_search", "classify_canonical", "delta",
        "eventually_sparse_check", "fs", "max_support", "min_support", "support",
    ),
    "reduction": (
        "IdentityHeightOne", "KatetovMap", "ReductionClaim",
        "check_reduction_witness", "check_subset_reduction",
        "katetov_witness_check",
    ),
    "scenarios": ("bundled_names", "load_scenario", "realize_model"),
    "sets": (
        "Cofinite", "Complement", "DescribedSet", "DiffsOf", "Finite",
        "Intersection", "Intervals", "Progression", "SumsOf", "Union",
        "set_from_json",
    ),
    "trees": (
        "CoherentMap", "Described", "Explicit", "FiniteTree", "LabelledTree",
        "PositivityOracle", "canonical_tree", "check_branching",
        "compute_labels", "extend_coherent", "find_critical",
        "path_value_search",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name.isidentifier():
        try:  # importing a submodule makes it an attribute here
            return _import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":  # raised inside the submodule
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
