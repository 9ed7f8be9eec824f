"""Workbench for ideals over the naturals.

Exact-rational machinery for summable, density, and pattern ideals;
interval partitions with selector weights; finite prefix trees with an
oracle-driven labelling recursion; canonical partition searches; and
stage-by-stage diagonalization engines that emit re-checkable
certificates.
"""

import sys as _sys

# partition data legitimately carries integers far past the default guard;
# certificates serialize them as decimal strings
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

from .construction import (
    PartitionData,
    build_partition,
    degenerate_prefix_weight,
    harmonic_weight,
    verify_partition,
    weight_fn,
)
from .diagonal import (
    CriticalNodeModel,
    LabelRule,
    assemble,
    coarse_colour,
    collision_check,
    extract_profile,
    run_hindman,
    run_posdiff,
    run_pwfin,
    run_ramsey,
)
from .ideals import (
    DensityZero,
    DiffIdeal,
    FinIdeal,
    HindmanIdeal,
    PowerSet,
    RamseyIdeal,
    SumHarmonic,
    SumSelector,
    Verdict,
    density_at,
    diff_multiplicity,
    hindman_witness_search,
    is_positive,
    membership,
    ramsey_witness_search,
    sum_ideal_of,
    weight_of,
)
from .pairing import code_unordered, decode_unordered, pair_diag, unpair_diag
from .ramsey import (
    CanonicalForm,
    block_disjoint,
    canonical_hindman_search,
    canonical_ramsey_search,
    classify_canonical,
    delta,
    eventually_sparse_check,
    fs,
    max_support,
    min_support,
    support,
)
from .reduction import (
    IdentityHeightOne,
    KatetovMap,
    ReductionClaim,
    check_reduction_witness,
    check_subset_reduction,
    katetov_witness_check,
)
from .scenarios import bundled_names, load_scenario, realize_model
from .sets import (
    Cofinite,
    Complement,
    DescribedSet,
    DiffsOf,
    Finite,
    Intersection,
    Intervals,
    Progression,
    SumsOf,
    Union,
    set_from_json,
)
from .trees import (
    CoherentMap,
    Described,
    Explicit,
    FiniteTree,
    LabelledTree,
    PositivityOracle,
    canonical_tree,
    check_branching,
    compute_labels,
    extend_coherent,
    find_critical,
    path_value_search,
)

__version__ = "0.1.0"
