"""Subsets of Z_N avoiding k-term cyclic arithmetic progressions:
difference-gcd sets, forbidden-set constructions and independence-number
bounds, exact search at small N, proper colorings, and the resulting cyclic
Van der Waerden lower bounds."""

from .cache import ResultsCache
from .coloring import (
    PartitionPlan,
    WcBoundRow,
    build_partition,
    split_alternating,
    wc_lower_bounds,
)
from .construction import (
    BoundsReport,
    ForbiddenSet,
    build_avoiding,
    build_forbidden,
    forbidden_size_formula,
    theorem_bounds,
)
from .errors import (
    BudgetExceededError,
    CyclicVdwError,
    InternalInconsistencyError,
    InvalidArgumentError,
)
from .progressions import (
    ConjectureReport,
    CyclicProgression,
    canonical_diffs,
    check_conjecture,
    conjectured_difference_set,
    difference_gcd_set,
    enumerate_progressions,
    find_contained_progression,
)
from .search import (
    ColoringResult,
    IndependenceResult,
    SearchBudget,
    chromatic_number,
    independence_number,
    is_r_colorable,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BudgetExceededError",
    "ColoringResult",
    "ConjectureReport",
    "CyclicProgression",
    "CyclicVdwError",
    "ForbiddenSet",
    "IndependenceResult",
    "InternalInconsistencyError",
    "InvalidArgumentError",
    "PartitionPlan",
    "ResultsCache",
    "SearchBudget",
    "WcBoundRow",
    "build_avoiding",
    "build_forbidden",
    "build_partition",
    "canonical_diffs",
    "check_conjecture",
    "chromatic_number",
    "conjectured_difference_set",
    "difference_gcd_set",
    "enumerate_progressions",
    "find_contained_progression",
    "forbidden_size_formula",
    "independence_number",
    "is_r_colorable",
    "split_alternating",
    "theorem_bounds",
    "wc_lower_bounds",
]
