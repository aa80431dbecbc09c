"""weightlab: a dyadic weighted-inequality laboratory on [0,1).

Exact computation of dyadic weight characteristics, verified self-improving
integrability, 1/2-sparse families with the quadratic sparse form, dyadic
model operators with exact weighted norms, an instrumented pigeonhole
argument with per-bin empirical constants, and the closed-form bound
calculus that ties them together.

The package exports the names used by the README quickstart, the command
line and the acceptance suite; everything else is imported from its module,
e.g. ``from weightlab.grid import cube_ids``.
"""

from ._parallel import ordered_map
from .bounds import (
    evaluate_bounds,
    simplified_weak_type_factor,
    weak_type_factor,
)
from .characteristics import (
    a_infty_fw,
    ap_constant,
    characteristic_report,
    check_duality,
    check_factorization,
    rh_constant,
)
from .errors import (
    ConfigError,
    LevelOverflowError,
    SparsityViolationError,
    WeightlabError,
)
from .gehring import (
    epsilon_range,
    random_subset_checks,
    sharp_rh_levels,
    sharp_rh_max_ratio,
)
from .grid import DyadicCube, DyadicGrid, heap_levels, id_cubes
from .operators import (
    dyadic_square_function,
    empirical_weak_operator_norm,
    function_corpus,
    maximal_weighted,
    strong_lp_norm,
    weak_lp_norm,
)
from .profiles import SLACK, ExponentProfile
from .sparse import SparseFamily, build_sparse_cz, sparse_form, verify_sparsity
from .tracer import (
    GOOD_FRACTION_TARGET,
    ProofTrace,
    default_trace_family,
    percube_ap_holder_scan,
    trace_proof,
)
from .weights import (
    PowerWeight,
    TabulatedWeight,
    Weight,
    dual_weight,
    pow_weight,
    unit_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DyadicCube",
    "DyadicGrid",
    "ExponentProfile",
    "GOOD_FRACTION_TARGET",
    "LevelOverflowError",
    "PowerWeight",
    "ProofTrace",
    "SLACK",
    "SparseFamily",
    "SparsityViolationError",
    "TabulatedWeight",
    "Weight",
    "WeightlabError",
    "a_infty_fw",
    "ap_constant",
    "build_sparse_cz",
    "characteristic_report",
    "check_duality",
    "check_factorization",
    "default_trace_family",
    "dual_weight",
    "dyadic_square_function",
    "empirical_weak_operator_norm",
    "epsilon_range",
    "evaluate_bounds",
    "function_corpus",
    "heap_levels",
    "id_cubes",
    "maximal_weighted",
    "ordered_map",
    "percube_ap_holder_scan",
    "pow_weight",
    "random_subset_checks",
    "rh_constant",
    "sharp_rh_levels",
    "sharp_rh_max_ratio",
    "simplified_weak_type_factor",
    "sparse_form",
    "strong_lp_norm",
    "trace_proof",
    "unit_weight",
    "verify_sparsity",
    "weak_lp_norm",
    "weak_type_factor",
]
