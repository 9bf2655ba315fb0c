"""Sparse regular pooled testing: ensembles, exact averages, bounds, trials.

The package studies nonadaptive pooled testing of n objects, each
independently defective with probability p, using m = n*l/r pooled tests
wired through a random (l, r)-regular bipartite graph.  It provides the
graph ensemble and its OR test map, exact generating-function averages
over the ensemble, closed-form converse and achievability margins with
their critical-density roots, typical-set decoders, and seeded Monte
Carlo harnesses that check the exact formulas and decode at small n.
"""

from .bounds import (
    ThresholdPair,
    achievable_margin,
    binary_entropy,
    collision_exponent,
    converse_margin,
    emit_curve,
    entropy,
    fixed_point_z,
    noisy_converse_margin,
    threshold_lower,
    threshold_pair,
    threshold_upper,
)
from .ensemble import (
    PoolingGraph,
    SystemParams,
    TestFunction,
    count_function,
    enumeration_fraction_general,
    enumeration_fraction_noiseless,
    enumeration_fraction_noisy,
    forward_or,
    or_function,
    sample_graph,
)
from .errors import GuardError, InputError
from .estimators import (
    Estimate,
    TypicalSetSpec,
    decision_set_noiseless,
    decision_set_noisy,
    estimate_noiseless,
    estimate_noisy,
    typical_weight_set,
)
from .genfunc import (
    GeneralMargin,
    binary_direct_margin,
    ensemble_event_probability,
    general_converse_bound,
    general_direct_margin,
    general_ensemble_event_probability,
    noiseless_direct_exponent,
    noisy_direct_exponent,
    noisy_ensemble_event_probability,
    or_pool_poly,
    outcome_distribution,
    type_enumerator,
    weight_enumerator,
)
from .montecarlo import (
    EventRateCheck,
    TrialReport,
    derive_seed,
    run_noiseless_trials,
    run_noisy_trials,
    validate_event_probability,
    validate_noisy_event_probability,
)

__version__ = "0.1.0"

__all__ = [
    "Estimate",
    "EventRateCheck",
    "GeneralMargin",
    "GuardError",
    "InputError",
    "PoolingGraph",
    "SystemParams",
    "TestFunction",
    "ThresholdPair",
    "TrialReport",
    "TypicalSetSpec",
    "achievable_margin",
    "binary_direct_margin",
    "binary_entropy",
    "collision_exponent",
    "converse_margin",
    "count_function",
    "decision_set_noiseless",
    "decision_set_noisy",
    "derive_seed",
    "emit_curve",
    "ensemble_event_probability",
    "entropy",
    "enumeration_fraction_general",
    "enumeration_fraction_noiseless",
    "enumeration_fraction_noisy",
    "estimate_noiseless",
    "estimate_noisy",
    "fixed_point_z",
    "forward_or",
    "general_converse_bound",
    "general_direct_margin",
    "general_ensemble_event_probability",
    "noiseless_direct_exponent",
    "noisy_converse_margin",
    "noisy_direct_exponent",
    "noisy_ensemble_event_probability",
    "or_function",
    "or_pool_poly",
    "outcome_distribution",
    "run_noiseless_trials",
    "run_noisy_trials",
    "sample_graph",
    "threshold_lower",
    "threshold_pair",
    "threshold_upper",
    "type_enumerator",
    "typical_weight_set",
    "validate_event_probability",
    "validate_noisy_event_probability",
    "weight_enumerator",
]
