"""Multivariate Haar systems and Besov quasi-norms on the unit cube.

A numerical library (plus ``haar-besov`` CLI) for piecewise-constant
functions on dyadic partitions of [0,1)^d: exact dyadic geometry, the
isotropic and tensor-product Haar transforms, Besov quasi-norms by the
best-approximation and modulus-of-smoothness routes, weighted coefficient
sequence norms, a basis-property regime classifier, and the closed-form
extremal families behind the negative results.
"""

__version__ = "0.1.0"

from .dyadic import (
    DEFAULT_CELL_BUDGET,
    CapacityError,
    DyadicCube,
    DyadicStepFunction,
    SparseAtom,
    SparseStepFunction,
    ValueHistogram,
    average_project,
    densify,
    function_from_json,
    function_to_json,
    lp_quasinorm,
    value_histogram,
)
from .haar import (
    HaarCoefficients,
    HaarIndex,
    TensorHaarCoefficients,
    analyze,
    block_size,
    haar_function,
    level_indices,
    partial_sum_subset,
    rank_one_project,
    synthesize,
    tensor_analyze,
    tensor_block_level,
    tensor_block_order,
    tensor_coefficient,
    tensor_haar_function,
    tensor_synthesize,
)
from .norms import (
    INF,
    BesovParams,
    a_norm,
    approx_error,
    approximation_profile,
    a_norm_from_profile,
    b0_221_weighted_sum,
    b_norm_modulus,
    best_constant_error,
    modulus,
    square_function_norm,
)
from .sequences import linf_lp_norm, lqlp_norm, lqlp_norm_log2
from .regimes import Regime, RegimeResult, System, classify, critical_smoothness
from .families import (
    NestedSpec,
    ScatteredSpec,
    nested_closed_form,
    nested_family,
    scattered,
    scattered_closed_norms,
    spike_closed_form,
    spike_pair,
    tensor_spike_pair,
)
from .experiments import (
    ExperimentConfig,
    GrowthReport,
    default_config,
    fit_log2_slope,
    random_step,
    run_experiment,
)
from .rng import RandomStream, derive_seed
