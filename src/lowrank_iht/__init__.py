"""Iterative hard thresholding for low-rank matrix recovery.

Estimators for noisy trace regression with spectral hard thresholding and a
geometrically shrinking threshold schedule, one-step debiased entrywise
confidence intervals, a multi-qubit Pauli measurement simulator producing
trace-regression datasets, and a sparse vector analogue. The experiments
module and the ``lowrank-iht`` CLI run seeded Monte-Carlo grids over all
three.
"""

from .linalg import (
    SvdConvergenceError,
    SvdFactors,
    entrywise_inf_norm,
    hard_threshold_entries,
    hard_threshold_singular,
    svd,
)
from .trace_model import (
    DesignBatch,
    Observations,
    adjoint_apply,
    apply_design,
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    simulate_observations,
)
from .iht import (
    IhtConfig,
    IhtState,
    IterationRecord,
    StoppingBoundError,
    run_iht,
    schedule_iteration_bound,
    stopping_check,
    threshold_step,
    upsilon_r,
)
from .inference import (
    EntrywiseResult,
    confidence_intervals,
    decomposition_terms,
    entry_scale_matrix,
)
from .quantum import (
    PauliSetting,
    TomographyDataset,
    gen_density_matrix,
    gen_random_settings,
    outcome_distribution,
    simulate_dataset,
)
from .sparse import (
    AssumptionViolationError,
    Decorrelator,
    SparseConfig,
    SparseInstance,
    build_decorrelator,
    gen_sparse_instance,
    largest_feasible_k,
    sparse_confidence_intervals,
    sparse_iht_run,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    compute_metrics,
    run_experiment,
)

__version__ = "0.1.0"
