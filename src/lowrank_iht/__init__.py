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
    restricted_singular_bound,
    schatten_norm,
    svd,
)
from .trace_model import (
    DesignBatch,
    Observations,
    RipEstimate,
    adjoint_apply,
    apply_design,
    estimate_rip_constant,
    gen_basis_design,
    gen_gaussian_design,
    gen_low_rank_theta,
    isometry_deviation,
    simulate_observations,
)
from .iht import (
    IhtConfig,
    IhtState,
    IterationRecord,
    StoppingBoundError,
    empirical_sigma,
    run_iht,
    schedule_iteration_bound,
    stopping_check,
    threshold_step,
    upsilon_r,
    write_trace_csv,
)
from .inference import (
    EntrywiseResult,
    confidence_intervals,
    debias,
    decomposition_terms,
    entry_scale_matrix,
)
from .quantum import (
    OutcomeBatch,
    PauliSetting,
    TomographyDataset,
    build_rescaled_dataset,
    eigenprojector,
    gen_density_matrix,
    gen_random_settings,
    marginalize,
    outcome_distribution,
    parity,
    pauli_matrix,
    sample_outcomes,
    setting_projector,
    simulate_dataset,
)
from .sparse import (
    AssumptionViolationError,
    Decorrelator,
    SparseConfig,
    SparseInstance,
    build_decorrelator,
    desparsify,
    estimate_r_k,
    gen_sparse_instance,
    largest_feasible_k,
    sparse_confidence_intervals,
    sparse_iht_run,
    sparse_sigma,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    compute_metrics,
    run_experiment,
)

__version__ = "0.1.0"
