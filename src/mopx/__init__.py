"""Fixed-budget multi-objective pure-exploration bandits.

Identify the best feasible arm or the Pareto set of a finite candidate pool
under a hard evaluation budget, with pluggable schedulers, allocators and
estimators, synthetic and replay reward sources, and an experiment harness.
"""

from .algorithms import (
    RunConfig,
    RunResult,
    eliminate_pareto,
    rank_constrained,
    run_algorithm,
    run_genpsi,
    run_gensec,
    run_uniform_baseline,
    theorem_bound,
)
from .allocators import (
    DesignConvergenceError,
    DesignWeights,
    PullCounts,
    allocate_uniform,
    round_design,
    solve_g_optimal,
)
from .core import (
    ConfigurationError,
    DomainError,
    Environment,
    EstimationError,
    Instance,
    InstanceError,
    MetricError,
    MopxError,
    NumericalError,
    ObservationBatch,
    RngStream,
    UnsupportedDimensionError,
)
from .environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    ReplayTable,
    brevity_score,
    load_instance_json,
    load_replay_csv,
    random_linear_instance,
)
from .estimators import (
    LinearFit,
    MlpParams,
    estimate_sample_mean,
    fit_linear,
    mlp_fit,
    mlp_loss_grad,
    mlp_predict,
    predict_linear,
    pseudo_inverse,
    select_independent_basis,
)
from .features import load_embeddings_csv, pca_reduce, write_features_csv
from .gaps import (
    GapEntry,
    GapReport,
    best_feasible_arm,
    constrained_gap_report,
    hardness,
    pareto_front,
    pareto_gap_report,
)
from .harness import (
    ExperimentConfig,
    MetricRecord,
    SummaryRow,
    aggregate,
    load_experiment_config,
    run_experiment,
    write_outputs,
)
from .metrics import hv_recovery, hypervolume, soft_constrained_reward
from .schedulers import Schedule, make_schedule

__version__ = "0.1.0"
