"""Every input check of the library's public functions, each reached once and
pinned by its error type and full message.

Each row calls one function with one faulty input. The checks that need a
file or a patched constant have tests of their own below the table.
"""

import numpy as np
import pytest

import mopx.features as features
from mopx.algorithms import (
    RunConfig,
    _RoundRunner,
    eliminate_pareto,
    rank_constrained,
    run_algorithm,
    run_genpsi,
    theorem_bound,
)
from mopx.allocators import DesignWeights, allocate_uniform, round_design, solve_g_optimal
from mopx.core import (
    ConfigurationError,
    DomainError,
    EstimationError,
    Instance,
    InstanceError,
    MetricError,
    NumericalError,
    ObservationBatch,
)
from mopx.environments import GaussianEnvironment, ReplayTable, load_replay_csv
from mopx.estimators import (
    MeanEstimates,
    estimate_sample_mean,
    mlp_fit,
    mlp_init,
    mlp_loss_grad,
    pseudo_inverse,
    select_independent_basis,
)
from mopx.features import jacobi_eigh, pca_reduce
from mopx.gaps import constrained_gap_report, hardness, pareto_front
from mopx.metrics import hypervolume, soft_constrained_reward
from mopx.schedulers import Schedule

MEANS = np.array([[0.8, 0.6], [0.9, 0.4], [0.6, 0.7]])


def _batch(rewards=((0.5, 0.5), (0.2, 0.8))) -> ObservationBatch:
    batch = ObservationBatch()
    batch.extend([0, 1], [[1.0, 0.0], [0.0, 1.0]], rewards, 1)
    return batch


def _genpsi_run_of_one_arm():
    config = RunConfig(algorithm="genpsi", per_arm_budget=3)
    return run_algorithm(config, GaussianEnvironment(Instance(MEANS[:1], sigma=0.1)))


def _gensec(**settings):
    return lambda: RunConfig(**{"algorithm": "gensec", "tau": 0.5, "per_arm_budget": 3, **settings})


def _rank(tau):
    return lambda: rank_constrained(MeanEstimates([0, 1, 2], MEANS), tau)


def _run(loop, **settings):
    return lambda: loop(_gensec(**settings)(), GaussianEnvironment(Instance(MEANS, sigma=0.1)))


def _runner_over_three_objectives(config):
    """The runner is only built: its check comes before any pull."""
    return lambda: _RoundRunner(config, GaussianEnvironment(Instance(np.hstack([MEANS, MEANS[:, :1]]), sigma=0.1)))


def _mlp_init(dim=2, n_objectives=2, hidden=3):
    return lambda: mlp_init(dim, n_objectives, hidden, np.random.default_rng(0))


CASES = {
    # algorithms
    "run config without a budget": (
        lambda: RunConfig(algorithm="genpsi"),
        ConfigurationError,
        "per_arm_budget must be an int, got None",
    ),
    "constrained run config with a NaN tau": (_gensec(tau=np.nan), ConfigurationError, "tau must be finite, got nan"),
    "constrained run config with an infinite tau": (_gensec(tau=np.inf), ConfigurationError, "tau must be finite, got inf"),
    "constrained run config with a tau of -inf": (_gensec(tau=-np.inf), ConfigurationError, "tau must be finite, got -inf"),
    "constrained run config with an int tau past the float range": (
        _gensec(tau=10**400),
        ConfigurationError,
        f"tau must be finite, got {10**400}",
    ),
    "run config with a fractional per-arm budget": (
        _gensec(per_arm_budget=2.5),
        ConfigurationError,
        "per_arm_budget must be an int, got 2.5",
    ),
    "run config with a boolean per-arm budget": (
        _gensec(per_arm_budget=True),
        ConfigurationError,
        "per_arm_budget must be an int, got True",
    ),
    "constrained run config with a string tau": (_gensec(tau="0.5"), ConfigurationError, "tau must be a real number, got '0.5'"),
    "constrained run config with a boolean tau": (_gensec(tau=True), ConfigurationError, "tau must be a real number, got True"),
    "run config with a string g-optimal epsilon": (
        _gensec(g_optimal_epsilon="0.1"),
        ConfigurationError,
        "g_optimal_epsilon must be a real number, got '0.1'",
    ),
    "run config with a string mlp lambda": (_gensec(mlp_lambda="1"), ConfigurationError, "mlp_lambda must be a real number, got '1'"),
    "run config without an mlp step size": (
        _gensec(mlp_step_size=None),
        ConfigurationError,
        "mlp_step_size must be a real number, got None",
    ),
    "run config with an int mlp lambda past the float range": (
        _gensec(mlp_lambda=10**400),
        ConfigurationError,
        f"mlp lambda must be finite, got {10**400}",
    ),
    "run config with an int mlp step size past the float range": (
        _gensec(mlp_step_size=10**400),
        ConfigurationError,
        f"mlp step_size must be finite, got {10**400}",
    ),
    "run config with a fractional seed": (_gensec(seed=1.5), ConfigurationError, "seed must be an int, got 1.5"),
    "run config with a negative seed": (_gensec(seed=-1), ConfigurationError, "seed must be non-negative, got -1"),
    "run config with fractional mlp iters": (_gensec(mlp_iters=2.5), ConfigurationError, "mlp_iters must be an int, got 2.5"),
    "run config with a boolean mlp hidden": (_gensec(mlp_hidden=True), ConfigurationError, "mlp_hidden must be an int, got True"),
    "run config with a string enforce_design_budget": (
        _gensec(enforce_design_budget="false"),
        ConfigurationError,
        "enforce_design_budget must be a bool, got 'false'",
    ),
    "run config with an integer redistribute_leftover": (
        _gensec(redistribute_leftover=1),
        ConfigurationError,
        "redistribute_leftover must be a bool, got 1",
    ),
    "successive rejects at per-arm budget 1": (
        _run(run_algorithm, scheduler="successive_rejects", per_arm_budget=1),
        ConfigurationError,
        "round 1 pulls 0 times, but the mean estimator needs a pull of each of the K=3 arms",
    ),
    "successive rejects at per-arm budget 1 with a linear fit": (
        _run(run_algorithm, scheduler="sr", per_arm_budget=1, estimator="linear"),
        ConfigurationError,
        "round 1 pulls 0 times, but the linear estimator needs a pull of one of the K=3 arms",
    ),
    "sequential halving of sample means below one pull per arm in round 1": (
        _run(run_algorithm, per_arm_budget=1),
        ConfigurationError,
        "round 1 pulls 1 times, but the mean estimator needs a pull of each of the K=3 arms",
    ),
    "pareto loop with a constrained-mode config": (
        _run(run_genpsi, per_arm_budget=5),
        ConfigurationError,
        "the Pareto loop cannot run a constrained-mode config",
    ),
    "round runner of a gensec config over three objectives": (
        _runner_over_three_objectives(RunConfig(algorithm="gensec", tau=0.5, per_arm_budget=4)),
        ConfigurationError,
        "the constrained loop supports exactly two objectives",
    ),
    "round runner of a constrained uniform config over three objectives": (
        _runner_over_three_objectives(RunConfig(algorithm="uniform", mode="constrained", tau=0.5, per_arm_budget=4)),
        ConfigurationError,
        "the constrained loop supports exactly two objectives",
    ),
    "genpsi run over one arm": (
        _genpsi_run_of_one_arm,
        ConfigurationError,
        "need K >= 2 arms to schedule, got K=1",
    ),
    # both comparisons with a NaN tau are false, so the order would drop every arm
    "constrained ranking at a NaN tau": (_rank(np.nan), DomainError, "tau must be finite, got nan"),
    "constrained ranking at an infinite tau": (_rank(np.inf), DomainError, "tau must be finite, got inf"),
    "constrained ranking at a tau of -inf": (_rank(-np.inf), DomainError, "tau must be finite, got -inf"),
    "eliminate with nothing to eliminate": (
        lambda: eliminate_pareto([0, 1], 2, {0: 0.1, 1: 0.2}, {0, 1}),
        ConfigurationError,
        "nothing to eliminate: |active|=2 <= keep=2",
    ),
    "theorem bound with one arm": (
        lambda: theorem_bound(1, 2, 1.0, 1000, 1.0),
        ConfigurationError,
        "need K >= 2 arms to schedule, got K=1",
    ),
    "theorem bound below its design-budget floor": (
        lambda: theorem_bound(8, 2, 1.0, 269, 25.0),
        ConfigurationError,
        "budget B=269 violates the linear-pipeline bound B >= 45*d*ceil(log2 K) = 270",
    ),
    "theorem bound over more arms than pulls": (
        lambda: theorem_bound(600, 1, 1.0, 500, 1.0),
        ConfigurationError,
        "budget B=500 violates B >= K=600 (one pull per arm in round 1)",
    ),
    # allocators
    "uniform allocation of no pulls": (
        lambda: allocate_uniform(0, [0, 1]),
        DomainError,
        "need at least one pull, got n=0",
    ),
    "uniform allocation over a repeated arm": (
        lambda: allocate_uniform(4, [1, 1]),
        DomainError,
        "active arms must be distinct, repeated: [1]",
    ),
    "rounded design of no pulls": (
        lambda: round_design(0, DesignWeights((0.5, 0.5), 2.0, (0, 1)), 1 / 3, [0, 1], np.eye(2)),
        DomainError,
        "need at least one pull, got n=0",
    ),
    "rounded design over a repeated arm": (
        lambda: round_design(4, DesignWeights((0.5, 0.5), 2.0, (0, 1)), 1 / 3, [1, 1], np.eye(2)),
        DomainError,
        "active arms must be distinct, repeated: [1]",
    ),
    **{
        f"rounded design of weights {weights}": (
            lambda weights=weights: round_design(10, DesignWeights(weights, 2.0, (0,)), 1 / 3, [0, 1], np.eye(2)),
            DomainError,
            f"design weights must be non-negative and sum to 1, got {weights}",
        )
        for weights in [(0.9, 0.9), (0.1, 0.1), (-0.5, 1.5), (np.nan, 1.0)]
    },
    "design over a feature vector": (
        lambda: solve_g_optimal(np.ones(3), 0.1),
        DomainError,
        "features must be a non-empty 2-D array, got shape (3,)",
    ),
    "design over zero features": (
        lambda: solve_g_optimal(np.zeros((3, 2)), 0.1),
        DomainError,
        "active features span a zero-dimensional space",
    ),
    # core
    "instance with non-finite means": (
        lambda: Instance([[np.nan, 0.5], [0.2, 0.8]]),
        InstanceError,
        "means must be finite",
    ),
    "instance with features of another K": (
        lambda: Instance(MEANS, features=np.ones((2, 1))),
        InstanceError,
        "features must be K x d, got (2, 1)",
    ),
    "instance with non-finite features": (
        lambda: Instance(MEANS, features=[[1.0], [np.inf], [0.0]]),
        InstanceError,
        "features must be finite",
    ),
    "instance with theta but no features": (
        lambda: Instance(MEANS, theta=np.ones((1, 2))),
        InstanceError,
        "theta without features is meaningless",
    ),
    "instance with theta that is not d x m": (
        lambda: Instance(MEANS, features=np.ones((3, 1)), theta=np.ones((2, 2))),
        InstanceError,
        "theta must be d x m, got (2, 2)",
    ),
    # environments
    "replay table without arms": (
        lambda: ReplayTable(np.ones((2, 2)), np.array([], dtype=int)),
        ConfigurationError,
        "replay table has no arms",
    ),
    "replay table with more rows than records": (
        lambda: ReplayTable(np.ones((3, 2)), [1, 1]),
        ConfigurationError,
        "replay table needs 2 rows of records, got shape (3, 2)",
    ),
    "replay table with a non-finite record": (
        lambda: ReplayTable([[0.1, 0.2], [0.3, 0.4], [np.nan, 0.5]], [1, 2]),
        ConfigurationError,
        "replay arm 1 has non-finite records",
    ),
    # estimators
    "pseudo-inverse over a feature vector": (
        lambda: pseudo_inverse(np.eye(2), np.ones(2)),
        EstimationError,
        "active_features must be a non-empty 2-D array",
    ),
    "pseudo-inverse over zero features": (
        lambda: pseudo_inverse(np.eye(2), np.zeros((2, 2))),
        NumericalError,
        "all active features are numerically zero",
    ),
    "sample mean of one-objective rows": (
        lambda: estimate_sample_mean(_batch([[0.5], [0.2]]), [0, 1]),
        EstimationError,
        "sample means need m >= 2 objectives, got m=1",
    ),
    "basis of one feature row": (
        lambda: select_independent_basis(np.ones(3)),
        EstimationError,
        "features must be a 2-D array, got shape (3,)",
    ),
    "basis of a stack of feature matrices": (
        lambda: select_independent_basis(np.ones((2, 3, 2))),
        EstimationError,
        "features must be a 2-D array, got shape (2, 3, 2)",
    ),
    "basis of a scalar": (
        lambda: select_independent_basis(1.0),
        EstimationError,
        "features must be a 2-D array, got shape ()",
    ),
    "mlp loss with a negative lambda": (
        lambda: mlp_loss_grad(mlp_init(2, 2, 3, np.random.default_rng(0)), _batch(), -1.0),
        EstimationError,
        "regularisation weight must be >= 0",
    ),
    "mlp loss with parameters for another feature width": (
        lambda: mlp_loss_grad(mlp_init(3, 2, 4, np.random.default_rng(0)), _batch(), 0.1),
        ConfigurationError,
        "params w1 has shape (4, 3), but hidden=4 and a batch of 2 features and 2 rewards need (4, 2)",
    ),
    "mlp loss with parameters for another reward width": (
        lambda: mlp_loss_grad(mlp_init(2, 1, 3, np.random.default_rng(0)), _batch(), 0.1),
        ConfigurationError,
        "params w2 has shape (1, 3), but hidden=3 and a batch of 2 features and 2 rewards need (2, 3)",
    ),
    "mlp start of no hidden units": (_mlp_init(hidden=0), ConfigurationError, "mlp hidden must be >= 1, got 0"),
    "mlp start of a negative hidden width": (_mlp_init(hidden=-1), ConfigurationError, "mlp hidden must be >= 1, got -1"),
    "mlp start of a fractional hidden width": (_mlp_init(hidden=2.5), ConfigurationError, "mlp hidden must be an int, got 2.5"),
    "mlp start of a boolean hidden width": (_mlp_init(hidden=True), ConfigurationError, "mlp hidden must be an int, got True"),
    "mlp start of no features": (_mlp_init(dim=0), ConfigurationError, "mlp dim must be >= 1, got 0"),
    "mlp start of a fractional feature width": (_mlp_init(dim=1.5), ConfigurationError, "mlp dim must be an int, got 1.5"),
    "mlp start of no objectives": (_mlp_init(n_objectives=0), ConfigurationError, "mlp n_objectives must be >= 1, got 0"),
    "mlp start of a string objective count": (
        _mlp_init(n_objectives="2"),
        ConfigurationError,
        "mlp n_objectives must be an int, got '2'",
    ),
    "mlp fit with a negative lambda": (
        lambda: mlp_fit(_batch(), -1.0, mlp_init(2, 2, 3, np.random.default_rng(0)), iters=1),
        EstimationError,
        "regularisation weight must be >= 0",
    ),
    "mlp fit without a start": (
        lambda: mlp_fit(_batch(), 0.1, None, iters=1),
        ConfigurationError,
        "mlp_fit starts from MlpParams drawn by mlp_init, got NoneType",
    ),
    "mlp fit warm-started from parameters for another feature width": (
        lambda: mlp_fit(_batch(), 0.1, mlp_init(3, 2, 4, np.random.default_rng(0)), iters=1),
        ConfigurationError,
        "init w1 has shape (4, 3), but hidden=4 and a batch of 2 features and 2 rewards need (4, 2)",
    ),
    # features
    "jacobi on a non-square matrix": (
        lambda: jacobi_eigh(np.ones((2, 3))),
        ConfigurationError,
        "need a square matrix, got shape (2, 3)",
    ),
    "jacobi on a non-symmetric matrix": (
        lambda: jacobi_eigh([[1.0, 2.0], [0.0, 1.0]]),
        ConfigurationError,
        "matrix must be symmetric",
    ),
    "pca of a vector": (
        lambda: pca_reduce(np.ones(3), 1),
        ConfigurationError,
        "embeddings must be K x p, got shape (3,)",
    ),
    "pca of a non-finite table": (
        lambda: pca_reduce([[np.nan, 1.0], [1.0, 2.0]], 1),
        ConfigurationError,
        "embeddings must be finite",
    ),
    # gaps
    "pareto front of one objective": (
        lambda: pareto_front(np.ones((3, 1))),
        DomainError,
        "means must be K x m with m >= 2, got shape (3, 1)",
    ),
    "constrained gaps of three objectives": (
        lambda: constrained_gap_report(np.ones((2, 3)), 0.5),
        DomainError,
        "constrained gaps are defined for m = 2 objectives",
    ),
    "hardness of one arm": (
        lambda: hardness([[0.5, 0.6]], 0.5),
        DomainError,
        "hardness needs K >= 2 arms",
    ),
    # metrics
    "hypervolume over a matrix reference": (
        lambda: hypervolume(MEANS, [[0.0, 0.0]]),
        MetricError,
        "reference must be an m-vector with m >= 2, got shape (1, 2)",
    ),
    "hypervolume of points of another m": (
        lambda: hypervolume([[0.5, 0.5, 0.5]], [0.0, 0.0]),
        MetricError,
        "points have m=3 but reference has m=2",
    ),
    "hypervolume of non-finite points": (
        lambda: hypervolume([[0.5, np.inf], [0.2, 0.8]], [0.0, 0.0]),
        MetricError,
        "points must be finite",
    ),
    "soft constrained reward at a zero tau": (
        lambda: soft_constrained_reward(MEANS[0], 0.0),
        MetricError,
        "soft constrained reward needs tau > 0, got 0.0",
    ),
    "soft constrained reward at a NaN tau": (
        lambda: soft_constrained_reward(MEANS[0], np.nan),
        MetricError,
        "soft constrained reward needs tau > 0, got nan",
    ),
    "soft constrained reward at an infinite tau": (
        lambda: soft_constrained_reward(MEANS[0], np.inf),
        MetricError,
        "soft constrained reward needs a finite tau, got inf",
    ),
    "soft constrained reward normalised by a zero optimum": (
        lambda: soft_constrained_reward(MEANS[0], 0.5, mu1_star=0.0),
        MetricError,
        "cannot normalise by a non-positive optimum 0.0",
    ),
    "soft constrained reward normalised by a NaN optimum": (
        lambda: soft_constrained_reward(MEANS[0], 0.5, mu1_star=np.nan),
        MetricError,
        "cannot normalise by a non-finite optimum nan",
    ),
    "soft constrained reward normalised by an infinite optimum": (
        lambda: soft_constrained_reward(MEANS[0], 0.5, mu1_star=np.inf),
        MetricError,
        "cannot normalise by a non-finite optimum inf",
    ),
    # schedulers
    "schedule with more keep counts than pull rounds": (
        lambda: Schedule((4,), (2, 1), 10),
        ConfigurationError,
        "pulls_per_round and keep_counts must have the same length R",
    ),
    "schedule over its budget": (
        lambda: Schedule((11,), (1,), 10),
        ConfigurationError,
        "schedule spends 11 pulls, over budget 10",
    ),
    "schedule that keeps no arm": (
        lambda: Schedule((4, 4), (1, 0), 10),
        ConfigurationError,
        "keep counts must be >= 1",
    ),
    "schedule whose keep counts do not fall": (
        lambda: Schedule((4, 4), (2, 2), 10),
        ConfigurationError,
        "keep counts must be strictly decreasing",
    ),
}


@pytest.mark.parametrize("call, kind, message", list(CASES.values()), ids=list(CASES))
def test_each_input_check_raises_its_message(call, kind, message):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind
    assert str(raised.value) == message


@pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
def test_a_basis_of_no_rows_or_no_columns_is_empty(shape):
    assert select_independent_basis(np.ones(shape)) == []


def test_a_pareto_run_config_reads_no_tau():
    config = RunConfig(algorithm="genpsi", tau=np.nan, per_arm_budget=3)
    assert config.mode == "pareto" and np.isnan(config.tau)


def test_numpy_floats_are_real_numbers():
    config = RunConfig(algorithm="gensec", tau=np.float64(0.5), mlp_lambda=np.float64(0.0), mlp_step_size=1, per_arm_budget=3)
    assert config.tau == 0.5 and config.mlp_lambda == 0.0


@pytest.mark.parametrize(
    "text, fault", [("", "is empty"), ("arm_id,obj_1,obj_2\n", "holds no records")], ids=["empty", "header only"]
)
def test_a_replay_file_without_records_is_refused(tmp_path, text, fault):
    path = tmp_path / "replay.csv"
    path.write_text(text)
    with pytest.raises(ConfigurationError) as raised:
        load_replay_csv(path)
    assert str(raised.value) == f"replay file {path} {fault}"


def test_jacobi_rotations_that_do_not_converge_are_an_error(monkeypatch):
    monkeypatch.setattr(features, "_JACOBI_MAX_SWEEPS", 0)
    with pytest.raises(NumericalError) as raised:
        jacobi_eigh(np.eye(2))
    assert str(raised.value) == "Jacobi rotations did not converge in 0 sweeps"
