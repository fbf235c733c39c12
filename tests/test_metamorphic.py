"""Metamorphic relations of the round loop: changes to an input that must
leave every output byte as it was.

- Swapping the two objectives of a Pareto search changes neither the front,
  the gaps nor any decision.
- Scaling every feature by 2**s and ``theta`` by 2**-s leaves the means
  bit-identical, and in floats the linear fit and the G-optimal design scale
  exactly with them. So a constrained search gives the same bytes at every
  scale where no absolute tolerance binds.
"""

from itertools import product
from pathlib import Path

import numpy as np
import pytest

from mopx.core import Instance
from mopx.environments import (
    GaussianEnvironment,
    LinearEnvironment,
    ReplayEnvironment,
    ReplayTable,
    load_instance_json,
    load_replay_csv,
)
from test_round_loop import TIED, benchmark_linear_instance, run_outcome

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _pareto_environments(name: str):
    """(environment, the same environment with its two objectives swapped) makers."""
    if name == "tied":  # noise-free, so every tie stays a tie
        return (lambda: GaussianEnvironment(Instance(means=TIED)),
                lambda: GaussianEnvironment(Instance(means=TIED[:, ::-1])))
    table = load_replay_csv(FIXTURES / "replay_small.csv")
    swapped = ReplayTable(table.rows[:, ::-1], table.lengths)
    return lambda: ReplayEnvironment(table, name), lambda: ReplayEnvironment(swapped, name)


@pytest.mark.parametrize("name", ["iid", "sequential", "tied"])
def test_swapping_the_objectives_changes_no_pareto_output(name):
    make, make_swapped = _pareto_environments(name)
    grid = product(("mean", "linear"), ("uniform", "g-optimal"), ("sequential_halving", "successive_rejects"),
                   ("ege", "truncate"), range(3))
    for estimator, allocator, scheduler, eliminator, seed in grid:
        settings = dict(algorithm="genpsi", estimator=estimator, allocator=allocator, scheduler=scheduler,
                        eliminator=eliminator, per_arm_budget=6, seed=seed)
        outcome = run_outcome(settings, make()).text
        assert outcome.startswith("{"), outcome
        assert run_outcome(settings, make_swapped()).text == outcome, settings


INSTANCES = {
    "linear_gopt": lambda: load_instance_json(FIXTURES / "linear_gopt_instance.json"),  # K = 8, d = 3
    "benchmark": lambda: benchmark_linear_instance(0),  # K = 64, d = 6
}


def _scaled_outcomes(name: str, s: int) -> list[str]:
    """gensec under uniform and G-optimal allocation and the linear and mean
    estimators, six seeds each, on the instance with features * 2**s and theta * 2**-s."""
    instance = INSTANCES[name]()
    scaled = Instance(instance.means, instance.sigma, instance.features * 2.0**s, instance.theta * 2.0**-s)
    assert np.array_equal(scaled.features @ scaled.theta, instance.features @ instance.theta)
    tau = float(np.median(instance.means[:, 1]))
    return [
        run_outcome(
            dict(algorithm="gensec", allocator=allocator, estimator=estimator, tau=tau, per_arm_budget=20, seed=seed),
            LinearEnvironment(scaled),
        ).text
        for allocator, estimator, seed in product(("uniform", "g-optimal"), ("linear", "mean"), range(6))
    ]


@pytest.fixture(scope="module")
def unscaled():
    return {name: _scaled_outcomes(name, 0) for name in INSTANCES}


# estimators.BASIS_RESIDUAL_TOL is absolute, not relative to the rows' scale
TOLERANCE_BINDS = {
    ("linear_gopt", -30): "the absolute BASIS_RESIDUAL_TOL reads 2**-30 features as rank-deficient: 18 of 24 runs fail",
    ("benchmark", -30): "the absolute BASIS_RESIDUAL_TOL reads 2**-30 features as rank-deficient: "
                        "18 of 24 runs change their answer without an error",
    ("benchmark", 20): "the absolute BASIS_RESIDUAL_TOL reads 2**20 rounding residue as a basis row: "
                       "18 of 24 runs fail",
}
SCALES = [(name, s) for name in INSTANCES for s in range(-20, 11) if s] + [
    pytest.param(name, s, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason))
    for (name, s), reason in TOLERANCE_BINDS.items()
]


@pytest.mark.parametrize("name, s", SCALES)
def test_power_of_two_feature_scaling_changes_no_constrained_output(unscaled, name, s):
    assert all(outcome.startswith("{") for outcome in unscaled[name])
    assert _scaled_outcomes(name, s) == unscaled[name]
