"""Seeded input generators for the benchmark workloads.

Each workload is one algorithm variant swept over a run of freshly generated
problem instances. Sweep ``i`` of a benchmark run with seed ``s`` draws its
instance from ``numpy.random.default_rng([s, i])``, so the same seed gives the
same inputs whatever the machine speed; a faster program simply gets through
more sweeps in the measuring window. The program only ever sees the files
written here: a config JSON plus a replay CSV or an instance JSON.

The sizes are chosen so that one run (one grid cell) takes about 0.2 s on a
2-core x86 box: a 30 s window then holds over 100 runs, enough for a p90 with
at least ten runs beyond it, and the sweep medians average over dozens of
instances, which keeps instance-to-instance variation out of the figures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Layer -> end-to-end metric -> workload map, written down before measuring.
# ``dominant`` is the layer (or layers) predicted to hold the largest share of
# traced self time on the workload; the traced run reports whether it does.
LAYER_EFFECTS = {
    "harness": "setup_s and sweep_s on every workload",
    "algorithms": "sweep_s, mainly on pareto-sr-replay (loop and round-log overhead)",
    "schedulers": "nothing measurable anywhere",
    "allocators": "sweep_s and fail_rate on linear-gopt; nothing on the other two",
    "environments": "sweep_s on pareto-sr-replay (replay pulls) and linear-gopt (Gaussian pulls)",
    "core": "sweep_s on mlp-sh and pareto-sr-replay (ObservationBatch rebuilds)",
    "estimators": "sweep_s on mlp-sh, and on linear-gopt through pseudo_inverse",
    "gaps": "sweep_s on pareto-sr-replay, a little on mlp-sh, nothing on linear-gopt",
    "metrics": "sweep_s slightly on the Pareto workloads (hypervolume)",
}

SWEEP_SEEDS = (0, 1, 2, 3)
PER_ARM_BUDGET = 20


@dataclass(frozen=True)
class SweepInputs:
    """Files written for one sweep plus the ground truth the checks need."""

    config_path: Path
    mode: str  # "pareto" or "constrained"
    true_means: np.ndarray
    tau: float | None
    hv_reference: tuple[float, ...] | None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dominant: tuple[str, ...]
    algorithm: dict
    n_arms: int
    smoke_arms: int

    def generate(self, seed: int, sweep: int, out_dir: Path, smoke: bool = False) -> SweepInputs:
        """Write the inputs of sweep ``sweep`` of a run seeded with ``seed``."""
        rng = np.random.default_rng([seed, sweep])
        n_arms = self.smoke_arms if smoke else self.n_arms
        out_dir.mkdir(parents=True, exist_ok=True)
        env, truth, tau, reference = _GENERATORS[self.name](rng, n_arms, out_dir)
        algorithm = dict(self.algorithm)
        if smoke and algorithm.get("estimator") == "mlp":
            algorithm["mlp"] = {"iters": 5}
        config = {
            "environment": env,
            "algorithms": [algorithm],
            "k_values": [n_arms],
            "per_arm_budgets": [PER_ARM_BUDGET],
            "seeds": list(SWEEP_SEEDS[:2] if smoke else SWEEP_SEEDS),
        }
        if tau is not None:
            config["tau"] = tau
        if reference is not None:
            config["hv_reference"] = list(reference)
        path = out_dir / "config.json"
        path.write_text(json.dumps(config, indent=1) + "\n")
        mode = "constrained" if algorithm["algorithm"] == "gensec" else "pareto"
        return SweepInputs(path, mode, truth, tau, reference)


def _replay_inputs(rng: np.random.Generator, n_arms: int, out_dir: Path):
    """Two-objective scores in [0, 1], about 50 recorded pulls per arm."""
    means = rng.uniform(0.2, 0.8, size=(n_arms, 2))
    lines = ["arm_id,obj_1,obj_2"]
    truth = np.empty((n_arms, 2))
    for arm in range(n_arms):
        rows = np.clip(means[arm] + rng.normal(0.0, 0.15, size=(int(rng.integers(40, 61)), 2)), 0, 1)
        text = [(f"{a:.3f}", f"{b:.3f}") for a, b in rows]
        lines.extend(f"{arm},{a},{b}" for a, b in text)
        truth[arm] = np.array([[float(a), float(b)] for a, b in text]).mean(axis=0)
    (out_dir / "replay.csv").write_text("\n".join(lines) + "\n")
    env = {"kind": "replay", "path": "replay.csv", "mode": "iid"}
    return env, truth, None, (0.0, 0.0)


def _write_instance(out_dir: Path, features: np.ndarray, theta: np.ndarray) -> tuple[dict, np.ndarray]:
    means = features @ theta
    instance = {
        "K": int(features.shape[0]),
        "m": int(theta.shape[1]),
        "sigma": 0.5,
        "means": means.tolist(),
        "features": features.tolist(),
        "theta": theta.tolist(),
    }
    (out_dir / "instance.json").write_text(json.dumps(instance) + "\n")
    return {"kind": "linear", "instance": "instance.json"}, means


def _linear_gopt_inputs(rng: np.random.Generator, n_arms: int, out_dir: Path):
    """d = 6: a constant feature plus five Gaussian ones; tau = median mu_2.

    The intercept of 3 keeps tau and the best feasible primary mean positive,
    which the soft constrained reward needs.
    """
    features = np.hstack([np.ones((n_arms, 1)), rng.normal(size=(n_arms, 5)) / np.sqrt(5.0)])
    theta = rng.normal(size=(6, 2))
    theta[0] = 3.0
    env, means = _write_instance(out_dir, features, theta)
    tau = float(np.median(means[:, 1]))
    feasible = means[:, 1] >= tau
    if tau <= 0 or means[feasible, 0].max() <= 0:
        raise ValueError("generated constrained instance has a non-positive tau or optimum")
    return env, means, tau, None


def _mlp_inputs(rng: np.random.Generator, n_arms: int, out_dir: Path):
    """d = 4 Gaussian features; the reference sits below every mean so the
    true front always has a positive hypervolume."""
    features = rng.normal(size=(n_arms, 4)) / 2.0
    theta = rng.normal(size=(4, 2))
    env, means = _write_instance(out_dir, features, theta)
    reference = tuple(float(v) for v in means.min(axis=0) - 0.1)
    return env, means, None, reference


_GENERATORS = {
    "pareto-sr-replay": _replay_inputs,
    "linear-gopt": _linear_gopt_inputs,
    "mlp-sh": _mlp_inputs,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="pareto-sr-replay",
            why="K=48 replay, genpsi + successive rejects + mean: 47 rounds of O(K^2) "
            "front/gap scans; gaps layer dominates, no design solver or MLP",
            dominant=("gaps",),
            algorithm={
                "label": "ege-sr",
                "algorithm": "genpsi",
                "scheduler": "successive_rejects",
                "allocator": "uniform",
                "estimator": "mean",
            },
            n_arms=48,
            smoke_arms=8,
        ),
        Workload(
            name="linear-gopt",
            why="K=64 d=6 linear, gensec + halving + G-optimal + linear fit: the design "
            "solver dominates; constrained ranking skips the gaps layer",
            dominant=("allocators",),
            algorithm={
                "label": "gensec-gopt",
                "algorithm": "gensec",
                "scheduler": "sequential_halving",
                "allocator": "g-optimal",
                "estimator": "linear",
            },
            n_arms=64,
            smoke_arms=8,
        ),
        Workload(
            name="mlp-sh",
            why="K=32 d=4 linear, genpsi + halving + MLP estimator (60 iterations): MLP fits "
            "and ObservationBatch rebuilds dominate; gaps light at small K",
            dominant=("estimators", "core"),
            algorithm={
                "label": "genpsi-mlp",
                "algorithm": "genpsi",
                "scheduler": "sequential_halving",
                "allocator": "uniform",
                "estimator": "mlp",
                "mlp": {"iters": 60},
            },
            n_arms=32,
            smoke_arms=8,
        ),
    )
}
