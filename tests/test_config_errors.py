"""Every config error that a single fault can reach, pinned by its full text.

Each row changes one thing in a config that loads, and names the exact
message of the error that loading must raise (``None``: the config still
loads). Object and list errors name the full path of the key; scalar
errors name the key below its section (``'mlp.iters'``, ``'seeds[0]'``).
"""

import copy
import json
import math

import pytest

from mopx.core import MopxError
from mopx.harness import experiment_config_from_dict

INSTANCE = {
    "K": 4,
    "m": 2,
    "sigma": 0.2,
    "means": [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7], [0.3, 0.3]],
}

REPLAY_CSV = "arm_id,len_tokens,obj_1,obj_2\n0,20,0.6,0.0\n1,50,0.8,0.0\n2,80,0.7,0.0\n3,120,0.2,0.0\n"

REPLAY = {"kind": "replay", "path": "replay.csv", "mode": "iid", "brevity": {"tau_low": 10, "tau_high": 100}}

BASE = {
    "environment": {"kind": "gaussian", "instance": INSTANCE},
    "tau": 0.5,
    "algorithms": [{"label": "a", "algorithm": "gensec", "g_optimal": {"epsilon": 0.1}, "mlp": {"iters": 5}}],
    "k_values": [4],
    "per_arm_budgets": [3],
    "seeds": [0],
    "hv_reference": [0.0, 0.0],
    "out_dir": "results",
}

DROP = object()  # as a row's value: delete the key


def _replay(**changes):
    environment = dict(REPLAY, **changes)
    return {key: value for key, value in environment.items() if value is not DROP}


def _alg(key, value):
    return ("algorithms", 0, *key.split(".")), value


def _gaussian(means):
    return {"kind": "gaussian", "instance": {"means": means}}


UNIFORM = [{"label": "u", "algorithm": "uniform", "mode": "pareto"}]
UNIFORM_CONSTRAINED = [{"label": "u", "algorithm": "uniform", "mode": "constrained"}]
GENPSI = [{"label": "p", "algorithm": "genpsi"}]
THREE = [[0.8, 0.6, 0.5], [0.9, 0.4, 0.5], [0.6, 0.7, 0.5], [0.3, 0.3, 0.5]]
FOUR = [row + [0.5] for row in THREE]
SR = {"label": "s", "algorithm": "gensec", "scheduler": "sr"}
ROUND_1 = "variant {!r} at K=4, b=1: round 1 pulls {} times, but the mean estimator needs a pull of each of the K=4 arms"
TWO_OBJECTIVES = "gensec and constrained uniform variants need exactly two objectives, got m=3"
STRICT = {"label": "a", "algorithm": "gensec", "enforce_design_budget": True}
FLOOR = "budget B={} violates the linear-pipeline bound B >= 45*d*ceil(log2 K) = {}"
FEATURED = dict(INSTANCE, features=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])  # d = 2

# (path into BASE, value put there, message); the path () replaces the config
ROWS = [
    # the config itself
    ((), [], "experiment config must be a JSON object, got []"),
    ((), "config", "experiment config must be a JSON object, got 'config'"),
    (("environment",), DROP, "experiment config needs an 'environment' section"),
    (("bogus",), 1, "unknown experiment config keys: ['bogus']"),
    ((), {"enviroment": {"kind": "gaussian", "instance": INSTANCE}}, "experiment config needs an 'environment' section"),
    (("seed",), [1], "unknown experiment config keys: ['seed']"),
    # null is absent at the top level and in the environment
    (("tau",), None, "constrained mode needs a threshold tau"),
    (("hv_reference",), None, None),
    (("out_dir",), None, None),
    (("algorithms",), None, "config key 'algorithms' must be a JSON list, got None"),
    (("k_values",), None, "config key 'k_values' must be a JSON list, got None"),
    (("per_arm_budgets",), None, "config key 'per_arm_budgets' must be a JSON list, got None"),
    (("seeds",), None, "config key 'seeds' must be a JSON list, got None"),
    (("environment",), None, "config key 'environment' must be a JSON object, got None"),
    # top-level shapes and types
    (("environment",), 3, "config key 'environment' must be a JSON object, got 3"),
    (("environment",), ["gaussian"], "config key 'environment' must be a JSON object, got ['gaussian']"),
    (("algorithms",), "gensec", "config key 'algorithms' must be a JSON list, got 'gensec'"),
    (("algorithms",), {"algorithm": "gensec"}, "config key 'algorithms' must be a JSON list, got {'algorithm': 'gensec'}"),
    (("algorithms", 0), "gensec", "config key 'algorithms[0]' must be a JSON object, got 'gensec'"),
    (("algorithms", 0), None, "config key 'algorithms[0]' must be a JSON object, got None"),
    (("k_values",), 4, "config key 'k_values' must be a JSON list, got 4"),
    (("k_values", 0), 4.0, "config key 'k_values[0]' must be a JSON integer, got 4.0"),
    (("k_values", 0), True, "config key 'k_values[0]' must be a JSON integer, got True"),
    (("k_values", 0), "4", "config key 'k_values[0]' must be a JSON integer, got '4'"),
    (("per_arm_budgets",), 3, "config key 'per_arm_budgets' must be a JSON list, got 3"),
    (("per_arm_budgets", 0), "three", "config key 'per_arm_budgets[0]' must be a JSON integer, got 'three'"),
    (("per_arm_budgets", 0), None, "config key 'per_arm_budgets[0]' must be a JSON integer, got None"),
    (("seeds",), 3, "config key 'seeds' must be a JSON list, got 3"),
    (("seeds", 0), 1.7, "config key 'seeds[0]' must be a JSON integer, got 1.7"),
    (("seeds", 0), False, "config key 'seeds[0]' must be a JSON integer, got False"),
    (("tau",), "0.5", "config key 'tau' must be a JSON number, got '0.5'"),
    (("tau",), True, "config key 'tau' must be a JSON number, got True"),
    (("tau",), [0.5], "config key 'tau' must be a JSON number, got [0.5]"),
    (("hv_reference",), 0.0, "config key 'hv_reference' must be a JSON list, got 0.0"),
    (("hv_reference", 1), "a", "config key 'hv_reference[1]' must be a JSON number, got 'a'"),
    (("hv_reference", 0), None, "config key 'hv_reference[0]' must be a JSON number, got None"),
    # json reads a long integer literal as an int that no float holds
    (("tau",), 10**400, "config key 'tau' is malformed: int too large to convert to float"),
    (("hv_reference", 0), 10**400, "config key 'hv_reference[0]' is malformed: int too large to convert to float"),
    (*_alg("g_optimal.epsilon", 10**400), "config key 'g_optimal.epsilon' is malformed: int too large to convert to float"),
    # grid values
    (("seeds",), [], "seed list must be non-empty"),
    (("k_values",), [1], "k_values entry 1 is outside [2, 4] (the arm count)"),
    (("k_values",), [5], "k_values entry 5 is outside [2, 4] (the arm count)"),
    (("k_values",), [2, 4, 5], "k_values entry 5 is outside [2, 4] (the arm count)"),
    (("per_arm_budgets",), [0], "per-arm budget must be >= 1"),
    # the environment
    (("environment", "mdoe"), "iid", "unknown environment keys: ['mdoe']"),
    (("environment",), {"knid": "gaussian", "instance": INSTANCE}, "unknown environment keys: ['knid']"),
    (("environment", "kind"), "refusal", "unknown environment kind 'refusal'"),
    (("environment", "kind"), DROP, "unknown environment kind None"),
    (("environment", "kind"), None, "unknown environment kind None"),
    (("environment", "kind"), 5, "unknown environment kind 5"),
    (("environment", "kind"), ["gaussian"], "unknown environment kind ['gaussian']"),
    (("environment", "instance"), DROP, "gaussian/linear environments need an 'instance'"),
    (("environment", "instance"), None, "gaussian/linear environments need an 'instance'"),
    (("environment", "instance"), [1, 2], "config key 'environment.instance' must be a JSON object, got [1, 2]"),
    (("environment", "instance"), 5, "config key 'environment.instance' must be a JSON object, got 5"),
    (("environment", "instance"), True, "config key 'environment.instance' must be a JSON object, got True"),
    (("environment", "instance"), "instance.json", None),
    (("environment", "instance", "K"), 3, "declared K=3 but means has 4 rows"),
    (("environment", "instance", "m"), 3, "declared m=3 but means has 2 columns"),
    (("environment", "instance", "sigma"), -1, "sigma must be >= 0"),
    # json reads NaN as nan and 1e999 as inf; either would fail every noisy cell at its first fit
    (("environment", "instance", "sigma"), float("nan"), "sigma must be finite, got nan"),
    (("environment", "instance", "sigma"), float("inf"), "sigma must be finite, got inf"),
    (("environment", "instance", "means"), [[0.1], [0.2], [0.3], [0.4]], "declared m=2 but means has 1 columns"),
    (("environment",), _replay(), None),
    # without brevity every recorded mu2 is 0.0, so no arm is feasible at tau=0.5
    (
        ("environment",),
        _replay(brevity=None),
        "constrained truth at K=4, tau=0.5: no feasible arm at threshold tau=0.5",
    ),
    (("environment",), _replay(path=DROP), "replay environments need a 'path'"),
    (("environment",), _replay(path=None), "replay environments need a 'path'"),
    (("environment",), _replay(mode=DROP), None),
    (("environment",), _replay(mode="sequential"), None),
    (("environment",), _replay(mode="sequentail"), "unknown replay mode 'sequentail'"),
    (("environment",), _replay(mode=5), "unknown replay mode 5"),
    (("environment",), _replay(mode=None), "unknown replay mode None"),
    (("environment",), _replay(mdoe="iid"), "unknown environment keys: ['mdoe']"),
    (("environment",), _replay(brevity=5), "environment brevity needs exactly 'tau_low' and 'tau_high', got 5"),
    (("environment",), _replay(brevity=[10, 100]), "environment brevity needs exactly 'tau_low' and 'tau_high', got [10, 100]"),
    (("environment",), _replay(brevity={}), "environment brevity needs exactly 'tau_low' and 'tau_high', got {}"),
    (
        ("environment",),
        _replay(brevity={"tau_low": 10}),
        "environment brevity needs exactly 'tau_low' and 'tau_high', got {'tau_low': 10}",
    ),
    (
        ("environment",),
        _replay(brevity={"tau_low": 10, "tau_high": 100, "tau_mid": 50}),
        "environment brevity needs exactly 'tau_low' and 'tau_high', got {'tau_low': 10, 'tau_high': 100, 'tau_mid': 50}",
    ),
    (
        ("environment",),
        _replay(brevity={"tau_low": 10, "tau_high": "100"}),
        "config key 'brevity.tau_high' must be a JSON number, got '100'",
    ),
    (
        ("environment",),
        _replay(brevity={"tau_low": True, "tau_high": 100}),
        "config key 'brevity.tau_low' must be a JSON number, got True",
    ),
    (("environment",), _replay(brevity={"tau_low": 100, "tau_high": 10}), "need tau_low < tau_high, got 100.0 >= 10.0"),
    # an algorithm entry: keys and shapes
    (("algorithms", 0, "bogus_key"), 1, "unknown algorithm config keys: ['bogus_key']"),
    (("algorithms", 0, "kappa"), 0.3, "unknown algorithm config keys: ['kappa']"),
    (("algorithms", 0, "mlp", "hiden"), 8, "unknown algorithm mlp keys: ['hiden']"),
    (("algorithms", 0, "g_optimal", "kappa"), 0.3, "unknown algorithm g_optimal keys: ['kappa']"),
    (("algorithms", 0, "mlp"), 5, "config key 'algorithms[0].mlp' must be a JSON object, got 5"),
    (("algorithms", 0, "mlp"), None, "config key 'algorithms[0].mlp' must be a JSON object, got None"),
    (("algorithms", 0, "g_optimal"), [], "config key 'algorithms[0].g_optimal' must be a JSON object, got []"),
    (("algorithms",), [{"algorithm": "gensec"}, {"mlp": 5}], "config key 'algorithms[1].mlp' must be a JSON object, got 5"),
    # an algorithm entry: scalar types (null is a type error here)
    (*_alg("label", 7), "config key 'label' must be a JSON string, got 7"),
    (*_alg("label", None), "config key 'label' must be a JSON string, got None"),
    (*_alg("algorithm", 5), "config key 'algorithm' must be a JSON string, got 5"),
    (*_alg("scheduler", None), "config key 'scheduler' must be a JSON string, got None"),
    (*_alg("allocator", ["uniform"]), "config key 'allocator' must be a JSON string, got ['uniform']"),
    (*_alg("estimator", 1), "config key 'estimator' must be a JSON string, got 1"),
    (*_alg("mode", False), "config key 'mode' must be a JSON string, got False"),
    (*_alg("eliminator", 2.0), "config key 'eliminator' must be a JSON string, got 2.0"),
    (*_alg("enforce_design_budget", "false"), "config key 'enforce_design_budget' must be a JSON boolean, got 'false'"),
    (*_alg("enforce_design_budget", 0), "config key 'enforce_design_budget' must be a JSON boolean, got 0"),
    (*_alg("redistribute_leftover", None), "config key 'redistribute_leftover' must be a JSON boolean, got None"),
    (*_alg("g_optimal.epsilon", "0.1"), "config key 'g_optimal.epsilon' must be a JSON number, got '0.1'"),
    (*_alg("g_optimal.epsilon", None), "config key 'g_optimal.epsilon' must be a JSON number, got None"),
    (*_alg("mlp.hidden", 8.0), "config key 'mlp.hidden' must be a JSON integer, got 8.0"),
    (*_alg("mlp.lambda", None), "config key 'mlp.lambda' must be a JSON number, got None"),
    (*_alg("mlp.iters", "many"), "config key 'mlp.iters' must be a JSON integer, got 'many'"),
    (*_alg("mlp.iters", 5.5), "config key 'mlp.iters' must be a JSON integer, got 5.5"),
    (*_alg("mlp.step_size", True), "config key 'mlp.step_size' must be a JSON number, got True"),
    (*_alg("mlp.data_scope", 3), "config key 'mlp.data_scope' must be a JSON string, got 3"),
    # an algorithm entry: settings
    (*_alg("algorithm", "gensecc"), "unknown algorithm 'gensecc'"),
    (*_alg("scheduler", "halving"), "variant 'a' at K=4, b=3: unknown scheduler kind 'halving'"),
    (*_alg("allocator", "greedy"), "unknown allocator 'greedy'"),
    (*_alg("estimator", "knn"), "unknown estimator 'knn'"),
    (*_alg("eliminator", "drop"), "unknown eliminator 'drop'"),
    (*_alg("mlp.data_scope", "all"), "unknown mlp data scope 'all'"),
    (*_alg("mode", "pareto"), "gensec always runs in mode 'constrained', not 'pareto'"),
    (("algorithms",), [{"algorithm": "genpsi", "mode": "constrained"}], "genpsi always runs in mode 'pareto', not 'constrained'"),
    (("algorithms",), [{"algorithm": "uniform"}], "uniform baseline needs mode 'constrained' or 'pareto'"),
    (
        ("algorithms",),
        [dict(UNIFORM[0], allocator="g-optimal")],
        "uniform baseline runs with allocator 'uniform', estimator 'mean' and eliminator 'ege'",
    ),
    (("algorithms",), UNIFORM, None),
    (("algorithms",), [{"algorithm": "gensec"}, {"algorithm": "gensec"}], "algorithm labels must be distinct, repeated: ['gensec']"),
    (
        ("algorithms",),
        [{"label": "a", "algorithm": "gensec"}, {"label": "a", "algorithm": "genpsi"}],
        "algorithm labels must be distinct, repeated: ['a']",
    ),
    # a repeated grid entry would run one cell twice and count it as two seeds
    (("seeds",), [0, 0], "seeds must be distinct, repeated: [0]"),
    (("seeds",), [2, 0, 2, 1, 0], "seeds must be distinct, repeated: [0, 2]"),
    (("k_values",), [4, 2, 4], "k_values must be distinct, repeated: [4]"),
    (("per_arm_budgets",), [3, 5, 3], "per_arm_budgets must be distinct, repeated: [3]"),
    ((), dict(BASE, algorithms=[{"algorithm": "gensec"}] * 2, seeds=[0, 0]), "algorithm labels must be distinct, repeated: ['gensec']"),
    # soft_constrained_reward scores with tau > 0 only; Pareto variants read no tau
    (("tau",), 0.0, "gensec and constrained uniform variants need tau > 0, got 0.0"),
    (("tau",), -0.5, "gensec and constrained uniform variants need tau > 0, got -0.5"),
    (("tau",), math.nan, "tau must be finite, got nan"),
    (("tau",), math.inf, "tau must be finite, got inf"),
    ((), dict(BASE, tau=math.nan, algorithms=UNIFORM), None),
    ((), dict(BASE, tau=0.0, algorithms=UNIFORM_CONSTRAINED), "gensec and constrained uniform variants need tau > 0, got 0.0"),
    ((), dict(BASE, tau=0.0, algorithms=UNIFORM), None),
    # errors at load that were once a traceback, a failure of every cell, or a
    # key read for no kind that takes it
    (("environment",), _replay(path=5), "config key 'path' must be a JSON string, got 5"),
    (("environment",), _replay(path=["replay.csv"]), "config key 'path' must be a JSON string, got ['replay.csv']"),
    (("environment", "instance", "means"), DROP, "instance needs 'means'"),
    (("environment", "instance"), {}, "instance needs 'means'"),
    (("environment", "instance", "sigma"), "abc", "instance is malformed: sigma must be a JSON number, got 'abc'"),
    (("environment", "instance", "K"), "x", "instance is malformed: K must be a JSON integer, got 'x'"),
    # instance values are JSON numbers, and K and m JSON integers: nothing is coerced
    (
        ("environment", "instance", "means"),
        [["0.8", "0.6"], [0.9, 0.4], [0.6, 0.7], [0.3, 0.3]],
        "instance is malformed: means holds '0.8', not a JSON number",
    ),
    (
        ("environment", "instance", "means"),
        [[0.8, 0.6], [0.9, 0.4], [0.6, 0.7], [0.3, False]],
        "instance is malformed: means holds False, not a JSON number",
    ),
    (("environment", "instance", "sigma"), "0.1", "instance is malformed: sigma must be a JSON number, got '0.1'"),
    (("environment", "instance", "sigma"), True, "instance is malformed: sigma must be a JSON number, got True"),
    (("environment", "instance", "sigma"), None, "instance is malformed: sigma must be a JSON number, got None"),
    (("environment", "instance", "K"), 4.9, "instance is malformed: K must be a JSON integer, got 4.9"),
    (("environment", "instance", "K"), 4.0, "instance is malformed: K must be a JSON integer, got 4.0"),
    (("environment", "instance", "m"), True, "instance is malformed: m must be a JSON integer, got True"),
    (
        ("environment", "instance", "features"),
        [[1.0], [0.5], ["x"], [0.0]],
        "instance is malformed: features holds 'x', not a JSON number",
    ),
    (("environment", "instance"), "strings.json", "instance is malformed: means holds '0.9', not a JSON number"),
    (("environment", "instance", "sigma"), 10**400, "instance is malformed: int too large to convert to float"),
    (
        ("environment", "instance", "means"),
        [[10**400, 0.6], [0.9, 0.4], [0.6, 0.7], [0.3, 0.3]],
        "instance is malformed: int too large to convert to float",
    ),
    (
        ("environment", "instance", "means"),
        [0.8, 0.6, 0.9, 0.4],
        "means must be K x m with K >= 1, m >= 2, got (4,)",
    ),
    (
        ("environment", "instance"),
        "bad.json",
        "instance file $TMP/bad.json is not valid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    (("environment", "instance"), "list.json", "instance file $TMP/list.json must hold a JSON object, got [1, 2]"),
    (("out_dir",), 5, "config key 'out_dir' must be a JSON string, got 5"),
    (("algorithms",), [], "algorithm list must be non-empty"),
    (("k_values",), [], "k_value list must be non-empty"),
    (("per_arm_budgets",), [], "per_arm_budget list must be non-empty"),
    (("seeds",), [-1], "seed must be non-negative, got -1"),
    (("seeds",), [0, 3, -2], "seed must be non-negative, got -2"),
    (("hv_reference",), [0.0], "hv_reference needs one entry per objective, got 1"),
    (("hv_reference",), [0.0, 0.0, 0.0], "hv_reference needs one entry per objective, got 3"),
    (("environment", "path"), "replay.csv", "unknown environment keys: ['path']"),
    (("environment", "mode"), "iid", "unknown environment keys: ['mode']"),
    (("environment", "brevity"), {"tau_low": 10, "tau_high": 100}, "unknown environment keys: ['brevity']"),
    (("environment",), _replay(instance=INSTANCE), "unknown environment keys: ['instance']"),
    (*_alg("g_optimal.epsilon", 0), "g_optimal epsilon must be in (0, 1), got 0.0"),
    (*_alg("g_optimal.epsilon", 1), "g_optimal epsilon must be in (0, 1), got 1.0"),
    (*_alg("mlp.hidden", 0), "mlp hidden must be >= 1, got 0"),
    (*_alg("mlp.iters", 0), "mlp iters must be >= 1, got 0"),
    (*_alg("mlp.iters", -3), "mlp iters must be >= 1, got -3"),
    (*_alg("mlp.step_size", 0), "mlp step_size must be > 0, got 0.0"),
    (*_alg("mlp.step_size", -1.0), "mlp step_size must be > 0, got -1.0"),
    (*_alg("mlp.lambda", -1), "mlp lambda must be >= 0, got -1.0"),
    # json reads 1e999 as inf, which every MLP fit's loss would then be
    (*_alg("mlp.lambda", math.inf), "mlp lambda must be finite, got inf"),
    (*_alg("mlp.step_size", math.inf), "mlp step_size must be finite, got inf"),
    (
        ("environment",),
        _replay(path="cells.csv"),
        "replay file $TMP/cells.csv line 3 is not a row of numbers: '1,50,0.8,abc'",
    ),
    (
        ("environment",),
        _replay(path="short.csv"),
        "replay file $TMP/short.csv line 2 has 3 values, the header has 4",
    ),
    (
        ("environment",),
        _replay(path="negative.csv"),
        "replay file $TMP/negative.csv line 6 has a negative arm_id -1",
    ),
    (
        ("environment",),
        _replay(path="tokens.csv", brevity=None),
        "replay file $TMP/tokens.csv line 2 is not a row of numbers: '0,many,0.6,0.0'",
    ),
    (("environment",), _replay(path="gap.csv"), "replay file $TMP/gap.csv is missing records for arms [2]"),
    (
        ("environment",),
        _replay(path="nan.csv"),
        "replay file $TMP/nan.csv line 3 holds a value that is not finite: '1,50,0.8,nan'",
    ),
    (
        ("environment",),
        _replay(path="inf.csv", brevity=None),
        "replay file $TMP/inf.csv line 2 holds a value that is not finite: '0,inf,0.6,0.0'",
    ),
    (("environment",), _replay(path="blank.csv"), "replay file $TMP/blank.csv must start with an arm_id column"),
    (("environment",), _replay(path="narrow.csv"), "replay records need m >= 2 objectives"),
    (("environment", "kind"), "linear", "a linear environment needs features and theta"),
    # the truth of constrained variants: mu2 >= tau is feasible, and every gap is positive
    (("tau",), 0.95, "constrained truth at K=4, tau=0.95: no feasible arm at threshold tau=0.95"),
    ((), dict(BASE, tau=0.65, k_values=[4, 2]), "constrained truth at K=2, tau=0.65: no feasible arm at threshold tau=0.65"),
    ((), dict(BASE, tau=0.95, algorithms=UNIFORM), None),  # Pareto variants only: not checked
    (
        ("environment", "instance", "means"),
        [[0.9, 0.5], [0.5, 0.8], [0.2, 0.3], [0.1, 0.9]],
        "constrained truth at K=4, tau=0.5: the optimal arm 0 has mu2 == tau, a zero margin cap",
    ),
    (
        (),
        dict(BASE, environment={"kind": "gaussian", "instance": {"means": [[0.9, 0.5], [0.5, 0.8]]}}, k_values=[2]),
        "constrained truth at K=2, tau=0.5: the optimal arm 0 has mu2 == tau, a zero margin cap",
    ),
    (
        ("environment", "instance", "means"),
        [[0.8, 0.6], [0.9, 0.4], [0.8, 0.7], [0.3, 0.3]],
        "constrained truth at K=4, tau=0.5: arm 2 has zero constrained gap; hardness is undefined",
    ),
    (("environment", "instance", "means"), [[0.8, 0.6], [0.9, 0.4], [0.8, 0.49], [0.3, 0.3]], None),
    # constrained variants need m = 2; Pareto variants need m <= 3 and a truth
    # with some hypervolume over the reference (zeros by default) at every K
    ((), dict(BASE, environment=_gaussian(THREE), hv_reference=None), TWO_OBJECTIVES),
    ((), dict(BASE, environment=_gaussian(THREE), hv_reference=None, algorithms=UNIFORM_CONSTRAINED), TWO_OBJECTIVES),
    ((), dict(BASE, environment=_gaussian(THREE), hv_reference=None, algorithms=UNIFORM + GENPSI), None),
    (
        (),
        dict(BASE, environment=_gaussian(FOUR), hv_reference=None, algorithms=GENPSI),
        "pareto truth at K=4: hypervolume supports m in {2, 3}, got m=4",
    ),
    (
        (),
        dict(BASE, algorithms=GENPSI, hv_reference=[0.9, 0.7]),
        "pareto truth at K=4 has zero hypervolume over the reference (0.9, 0.7)",
    ),
    (
        (),
        dict(BASE, algorithms=UNIFORM, hv_reference=[0.5, 0.6], k_values=[4, 2]),
        "pareto truth at K=2 has zero hypervolume over the reference (0.5, 0.6)",
    ),
    # without brevity every recorded mu2 is 0.0, level with the default reference
    (
        (),
        dict(BASE, environment=_replay(brevity=None), algorithms=UNIFORM, hv_reference=None),
        "pareto truth at K=4 has zero hypervolume over the reference (0.0, 0.0)",
    ),
    ((), dict(BASE, environment=_replay(brevity=None), algorithms=UNIFORM, hv_reference=[0.0, -0.1]), None),
    # Python's json reads NaN and Infinity; hypervolume refuses them in a reference
    ((), dict(BASE, algorithms=GENPSI, hv_reference=[math.nan, 0.0]), "pareto truth at K=4: reference must be finite"),
    ((), dict(BASE, algorithms=UNIFORM, hv_reference=[0.0, -math.inf]), "pareto truth at K=4: reference must be finite"),
    # round 1 of the sample mean pulls every arm: at B = K every successive-rejects round target
    # is 0, and halving pulls B // ceil(log2 K) = 2 of the 4 arms at b = 1
    ((), dict(BASE, algorithms=[SR], per_arm_budgets=[2, 1]), ROUND_1.format("s", 0)),
    ((), dict(BASE, algorithms=[dict(SR, algorithm="genpsi", scheduler="successive_rejects")], per_arm_budgets=[1]), ROUND_1.format("s", 0)),
    ((), dict(BASE, algorithms=[SR], per_arm_budgets=[2]), None),
    ((), dict(BASE, per_arm_budgets=[1]), ROUND_1.format("a", 2)),
    ((), dict(BASE, per_arm_budgets=[2]), None),
    ((), dict(BASE, algorithms=[dict(BASE["algorithms"][0], estimator="linear")], per_arm_budgets=[1]), None),
    ((), dict(BASE, algorithms=[dict(SR, estimator="mlp")], per_arm_budgets=[1]), "variant 's' at K=4, b=1: round 1 pulls 0 times, but the mlp estimator needs a pull of one of the K=4 arms"),
    ((), dict(BASE, algorithms=[dict(UNIFORM[0], scheduler="sr")], per_arm_budgets=[1]), None),
    # the design-budget floor B >= 45*d*ceil(log2 K) of every (variant, K, b), with d = K for one-hot arms
    (("algorithms", 0, "enforce_design_budget"), True, "variant 'a' at K=4, b=3: " + FLOOR.format(12, 360)),
    ((), dict(BASE, algorithms=[STRICT], per_arm_budgets=[90], k_values=[4, 2]), None),
    ((), dict(BASE, algorithms=[STRICT], per_arm_budgets=[90, 3]), "variant 'a' at K=4, b=3: " + FLOOR.format(12, 360)),
    ((), dict(BASE, algorithms=[STRICT], per_arm_budgets=[45], k_values=[2, 4]), "variant 'a' at K=4, b=45: " + FLOOR.format(180, 360)),
    ((), dict(BASE, algorithms=[{"enforce_design_budget": True}]), "variant 'gensec' at K=4, b=3: " + FLOOR.format(12, 360)),
    ((), dict(BASE, environment={"kind": "gaussian", "instance": FEATURED}, algorithms=[STRICT]), "variant 'a' at K=4, b=3: " + FLOOR.format(12, 180)),
    ((), dict(BASE, environment={"kind": "gaussian", "instance": FEATURED}, algorithms=[STRICT], per_arm_budgets=[45]), None),
    ((), dict(BASE, algorithms=[dict(UNIFORM_CONSTRAINED[0], enforce_design_budget=True)]), None),
]


def _faulty(path, value):
    if not path:
        return value
    data = copy.deepcopy(BASE)
    *parents, last = path
    target = data
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = copy.deepcopy(value)
    return data


@pytest.mark.parametrize(
    "path, value, message",
    ROWS,
    ids=[f"{'.'.join(map(str, path))}={'drop' if value is DROP else repr(value)[:40]}" for path, value, _ in ROWS],
)
def test_every_single_fault_config_error_has_its_pinned_text(tmp_path, path, value, message):
    (tmp_path / "replay.csv").write_text(REPLAY_CSV)
    (tmp_path / "instance.json").write_text(json.dumps(INSTANCE))
    (tmp_path / "bad.json").write_text("{means: []}")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "strings.json").write_text(json.dumps(dict(INSTANCE, means=[[0.8, 0.6], ["0.9", 0.4], [0.6, 0.7], [0.3, 0.3]])))
    (tmp_path / "cells.csv").write_text(REPLAY_CSV.replace("1,50,0.8,0.0", "1,50,0.8,abc"))
    (tmp_path / "short.csv").write_text(REPLAY_CSV.replace("0,20,0.6,0.0", "0,20,0.6"))
    (tmp_path / "negative.csv").write_text(REPLAY_CSV + "-1,30,0.5,0.0\n")
    (tmp_path / "tokens.csv").write_text(REPLAY_CSV.replace("0,20,0.6,0.0", "0,many,0.6,0.0"))
    (tmp_path / "blank.csv").write_text("\n" + REPLAY_CSV)
    (tmp_path / "narrow.csv").write_text("arm_id,len_tokens,obj_1\n0,20,0.6\n1,50,0.8\n")
    (tmp_path / "gap.csv").write_text(REPLAY_CSV.replace("2,80,0.7,0.0\n", ""))
    (tmp_path / "nan.csv").write_text(REPLAY_CSV.replace("1,50,0.8,0.0", "1,50,0.8,nan"))
    (tmp_path / "inf.csv").write_text(REPLAY_CSV.replace("0,20,0.6,0.0", "0,inf,0.6,0.0"))
    data = _faulty(path, value)
    if message is None:
        experiment_config_from_dict(data, base_dir=tmp_path)
        return
    with pytest.raises(MopxError) as err:
        experiment_config_from_dict(data, base_dir=tmp_path)
    assert str(err.value) == message.replace("$TMP", str(tmp_path))
