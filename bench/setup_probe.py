"""Set-up probe: a fresh interpreter imports mopx, loads a sweep config
(parsing its replay CSV or instance JSON) and builds the first environment,
then prints the monotonic clock. The caller subtracts the clock reading it
took just before starting this process.

Usage: python3 bench/setup_probe.py CONFIG_JSON
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mopx.harness import load_experiment_config  # noqa: E402

config = load_experiment_config(sys.argv[1])
config.environment.build(config.k_values[0])
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
