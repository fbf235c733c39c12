"""Fixed-budget multi-objective pure-exploration bandits.

Identify the best feasible arm or the Pareto set of a finite candidate pool
under a hard evaluation budget, with pluggable schedulers, allocators and
estimators, synthetic and replay reward sources, and an experiment harness.
"""

from .algorithms import RunConfig, run_gensec
from .core import Instance
from .environments import GaussianEnvironment

__version__ = "0.1.0"
