"""Command-line interface package: subcommands, experiments, result cache."""

from .cache import ResultCache
from .experiments import ExperimentSpec, experiment_names, get_experiment, run_experiment

__all__ = [
    "ExperimentSpec",
    "ResultCache",
    "experiment_names",
    "get_experiment",
    "run_experiment",
]
