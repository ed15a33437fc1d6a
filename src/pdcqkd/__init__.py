"""Event-level Monte Carlo simulator and analytic toolkit for quantum key
distribution with imperfect entangled-photon sources."""

from .source import (
    PairConfiguration,
    PairDistribution,
    Scheme,
    SourceParams,
    g_for_mean,
    mean_pairs,
    pair_distribution,
)
from .detection import ChannelParams, compose_bob_efficiency
from .config import ExperimentConfig, SweepSpec, ConfigError
from .engine import RateReport, run_experiment
from .eve import AUTO, PnsConfig, attack_rates, solve_block_probability

__all__ = [
    "AUTO",
    "ChannelParams",
    "ConfigError",
    "ExperimentConfig",
    "PairConfiguration",
    "PairDistribution",
    "PnsConfig",
    "RateReport",
    "Scheme",
    "SourceParams",
    "SweepSpec",
    "attack_rates",
    "compose_bob_efficiency",
    "g_for_mean",
    "mean_pairs",
    "pair_distribution",
    "run_experiment",
    "solve_block_probability",
]

__version__ = "0.1.0"
