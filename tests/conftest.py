from pdcqkd.config import ExperimentConfig
from pdcqkd.engine import _resolve_run_params
from pdcqkd.eve import PnsConfig


def freq_se(p: float, n: int) -> float:
    return (p * (1.0 - p) / n) ** 0.5


def resolved_point(scheme, block_probability=None, **fields):
    """The run inputs of the point with these ``ExperimentConfig`` fields,
    attacked at ``block_probability`` unless it is None."""
    attack = None if block_probability is None else PnsConfig(block_probability)
    return _resolve_run_params(ExperimentConfig(scheme=scheme, attack=attack, **fields))
