import pytest

from pdcqkd import engine
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


class CountingPool(engine.ProcessPoolExecutor):
    """Records every pool the engine forks and whether it was shut down."""

    created: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.shut_down = False
        CountingPool.created.append(self)

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        self.shut_down = True


@pytest.fixture
def counting_pool(monkeypatch):
    """The pools the engine forks during the test, in order.  The test starts
    without a pool and leaves none behind, so no pool forked while the test
    patches the engine serves a later test."""
    engine._drop_pool()
    CountingPool.created = []
    monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
    yield CountingPool.created
    engine._drop_pool()
