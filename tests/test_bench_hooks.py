"""The benchmark's tracer patches program attributes by name, so a rename
in ``pdcqkd`` breaks the traced benchmark; this catches it in seconds."""
import importlib
import importlib.util
from pathlib import Path

import pytest

from pdcqkd import engine
from pdcqkd.source import Scheme

from conftest import resolved_point

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # the module imports only the standard library
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, *_ in load_tracing().SPANS]
)
def test_every_traced_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"pdcqkd.{module}"), attr)


@pytest.mark.parametrize("block", [None, 0.5])
@pytest.mark.parametrize("scheme, fields, traced", [
    (Scheme.ENTANGLED_PAIRS, dict(g=0.3), "_ep_batch"),
    (Scheme.WEAK_COHERENT, dict(mu_prime=0.5), "_prepared_batch"),
    (Scheme.TRIGGERED_PDC, dict(g=0.3), "_prepared_batch"),
])
def test_each_scheme_runs_through_its_own_batch_name(scheme, fields, traced, block, monkeypatch):
    # the tracer times each scheme's batches under its own name, and the
    # schemes share one batch function, so a batch range must look the
    # function up by its scheme's name when it runs
    calls = []
    for name in ("_ep_batch", "_prepared_batch"):
        def counted(*args, name=name, real=getattr(engine, name)):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(engine, name, counted)
    params = resolved_point(scheme, block, trials=engine.BATCH_SIZE + 5, **fields)
    counts = engine._run_batch_range(params, 0, 2)
    assert calls == [traced, traced] and counts.trials == engine.BATCH_SIZE + 5
