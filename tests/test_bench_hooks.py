"""The benchmark reads program attributes by name: its tracer patches them,
its output checks call the oracles, and its self-test mutates the ``ep``
sector tables.  A rename in ``pdcqkd`` breaks the benchmark; this catches it
in seconds."""
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pdcqkd import analytics, engine, fock
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


# each oracle the benchmark's checks call, with positional arguments as they
# pass them, and what they read of its result
ORACLES = {
    "exact_rates_oracle": ((0.3, 0.6, 0.4, 2), lambda o: (
        o.retained_mass, o.r_key, o.r_err, o.dc_matched, o.dc_mismatched, o.bob_no_click)),
    "ep_pns_oracle": ((0.3, 0.6, 0.5, 2), lambda o: (
        o.delivered_rate, o.error_rate, o.dc_matched, o.touched_fraction, o.p_ae, o.p_eb)),
    "wcs_leakage": ((0.5, 0.4), lambda o: (o.r_exp,)),
    "wcs_attack_delivered": ((0.5, 0.5), lambda o: (o,)),
    "pdc_rates_closed": ((0.3, 0.6, 0.4), lambda o: o[:1]),
    "pdc_attack_delivered": ((0.3, 0.6, 0.5), lambda o: (o,)),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_every_checked_oracle_exists(name):
    args, read = ORACLES[name]
    assert all(0.0 <= p <= 1.0 for p in read(getattr(analytics, name)(*args)))


def test_fock_cache_counts_hits_and_misses():
    fock.sector_distribution(3)
    info = fock.sector_distribution.cache_info()
    assert info.hits + info.misses > 0


def test_sector_tables_replaced_after_init_move_the_rows():
    # the self-test's mutants replace every (cdf, b0, b1) after __init__
    params = resolved_point(Scheme.ENTANGLED_PAIRS, g=0.3, truncation_order=3)
    ctx, mutated = engine._EpContext(params), engine._EpContext(params)
    assert list(ctx.sector_tables) == list(range(4))
    for total, (cdf, b0, b1) in ctx.sector_tables.items():
        assert cdf[-1] == pytest.approx(1.0) and len(cdf) == len(b0) == len(b1)
        assert np.all(b0 + b1 == total)
    mutated.sector_tables = {k: (t[0], 0 * t[1], 0 * t[2]) for k, t in ctx.sector_tables.items()}
    assert not np.array_equal(mutated.weights, ctx.weights)


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
