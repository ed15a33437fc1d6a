"""Layer instrumentation applied from outside the program.

Everything here replaces module attributes of ``pdcqkd`` for the duration of
a ``with`` block and puts the originals back afterwards; no file of the
program changes.  Three independent probes keep their costs apart:

* ``Tracer``: spans around the module-boundary functions in ``SPANS``, kept
  in memory; self time is a span minus the spans it directly contains.
* ``PoolProbe``: a ``ProcessPoolExecutor`` subclass that times start-up
  (construction plus the first submit, which forks every worker), the
  parent's wait for results, shutdown, and the workers' CPU time.
* ``RngCounter``: wraps ``engine._batch_rng`` so each batch's generator is a
  proxy that counts calls and variates per method.
"""
from __future__ import annotations

import contextlib
import resource
import time
from unittest import mock

# (module, attribute, span name, index of the trial-count argument)
SPANS = (
    ("engine", "run_experiment", "engine.run_experiment", None),
    ("cli", "run_experiment", "engine.run_experiment", None),
    ("engine", "_resolve_run_params", "engine.resolve_params", None),
    ("engine", "_EpContext", "engine.ep_context", None),
    ("engine", "_batch_rng", "engine.batch_rng", None),
    ("engine", "_ep_batch", "engine.ep_batch", 1),
    ("engine", "_prepared_batch", "engine.prepared_batch", 1),
    ("engine", "_build_report", "engine.build_report", None),
    ("eve", "solve_block_probability", "eve.solve", None),
    ("eve", "_delivered_rate", "eve.delivered_rate", None),
    ("analytics", "exact_rates_oracle", "analytics.oracle", None),
    ("analytics", "ep_pns_oracle", "analytics.oracle", None),
    # the engine calls the name it imported from ``source``
    ("source", "pair_distribution", "source.pair_distribution", None),
    ("engine", "pair_distribution", "source.pair_distribution", None),
    ("cli", "analytic_row", "cli.analytic_row", None),
    ("cli", "point_row", "cli.point_row", None),
    ("cli", "emit", "cli.emit", None),
)

RNG_METHODS = ("random", "integers", "binomial", "poisson", "geometric")


def _patched(modules: dict, targets) -> contextlib.ExitStack:
    stack = contextlib.ExitStack()
    for module, attr, new in targets:
        stack.enter_context(mock.patch.object(modules[module], attr, new))
    return stack


class Tracer:
    """Spans as ``[id, parent id, name, start ns, end ns, trials]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None, trials=None):
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else None, name, 0, 0, trials]
        self.spans.append(record)
        self._stack.append(sid)
        record[3] = time.perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def _wrapper(self, name: str, fn, size_index):
        def traced(*args, **kwargs):
            trials = args[size_index] if size_index is not None else None
            return self.span(name, fn, args, kwargs, trials)

        return traced

    def installed(self, modules: dict) -> contextlib.ExitStack:
        return _patched(
            modules,
            [
                (module, attr, self._wrapper(name, getattr(modules[module], attr), idx))
                for module, attr, name, idx in SPANS
            ],
        )

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, trials, inclusive and self nanoseconds."""
        child_ns = [0] * len(self.spans)
        for sid, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _, name, start, end, trials in self.spans:
            agg = out.setdefault(name, {"calls": 0, "trials": 0, "ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["trials"] += trials or 0
            agg["ns"] += end - start
            agg["self_ns"] += end - start - child_ns[sid]
        return out


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class PoolProbe:
    """Replaces ``engine.ProcessPoolExecutor``; one dict per pool in ``pools``."""

    def __init__(self):
        self.pools: list[dict] = []

    def installed(self, modules: dict) -> contextlib.ExitStack:
        probe = self
        real = modules["engine"].ProcessPoolExecutor

        class ProbedPool(real):
            def __init__(self, max_workers=None, *args, **kwargs):
                self._probe = {
                    "workers": max_workers, "tasks": 0,
                    "t0": time.perf_counter(), "cpu0": _children_cpu_s(),
                }
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                rec = self._probe
                rec["tasks"] += 1
                rec["t_submitted"] = time.perf_counter()
                rec.setdefault("startup_s", rec["t_submitted"] - rec["t0"])
                return future

            def __exit__(self, *exc):
                rec = self._probe
                t_exit = time.perf_counter()
                try:
                    return super().__exit__(*exc)
                finally:
                    end = time.perf_counter()
                    rec["wait_s"] = t_exit - rec.get("t_submitted", t_exit)
                    rec["shutdown_s"] = end - t_exit
                    rec["wall_s"] = end - rec["t0"]
                    rec["cpu_s"] = _children_cpu_s() - rec["cpu0"]
                    probe.pools.append(rec)

        return _patched(modules, [("engine", "ProcessPoolExecutor", ProbedPool)])


class _CountingRng:
    def __init__(self, rng, counts: dict):
        self._rng = rng
        self._counts = counts

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            out = method(*args, **kwargs)
            calls_variates = self._counts.setdefault(name, [0, 0])
            calls_variates[0] += 1
            calls_variates[1] += getattr(out, "size", 1)
            return out

        return counted


class RngCounter:
    """Exact generator usage: ``batches`` and ``{method: [calls, variates]}``."""

    def __init__(self):
        self.batches = 0
        self.counts: dict[str, list[int]] = {}

    def installed(self, modules: dict) -> contextlib.ExitStack:
        real = modules["engine"]._batch_rng

        def counting_batch_rng(master_seed, batch_index):
            self.batches += 1
            return _CountingRng(real(master_seed, batch_index), self.counts)

        return _patched(modules, [("engine", "_batch_rng", counting_batch_rng)])


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(
    totals: dict, rounds: int, pools: list[dict], rng: RngCounter, rng_trials: int,
    fock_hits: int, fock_misses: int, z_fail: int, overhead_pct: float,
) -> dict[str, float]:
    """The per-layer metrics, keyed by the names in BENCHMARK.json.

    ``totals`` come from ``rounds`` identical traced rounds; times per call
    are means of inclusive span time unless the name says ``self``.
    """

    def t(name: str) -> dict:
        return totals.get(name, {"calls": 0, "trials": 0, "ns": 0, "self_ns": 0})

    def mean_ns(name: str) -> float:
        return _per(t(name)["ns"], t(name)["calls"])

    solve = t("eve.solve")
    variates = {m: rng.counts.get(m, [0, 0])[1] for m in RNG_METHODS}
    pool_walls = sum(p["workers"] * p["wall_s"] for p in pools)
    metrics = {
        "engine.ep_batch.ns_per_trial": _per(t("engine.ep_batch")["self_ns"], t("engine.ep_batch")["trials"]),
        "engine.prepared_batch.ns_per_trial": _per(
            t("engine.prepared_batch")["self_ns"], t("engine.prepared_batch")["trials"]
        ),
        "engine.batch_rng.us_per_batch": mean_ns("engine.batch_rng") / 1e3,
        "engine.rng.calls_per_batch": _per(sum(c for c, _ in rng.counts.values()), rng.batches),
        "engine.rng.variates_per_trial": _per(sum(v for _, v in rng.counts.values()), rng_trials),
        **{
            f"engine.rng.variates_per_trial.{m}": _per(variates[m], rng_trials)
            for m in RNG_METHODS
        },
        "engine.pool.created": len(pools),
        "engine.pool.tasks": sum(p["tasks"] for p in pools),
        "engine.pool.startup_ms": _per(sum(p.get("startup_s", 0.0) for p in pools), len(pools)) * 1e3,
        "engine.pool.shutdown_ms": _per(sum(p["shutdown_s"] for p in pools), len(pools)) * 1e3,
        "engine.pool.wait_ms": _per(sum(p["wait_s"] for p in pools), len(pools)) * 1e3,
        "engine.pool.worker_utilization": _per(sum(p["cpu_s"] for p in pools), pool_walls),
        "engine.ep_context.builds": t("engine.ep_context")["calls"] // rounds,
        "engine.ep_context.ms": mean_ns("engine.ep_context") / 1e6,
        "engine.resolve_params.ms": mean_ns("engine.resolve_params") / 1e6,
        "eve.solve.ms": mean_ns("eve.solve") / 1e6,
        "eve.solve.delivered_rate_calls": _per(t("eve.delivered_rate")["calls"], solve["calls"]),
        "analytics.oracle.calls": t("analytics.oracle")["calls"] // rounds,
        # oracles nest (the ep oracle calls the attacked one), so use self time
        "analytics.oracle.us": _per(t("analytics.oracle")["self_ns"], t("analytics.oracle")["calls"]) / 1e3,
        "source.pair_distribution.us": mean_ns("source.pair_distribution") / 1e3,
        "engine.build_report.us": mean_ns("engine.build_report") / 1e3,
        "cli.analytic_row.ms": mean_ns("cli.analytic_row") / 1e6,
        "cli.point_row.self_ms": _per(t("cli.point_row")["self_ns"], t("cli.point_row")["calls"]) / 1e6,
        "cli.emit.ms": mean_ns("cli.emit") / 1e6,
        "fock.sector_distribution.hit_ratio": _per(fock_hits, fock_hits + fock_misses),
        "fock.sector_distribution.hits": fock_hits,
        "fock.sector_distribution.misses": fock_misses,
        "cli.z_fail": z_fail,
        "trace.overhead_pct": overhead_pct,
    }
    return metrics
