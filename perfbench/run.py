#!/usr/bin/env python3
"""pdcqkd benchmark: Monte Carlo throughput at one point, and sweep latency.

Run from the root of a source checkout (the program is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload ep-point --seed 1 --seconds 30 --trace 0

Workloads are described in ``workloads.py``.  The loop is closed: one caller
runs operations back to back, using at most ``nproc`` worker processes.

``--trace 0`` measures, with no instrumentation, for ``--seconds``:

* ``setup_s``: ``import pdcqkd`` plus the first call (fills the ``fock``
  cache, solves an attack, forks a pool), median over fresh interpreters;
* ``mtrials_per_s`` / ``mtrials_per_s_1w``: Monte Carlo trials per second at
  ``workers = nproc`` / ``workers = 1``: the median over rounds of a
  round's trials over its wall time, where a round runs every operation of
  the workload once at each worker count (the order alternates between
  rounds);
* ``point_p50_ms`` / ``point_p90_ms``: wall time of one point at
  ``workers = nproc`` (``run_experiment``, or ``cli.point_row`` in a sweep):
  each point's median over the rounds, then the median and 90th percentile
  of those over the workload's points (every g value of the sweep);
* ``peak_rss_mb``: the larger of this process's and its children's peak RSS.

``--trace 1`` reports the per-layer metrics instead (see ``tracing.py``):
spans from alternating untraced/traced rounds at ``workers = 1`` (their wall
times give the tracing overhead), pool figures from one round at
``workers = nproc``, and exact generator counts from one more round.

Every point is checked against the exact oracle (``checks.py``); operations
with the same point and master seed must give identical output across
worker counts, repeats and instrumentation.  The last line of stdout is the
JSON result; a full record is written to ``.bench_results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
MIN_ROUNDS = 2  # round 1 repeats the seeds of round 0


def load_program() -> SimpleNamespace:
    if not (SRC / "pdcqkd" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no pdcqkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdcqkd
    from pdcqkd import analytics, cli, engine, eve, fock, source

    if Path(pdcqkd.__file__).resolve().parent != SRC / "pdcqkd":
        raise SystemExit(f"benchmark: imported pdcqkd from {pdcqkd.__file__}, not {SRC}")
    return SimpleNamespace(
        analytics=analytics, cli=cli, engine=engine, eve=eve, fock=fock,
        ExperimentConfig=pdcqkd.ExperimentConfig,
        Scheme=pdcqkd.Scheme, PnsConfig=pdcqkd.PnsConfig, SweepSpec=pdcqkd.SweepSpec,
        modules={"analytics": analytics, "cli": cli, "engine": engine, "eve": eve,
                 "source": source},
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup_probe() -> None:
    t0 = time.perf_counter()
    prog = load_program()
    workloads.warm_up(prog, nproc())
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(probes: int) -> list[float]:
    """Set-up time in fresh interpreters, one after another."""
    samples = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_round(wl: workloads.Workload, seed_index: int, workers: int, checker, tag: str):
    results = [wl.run_op(op, seed_index, workers) for op in wl.ops]
    for res in results:
        for rec in res.records:
            rec["pass"] = tag
            checker.add(rec)
    return results


def measure(wl, seconds: float, workers_n: int, checker) -> tuple[dict, dict]:
    """Untraced rounds for ``seconds``; returns (metrics, details)."""
    setup = measure_setup(wl.scale.setup_probes)
    # one untimed round at each worker count, so the first timed round does
    # not pay for waking the host's idle CPUs
    for workers in dict.fromkeys((workers_n, 1)):
        run_round(wl, 0, workers, checker, f"warm-w{workers}")
    trials: dict[int, list[int]] = {workers_n: [], 1: []}
    walls: dict[int, list[float]] = {workers_n: [], 1: []}
    point_walls: dict[str, list[float]] = {}
    z_fail = None
    start = time.perf_counter()
    r = 0
    while r < MIN_ROUNDS or (time.perf_counter() - start) * (r + 1) / r <= seconds:
        order = (workers_n, 1) if r % 2 == 0 else (1, workers_n)
        for workers in dict.fromkeys(order):
            results = run_round(wl, r // 2, workers, checker, f"round{r}-w{workers}")
            trials[workers].append(sum(x.trials for x in results))
            walls[workers].append(sum(x.wall_s for x in results))
            if workers == workers_n:
                for x in results:
                    for point, wall in x.point_walls_s.items():
                        point_walls.setdefault(point, []).append(wall)
                    if x.rows and z_fail is None:
                        z_fail = checks.cli_z_fail(x.rows)
        r += 1
    # each point's median over the rounds, so that no quantile is an extreme
    # sample of one kind of point or of a slow spell of the host
    deciles = statistics.quantiles(
        [statistics.median(w) for w in point_walls.values()], n=10, method="inclusive"
    )

    def throughput(workers):
        return statistics.median(t / w for t, w in zip(trials[workers], walls[workers])) / 1e6

    metrics = {
        "mtrials_per_s": throughput(workers_n),
        "mtrials_per_s_1w": throughput(1),
        "point_p50_ms": deciles[4] * 1e3,
        "point_p90_ms": deciles[8] * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "rounds": r, "measured_s": time.perf_counter() - start,
        "setup_samples_s": setup, "round_trials": trials, "round_walls_s": walls,
        "points": len(point_walls), "point_walls_s": point_walls,
        "cli_z_fail": z_fail,
    }
    return metrics, details


def measure_traced(wl, seconds: float, workers_n: int, checker, prog) -> tuple[dict, dict, list]:
    """Per-layer metrics from instrumented rounds; returns (metrics, details, spans)."""
    tracer = tracing.Tracer()
    walls: dict[str, list[float]] = {"untraced": [], "traced": []}
    z_fail = 0
    fock_info = None
    start = time.perf_counter()
    pairs = 0
    while (
        pairs < wl.scale.min_trace_pairs
        or (time.perf_counter() - start) * (pairs + 1) / pairs <= seconds / 2
    ):
        order = ("untraced", "traced") if pairs % 2 == 0 else ("traced", "untraced")
        for mode in order:
            if mode == "traced":
                with tracer.installed(prog.modules):
                    results = run_round(wl, 0, 1, checker, f"traced{pairs}")
                if pairs == 0:
                    z_fail = sum(checks.cli_z_fail(x.rows) for x in results)
            else:
                results = run_round(wl, 0, 1, checker, f"untraced{pairs}")
            walls[mode].append(sum(x.wall_s for x in results))
        if pairs == 0:
            # set-up plus one untraced and one traced round: the same calls every run
            fock_info = prog.fock.sector_distribution.cache_info()
        pairs += 1
    run_round(wl, 0, workers_n, checker, "pool-warm")  # as in ``measure``
    pool = tracing.PoolProbe()
    with pool.installed(prog.modules):
        run_round(wl, 0, workers_n, checker, "pool")
    rng = tracing.RngCounter()
    with rng.installed(prog.modules):
        rng_trials = sum(x.trials for x in run_round(wl, 0, 1, checker, "rng"))
    # the two rounds of a pair ran back to back, so they share the host's state
    overhead_pct = 100.0 * statistics.median(
        t / u - 1.0 for t, u in zip(walls["traced"], walls["untraced"])
    )
    totals = tracer.totals()
    metrics = tracing.layer_metrics(
        totals, pairs, pool.pools, rng, rng_trials, fock_info.hits, fock_info.misses,
        z_fail, overhead_pct,
    )
    details = {
        "trace_pairs": pairs, "round_walls_s": walls, "span_totals": totals,
        "pools": pool.pools, "rng_counts": rng.counts, "rng_batches": rng.batches,
        "rng_trials": rng_trials,
        "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "trials"],
    }
    return metrics, details, tracer.spans


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or None


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pdcqkd").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'tiny' is for the self-test only")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    prog = load_program()
    workers_n = nproc()
    workloads.warm_up(prog, workers_n)
    wl = workloads.Workload(args.workload, prog, workloads.SCALES[args.scale], args.seed)
    checker = checks.Checker(prog.analytics)
    if args.trace:
        metrics, details, spans = measure_traced(wl, args.seconds, workers_n, checker, prog)
    else:
        metrics, details = measure(wl, args.seconds, workers_n, checker)
        spans = None
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    verdict = checker.verdict()
    # not imported at the top, so the set-up probe times numpy's import as
    # part of ``import pdcqkd``
    import numpy

    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    audit = {
        "workload": args.workload, "workload_seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": workers_n,
        "batch_size": prog.engine.BATCH_SIZE, "git_commit": git_commit(),
        "src_sha256": source_sha256(), "platform": platform.platform(),
        "failed_fraction": verdict["failed"] / verdict["attempted"],
        "checks": verdict, "result": result, "details": details,
        "records": checker.records,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(audit, indent=1, default=str) + "\n")
    if spans is not None:
        out_path.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'points (each timed once a round)':40s} {details['points']:14d}")
        print(f"{'rounds':40s} {details['rounds']:14d}")
        if details["cli_z_fail"] is not None:
            print(f"{'cli.z_fail (first sweep, reported only)':40s} {details['cli_z_fail']:14d}")
    print(f"{'failed_fraction':40s} {audit['failed_fraction']:14.6g} "
          f"({verdict['failed']} of {verdict['attempted']} operations)")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
