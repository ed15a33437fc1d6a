#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the root of a source checkout:

    python3 perfbench/selftest.py

It runs every workload at tiny sizes with and without tracing and fails if a
run is not correct or a metric named in BENCHMARK.json is missing or extra;
checks that the exact counts of the traced run repeat; feeds the output
checks deliberately wrong tallies and the output of a deliberately miswired
``ep`` kernel; and checks that the benchmark refuses to
run without the program's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
import run as bench
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "engine.rng.calls_per_batch",
    "engine.rng.variates_per_trial",
    "engine.ep_context.builds",
    "engine.pool.created",
    "engine.pool.tasks",
)


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / HERE.name / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int, spec: dict) -> dict:
    out = run(workload, trace)
    assert out.returncode == 0, f"{workload} trace {trace}: exit {out.returncode}\n{out.stderr}"
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    missing, extra = sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted))
    assert not missing and not extra, f"{workload} trace {trace}: missing {missing}, extra {extra}"
    assert got == wanted, f"{workload} trace {trace}: units differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (name, m)
    print(f"ok  {workload} trace {trace}: {result['attempted']} operations, all metrics present")
    return result


def check_oracle_tests(analytics) -> None:
    """The checks pass exact expectations and fail biased or impossible tallies."""

    def point(scheme, block, truncation=2, **tallies):
        base = {"scheme": scheme, "g": 0.3 if scheme != "wcs" else None,
                "mu_prime": 0.5 if scheme == "wcs" else None, "truncation": truncation,
                "block_probability": block, **workloads.ETA, "valid": 2_000_000}
        return {**base, **tallies}

    def verdict(*points):
        checker = checks.Checker(analytics)
        for i, p in enumerate(points):
            checker.add({"key": [i], "digest": f"d{i}", "point": p})
        return checker.verdict()["failed"]

    o = analytics.exact_rates_oracle(0.3, 0.6, 0.4, 2)
    n = 2_000_000
    exact = point("ep", None, sifted=round(n * o.r_key), errors=round(n * o.r_err),
                  dc_matched=round(n * o.dc_matched))
    assert verdict(exact) == 0
    sigma = math.sqrt(n * o.r_key * (1 - o.r_key))
    assert verdict({**exact, "sifted": exact["sifted"] + round(8 * sigma)}) == 1
    # a bias too small to fail one seed fails the seeds pooled
    slight = {**exact, "sifted": exact["sifted"] + round(4 * sigma)}
    assert verdict(slight) == 0 and verdict(slight, slight, slight) == 3
    a = analytics.ep_pns_oracle(0.3, 0.6, 0.5, 2)
    attacked = point("ep", 0.5, sifted=round(n * a.delivered_rate),
                     errors=round(n * a.delivered_rate * a.error_rate), dc_matched=0)
    assert a.dc_matched == 0.0 and verdict(attacked) == 0
    assert verdict({**attacked, "dc_matched": 1}) == 1
    # Eve's tallies of an attacked ep point, conditioned on the sifted rounds
    touched = round(attacked["sifted"] * a.touched_fraction)
    eve = {**attacked, "touched": touched, "alice_hits": round(touched * a.p_ae),
           "bob_hits": round(touched * a.p_eb)}
    assert verdict(eve) == 0
    assert verdict({**eve, "bob_hits": eve["bob_hits"] - round(8 * math.sqrt(touched))}) == 1
    rate = analytics.wcs_leakage(0.5, 0.4).r_exp
    wcs = point("wcs", None, sifted=round(n * rate), errors=0, dc_matched=0)
    assert verdict(wcs) == 0 and verdict({**wcs, "errors": 1}) == 1
    # a prepared signal's stored photon always carries Alice's bit
    block = 0.5
    rate = analytics.wcs_attack_delivered(0.5, 1.0 - block)
    sifted = round(n * rate)
    touched = round(sifted * analytics.wcs_attack_delivered(0.5, 0.0) / rate)
    wcs_pns = point("wcs", block, sifted=sifted, errors=0, dc_matched=0, touched=touched,
                    alice_hits=touched, bob_hits=touched)
    assert verdict(wcs_pns) == 0 and verdict({**wcs_pns, "alice_hits": touched - 1}) == 1
    checker = checks.Checker(analytics)
    checker.add({"key": ["same"], "digest": "a", "point": exact})
    checker.add({"key": ["same"], "digest": "b", "point": exact})
    assert checker.verdict()["failed"] == 1
    print("ok  output checks reject biased, impossible and non-reproducible results")


def check_sector_mutations() -> None:
    """An ep kernel that skips or misweights the mismatched-basis sector draw
    fails the checks, although its matched-basis rounds are unchanged."""
    prog = bench.load_program()
    real = prog.engine._EpContext
    mutations = {
        "no sector draw": lambda table: (table[0], *(np.zeros_like(t) for t in table[1:])),
        "uniform sector weights": lambda table: (
            np.linspace(1.0 / len(table[0]), 1.0, len(table[0])), *table[1:]),
    }
    wl = workloads.Workload("ep-point", prog, workloads.SCALES["full"], 1)
    for label, mutate in mutations.items():

        class Mutated(real):
            def __init__(self, params):
                super().__init__(params)
                self.sector_tables = {k: mutate(v) for k, v in self.sector_tables.items()}

        prog.engine._EpContext = Mutated
        try:
            records = wl.run_op("ep-t2", 0, 1).records
        finally:
            prog.engine._EpContext = real
        checker = checks.Checker(prog.analytics)
        checker.add(records[0])
        assert checker.verdict()["failed"] == 1, f"{label}: not detected"
    print("ok  output checks reject a miswired mismatched-basis sector draw")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark fails and prints no result."""
    bare = ROOT / ".bench_results" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = run("ep-point", 0, root=bare)
        assert out.returncode != 0 and '"metrics"' not in out.stdout, out
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without the program's sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    traced = {}
    for name in workloads.WORKLOADS:
        result_of(name, 0, spec)
        traced[name] = result_of(name, 1, spec)
    again = result_of("sweep-ep-pns", 1, spec)
    for name in EXACT_COUNTS:
        first, second = traced["sweep-ep-pns"]["metrics"][name], again["metrics"][name]
        assert first == second, f"{name} differs between runs: {first} != {second}"
    print("ok  exact counts repeat between traced runs")
    sys.path.insert(0, str(ROOT / "src"))
    from pdcqkd import analytics

    check_oracle_tests(analytics)
    check_sector_mutations()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
