"""The three benchmark workloads and the operations that run them.

All schemes use eta_a=0.6, eta_b=0.8, eta_l=0.5; ``wcs`` uses mu_prime=0.5
and ``pdc``/``ep`` use g=0.3 (the sweep varies g).  Why each workload exists:

* ``ep-point``: a few large ``ep`` points (many more batches than workers).
  Almost all of the time is ``engine._ep_batch``, whose per-(basis combo,
  sector total) loop grows with the truncation, so an ``ep`` kernel change
  shows here and nowhere else.
* ``prepared-point``: large ``wcs`` and ``pdc`` points, with and without the
  attack.  Almost all ``engine._prepared_batch`` and none of ``_ep_batch``,
  so an ``ep`` kernel change must read "no change" here.
* ``sweep-ep-pns``: ``cli.run_sweep`` then ``cli.emit(json)`` over a log grid
  of g with the rate-matched attack at truncation 3.  Each point is only a
  few batches, and each gets a new process pool, blocking-probability solve,
  oracle row and ``_EpContext``, so pool start-up and per-point set-up
  dominate; a one-pool-per-sweep scheduler shows here and not in the points.

One operation is one point (``run_experiment``) or one whole sweep.  Master
seeds come from the workload seed, the operation and a seed index, so the
same ``--seed`` always gives the same inputs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Optional

from checks import digest

ETA = {"eta_a": 0.6, "eta_b": 0.8, "eta_l": 0.5}
SWEEP_G = (0.05, 0.4)
SWEEP_TRUNCATION = 3
MAX_TRUNCATION = 4  # the largest truncation any workload uses


@dataclass(frozen=True)
class Point:
    label: str
    scheme: str
    attack: bool = False
    truncation: int = 2
    g: Optional[float] = 0.3
    mu_prime: Optional[float] = None


POINTS = {
    "ep-point": (
        Point("ep-t2", "ep"),
        Point("ep-t2-pns", "ep", attack=True),
        Point("ep-t4", "ep", truncation=4),
    ),
    "prepared-point": (
        Point("wcs", "wcs", g=None, mu_prime=0.5),
        Point("wcs-pns", "wcs", attack=True, g=None, mu_prime=0.5),
        Point("pdc", "pdc"),
        Point("pdc-pns", "pdc", attack=True),
    ),
}
WORKLOADS = ("ep-point", "prepared-point", "sweep-ep-pns")


@dataclass(frozen=True)
class Scale:
    point_batches: int
    sweep_batches: int
    sweep_steps: int
    setup_probes: int
    min_trace_pairs: int


SCALES = {
    "full": Scale(point_batches=16, sweep_batches=3, sweep_steps=20, setup_probes=15, min_trace_pairs=3),
    "tiny": Scale(point_batches=2, sweep_batches=2, sweep_steps=4, setup_probes=1, min_trace_pairs=1),
}


def master_seed(workload_seed: int, op: str, index: int) -> int:
    h = hashlib.sha256(f"pdcqkd-bench:{workload_seed}:{op}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "little")


def warm_up(prog, workers: int) -> None:
    """The first call a user makes: fills the ``fock`` sector cache up to the
    largest truncation used, solves an attack and forks a first pool."""
    config = prog.ExperimentConfig(
        scheme=prog.Scheme("ep"), g=0.3, trials=prog.engine.BATCH_SIZE + 1,
        truncation_order=MAX_TRUNCATION, attack=prog.PnsConfig(), workers=workers,
        **ETA,
    )
    prog.engine.run_experiment(config.validated())


def _point_config(prog, pt: Point, trials: int, seed: int, workers: int):
    return prog.ExperimentConfig(
        scheme=prog.Scheme(pt.scheme), g=pt.g, mu_prime=pt.mu_prime, trials=trials,
        master_seed=seed, truncation_order=pt.truncation,
        attack=prog.PnsConfig() if pt.attack else None, workers=workers, **ETA,
    ).validated()


def _point_params(pt_scheme: str, config, g, block) -> dict:
    # the rate-matched attack blocks every single photon exactly when it
    # saturates; any solved probability is below 1
    return {
        "scheme": pt_scheme, "g": g, "mu_prime": config.mu_prime,
        "truncation": config.truncation_order, "block_probability": block,
        "saturated": None if block is None else block == 1.0, **ETA,
    }


def _count(rate: Optional[float], n: Optional[int]) -> Optional[int]:
    """An integer tally back from a rate the program reports as count / n."""
    return None if rate is None or n is None else round(rate * n)


def _eve_tallies(sifted: int, touched_fraction, p_ae, p_eb) -> dict:
    touched = _count(touched_fraction, sifted)
    if touched == 0:  # the program reports no hit rates without touched rounds
        return {"touched": 0, "alice_hits": 0, "bob_hits": 0}
    return {"touched": touched, "alice_hits": _count(p_ae, touched),
            "bob_hits": _count(p_eb, touched)}


@dataclass
class OpResult:
    """One timed operation.  A record holds the resolved parameters, the raw
    integer tallies and a digest of the program's own output for one point."""

    trials: int
    wall_s: float
    point_walls_s: dict[str, float]  # by the point's key
    records: list[dict]
    rows: list[dict] = dataclasses.field(default_factory=list)


class Workload:
    """Runs the operations of one workload."""

    def __init__(self, name: str, prog, scale: Scale, workload_seed: int):
        self.prog = prog
        self.scale = scale
        self.workload_seed = workload_seed
        if name == "sweep-ep-pns":
            self.ops = ("sweep",)
        else:
            self.ops = tuple(p.label for p in POINTS[name])
            self._points = {p.label: p for p in POINTS[name]}

    def run_op(self, op: str, seed_index: int, workers: int) -> OpResult:
        seed = master_seed(self.workload_seed, op, seed_index)
        if op == "sweep":
            return self._run_sweep(seed, workers)
        pt = self._points[op]
        trials = self.scale.point_batches * self.prog.engine.BATCH_SIZE
        config = _point_config(self.prog, pt, trials, seed, workers)
        t0 = time.perf_counter()
        report = self.prog.engine.run_experiment(config)
        wall = time.perf_counter() - t0
        params = _point_params(pt.scheme, config, config.g, report.block_probability)
        valid = report.valid_trials
        record = {
            "key": [op, seed], "op": op, "workers": workers, "master_seed": seed,
            "digest": digest(report.to_dict()),
            "point": {
                **params, "trials": report.trials, "valid": valid,
                "excluded": report.truncation_exceeded_count,
                "sifted": report.sifted_count, "errors": report.error_count,
                "dc_matched": report.double_click_matched_count,
                "dc_mismatched": _count(report.double_click_mismatched, valid),
                "bob_no_click": _count(report.bob_no_click_rate, valid),
                "triggered": report.triggered_count, "blocked": report.eve_blocked_count,
                **_eve_tallies(report.sifted_count, report.eve_touched_fraction,
                               report.p_ae_hat, report.p_eb_hat),
            },
        }
        return OpResult(report.trials, wall, {op: wall}, [record])

    def sweep_config(self, seed: int, workers: int):
        prog = self.prog
        return prog.ExperimentConfig(
            scheme=prog.Scheme("ep"), trials=self.scale.sweep_batches * prog.engine.BATCH_SIZE,
            master_seed=seed, truncation_order=SWEEP_TRUNCATION, attack=prog.PnsConfig(),
            workers=workers, out_format="json",
            sweep=prog.SweepSpec("g", *SWEEP_G, self.scale.sweep_steps, "log"), **ETA,
        ).validated()

    def _run_sweep(self, seed: int, workers: int):
        cli = self.prog.cli
        config = self.sweep_config(seed, workers)
        point_walls: list[float] = []
        real_point_row = cli.point_row

        def timed_point_row(*args, **kwargs):
            t = time.perf_counter()
            try:
                return real_point_row(*args, **kwargs)
            finally:
                point_walls.append(time.perf_counter() - t)

        cli.point_row = timed_point_row
        try:
            t0 = time.perf_counter()
            rows = cli.run_sweep(config)
            cli.emit(rows, "json", None, config)
            wall = time.perf_counter() - t0
        finally:
            cli.point_row = real_point_row
        records = []
        trials = 0
        for row in rows:
            valid = row["trials"] - row["truncation_exceeded"]
            point_config = dataclasses.replace(config, sweep=None, g=row["sweep_value"])
            params = _point_params("ep", point_config, row["sweep_value"], row["block_probability"])
            trials += row["trials"]
            records.append({
                "key": [f"g={row['sweep_value']!r}", seed], "op": "sweep", "workers": workers,
                "master_seed": seed, "digest": digest(row),
                "cli_z": {c: row.get(c) for c in ("r_key_z", "r_err_z", "epsilon_z")},
                # a row has no blocked count
                "point": {
                    **params, "trials": row["trials"], "valid": valid,
                    "excluded": row["truncation_exceeded"], "sifted": row["sifted_count"],
                    "errors": _count(row["r_err_mc"], valid),
                    "dc_matched": _count(row["double_click_matched_mc"], valid),
                    "dc_mismatched": _count(row["double_click_mismatched_mc"], valid),
                    "bob_no_click": _count(row["bob_no_click_mc"], valid),
                    **_eve_tallies(row["sifted_count"], row["eve_touched_fraction"],
                                   row["p_ae_hat"], row["p_eb_hat"]),
                },
            })
        # run_sweep calls point_row once per row, in row order
        walls = {rec["key"][0]: w for rec, w in zip(records, point_walls, strict=True)}
        return OpResult(trials, wall, walls, records, rows)
