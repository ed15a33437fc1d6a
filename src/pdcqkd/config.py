"""Experiment configuration: validation, defaults and gain resolution."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

from .eve import PnsConfig
from .source import (
    DEFAULT_TRUNCATION,
    FINITE,
    GAIN,
    INTEGER,
    MEAN,
    MEAN_PHOTONS,
    PDC_GAIN,
    TRUNCATION,
    UNIT,
    ConfigError,
    Scheme,
    g_for_mean,
    g_for_single_arm_mean,
)

SWEEPABLE = ("g", "mu", "mu_prime", "eta_a", "eta_b", "eta_l")

DEFAULT_TRIALS = 1_000_000
DEFAULT_SEED = 0


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def values(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        if self.scale == "log":
            lo, hi = math.log(self.start), math.log(self.stop)
            return [
                math.exp(lo + (hi - lo) * i / (self.steps - 1))
                for i in range(self.steps)
            ]
        return [
            self.start + (self.stop - self.start) * i / (self.steps - 1)
            for i in range(self.steps)
        ]


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: Scheme
    g: Optional[float] = None
    mu: Optional[float] = None
    mu_prime: Optional[float] = None
    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_l: float = 1.0
    trials: int = DEFAULT_TRIALS
    master_seed: int = DEFAULT_SEED
    truncation_order: int = DEFAULT_TRUNCATION
    attack: Optional[PnsConfig] = None
    workers: int = 1
    sweep: Optional[SweepSpec] = None
    out_format: str = "csv"
    out_path: Optional[str] = None

    def validated(self) -> "ExperimentConfig":
        errors = validate(self)
        if errors:
            raise ConfigError(errors)
        return self

    def resolved_gain(self) -> float:
        """Gain for the EP / triggered-PDC schemes; for the latter ``mu`` is
        interpreted as the single-crystal mean pair number."""
        if self.g is not None:
            return self.g
        assert self.mu is not None
        if self.scheme is Scheme.TRIGGERED_PDC:
            return g_for_single_arm_mean(self.mu)
        return g_for_mean(self.mu)

    def to_dict(self) -> dict:
        return {**asdict(self), "scheme": self.scheme.value}


def validate(config: ExperimentConfig) -> list[str]:
    errors: list[str] = []
    scheme = config.scheme
    swept = config.sweep.param if config.sweep is not None else None
    sweeps_gain = swept in ("g", "mu")
    if scheme in (Scheme.ENTANGLED_PAIRS, Scheme.TRIGGERED_PDC):
        if config.g is not None and config.mu is not None:
            errors.append("exactly one of 'g' and 'mu' must be given for this scheme")
        elif config.g is None and config.mu is None and not sweeps_gain:
            errors.append("exactly one of 'g' and 'mu' must be given for this scheme")
        # the triggered source's signal arm has mean g^2/(1-g^2) = mu, bounded
        # by its gain; an ep pair mean mu within the same bound keeps its gain
        # below 1
        pdc = scheme is Scheme.TRIGGERED_PDC
        if config.g is not None:
            errors += GAIN.violations(g=config.g) or (
                PDC_GAIN.violations(g=config.g) if pdc else []
            )
        if config.mu is not None:
            errors += MEAN.violations(mu=config.mu) or MEAN_PHOTONS.violations(mu=config.mu)
        if config.mu_prime is not None:
            errors.append("mu_prime: applies only to the weak-coherent scheme")
    else:
        if config.mu_prime is not None:
            errors += MEAN.violations(mu_prime=config.mu_prime) or MEAN_PHOTONS.violations(
                mu_prime=config.mu_prime
            )
        elif swept != "mu_prime":
            errors.append("mu_prime: required for the weak-coherent scheme")
        if config.g is not None or config.mu is not None:
            errors.append("g/mu: not applicable to the weak-coherent scheme")
    errors += UNIT.violations(eta_a=config.eta_a, eta_b=config.eta_b, eta_l=config.eta_l)
    if config.out_format not in ("csv", "json"):
        errors.append(f"out_format: must be 'csv' or 'json', got {config.out_format!r}")
    sw = config.sweep
    if sw is not None:
        if sw.param not in SWEEPABLE:
            errors.append(
                f"sweep.param: must be one of {SWEEPABLE}, got {sw.param!r}"
            )
        errors += FINITE.violations(**{"sweep.start": sw.start, "sweep.stop": sw.stop})
        if sw.scale not in ("linear", "log"):
            errors.append(f"sweep.scale: must be 'linear' or 'log', got {sw.scale!r}")
        elif sw.scale == "log" and (sw.start <= 0 or sw.stop <= 0):
            errors.append("sweep: log scale requires positive start and stop")
    # the ranges below are checked only on integers
    not_integers = INTEGER.violations(
        trials=config.trials,
        master_seed=config.master_seed,
        truncation_order=config.truncation_order,
        workers=config.workers,
        **({"sweep.steps": sw.steps} if sw is not None else {}),
    )
    if not_integers:
        return errors + not_integers
    if not 0 <= config.master_seed < 1 << 64:
        errors.append(f"master_seed: must lie in [0, 2**64), got {config.master_seed!r}")
    if config.trials < 0:
        errors.append(f"trials: must be >= 0, got {config.trials!r}")
    errors += TRUNCATION.violations(truncation_order=config.truncation_order)
    if config.workers < 1:
        errors.append(f"workers: must be >= 1, got {config.workers!r}")
    if sw is not None and sw.steps < 1:
        errors.append(f"sweep.steps: must be >= 1, got {sw.steps!r}")
    return errors
