"""Photon-number statistics of the three source types.

Covers the two-crystal entangled-pair down-conversion source, attenuated
laser (weak coherent state) signals, and the triggered single-crystal
down-conversion source: their parameters, the gain / mean-pair-number
conversions, and the truncated pair-configuration table of the entangled-pair
source.  The Monte Carlo kernels in ``engine`` draw from these laws.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Scheme(enum.Enum):
    ENTANGLED_PAIRS = "ep"
    WEAK_COHERENT = "wcs"
    TRIGGERED_PDC = "pdc"


def _check_gain(g: float) -> None:
    if not 0.0 <= g < 1.0:
        raise ValueError(f"gain g must satisfy 0 <= g < 1, got {g!r}")


@dataclass(frozen=True)
class SourceParams:
    """Parameters of a photon-pair / photon-number source.

    ``g`` is the dimensionless down-conversion gain (tanh of the squeezing
    parameter); ``mu_prime`` is only meaningful for the weak-coherent scheme.
    """

    scheme: Scheme
    g: float = 0.0
    truncation_order: int = 2
    mu_prime: float = 0.0

    def __post_init__(self) -> None:
        _check_gain(self.g)
        if self.truncation_order < 1:
            raise ValueError(
                f"truncation_order must be >= 1, got {self.truncation_order!r}"
            )
        if self.mu_prime < 0:
            raise ValueError(f"mu_prime must be >= 0, got {self.mu_prime!r}")


@dataclass(frozen=True, order=True)
class PairConfiguration:
    """Pair content of one emitted signal: m vertical, n horizontal pairs."""

    m: int
    n: int

    @property
    def total(self) -> int:
        return self.m + self.n


@dataclass(frozen=True)
class PairDistribution:
    """Truncated probability table over pair configurations.

    ``tail`` is the probability mass of configurations beyond the truncation;
    it is reported, never re-normalized away.
    """

    configs: tuple[PairConfiguration, ...]
    probabilities: np.ndarray
    tail: float

    @property
    def total_mass(self) -> float:
        return float(self.probabilities.sum() + self.tail)


def mean_pairs(g: float) -> float:
    """Mean pair number of the two-crystal source, 2 g^2 / (1 - g^2)."""
    _check_gain(g)
    return 2.0 * g * g / (1.0 - g * g)


def g_for_mean(mu: float) -> float:
    """Gain that produces mean pair number ``mu`` (inverse of mean_pairs)."""
    if mu < 0:
        raise ValueError(f"mean pair number must be >= 0, got {mu!r}")
    return math.sqrt(mu / (2.0 + mu))


def single_arm_mean(g: float) -> float:
    """Mean pair number of a single crystal, g^2 / (1 - g^2)."""
    _check_gain(g)
    return g * g / (1.0 - g * g)


def g_for_single_arm_mean(mu: float) -> float:
    """Gain producing single-crystal mean pair number ``mu``."""
    if mu < 0:
        raise ValueError(f"mean pair number must be >= 0, got {mu!r}")
    return math.sqrt(mu / (1.0 + mu))


def pair_distribution(params: SourceParams) -> PairDistribution:
    """Exact probabilities P(m, n) = (1-g^2)^2 g^{2(m+n)} up to the truncation.

    Only defined for the entangled-pair scheme.
    """
    if params.scheme is not Scheme.ENTANGLED_PAIRS:
        raise ValueError("pair_distribution requires the entangled-pair scheme")
    g = params.g
    _check_gain(g)
    trunc = params.truncation_order
    xi4 = (1.0 - g * g) ** 2
    configs = []
    probs = []
    for total in range(trunc + 1):
        w = xi4 * g ** (2 * total)
        for m in range(total + 1):
            configs.append(PairConfiguration(m, total - m))
            probs.append(w)
    probabilities = np.asarray(probs, dtype=float)
    tail = max(0.0, 1.0 - float(probabilities.sum()))
    return PairDistribution(tuple(configs), probabilities, tail)
