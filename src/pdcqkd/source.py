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


# Truncation orders of the entangled-pair source: at least the two-pair terms
# that carry the multi-photon physics, and at most 127 because the ep kernel
# holds per-mode photon counts in int8.
MIN_TRUNCATION = 2
MAX_TRUNCATION = 127
# Largest mean photon number of a prepared (wcs or pdc) signal: the
# prepare-and-measure kernel tabulates every photon number up to a 2^-64
# tail, and that table grows with the mean.
MAX_MEAN_PHOTONS = 1000.0
# log of the tail mass a photon-number table may leave out
_LOG_TAIL = -64.0 * math.log(2.0)


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
        if not MIN_TRUNCATION <= self.truncation_order <= MAX_TRUNCATION:
            raise ValueError(
                f"truncation_order must lie in [{MIN_TRUNCATION}, {MAX_TRUNCATION}], "
                f"got {self.truncation_order!r}"
            )
        if self.mu_prime < 0:
            raise ValueError(f"mu_prime must be >= 0, got {self.mu_prime!r}")
        if self.mean_photons > MAX_MEAN_PHOTONS:
            raise ValueError(
                f"mean photon number must be <= {MAX_MEAN_PHOTONS}, got {self.mean_photons!r}"
            )

    @property
    def mean_photons(self) -> float:
        """Mean photon number of a prepared signal (0 for entangled pairs)."""
        if self.scheme is Scheme.WEAK_COHERENT:
            return self.mu_prime
        if self.scheme is Scheme.TRIGGERED_PDC:
            return single_arm_mean(self.g)
        return 0.0


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


def photon_number_law(params: SourceParams) -> np.ndarray:
    """P(n) of a prepared signal's photon number, n = 0 .. n_max.

    Poisson(mu') for the weak-coherent scheme and (1 - g^2) g^(2n) for the
    signal arm of the triggered scheme, evaluated in log space so that no
    term underflows through its neighbours.  n_max is the first count at
    which a bound on the remaining tail falls below 2^-64; that tail (exact
    for the geometric law, its bound for the Poisson law) is folded into the
    last entry.
    """
    if params.scheme is Scheme.WEAK_COHERENT:
        mu = params.mu_prime
        if mu == 0.0:
            return np.ones(1)
        log_mu = math.log(mu)

        def log_p(n: int) -> float:
            return n * log_mu - mu - math.lgamma(n + 1.0)

        def log_tail(n: int) -> float:
            # past n + 1 each term is at most mu / (n + 2) < 1 times the one
            # before, so P(k > n) <= P(n + 1) / (1 - mu / (n + 2))
            return log_p(n + 1) - math.log1p(-mu / (n + 2))

        n_max = math.floor(mu)  # the first n with n + 2 > mu
        while log_tail(n_max) >= _LOG_TAIL:
            n_max += 1
        law = np.exp([log_p(n) for n in range(n_max + 1)])
        law[-1] += math.exp(log_tail(n_max))
        return law
    if params.scheme is Scheme.TRIGGERED_PDC:
        if params.g == 0.0:
            return np.ones(1)
        log_g2 = 2.0 * math.log(params.g)
        # P(n > n_max) = g^(2 (n_max + 1)) < 2^-64
        n_max = math.floor(_LOG_TAIL / log_g2)
        law = (1.0 - params.g**2) * np.exp(log_g2 * np.arange(n_max + 1))
        law[-1] = math.exp(log_g2 * n_max)  # P(n >= n_max)
        return law
    raise ValueError("photon_number_law requires a prepare-and-measure scheme")
