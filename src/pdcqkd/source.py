"""Photon-number statistics of the three source types.

Covers the two-crystal entangled-pair down-conversion source, attenuated
laser (weak coherent state) signals, and the triggered single-crystal
down-conversion source: their parameters and the rules every input value
must satisfy, the gain / mean-pair-number conversions, and the truncated
pair-configuration table of the entangled-pair source.  The Monte Carlo
kernels in ``engine`` draw from these laws.
"""
from __future__ import annotations

import enum
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np


# Truncation orders of the entangled-pair source: at least the two-pair terms
# that carry the multi-photon physics, and at most 127 because the ep kernel
# holds per-mode photon counts in int8; by default the two-pair terms alone.
MIN_TRUNCATION = 2
MAX_TRUNCATION = 127
DEFAULT_TRUNCATION = 2
# Largest mean photon number of a prepared (wcs or pdc) signal: the
# prepare-and-measure kernel tabulates every photon number up to a 2^-64
# tail, and that table grows with the mean.
MAX_MEAN_PHOTONS = 1000.0
# log of the tail mass a photon-number table may leave out
_LOG_TAIL = -64.0 * math.log(2.0)
# the blocking probability that the attack solves for itself
AUTO = "auto"


class ConfigError(ValueError):
    """Input rejection carrying one message per offending field."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class Rule:
    """A domain that input values must lie in; ``holds`` is false for NaN."""

    holds: Callable[[object], bool]
    requirement: str

    def violations(self, **values) -> list[str]:
        """One message for each value outside the domain, led by its field."""
        return [
            f"{field}: {self.requirement}, got {value!r}"
            for field, value in values.items()
            if not self.holds(value)
        ]

    def require(self, **values) -> None:
        """Raise the ``violations`` of ``values`` as a ConfigError."""
        errors = self.violations(**values)
        if errors:
            raise ConfigError(errors)


# Every input rule of the model, written once.
GAIN = Rule(lambda g: 0.0 <= g < 1.0, "must lie in [0, 1)")
UNIT = Rule(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
FINITE = Rule(math.isfinite, "must be finite")
MEAN = Rule(lambda mu: 0.0 <= mu < math.inf, "must be finite and >= 0")
# checked after MEAN or GAIN, which exclude negative and infinite values
MEAN_PHOTONS = Rule(
    lambda mu: mu <= MAX_MEAN_PHOTONS, f"mean photon number must be <= {MAX_MEAN_PHOTONS}"
)
TRUNCATION = Rule(
    lambda t: MIN_TRUNCATION <= t <= MAX_TRUNCATION,
    f"must lie in [{MIN_TRUNCATION}, {MAX_TRUNCATION}]",
)
# a numpy integer is an integer, a bool is not
INTEGER = Rule(
    lambda n: isinstance(n, numbers.Integral) and not isinstance(n, bool), "must be an integer"
)
BLOCK_PROBABILITY = Rule(
    lambda p: p == AUTO or (not isinstance(p, str) and UNIT.holds(p)),
    f"must be {AUTO!r} or lie in [0, 1]",
)


class Scheme(enum.Enum):
    ENTANGLED_PAIRS = "ep"
    WEAK_COHERENT = "wcs"
    TRIGGERED_PDC = "pdc"


@dataclass(frozen=True)
class SourceParams:
    """Parameters of a photon-pair / photon-number source.

    ``g`` is the dimensionless down-conversion gain (tanh of the squeezing
    parameter); ``mu_prime`` is only meaningful for the weak-coherent scheme.
    """

    scheme: Scheme
    g: float = 0.0
    truncation_order: int = DEFAULT_TRUNCATION
    mu_prime: float = 0.0

    def __post_init__(self) -> None:
        GAIN.require(g=self.g)
        TRUNCATION.require(truncation_order=self.truncation_order)
        MEAN.require(mu_prime=self.mu_prime)
        if self.scheme is Scheme.WEAK_COHERENT:
            MEAN_PHOTONS.require(mu_prime=self.mu_prime)
        elif self.scheme is Scheme.TRIGGERED_PDC:
            PDC_GAIN.require(g=self.g)


@dataclass(frozen=True, order=True)
class PairConfiguration:
    """Pair content of one emitted signal: m vertical, n horizontal pairs."""

    m: int
    n: int


@dataclass(frozen=True)
class PairDistribution:
    """Truncated probability table over pair configurations.

    ``tail`` is the probability mass of configurations beyond the truncation;
    it is reported, never re-normalized away.
    """

    configs: tuple[PairConfiguration, ...]
    probabilities: np.ndarray
    tail: float


def mean_pairs(g: float) -> float:
    """Mean pair number of the two-crystal source, 2 g^2 / (1 - g^2)."""
    GAIN.require(g=g)
    return 2.0 * g * g / (1.0 - g * g)


def g_for_mean(mu: float) -> float:
    """Gain that produces mean pair number ``mu`` (inverse of mean_pairs)."""
    MEAN.require(mu=mu)
    return math.sqrt(mu / (2.0 + mu))


def g_for_single_arm_mean(mu: float) -> float:
    """Gain producing single-crystal mean pair number ``mu``."""
    MEAN.require(mu=mu)
    return math.sqrt(mu / (1.0 + mu))


# The pdc bound on a gain, checked after GAIN: the gain that a mean of
# MAX_MEAN_PHOTONS converts to, so a mean that passes MEAN_PHOTONS converts
# to a gain that passes this one.
MAX_PDC_GAIN = g_for_single_arm_mean(MAX_MEAN_PHOTONS)
PDC_GAIN = Rule(
    lambda g: g <= MAX_PDC_GAIN,
    f"must be <= {MAX_PDC_GAIN!r}, the gain of a mean photon number of {MAX_MEAN_PHOTONS}",
)


def pair_distribution(params: SourceParams) -> PairDistribution:
    """Exact probabilities P(m, n) = (1-g^2)^2 g^{2(m+n)} up to the truncation.

    Only defined for the entangled-pair scheme.
    """
    if params.scheme is not Scheme.ENTANGLED_PAIRS:
        raise ValueError("pair_distribution requires the entangled-pair scheme")
    g = params.g
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
