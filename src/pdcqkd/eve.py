"""Photon-number-splitting attack: the attack policy and its blocking
probability.

The interceptor sits on Bob's arm: it counts photons nondestructively,
stores one photon from multi-photon signals, forwards the rest over a
lossless line with guaranteed detection, and blocks single-photon signals
with a tunable probability, chosen by default so that the delivered sifted
rate matches the unattacked one.  The Monte Carlo kernel applies it per table
row: to an ``ep`` row through ``engine._Interposer``, to a prepared one in
the slots of its alias table; this module solves the blocking probability
in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import analytics
from .detection import ChannelParams, compose_bob_efficiency
from .source import AUTO, BLOCK_PROBABILITY, ConfigError, Scheme, SourceParams


@dataclass(frozen=True)
class PnsConfig:
    """Attack policy: the single-photon blocking probability, or AUTO to
    solve it for rate matching.  Forwarded photons always reach Bob over the
    lossless line with guaranteed detection."""

    block_probability: Union[float, str] = AUTO

    def __post_init__(self) -> None:
        BLOCK_PROBABILITY.require(block_probability=self.block_probability)


def _delivered_rate(
    source: SourceParams, channel: ChannelParams, pass_probability: float
) -> float:
    if source.scheme is Scheme.ENTANGLED_PAIRS:
        return analytics.ep_pns_oracle(
            source.g, channel.eta_a, pass_probability, source.truncation_order
        ).delivered_rate
    if source.scheme is Scheme.WEAK_COHERENT:
        return analytics.wcs_attack_delivered(source.mu_prime, pass_probability)
    return analytics.pdc_attack_delivered(source.g, channel.eta_a, pass_probability)


def attack_rates(source: SourceParams, channel: ChannelParams) -> analytics.AttackRates:
    """The point's unattacked sifted rate and the rate that the attack
    delivers with every single-photon signal blocked, each evaluated once:
    the prepared schemes' closed forms give both."""
    eta_bl = compose_bob_efficiency(channel)
    if source.scheme is Scheme.WEAK_COHERENT:
        return analytics.wcs_leakage(source.mu_prime, eta_bl)
    if source.scheme is Scheme.TRIGGERED_PDC:
        return analytics.AttackRates(*analytics.pdc_rates_closed(source.g, channel.eta_a, eta_bl))
    unattacked = analytics.exact_rates_oracle(
        source.g, channel.eta_a, eta_bl, source.truncation_order
    )
    return analytics.AttackRates(unattacked.r_key, _delivered_rate(source, channel, 0.0))


def solve_block_probability(
    source: SourceParams, channel: ChannelParams, rates: Optional[analytics.AttackRates] = None
) -> float:
    """Blocking probability that matches the delivered sifted rate to the
    unattacked one, or 1.0 when the attack saturates.  ``rates`` are the
    point's ``attack_rates``, evaluated here when not given.

    Only single-photon signals depend on the pass probability p, so the
    delivered rate is affine in it, D(p) = D(0) + p (D(1) - D(0)), and the
    match is one division.  A rate that rounds past D(1) gives blocking 0.
    """
    if rates is None:
        rates = attack_rates(source, channel)
    if rates.r_exp <= 0.0:
        raise ConfigError(
            ["attack.block_probability: auto has no rate to match, "
             "as the unattacked sifted rate is zero"]
        )
    if rates.saturated:
        return 1.0
    full = _delivered_rate(source, channel, 1.0)
    return 1.0 - min(1.0, (rates.r_exp - rates.r_multi) / (full - rates.r_multi))

