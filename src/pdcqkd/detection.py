"""Detector efficiencies and line transmittance of the channel.

Every detector is a yes/no detector: seeing n photons it fires with
probability 1 - (1 - eta)^n, which is binomial loss of each photon followed
by a click on at least one survivor.  Line loss and Bob's detector
inefficiency therefore compose into one survival probability.
"""
from __future__ import annotations

from dataclasses import dataclass

from .source import UNIT


@dataclass(frozen=True)
class ChannelParams:
    """Detector efficiencies and line transmittance."""

    eta_a: float = 1.0
    eta_b: float = 1.0
    eta_l: float = 1.0

    def __post_init__(self) -> None:
        UNIT.require(eta_a=self.eta_a, eta_b=self.eta_b, eta_l=self.eta_l)


def compose_bob_efficiency(params: ChannelParams) -> float:
    """Single survival probability for Bob's arm: line loss and detector
    inefficiency commute for polarization-insensitive beam-splitter loss."""
    return params.eta_l * params.eta_b
