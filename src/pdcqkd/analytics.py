"""The paper's printed formulas and exact enumeration oracles.

Two evaluation routes are kept deliberately separate:

* ``PRINTED``, the one table of the paper's printed leading-order formulas,
  each evaluated verbatim; it fills every ``*_formula`` key of a row;
* exact enumeration oracles that sum every click pattern of the truncated
  source without leading-order drops.

The oracles are the ground truth for the Monte Carlo engine; the formulas
are validated against them as approximations with an explicit O(g^2)
relative tolerance, and may leave [0, 1] outside the small-μ regime.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from . import fock
from .source import DEFAULT_TRUNCATION, GAIN, MEAN, TRUNCATION, UNIT, Scheme, mean_pairs

__all__ = [
    "binary_information",
    "eq10_information",
    "ep_rates_approx",
    "exact_rates_oracle",
    "OracleRates",
    "AttackRates",
    "wcs_leakage",
    "pdc_rates_closed",
    "ep_pns_oracle",
    "EpAttackOracle",
    "wcs_attack_delivered",
    "pdc_attack_delivered",
    "FormulaPoint",
    "Printed",
    "PRINTED",
]


def binary_information(p: float) -> float:
    """1 + p log2 p + (1-p) log2 (1-p), with the 0 log 0 := 0 convention.

    Equals 1 minus the binary entropy of p; symmetric under p -> 1-p.
    """
    UNIT.require(p=p)
    out = 1.0
    if 0.0 < p < 1.0:
        out += p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p)
    return out


def eq10_information(groups: Iterable[tuple[float, float]]) -> float:
    """Average adversary information over bit groups of weight r_i known with
    hit probability p_i; the weights must sum to 1."""
    groups = list(groups)
    total = 0.0
    for r, _ in groups:
        UNIT.require(weight=r)
        total += r
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"group weights must sum to 1, got {total!r}")
    return sum(r * binary_information(p) for r, p in groups)


# ---------------------------------------------------------------------------
# Entangled-pair scheme, no eavesdropper
# ---------------------------------------------------------------------------


def ep_rates_approx(
    g: float, eta_a: float, eta_bl: float
) -> tuple[float, float, Optional[float]]:
    """Printed leading-order sifted-key rate, error count and error rate for
    the entangled-pair scheme; ``eta_bl`` is the product of line transmittance
    and Bob's detector efficiency."""
    GAIN.require(g=g)
    UNIT.require(eta_a=eta_a, eta_bl=eta_bl)
    xi2 = 1.0 - g * g
    g2 = g * g
    r_key = (
        xi2
        * g2
        * (
            eta_a * eta_bl
            + g2 * (1.0 - (1.0 - eta_a) ** 2) * (1.0 - (1.0 - eta_bl) ** 2)
            + 2.0 * g2 * eta_a * (1.0 - eta_a) * eta_bl * (1.0 - eta_bl)
        )
    )
    r_err = xi2 * g2 * g2 * eta_a * (1.0 - eta_a) * eta_bl * (1.0 - eta_bl)
    if r_key > 0.0:
        num = g2 * (1.0 - eta_a - eta_bl + eta_a * eta_bl)
        den = 1.0 + g2 * (6.0 - 4.0 * eta_a - 4.0 * eta_bl + 3.0 * eta_a * eta_bl)
        epsilon: Optional[float] = num / den
    else:
        epsilon = None
    return r_key, r_err, epsilon


def _fire(eta: float, count: int) -> float:
    return 1.0 - (1.0 - eta) ** count


def _bob_arm(m: int, n: int, pass_probability: Optional[float]):
    """(weight, b0, b1, stored mode) for each way the interposer can treat
    Bob's arm of ``m`` and ``n`` photons; one untouched branch without it.

    A single photon is passed with ``pass_probability`` or blocked; a
    multi-photon arm loses one photon, each equally likely, to the stored
    mode and forwards the rest.
    """
    total = m + n
    if pass_probability is None or total == 0:
        yield 1.0, m, n, None
    elif total == 1:
        yield pass_probability, m, n, None
        yield 1.0 - pass_probability, 0, 0, None
    else:
        for stored, count in ((0, m), (1, n)):
            if count:
                yield count / total, m - (stored == 0), n - (stored == 1), stored


@dataclass
class _MatchedSums:
    """Sums over the matched-basis rounds, before normalizing by the
    retained mass."""

    retained: float = 0.0
    sift: float = 0.0
    err: float = 0.0
    dc: float = 0.0
    no_click: float = 0.0
    touched: float = 0.0
    hits_a: float = 0.0
    hits_b: float = 0.0


def _matched_basis(
    g: float, eta_a: float, eta_b: float, truncation: int, pass_probability: Optional[float] = None
) -> _MatchedSums:
    """Enumerate every retained pair configuration of the matched-basis
    rounds, each way the interposer (when ``pass_probability`` is given) can
    treat Bob's arm, and every click pattern, with Bob's per-photon
    efficiency ``eta_b``.

    Per-photon thinning of the pair counts is exact by basis invariance of
    the source state.  A round is touched when the interposer stored a
    photon; a hit is a stored mode equal to that side's sifted bit.
    """
    xi4 = (1.0 - g * g) ** 2
    s = _MatchedSums()
    for total in range(truncation + 1):
        w = xi4 * g ** (2 * total)
        for m in range(total + 1):
            n = total - m
            s.retained += w
            pa0, pa1 = _fire(eta_a, m), _fire(eta_a, n)
            a_only = (pa0 * (1.0 - pa1), pa1 * (1.0 - pa0))
            a_single = a_only[0] + a_only[1]
            for p, b0, b1, stored in _bob_arm(m, n, pass_probability):
                wp = w * p
                pb0, pb1 = _fire(eta_b, b0), _fire(eta_b, b1)
                b_only = (pb0 * (1.0 - pb1), pb1 * (1.0 - pb0))
                b_single = b_only[0] + b_only[1]
                sifted = wp * a_single * b_single
                s.sift += sifted
                s.err += wp * (a_only[0] * b_only[1] + a_only[1] * b_only[0])
                s.dc += wp * pb0 * pb1
                s.no_click += wp * (1.0 - pb0) * (1.0 - pb1)
                if stored is not None:
                    s.touched += sifted
                    s.hits_a += wp * a_only[stored] * b_single
                    s.hits_b += wp * a_single * b_only[stored]
    return s


@dataclass(frozen=True)
class OracleRates:
    """Exact per-emitted-event rates of the unattacked entangled-pair scheme,
    normalized over the retained (non-truncation-exceeded) mass."""

    r_key: float
    r_err: float
    epsilon: Optional[float]
    dc_matched: float
    dc_mismatched: float
    bob_no_click: float
    retained_mass: float


def exact_rates_oracle(
    g: float, eta_a: float, eta_bl: float, truncation: int = DEFAULT_TRUNCATION
) -> OracleRates:
    """Enumerate every retained pair configuration and click pattern exactly.

    Matched-basis rounds come from ``_matched_basis``; mismatched-basis
    statistics come from the sector-conditioned Fock count distribution,
    which both mismatched combos share.
    The 1/2 basis coincidence factor is included in every rate.
    """
    GAIN.require(g=g)
    UNIT.require(eta_a=eta_a, eta_bl=eta_bl)
    TRUNCATION.require(truncation=truncation)
    matched = _matched_basis(g, eta_a, eta_bl, truncation)
    retained = matched.retained

    xi4 = (1.0 - g * g) ** 2
    dc_x = bob_none_x = 0.0
    for total in range(truncation + 1):
        sector_w = (total + 1) * xi4 * g ** (2 * total)
        occs, probs = fock.sector_distribution(total)
        for (_, _, b0, b1), q in zip(occs, probs):
            pb0, pb1 = _fire(eta_bl, b0), _fire(eta_bl, b1)
            dc_x += sector_w * q * pb0 * pb1
            bob_none_x += sector_w * q * (1.0 - pb0) * (1.0 - pb1)

    r_key = 0.5 * matched.sift / retained
    r_err = 0.5 * matched.err / retained
    return OracleRates(
        r_key=r_key,
        r_err=r_err,
        epsilon=(r_err / r_key) if r_key > 0.0 else None,
        dc_matched=0.5 * matched.dc / retained,
        dc_mismatched=0.5 * dc_x / retained,
        bob_no_click=(0.5 * matched.no_click + 0.5 * bob_none_x) / retained,
        retained_mass=retained,
    )


# ---------------------------------------------------------------------------
# Attack rates; the weak-coherent and triggered-PDC closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackRates:
    """The two rates that fix the attack: Bob's unattacked sifted rate
    ``r_exp`` and the rate ``r_multi`` that the multi-photon signals deliver
    alone, with every single-photon signal blocked."""

    r_exp: float
    r_multi: float

    @property
    def saturated(self) -> bool:
        """Blocking every single-photon signal still delivers the unattacked
        rate, so the attack hides with all singles blocked."""
        return 0.0 < self.r_exp <= self.r_multi

    def information(self, known: float) -> Optional[float]:
        """Eq. 10 branch: Eve's information on a sifted bit when she has
        ``known`` on each bit she stored a photon of.  That is every bit when
        saturated, otherwise the multi-photon fraction; None without a rate."""
        if self.r_exp <= 0.0:
            return None
        return known if self.saturated else self.r_multi / self.r_exp * known


def wcs_leakage(mu_prime: float, eta_lb: float) -> AttackRates:
    """The attack rates of weak coherent states: the sifted rate through the
    lossy line and the multi-photon rate."""
    MEAN.require(mu_prime=mu_prime)
    UNIT.require(eta_lb=eta_lb)
    return AttackRates(
        r_exp=0.5 * (1.0 - math.exp(-eta_lb * mu_prime)),
        r_multi=0.5 * (1.0 - (1.0 + mu_prime) * math.exp(-mu_prime)),
    )


def pdc_rates_closed(g: float, eta_a: float, eta_lb: float) -> tuple[float, float]:
    """Closed-form geometric-series evaluation of the triggered-PDC sifted
    rate and multi-photon rate."""
    GAIN.require(g=g)
    UNIT.require(eta_a=eta_a, eta_lb=eta_lb)
    xi2 = 1.0 - g * g
    g2 = g * g

    def geom_all(a: float) -> float:
        return 1.0 / (1.0 - g2 * a)

    def geom_from2(a: float) -> float:
        return (g2 * a) ** 2 / (1.0 - g2 * a)

    r_exp = 0.5 * xi2 * (
        geom_all(1.0)
        - geom_all(1.0 - eta_a)
        - geom_all(1.0 - eta_lb)
        + geom_all((1.0 - eta_a) * (1.0 - eta_lb))
    )
    r_multi = 0.5 * xi2 * (geom_from2(1.0) - geom_from2(1.0 - eta_a))
    return r_exp, r_multi


# ---------------------------------------------------------------------------
# Photon-number-splitting attack on the entangled-pair scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpAttackOracle:
    """Exact per-emitted-event statistics of the number-splitting attack on
    the entangled-pair scheme with a given single-photon pass probability."""

    delivered_rate: float
    error_rate: Optional[float]
    p_ae: Optional[float]
    p_eb: Optional[float]
    touched_fraction: Optional[float]
    i_ae: Optional[float]
    i_eb: Optional[float]
    dc_matched: float
    bob_no_click: float


def ep_pns_oracle(
    g: float,
    eta_a: float,
    pass_probability: float,
    truncation: int = DEFAULT_TRUNCATION,
) -> EpAttackOracle:
    """Enumerate the attacked matched-basis rounds exactly.

    The interceptor removes one photon uniformly from multi-photon arms,
    blocks singles with probability 1 - ``pass_probability`` and forwards the
    rest over a lossless, guaranteed-detection channel.  Bob's side of a
    sector is maximally mixed in any basis (see ``fock``), and the
    configurations of a total are equally likely, so a mismatched round gives
    his arm the law of a matched one: his double clicks and no-clicks are the
    matched-basis sums in either round.
    """
    GAIN.require(g=g)
    UNIT.require(eta_a=eta_a, pass_probability=pass_probability)
    TRUNCATION.require(truncation=truncation)
    s = _matched_basis(g, eta_a, 1.0, truncation, pass_probability)

    delivered = 0.5 * s.sift / s.retained
    rated = delivered > 0.0
    touched = s.touched / s.sift if rated else None
    # a touched round is a sifted one, so without a sifted rate none is touched
    p_ae, p_eb = (hits / s.touched if s.touched > 0 else None for hits in (s.hits_a, s.hits_b))
    i_ae, i_eb = (None if p is None else touched * binary_information(p) for p in (p_ae, p_eb))
    return EpAttackOracle(
        delivered_rate=delivered,
        error_rate=(0.5 * s.err / s.retained) / delivered if rated else None,
        p_ae=p_ae,
        p_eb=p_eb,
        touched_fraction=touched,
        i_ae=i_ae,
        i_eb=i_eb,
        dc_matched=0.5 * s.dc / s.retained,
        bob_no_click=s.no_click / s.retained,
    )


def wcs_attack_delivered(mu_prime: float, pass_probability: float) -> float:
    """Delivered sifted rate of the attacked weak-coherent scheme."""
    MEAN.require(mu_prime=mu_prime)
    UNIT.require(pass_probability=pass_probability)
    p1 = mu_prime * math.exp(-mu_prime)
    p_multi = 1.0 - (1.0 + mu_prime) * math.exp(-mu_prime)
    return 0.5 * (p_multi + pass_probability * p1)


def pdc_attack_delivered(g: float, eta_a: float, pass_probability: float) -> float:
    """Delivered sifted rate of the attacked triggered-PDC scheme."""
    GAIN.require(g=g)
    UNIT.require(eta_a=eta_a, pass_probability=pass_probability)
    _, r_multi = pdc_rates_closed(g, eta_a, 1.0)
    xi2 = 1.0 - g * g
    return r_multi + pass_probability * 0.5 * xi2 * g * g * eta_a


# ---------------------------------------------------------------------------
# The paper's printed formulas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FormulaPoint:
    """A resolved point as the printed formulas read it: ``eta_bl`` is
    η_B = η_b η_l, and ``rates`` are its attack rates (None for unattacked ep)."""

    scheme: Scheme
    attacked: bool
    g: float
    eta_a: float
    eta_bl: float
    mu_prime: float
    rates: Optional[AttackRates]


@dataclass(frozen=True)
class Printed:
    """One printed formula: the row key it fills, the paper's symbol, the
    schemes it applies to, and the formula.  An ``attacked`` entry applies
    under the attack alone, and one that ``reads_rates`` is null without a
    sifted rate (``r_exp`` <= 0)."""

    key: str
    symbol: str
    schemes: tuple[Scheme, ...]
    formula: Callable[[FormulaPoint], Optional[float]]
    attacked: bool = False
    reads_rates: bool = False

    def value(self, p: FormulaPoint) -> Optional[float]:
        """The formula at ``p``, or None where the entry does not apply."""
        applies = p.scheme in self.schemes and (p.attacked or not self.attacked)
        rated = p.rates is not None and p.rates.r_exp > 0.0
        return self.formula(p) if applies and (rated or not self.reads_rates) else None


def _p_eb(p: FormulaPoint) -> float:
    return (2.0 - p.eta_a) / (3.0 - 2.0 * p.eta_a)


def _eps_prime(p: FormulaPoint) -> float:
    # every single blocked when saturated, else the small-μ leading order
    if p.rates.saturated:
        return (1.0 - p.eta_a) / (6.0 - 4.0 * p.eta_a)
    return (1.0 - p.eta_a) * mean_pairs(p.g) / (4.0 * p.eta_bl)


def _i_ab(p: FormulaPoint) -> Optional[float]:
    # a leading-order ε′ past 1 (large μ) is no error rate
    eps_prime = _eps_prime(p)
    return binary_information(eps_prime) if eps_prime <= 1.0 else None


def _i_e(p: FormulaPoint) -> float:
    if p.scheme is Scheme.WEAK_COHERENT:
        return p.mu_prime / (2.0 * p.eta_bl)
    return (2.0 - p.eta_a) / p.eta_bl * (p.g * p.g / (1.0 - p.g * p.g))


_EP, _PREPARED = (Scheme.ENTANGLED_PAIRS,), (Scheme.WEAK_COHERENT, Scheme.TRIGGERED_PDC)
# Every printed formula that a row shows, by its key; nothing else fills a
# ``*_formula`` key.
PRINTED = (
    Printed("r_key_formula", "R_key", _EP, lambda p: ep_rates_approx(p.g, p.eta_a, p.eta_bl)[0]),
    Printed("r_err_formula", "R_err", _EP, lambda p: ep_rates_approx(p.g, p.eta_a, p.eta_bl)[1]),
    Printed("epsilon_formula", "ε", _EP, lambda p: ep_rates_approx(p.g, p.eta_a, p.eta_bl)[2]),
    Printed(
        "p_ae_formula", "P_AE", _EP, lambda p: (5.0 - 3.0 * p.eta_a) / (6.0 - 4.0 * p.eta_a),
        attacked=True,
    ),
    Printed("p_eb_formula", "P_EB", _EP, _p_eb, attacked=True),
    Printed(
        "i_eb_formula", "I_EB", _EP, lambda p: p.rates.information(binary_information(_p_eb(p))),
        attacked=True, reads_rates=True,
    ),
    Printed("eps_prime_formula", "ε′", _EP, _eps_prime, attacked=True, reads_rates=True),
    Printed("i_ab_formula", "I_AB", _EP, _i_ab, attacked=True, reads_rates=True),
    Printed("i_e_formula", "I_E", _PREPARED, _i_e, reads_rates=True),
)
