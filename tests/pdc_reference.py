"""The triggered-PDC sifted and multi-photon rates summed term by term, kept
as an independent reference for the geometric closed forms of
``pdcqkd.analytics.pdc_rates_closed``.
"""
from __future__ import annotations


def _fire(eta: float, count: int) -> float:
    return 1.0 - (1.0 - eta) ** count


def pdc_rates_series(
    g: float, eta_a: float, eta_lb: float, tail_bound: float = 1e-15
) -> tuple[float, float]:
    """Direct numeric summation of the two series of ``pdc_rates_closed``.
    Terms are summed until the geometric tail bound drops below
    ``tail_bound``."""
    xi2 = 1.0 - g * g
    g2 = g * g
    r_exp = r_multi = 0.0
    n = 0
    while True:
        w = g2**n
        r_exp += 0.5 * xi2 * w * _fire(eta_a, n) * _fire(eta_lb, n)
        if n >= 2:
            r_multi += 0.5 * xi2 * w * _fire(eta_a, n)
        n += 1
        if g2 == 0.0 or 0.5 * xi2 * g2**n / (1.0 - g2) < tail_bound:
            break
    return r_exp, r_multi
