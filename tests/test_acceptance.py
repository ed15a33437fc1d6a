"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line (visible with ``pytest -v -s`` or in the failure output).
Heavy Monte Carlo runs are shared through module-scoped fixtures.
"""
import dataclasses
import json
import math

import pytest

from pdcqkd.analytics import (
    PRINTED,
    FormulaPoint,
    ep_rates_approx,
    exact_rates_oracle,
    pdc_rates_closed,
    wcs_leakage,
)
from pdcqkd.config import ExperimentConfig
from pdcqkd.engine import BATCH_SIZE, _resolve_run_params, run_experiment
from pdcqkd.eve import AUTO, PnsConfig
from pdcqkd.source import Scheme, g_for_mean

from fock_reference import FockSuperposition, rotate_side, verify_basis_invariance
from pdc_reference import pdc_rates_series


def _verdict(label: str, ok: bool) -> None:
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


def _se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


# ---------------------------------------------------------------------------
# Shared Monte Carlo runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def baseline_ep_report():
    """10^7 entangled-pair rounds at g=0.1 with asymmetric losses."""
    config = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.1,
        eta_a=0.5,
        eta_b=0.5,
        eta_l=0.2,
        trials=10_000_000,
        master_seed=20260823,
    )
    return run_experiment(config)


@pytest.fixture(scope="module")
def saturated_attack_report():
    """2*10^7 attacked rounds: every single-photon signal blocked."""
    config = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.6,
        eta_a=0.6,
        eta_b=1.0,
        eta_l=1.0,
        trials=20_000_000,
        master_seed=101,
        attack=PnsConfig(block_probability=1.0),
    )
    return run_experiment(config)


def test_c01_conjugate_basis_invariance():
    worst = max(verify_basis_invariance(g) for g in (0.05, 0.1, 0.3))
    _verdict(f"C1 basis invariance (max deviation {worst:.2e})", worst < 1e-10)


def test_c02_intrinsic_error_rate(baseline_ep_report):
    report = baseline_ep_report
    oracle = exact_rates_oracle(0.1, 0.5, 0.1)
    mc_ok = abs(report.epsilon - oracle.epsilon) < 3 * report.epsilon_se
    _, _, ratio = ep_rates_approx(0.1, 0.5, 0.1)
    formula_ok = abs(oracle.epsilon - ratio) <= 6 * 0.1**2 * ratio
    _verdict(
        f"C2 intrinsic error rate (MC {report.epsilon:.5f} vs oracle "
        f"{oracle.epsilon:.5f})",
        mc_ok and formula_ok,
    )


def test_c03_perfect_alice_limit():
    config = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.1,
        eta_a=1.0,
        eta_b=0.5,
        eta_l=0.2,
        trials=10_000_000,
        master_seed=3,
    )
    report = run_experiment(config)
    oracle = exact_rates_oracle(0.1, 1.0, 0.1)
    _verdict(
        f"C3 perfect-Alice limit (MC errors {report.error_count}, oracle "
        f"r_err {oracle.r_err:.1e})",
        report.error_count == 0 and oracle.r_err == 0.0,
    )


def test_c04_leading_order_error_slope():
    slope_target = 0.2375  # (1 - eta_a)(1 - eta_b*eta_l) / 2
    ratios = []
    for mu in (0.005, 0.01, 0.02):
        oracle = exact_rates_oracle(g_for_mean(mu), 0.5, 0.05)
        ratios.append(oracle.epsilon / mu)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    near = all(abs(r - slope_target) <= 0.05 * slope_target for r in ratios)
    _verdict(
        f"C4 leading-order slope (ratios {['%.4f' % r for r in ratios]})",
        spread <= 0.05 and near,
    )


def test_c05_weak_coherent_leakage():
    leak = wcs_leakage(0.1, 0.1)
    i_e = leak.information(1.0)
    value_ok = abs(i_e - 0.47023) <= 1e-5
    config = ExperimentConfig(
        scheme=Scheme.WEAK_COHERENT,
        mu_prime=0.1,
        eta_b=0.5,
        eta_l=0.2,
        trials=10_000_000,
        master_seed=5,
        attack=PnsConfig(block_probability=AUTO),
    )
    report = run_experiment(config)
    rate_ok = abs(report.r_key - leak.r_exp) < 3 * report.r_key_se
    frac_se = _se(i_e, report.sifted_count)
    frac_ok = abs(report.eve_touched_fraction - i_e) < 3 * frac_se
    _verdict(
        f"C5 WCS leakage (I_E {i_e:.5f}, touched "
        f"{report.eve_touched_fraction:.5f})",
        value_ok and rate_ok and frac_ok,
    )


def test_c06_triggered_pdc_leakage():
    closed_ok = True
    for g in (0.1, 0.3, 0.5):
        for eta in (0.1, 0.5, 0.9):
            closed = pdc_rates_closed(g, 0.8, eta)
            series = pdc_rates_series(g, 0.8, eta)
            closed_ok &= abs(closed[0] - series[0]) <= 1e-12
            closed_ok &= abs(closed[1] - series[1]) <= 1e-12
    config = ExperimentConfig(
        scheme=Scheme.TRIGGERED_PDC,
        g=0.3,
        eta_a=0.8,
        eta_b=0.9,
        eta_l=0.9,
        trials=4_000_000,
        master_seed=6,
    )
    report = run_experiment(config)
    r_exp = pdc_rates_closed(0.3, 0.8, 0.81)[0]
    rate_ok = abs(report.r_key - r_exp) < 3 * report.r_key_se
    _verdict(
        f"C6 triggered-PDC leakage (MC rate {report.r_key:.5f} vs {r_exp:.5f})",
        closed_ok and rate_ok,
    )


def test_c07_attack_hit_probabilities(saturated_attack_report):
    report = saturated_attack_report
    touched = round(report.eve_touched_fraction * report.sifted_count)
    enough = report.sifted_count >= 1_000_000
    p_ae, p_eb = 8.0 / 9.0, 7.0 / 9.0
    ae_ok = abs(report.p_ae_hat - p_ae) < 3 * _se(p_ae, touched)
    eb_ok = abs(report.p_eb_hat - p_eb) < 3 * _se(p_eb, touched)
    order_ok = report.i_eb < report.i_ae < 1.0
    _verdict(
        f"C7 attack hit probabilities (p_AE {report.p_ae_hat:.4f}, "
        f"p_EB {report.p_eb_hat:.4f}, {report.sifted_count} sifted bits)",
        enough and ae_ok and eb_ok and order_ok,
    )


def test_c08_attack_induced_errors(saturated_attack_report):
    report = saturated_attack_report
    eps_target = 0.4 / 3.6
    saturated_ok = abs(report.epsilon - eps_target) < 3 * report.epsilon_se

    # rate-matched branch at small mean pair number
    mu, eta_a, eta_bl = 0.015, 0.5, 0.1
    config = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        mu=mu,
        eta_a=eta_a,
        eta_b=0.5,
        eta_l=0.2,
        trials=80_000_000,
        master_seed=42,
        workers=4,
        attack=PnsConfig(block_probability=AUTO),
    )
    matched = run_experiment(config)
    point = _resolve_run_params(config)
    (eps_prime,) = (entry for entry in PRINTED if entry.key == "eps_prime_formula")
    leading = eps_prime.value(
        FormulaPoint(Scheme.ENTANGLED_PAIRS, True, point.source.g, eta_a, eta_bl, 0.0, point.rates)
    )
    assert leading == pytest.approx((1.0 - eta_a) * mu / (4.0 * eta_bl), rel=1e-12)
    matched_ok = abs(matched.epsilon - leading) <= 0.15 * leading
    _verdict(
        f"C8 attack-induced errors (saturated {report.epsilon:.5f} vs "
        f"{eps_target:.5f}; rate-matched {matched.epsilon:.5f} vs leading "
        f"{leading:.5f})",
        saturated_ok and matched_ok,
    )


def test_c09_double_click_signature(saturated_attack_report):
    attacked_ok = saturated_attack_report.double_click_matched_count == 0
    config = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.3,
        eta_a=0.8,
        eta_b=0.9,
        eta_l=0.9,
        trials=2_000_000,
        master_seed=9,
    )
    report = run_experiment(config)
    oracle = exact_rates_oracle(0.3, 0.8, 0.81)
    se = _se(oracle.dc_matched, report.valid_trials)
    clean_ok = (
        report.double_click_matched_count > 0
        and abs(report.double_click_matched - oracle.dc_matched) < 3 * se
    )
    _verdict(
        f"C9 double-click signature (attacked count "
        f"{saturated_attack_report.double_click_matched_count}, clean rate "
        f"{report.double_click_matched:.5f} vs {oracle.dc_matched:.5f})",
        attacked_ok and clean_ok,
    )


def test_c10_two_photon_bunching():
    state = FockSuperposition({(0, 0, 1, 1): 1.0 + 0j})
    rotated = rotate_side(state, "B")
    p_cross = abs(rotated.amplitudes.get((0, 0, 1, 1), 0.0)) ** 2
    p_same0 = abs(rotated.amplitudes.get((0, 0, 2, 0), 0.0)) ** 2
    p_same1 = abs(rotated.amplitudes.get((0, 0, 0, 2), 0.0)) ** 2
    ok = (
        p_cross == 0.0
        and abs(p_same0 - 0.5) <= 1e-12
        and abs(p_same1 - 0.5) <= 1e-12
    )
    _verdict(
        f"C10 two-photon bunching (cross {p_cross:.1e}, same {p_same0:.3f}/"
        f"{p_same1:.3f})",
        ok,
    )


def test_c11_deterministic_reports():
    base = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.3,
        eta_a=0.8,
        eta_b=0.9,
        eta_l=0.9,
        trials=3 * BATCH_SIZE + 77,
        master_seed=11,
        attack=PnsConfig(block_probability=0.5),
    )
    reports = [
        run_experiment(dataclasses.replace(base, workers=w)) for w in (1, 2, 4)
    ]
    blobs = {json.dumps(r.to_dict(), sort_keys=True) for r in reports}
    _verdict("C11 determinism across reruns and worker counts", len(blobs) == 1)
