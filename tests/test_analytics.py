import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcqkd import eve, fock
from pdcqkd.analytics import (
    PRINTED,
    AttackRates,
    FormulaPoint,
    _bob_arm,
    binary_information,
    ep_pns_oracle,
    ep_rates_approx,
    eq10_information,
    exact_rates_oracle,
    pdc_attack_delivered,
    pdc_rates_closed,
    wcs_attack_delivered,
    wcs_leakage,
)
from pdcqkd.detection import ChannelParams
from pdcqkd.source import Scheme, SourceParams

from pdc_reference import pdc_rates_series


def printed(scheme, attacked, g=0.0, eta_a=1.0, eta_bl=1.0, mu_prime=0.0, rates=None):
    """Every ``PRINTED`` entry's value at one point, by row key."""
    point = FormulaPoint(scheme, attacked, g, eta_a, eta_bl, mu_prime, rates)
    return {entry.key: entry.value(point) for entry in PRINTED}


class TestBinaryInformation:
    def test_endpoints_and_midpoint(self):
        assert binary_information(0.0) == 1.0
        assert binary_information(1.0) == 1.0
        assert binary_information(0.5) == pytest.approx(0.0, abs=1e-15)

    def test_known_value(self):
        # 1 - h(1/9), the information of a guess correct 8 times out of 9
        assert binary_information(1.0 / 9.0) == pytest.approx(
            0.49674166522435415, abs=1e-12
        )
        assert binary_information(8.0 / 9.0) == pytest.approx(
            0.49674166522435415, abs=1e-12
        )

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_range(self, p):
        value = binary_information(p)
        assert 0.0 <= value <= 1.0
        assert value == pytest.approx(binary_information(1.0 - p), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binary_information(-0.1)


class TestGroupInformation:
    def test_weighted_average(self):
        # half the bits known perfectly, half guessed at random
        assert eq10_information([(0.5, 1.0), (0.5, 0.5)]) == pytest.approx(0.5)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            eq10_information([(0.5, 1.0), (0.4, 0.5)])
        with pytest.raises(ValueError):
            eq10_information([(-0.5, 1.0), (1.5, 0.5)])


class TestEntangledPairRates:
    def test_oracle_epsilon_equals_ratio_form(self):
        # the exact enumeration reduces to the closed ratio at truncation 2
        for g, eta_a, eta_bl in ((0.1, 0.5, 0.1), (0.3, 0.8, 0.5), (0.05, 0.2, 0.9)):
            oracle = exact_rates_oracle(g, eta_a, eta_bl)
            _, _, eps = ep_rates_approx(g, eta_a, eta_bl)
            assert oracle.epsilon == pytest.approx(eps, abs=1e-14)

    def test_formula_close_to_oracle(self):
        g, eta_a, eta_bl = 0.1, 0.5, 0.1
        oracle = exact_rates_oracle(g, eta_a, eta_bl)
        r_key, r_err, _ = ep_rates_approx(g, eta_a, eta_bl)
        assert r_key == pytest.approx(oracle.r_key, rel=6 * g * g)
        assert r_err == pytest.approx(oracle.r_err, rel=6 * g * g)

    def test_perfect_alice_has_no_errors(self):
        oracle = exact_rates_oracle(0.2, 1.0, 0.3)
        assert oracle.r_err == 0.0
        assert oracle.epsilon == 0.0

    @given(
        g=st.floats(min_value=0.01, max_value=0.6),
        eta_a=st.floats(min_value=0.05, max_value=1.0),
        eta_bl=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_oracle_invariants(self, g, eta_a, eta_bl):
        oracle = exact_rates_oracle(g, eta_a, eta_bl)
        assert 0.0 <= oracle.r_err <= oracle.r_key <= 0.5
        assert oracle.epsilon == pytest.approx(
            oracle.r_err / oracle.r_key, abs=1e-14
        )
        assert 0.0 < oracle.retained_mass <= 1.0

    def test_vacuum_source_has_no_key(self):
        oracle = exact_rates_oracle(0.0, 0.5, 0.5)
        assert oracle.r_key == 0.0
        assert oracle.epsilon is None


class TestLeakage:
    def test_wcs_rates_closed_forms(self):
        report = wcs_leakage(0.1, 0.1)
        assert report.r_exp == pytest.approx(0.5 * (1 - math.exp(-0.01)), abs=1e-15)
        assert report.r_multi == pytest.approx(
            0.5 * (1 - 1.1 * math.exp(-0.1)), abs=1e-15
        )
        assert not report.saturated
        assert report.information(1.0) == pytest.approx(
            report.r_multi / report.r_exp, abs=1e-15
        )

    def test_wcs_saturated_branch(self):
        # multi-photon rate alone already exceeds the lossy delivered rate
        report = wcs_leakage(0.5, 0.05)
        assert report.saturated
        assert report.information(1.0) == 1.0

    def test_wcs_leading_order(self):
        rates = wcs_leakage(0.01, 0.5)
        leading = printed(Scheme.WEAK_COHERENT, False, eta_bl=0.5, mu_prime=0.01, rates=rates)
        assert leading["i_e_formula"] == pytest.approx(0.01, abs=1e-15)
        assert rates.information(1.0) == pytest.approx(leading["i_e_formula"], rel=0.02)

    def test_pdc_closed_matches_series(self):
        for g in (0.1, 0.3, 0.5):
            for eta in (0.1, 0.5, 0.9):
                closed = pdc_rates_closed(g, 0.8, eta)
                series = pdc_rates_series(g, 0.8, eta)
                assert closed[0] == pytest.approx(series[0], abs=1e-12)
                assert closed[1] == pytest.approx(series[1], abs=1e-12)

    def test_pdc_leading_order(self):
        g, eta_a, eta = 0.05, 0.8, 0.5
        rates = AttackRates(*pdc_rates_closed(g, eta_a, eta))
        leading = printed(Scheme.TRIGGERED_PDC, False, g, eta_a, eta, rates=rates)
        mu2 = g * g / (1 - g * g)
        assert leading["i_e_formula"] == pytest.approx((2 - eta_a) / eta * mu2, abs=1e-15)
        assert rates.information(1.0) == pytest.approx(leading["i_e_formula"], rel=0.03)

    def test_pdc_zero_gain(self):
        rates = AttackRates(*pdc_rates_closed(0.0, 0.8, 0.5))
        assert rates.r_exp == 0.0
        assert rates.information(1.0) is None
        leading = printed(Scheme.TRIGGERED_PDC, True, 0.0, 0.8, 0.5, rates=rates)
        assert leading["i_e_formula"] is None


class TestAttackDeliveredRates:
    @given(q=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_ep_monotone_in_pass_probability(self, q):
        base = ep_pns_oracle(0.2, 0.7, 0.0).delivered_rate
        assert ep_pns_oracle(0.2, 0.7, q).delivered_rate >= base - 1e-15

    def test_wcs_blocked_singles_leave_multi_rate(self):
        mu = 0.1
        assert wcs_attack_delivered(mu, 0.0) == pytest.approx(
            wcs_leakage(mu, 1.0).r_multi, abs=1e-15
        )

    def test_pdc_blocked_singles_leave_multi_rate(self):
        g, eta_a = 0.3, 0.8
        assert pdc_attack_delivered(g, eta_a, 0.0) == pytest.approx(
            pdc_rates_closed(g, eta_a, 0.4)[1], abs=1e-15
        )

    def test_full_pass_lossless_exceeds_lossy_rate(self):
        # a lossless forwarding line always over-delivers versus a lossy one
        g, eta_a = 0.2, 0.7
        lossy = exact_rates_oracle(g, eta_a, 0.3).r_key
        assert ep_pns_oracle(g, eta_a, 1.0).delivered_rate > lossy


class TestAttackRates:
    def test_saturation_rule(self):
        assert AttackRates(0.1, 0.1).saturated
        assert not AttackRates(0.1, 0.05).saturated
        # no unattacked rate: nothing to hide behind, so never saturated
        assert not AttackRates(0.0, 0.05).saturated

    def test_eq10_branch(self):
        assert AttackRates(0.1, 0.2).information(0.75) == 0.75
        assert AttackRates(0.2, 0.05).information(0.8) == pytest.approx(0.2)
        assert AttackRates(0.0, 0.05).information(0.8) is None

    def test_leakage_reports_are_rates(self):
        assert type(wcs_leakage(0.1, 0.1)) is AttackRates


def ep_rates(g, eta_a, eta_bl, truncation=2):
    """The attack rates of an entangled-pair point, from its two oracles."""
    return AttackRates(
        exact_rates_oracle(g, eta_a, eta_bl, truncation).r_key,
        ep_pns_oracle(g, eta_a, 0.0, truncation).delivered_rate,
    )


class TestAttackOracle:
    def test_saturated_hit_probabilities(self):
        oracle = ep_pns_oracle(0.6, 0.6, pass_probability=0.0)
        assert oracle.p_ae == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert oracle.p_eb == pytest.approx(7.0 / 9.0, abs=1e-12)
        assert oracle.touched_fraction == 1.0
        assert oracle.dc_matched == 0.0

    def test_saturated_error_rate(self):
        oracle = ep_pns_oracle(0.6, 0.6, pass_probability=0.0)
        assert oracle.error_rate == pytest.approx(0.4 / 3.6, abs=1e-12)

    @pytest.mark.parametrize("g, truncation, pass_probability", [
        (0.3, 2, 0.5), (0.3, 3, 0.0), (0.6, 6, 1.0), (0.7, 12, 0.0), (0.9, 20, 0.3),
    ])
    def test_mismatched_rounds_match_the_matched_sums(self, g, truncation, pass_probability):
        # every occupation of every sector table in a mismatched round, Bob's
        # arm through the interposer's ways and then his ideal detectors
        xi4 = (1.0 - g * g) ** 2
        retained = dc = no_click = 0.0
        for total in range(truncation + 1):
            sector_w = (total + 1) * xi4 * g ** (2 * total)
            retained += sector_w
            for (_, _, b0, b1), q in zip(*fock.sector_distribution(total)):
                for p, f0, f1, _ in _bob_arm(b0, b1, pass_probability):
                    dc += sector_w * q * p * (f0 > 0 and f1 > 0)
                    no_click += sector_w * q * p * (f0 == f1 == 0)
        oracle = ep_pns_oracle(g, 0.6, pass_probability, truncation)
        assert 0.5 * dc / retained == pytest.approx(oracle.dc_matched, rel=1e-12)
        # both bases give Bob's arm one law, so one basis's rate is the rate
        assert no_click / retained == pytest.approx(oracle.bob_no_click, rel=1e-12)

    @pytest.mark.parametrize("truncation", [1, -1])
    def test_rejects_truncation_below_two(self, truncation):
        with pytest.raises(ValueError, match="^truncation"):
            ep_pns_oracle(0.3, 0.6, 0.5, truncation)

    def test_quantities_branching(self):
        rates = ep_rates(0.6, 0.6, 0.1)
        q = printed(Scheme.ENTANGLED_PAIRS, True, 0.6, 0.6, 0.1, rates=rates)
        assert rates.saturated
        assert q["p_ae_formula"] == pytest.approx(8.0 / 9.0, abs=1e-12)
        assert q["p_eb_formula"] == pytest.approx(7.0 / 9.0, abs=1e-12)
        assert q["eps_prime_formula"] == pytest.approx(0.4 / 3.6, abs=1e-12)
        assert q["i_ab_formula"] == binary_information(q["eps_prime_formula"])
        i_ae = rates.information(binary_information(q["p_ae_formula"]))
        assert q["i_eb_formula"] < i_ae < 1.0

    def test_rate_matched_branch_small_gain(self):
        # at small gain the singles rate dominates, so blocking can match it;
        # the printed leading order is then near the exact error rate there
        g, eta_a, eta_b, eta_l = 0.0863, 0.5, 0.5, 0.2
        rates = ep_rates(g, eta_a, eta_b * eta_l)
        q = printed(Scheme.ENTANGLED_PAIRS, True, g, eta_a, eta_b * eta_l, rates=rates)
        assert not rates.saturated
        mu = 2 * g * g / (1 - g * g)
        assert q["eps_prime_formula"] == (1 - eta_a) * mu / (4 * eta_b * eta_l)
        block = eve.solve_block_probability(
            SourceParams(Scheme.ENTANGLED_PAIRS, g=g), ChannelParams(eta_a, eta_b, eta_l), rates
        )
        exact = ep_pns_oracle(g, eta_a, 1.0 - block).error_rate
        assert q["eps_prime_formula"] == pytest.approx(exact, rel=0.1)
        assert q["i_eb_formula"] < binary_information(q["p_eb_formula"])


class TestPrintedTable:
    """``PRINTED`` entries that read the attack rates need a sifted rate."""

    def test_rate_entries_are_null_without_a_sifted_rate(self):
        q = printed(Scheme.ENTANGLED_PAIRS, True, 0.3, 0.6, 0.0, rates=AttackRates(0.0, 0.01))
        reading = {entry.key for entry in PRINTED if entry.reads_rates}
        assert reading == {"i_eb_formula", "eps_prime_formula", "i_ab_formula", "i_e_formula"}
        assert all(q[key] is None for key in reading)
        assert q["p_ae_formula"] == (5 - 3 * 0.6) / (6 - 4 * 0.6)


class TestPinnedOracles:
    """Every field of both oracles, bit for bit, on a grid recorded from the
    two separate matched-basis enumerations that ``_matched_basis`` replaced.

    Keys are "g eta_a eta_bl truncation" for ``exact_rates_oracle`` and
    "g eta_a pass_probability truncation" for ``ep_pns_oracle``; values are
    ``float.hex`` strings (null for None) in the order of ``FIELDS``.
    """

    PINS = json.loads(Path(__file__).with_name("oracle_pins.json").read_text())
    FIELDS = {
        "exact_rates_oracle": (
            "r_key", "r_err", "epsilon", "dc_matched", "dc_mismatched",
            "bob_no_click", "retained_mass",
        ),
        "ep_pns_oracle": (
            "delivered_rate", "error_rate", "p_ae", "p_eb", "touched_fraction",
            "i_ae", "i_eb", "dc_matched",
        ),
    }

    @pytest.mark.parametrize("oracle", [exact_rates_oracle, ep_pns_oracle])
    def test_fields_match_the_pinned_values(self, oracle):
        pins = self.PINS[oracle.__name__]
        assert len(pins) == 4 * 3 * 3 * 3
        for key, expected in pins.items():
            g, eta_a, third, truncation = key.split()
            result = oracle(float(g), float(eta_a), float(third), int(truncation))
            got = [
                None if value is None else value.hex()
                for value in (getattr(result, f) for f in self.FIELDS[oracle.__name__])
            ]
            assert got == expected, key
