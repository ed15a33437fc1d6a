import dataclasses
import itertools

import pytest

from pdcqkd.analytics import (
    binary_information,
    exact_rates_oracle,
    pdc_rates_closed,
    wcs_attack_delivered,
    wcs_leakage,
)
from pdcqkd import eve
from pdcqkd.config import ConfigError, ExperimentConfig
from pdcqkd.detection import ChannelParams, compose_bob_efficiency
from pdcqkd.engine import _build_report, _Counts, _resolve_run_params
from pdcqkd.eve import (
    AUTO,
    PnsConfig,
    attack_rates,
    solve_block_probability,
)
from pdcqkd.source import Scheme, SourceParams

from conftest import resolved_point


class TestPnsConfig:
    def test_defaults(self):
        cfg = PnsConfig()
        assert cfg.block_probability == AUTO

    def test_blocking_probability_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(PnsConfig)] == ["block_probability"]
        with pytest.raises(TypeError):
            PnsConfig(guarantee_delivery=False)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            PnsConfig(block_probability=1.5)
        with pytest.raises(ValueError):
            PnsConfig(block_probability="half")


class TestIntercept:
    """The interposer's blocking probability, as the kernel receives it."""

    def test_auto_must_be_resolved_first(self):
        # the kernel gets the solved probability, never the AUTO marker
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, attack=PnsConfig(AUTO)
        )
        block = _resolve_run_params(config).block_probability
        assert isinstance(block, float)
        source = SourceParams(Scheme.ENTANGLED_PAIRS, g=0.3)
        solved = solve_block_probability(source, ChannelParams(eta_a=0.6))
        assert block == solved and 0.0 < block < 1.0

    def test_override_beats_config(self):
        # an explicit blocking probability is used as given, not solved for
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, attack=PnsConfig(0.25)
        )
        assert _resolve_run_params(config).block_probability == 0.25


class TestBlockSolver:
    def test_lossless_line_needs_no_blocking(self):
        # with no downstream loss the pass-everything attack matches exactly
        source = SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.1)
        channel = ChannelParams(eta_a=1.0, eta_b=1.0, eta_l=1.0)
        solved = solve_block_probability(source, channel)
        assert solved == pytest.approx(0.0, abs=1e-8)

    def test_rate_matching_residual(self):
        source = SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.1)
        channel = ChannelParams(eta_a=1.0, eta_b=0.5, eta_l=0.2)
        solved = solve_block_probability(source, channel)
        target = wcs_leakage(0.1, 0.1).r_exp
        delivered = wcs_attack_delivered(0.1, 1.0 - solved)
        assert delivered == pytest.approx(target, abs=1e-9)

    def test_saturation_detected(self):
        source = SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.5)
        channel = ChannelParams(eta_a=1.0, eta_b=1.0, eta_l=0.05)
        assert attack_rates(source, channel).saturated
        assert solve_block_probability(source, channel) == 1.0

    def test_resolve_handles_all_cases(self):
        # a saturated auto attack blocks every single photon; a given
        # probability is used as it is
        config = ExperimentConfig(scheme=Scheme.WEAK_COHERENT, mu_prime=0.5, eta_l=0.05)
        for attack, block in ((PnsConfig(AUTO), 1.0), (PnsConfig(0.25), 0.25)):
            point = _resolve_run_params(dataclasses.replace(config, attack=attack))
            assert point.block_probability == block

    def test_ep_solver_matches_oracle_target(self):
        from pdcqkd.analytics import ep_pns_oracle, exact_rates_oracle

        source = SourceParams(Scheme.ENTANGLED_PAIRS, g=0.0863)
        channel = ChannelParams(eta_a=0.5, eta_b=0.5, eta_l=0.2)
        solved = solve_block_probability(source, channel)
        assert isinstance(solved, float)
        target = exact_rates_oracle(0.0863, 0.5, 0.1).r_key
        delivered = ep_pns_oracle(0.0863, 0.5, 1.0 - solved).delivered_rate
        assert delivered == pytest.approx(target, abs=1e-9)


def bisected_block_probability(source, channel):
    """The rate match by bisection on the pass probability, to 1e-10, or None
    when saturated: the reference for the closed-form solve."""
    target = attack_rates(source, channel).r_exp
    if eve._delivered_rate(source, channel, 0.0) >= target:
        return None
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eve._delivered_rate(source, channel, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10:
            break
    return 1.0 - 0.5 * (lo + hi)


ETAS = (0.1, 0.5, 1.0)
SOLVER_POINTS = [
    (SourceParams(scheme, truncation_order=t, **{name: value}), ChannelParams(*etas))
    for scheme, name, values, truncations in (
        (Scheme.ENTANGLED_PAIRS, "g", (0.01, 0.1, 0.3, 0.6), (2, 3)),
        (Scheme.WEAK_COHERENT, "mu_prime", (0.01, 0.1, 0.5, 2.0), (2,)),
        (Scheme.TRIGGERED_PDC, "g", (0.01, 0.1, 0.3, 0.6), (2,)),
    )
    for value, t, etas in itertools.product(values, truncations, itertools.product(ETAS, repeat=3))
]


class TestClosedFormSolve:
    def test_agrees_with_bisection(self):
        verdicts = set()
        for source, channel in SOLVER_POINTS:
            solved = solve_block_probability(source, channel)
            reference = bisected_block_probability(source, channel)
            verdicts.add(reference is None)
            if reference is None:
                assert attack_rates(source, channel).saturated, (source, channel)
                assert solved == 1.0, (source, channel)
            else:
                assert solved == pytest.approx(reference, abs=1e-10), (source, channel)
        assert verdicts == {True, False}

    def test_delivered_rate_is_affine_in_pass_probability(self):
        for source, channel in SOLVER_POINTS:
            d0, d_half, d1 = (eve._delivered_rate(source, channel, p) for p in (0.0, 0.5, 1.0))
            assert d_half == pytest.approx(0.5 * (d0 + d1), rel=1e-15, abs=0.0)

    # the wcs rates come from their closed form; only an unsaturated solve
    # needs the all-pass rate
    @pytest.mark.parametrize("eta_l, calls", [(0.05, 0), (0.5, 1)])
    def test_at_most_two_delivered_rates(self, eta_l, calls, monkeypatch):
        seen = []
        real = eve._delivered_rate
        monkeypatch.setattr(eve, "_delivered_rate", lambda *a: seen.append(a) or real(*a))
        source = SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.5)
        solved = solve_block_probability(source, ChannelParams(eta_l=eta_l))
        assert len(seen) == calls
        assert (solved == 1.0) == (calls == 0)
        assert attack_rates(source, ChannelParams(eta_l=eta_l)).saturated == (calls == 0)

    @pytest.mark.parametrize("eta_l, calls", [(0.05, 0), (0.5, 1)])
    def test_given_rates_are_not_evaluated_again(self, eta_l, calls, monkeypatch):
        source = SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.5)
        channel = ChannelParams(eta_l=eta_l)
        rates = attack_rates(source, channel)
        expected = solve_block_probability(source, channel)
        seen = []
        real = eve._delivered_rate
        monkeypatch.setattr(eve, "_delivered_rate", lambda *a: seen.append(a) or real(*a))
        assert solve_block_probability(source, channel, rates) == expected
        assert len(seen) == calls

    def test_rates_are_the_unattacked_and_all_blocked_rates(self):
        for source, channel in SOLVER_POINTS:
            rates = attack_rates(source, channel)
            eta_bl = compose_bob_efficiency(channel)
            if source.scheme is Scheme.ENTANGLED_PAIRS:
                oracle = exact_rates_oracle(source.g, channel.eta_a, eta_bl, source.truncation_order)
                assert rates.r_exp == oracle.r_key
            elif source.scheme is Scheme.WEAK_COHERENT:
                assert rates.r_exp == wcs_leakage(source.mu_prime, eta_bl).r_exp
            else:
                assert rates.r_exp == pdc_rates_closed(source.g, channel.eta_a, eta_bl)[0]
            # bit for bit, though the prepared schemes read it from a closed form
            assert rates.r_multi == eve._delivered_rate(source, channel, 0.0)

    @pytest.mark.parametrize(
        "source, channel",
        [
            (SourceParams(Scheme.ENTANGLED_PAIRS, g=0.0), ChannelParams()),
            (SourceParams(Scheme.WEAK_COHERENT, mu_prime=0.5), ChannelParams(eta_l=0.0)),
            (SourceParams(Scheme.TRIGGERED_PDC, g=0.3), ChannelParams(eta_a=0.0)),
        ],
    )
    def test_no_rate_to_match_names_the_field(self, source, channel):
        with pytest.raises(ConfigError, match="^attack.block_probability: "):
            solve_block_probability(source, channel)


def report(attacked=True, **counts):
    point = resolved_point(Scheme.ENTANGLED_PAIRS, 0.5 if attacked else None, g=0.3)
    return _build_report(_Counts(trials=100, **counts), point)


class TestEmpiricalInformation:
    """Eve's information, folded from the sifted and touched tallies."""

    def test_requires_sifted_bits(self):
        rep = report(sifted=0)
        assert rep.i_ae is None and rep.i_eb is None

    def test_untouched_bits_carry_nothing(self):
        rep = report(sifted=10)
        assert rep.i_ae == 0.0 and rep.i_eb == 0.0
        assert rep.eve_touched_fraction == 0.0

    def test_certain_hits_give_full_information(self):
        rep = report(sifted=10, touched_sifted=10, eve_alice_hits=10, eve_bob_hits=10)
        assert rep.i_ae == pytest.approx(1.0)
        assert rep.i_eb == pytest.approx(1.0)
        assert rep.p_ae_hat == 1.0

    def test_mixed_groups_average(self):
        rep = report(sifted=10, touched_sifted=5, eve_alice_hits=5, eve_bob_hits=4)
        assert rep.eve_touched_fraction == 0.5
        assert rep.i_ae == pytest.approx(0.5)
        assert rep.i_eb == pytest.approx(0.5 * binary_information(0.8))

    def test_unattacked_run_has_no_information(self):
        rep = report(attacked=False, sifted=10)
        assert rep.i_ae is None and rep.i_eb is None


class TestReportNoneRule:
    """A rate over an empty denominator, and its standard error, is None."""

    def test_all_excluded_has_no_per_valid_rate(self):
        rep = report(excluded=100)
        assert rep.valid_trials == 0
        for name in (
            "r_key", "r_key_se", "r_err", "r_err_se", "double_click_matched",
            "double_click_matched_se", "double_click_mismatched", "double_click_mismatched_se",
            "bob_no_click_rate", "bob_no_click_se",
        ):
            assert getattr(rep, name) is None, name

    def test_no_sifted_bit_has_no_per_sifted_rate(self):
        rep = report(bob_no_click=100)
        assert rep.r_key == 0.0 and rep.r_key_se == 0.0
        assert rep.bob_no_click_rate == 1.0
        assert rep.epsilon is None and rep.epsilon_se is None
        assert rep.eve_touched_fraction is None
