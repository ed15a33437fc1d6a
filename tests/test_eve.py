import dataclasses
import itertools

import numpy as np
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
from pdcqkd.engine import (
    LOW,
    MULTI,
    _EpContext,
    _Interposer,
    _PreparedContext,
    _bob_thresholds,
    _build_report,
    _Counts,
    _resolve_run_params,
)
from pdcqkd.eve import (
    AUTO,
    PnsConfig,
    attack_rates,
    solve_block_probability,
)
from pdcqkd.source import Scheme, SourceParams

import pns_reference
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


def interposer_rows(tap):
    """Per row of the tabulated interposer ``tap``: its share of its entry's
    probability, the counts forwarded to Bob, and the ``(multi, stored,
    blocked)`` masks that the tally reads off the row's class bits: the
    stored mode is the low way, and a low row that is not multi is a blocked
    single photon."""
    multi, low = (tap.classes & MULTI) != 0, (tap.classes & LOW) != 0
    return tap.share, tap.f0, tap.f1, multi, low, low & ~multi


def intercept(counts, p_block):
    """The two rows of the tabulated interposer of one entry with ``counts``
    photons in Bob's two modes, high then low, as ``interposer_rows``."""
    b0, b1 = (np.array([n], dtype=np.int8) for n in counts)
    return interposer_rows(_Interposer.build(b0, b1, p_block))


class TestIntercept:
    """The tabulated PNS interposer on Bob's arm, on hand-built photon
    counts: each row's share of its entry, and what it forwards."""

    def test_vacuum_passes_untouched(self):
        # the truncation-exceeded entry of the ep joint table is vacuum too
        share, b0, b1, multi, _, blocked = intercept((0, 0), 1.0)
        np.testing.assert_array_equal(share, [1.0, 0.0])
        assert not b0[0] and not b1[0] and not multi[0] and not blocked[0]

    def test_single_always_blocked(self):
        share, b0, b1, multi, _, blocked = intercept((1, 0), 1.0)
        np.testing.assert_array_equal(share, [0.0, 1.0])
        assert blocked[1] and not multi[1] and not b0[1] and not b1[1]

    def test_single_never_blocked(self):
        share, b0, b1, _, _, blocked = intercept((0, 1), 0.0)
        np.testing.assert_array_equal(share, [1.0, 0.0])
        assert not blocked[0] and (b0[0], b1[0]) == (0, 1)

    def test_single_blocked_with_its_probability(self):
        share, b0, _, _, _, blocked = intercept((1, 0), 0.3)
        np.testing.assert_array_equal(share, [1.0 - 0.3, 0.3])
        np.testing.assert_array_equal(blocked, [False, True])
        np.testing.assert_array_equal(b0, [1, 0])

    def test_multi_photon_stores_exactly_one(self):
        for counts in ((2, 0), (0, 2), (1, 1), (3, 2)):
            share, b0, b1, multi, stored, blocked = intercept(counts, 1.0)
            assert multi.all() and not blocked.any()
            # a mode with no photon is a way of share 0
            np.testing.assert_array_equal(share == 0.0, np.array(counts) == 0)
            reached = share > 0.0
            np.testing.assert_array_equal((b0 + b1)[reached], sum(counts) - 1)
            np.testing.assert_array_equal(b0[reached], (counts[0] - ~stored)[reached])
            np.testing.assert_array_equal(b1[reached], (counts[1] - stored)[reached])

    def test_knowledge_classes(self):
        # both photons in one mode: the stored mode is certain
        np.testing.assert_array_equal(intercept((2, 0), 0.0)[0], [1.0, 0.0])
        np.testing.assert_array_equal(intercept((0, 2), 0.0)[0], [0.0, 1.0])
        # one photon per mode: each is stored half the time
        np.testing.assert_array_equal(intercept((1, 1), 0.0)[0], [0.5, 0.5])

    def test_stored_mode_is_uniform_over_photons(self):
        share, _, _, _, stored, _ = intercept((1, 2), 0.0)
        np.testing.assert_array_equal(stored, [False, True])
        assert share[1] == 2.0 / 3.0
        assert share[0] == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)

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


class TestOneWayPerRow:
    """An entry's two rows split its probability between the store choice
    and the block, which never apply to one signal."""

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    def test_no_row_is_both_multi_and_blocked(self, p_block):
        for counts in [(n0, n1) for n0 in range(4) for n1 in range(4)]:
            share, _, _, multi, _, blocked = intercept(counts, p_block)
            assert not (multi & blocked).any()
            assert share.sum() == 1.0

    def test_store_choice_shares(self):
        share, b0, b1, multi, stored, blocked = intercept((2, 1), 1.0)
        assert multi.all() and not blocked.any()
        np.testing.assert_array_equal(stored, [False, True])
        assert share[1] == 1.0 / 3.0 and share[0] == 1.0 - 1.0 / 3.0
        np.testing.assert_array_equal(b0, [1, 2])
        np.testing.assert_array_equal(b1, [1, 0])


class TestTabulatedInterposer:
    """The interposer tabulated per entry gives every row the share, the
    forwarded counts and the masks of the one way of the signal-by-signal
    rule in ``pns_reference`` that it stands for, at every entry, and share
    0 to a row that stands for no way."""

    @staticmethod
    def assert_matches_reference(tap, b0, b1, p_block):
        share, f0, f1, multi, stored, blocked = interposer_rows(tap)
        w_share, w0, w1, w_multi, w_low = pns_reference.rows(np.ones(len(b0)), b0, b1, p_block)
        # a high row's share is 1 - s, the rule's b0 / total, to rounding
        np.testing.assert_allclose(share, w_share, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(share == 0.0, w_share == 0.0)
        np.testing.assert_array_equal(stored, w_low)
        reached = w_share > 0.0
        for got, want in ((f0, w0), (f1, w1), (multi, w_multi), (blocked, w_low & ~w_multi)):
            np.testing.assert_array_equal(got[reached], want[reached])

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("truncation", [2, 3, 12])
    def test_ep_entries(self, truncation, p_block):
        ctx = _EpContext(resolved_point(
            Scheme.ENTANGLED_PAIRS, p_block, g=0.3, eta_a=0.6, truncation_order=truncation
        ))
        table = ctx.joint
        assert np.count_nonzero(ctx.interposer.classes & MULTI) > 0
        self.assert_matches_reference(ctx.interposer, table.b0, table.b1, p_block)

    def test_every_count_pair_to_the_deepest_truncation(self):
        pairs = [(n0, total - n0) for total in range(128) for n0 in range(total + 1)]
        b0, b1 = np.array(pairs, dtype=np.int8).T
        tap = _Interposer.build(b0, b1, 0.5)
        self.assert_matches_reference(tap, b0, b1, 0.5)

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scheme, x", [
        (Scheme.WEAK_COHERENT, 0.5), (Scheme.WEAK_COHERENT, 3.0), (Scheme.TRIGGERED_PDC, 0.3),
    ])
    def test_prepared_entries(self, scheme, x, p_block):
        # a prepared entry holds all its photons in the mode of Alice's bit,
        # so a multi-photon signal goes one way of the rule only, and the
        # entry's slot decides a single photon's block: each entry must give
        # the outcome of the rule's way that its slot stands for
        mean = {"mu_prime" if scheme is Scheme.WEAK_COHERENT else "g": x}
        ctx = _PreparedContext(resolved_point(scheme, p_block, eta_b=0.8, eta_l=0.5, **mean))
        entries = np.arange(len(ctx.classes))
        assert len(entries) == 32 * len(ctx.law)
        # the tally's multi and blocked masks and the stored mode, per entry
        multi_at, low_at = (ctx.classes & MULTI) != 0, (ctx.classes & LOW) != 0
        blocked_at = low_at & ~multi_at
        bob = _bob_thresholds(1.0, len(ctx.law) - 1)
        reached = []
        for entry in entries.tolist():
            photons, bit = entry >> 5, entry & 1
            for q, w0, w1, stored, blocked in pns_reference.ways(
                photons * (1 - bit), photons * bit, p_block
            ):
                if blocked != blocked_at[entry] or q == 0.0:
                    continue
                reached.append(entry)
                # every forwarded photon is in the mode of Alice's bit, and
                # Eve stores a photon of that mode, the entry's low way
                assert (w0, w1)[1 - bit] == 0
                assert q == 1.0 or photons == 1
                assert multi_at[entry] == (stored is not None)
                if stored is not None:
                    assert stored == bit == low_at[entry]
                # Bob's thresholds are those of the forwarded count with the
                # entry's combo
                for got, want in zip(ctx.bob, bob):
                    assert got[entry] == want[8 * (w0 + w1) + entry % 8]
        # the entries that a way of nonzero probability reaches: every one
        # at n != 1 that is not blocked, and at n = 1 those on the side of
        # p_block that has probability
        possible = np.where(
            (entries >> 5) == 1, np.where(blocked_at, p_block > 0, p_block < 1), ~blocked_at
        )
        np.testing.assert_array_equal(np.isin(entries, reached), possible)


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
