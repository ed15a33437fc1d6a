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
from conftest import freq_se, resolved_point


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


def interposer_rows(tap, entry, u):
    """The rows ``2 j + low`` that the kernel gives entries ``entry`` of the
    tabulated interposer ``tap`` on their uniforms ``u``, and the ``(multi,
    stored, blocked)`` masks that the tally reads off the rows' class bits:
    the stored mode is the low way, and a low row that is not multi is a
    blocked single photon."""
    row = 2 * entry + (u < tap.split.take(entry))
    classes = tap.classes.take(row)
    multi, low = (classes & MULTI) != 0, (classes & LOW) != 0
    return row, (multi, low, low & ~multi)


def entry_multi(tap):
    """Whether each entry of ``tap`` is multi, from its rows' class bits."""
    return (tap.classes[::2] & MULTI) != 0


def intercept(counts, p_block, u=0.5):
    """The tabulated interposer on events that all carry ``counts`` photons
    in Bob's two modes, one event per uniform: the forwarded counts and the
    ``(multi, stored, blocked)`` masks, as the kernel reads them."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    b0, b1 = (np.array([n], dtype=np.int8) for n in counts)
    tap = _Interposer.build(b0, b1, p_block)
    row, (multi, stored, blocked) = interposer_rows(tap, np.zeros(len(u), dtype=np.intp), u)
    return tap.f0.take(row), tap.f1.take(row), multi, stored, blocked


# the last double below 1: the largest uniform a generator returns
U_MAX = np.nextafter(1.0, 0.0)
EDGES = [0.0, 0.25, 0.5, U_MAX]


class TestIntercept:
    """The tabulated PNS interposer on Bob's arm, on hand-built photon
    counts."""

    def test_vacuum_passes_untouched(self):
        # the truncation-exceeded entry of the ep joint table is vacuum too
        b0, b1, multi, _, blocked = intercept((0, 0), 1.0, EDGES)
        assert not b0.any() and not b1.any()
        assert not multi.any() and not blocked.any()

    def test_single_always_blocked(self):
        b0, b1, multi, _, blocked = intercept((1, 0), 1.0, EDGES)
        assert blocked.all() and not multi.any()
        assert not b0.any() and not b1.any()

    def test_single_never_blocked(self):
        b0, b1, _, _, blocked = intercept((0, 1), 0.0, EDGES)
        assert not blocked.any()
        assert (b0 == 0).all() and (b1 == 1).all()

    def test_single_blocked_below_threshold(self):
        b0, _, _, _, blocked = intercept((1, 0), 0.5, [0.0, 0.4999, 0.5, U_MAX])
        np.testing.assert_array_equal(blocked, [True, True, False, False])
        np.testing.assert_array_equal(b0, [0, 0, 1, 1])

    def test_multi_photon_stores_exactly_one(self):
        u = np.random.default_rng(37).random(200)
        for counts in ((2, 0), (0, 2), (1, 1), (3, 2)):
            b0, b1, multi, stored, blocked = intercept(counts, 1.0, u)
            assert multi.all() and not blocked.any()
            np.testing.assert_array_equal(b0 + b1, sum(counts) - 1)
            np.testing.assert_array_equal(b0, counts[0] - ~stored)
            np.testing.assert_array_equal(b1, counts[1] - stored)

    def test_knowledge_classes(self):
        # both photons in one mode: the stored mode is certain
        assert not intercept((2, 0), 0.0, EDGES)[3].any()
        assert intercept((0, 2), 0.0, EDGES)[3].all()
        # one photon per mode: each is stored half the time
        n = 60_000
        u = np.random.default_rng(43).random(n)
        freq = intercept((1, 1), 0.0, u)[3].mean()
        assert abs(freq - 0.5) < 5 * freq_se(0.5, n)

    def test_stored_mode_is_uniform_over_photons(self):
        n = 60_000
        u = np.random.default_rng(41).random(n)
        freq = intercept((1, 2), 0.0, u)[3].mean()
        assert abs(freq - 2.0 / 3.0) < 5 * freq_se(2.0 / 3.0, n)

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


class TestSharedInterposerUniform:
    """One uniform decides both the store choice and the block: they never
    apply to one event."""

    GRID = np.arange(1 << 12) / (1 << 12)

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    def test_no_event_is_both_multi_and_blocked(self, p_block):
        for counts in [(n0, n1) for n0 in range(4) for n1 in range(4)]:
            _, _, multi, _, blocked = intercept(counts, p_block, self.GRID)
            assert not (multi & blocked).any()

    def test_store_choice_on_the_shared_uniform(self):
        b0, b1, multi, stored, blocked = intercept((2, 1), 1.0, self.GRID)
        assert multi.all() and not blocked.any()
        np.testing.assert_array_equal(stored, self.GRID < 1.0 / 3.0)
        np.testing.assert_array_equal(b1, np.where(self.GRID < 1.0 / 3.0, 0, 1))


class TestTabulatedInterposer:
    """The interposer tabulated per entry gives, bit for bit, the forwarded
    counts and masks of the trial-by-trial rule in ``pns_reference``, at
    every entry and at the uniforms where an outcome can turn."""

    @staticmethod
    def edge_uniforms(split):
        """Per entry: 0, U_MAX, its split and one ulp either side of it, all
        clipped to the uniforms a generator returns."""
        u = np.stack([
            np.zeros_like(split), np.full_like(split, U_MAX), split,
            np.nextafter(split, -np.inf), np.nextafter(split, np.inf),
        ], axis=1)
        return np.clip(u, 0.0, U_MAX)

    def assert_matches_reference(self, tap, b0, b1, p_block):
        u = self.edge_uniforms(tap.split)
        entry = np.repeat(np.arange(len(b0)), u.shape[1])
        u = u.ravel()
        row, (multi, stored, blocked) = interposer_rows(tap, entry, u)
        w0, w1, w_multi, w_stored, w_blocked = pns_reference.intercept(
            u, b0.take(entry), b1.take(entry), p_block
        )
        np.testing.assert_array_equal(tap.f0.take(row), w0)
        np.testing.assert_array_equal(tap.f1.take(row), w1)
        np.testing.assert_array_equal(multi, w_multi)
        np.testing.assert_array_equal(blocked, w_blocked)
        # the stored mode is meaningful, and read by the tally, where multi
        np.testing.assert_array_equal(stored[multi], w_stored[multi])
        # split is the turning point: the rule stores mode 1 one ulp below it
        # and not at it
        turning = entry_multi(tap) & (tap.split > 0.0) & (tap.split < 1.0)
        below = np.nextafter(tap.split[turning], 0.0)
        total = (b0 + b1)[turning]
        assert np.all(below * total < b1[turning])
        assert np.all(tap.split[turning] * total >= b1[turning])
        return entry, row, w0, w1

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("truncation", [2, 3, 12])
    def test_ep_entries(self, truncation, p_block):
        ctx = _EpContext(resolved_point(
            Scheme.ENTANGLED_PAIRS, p_block, g=0.3, eta_a=0.6, truncation_order=truncation
        ))
        table = ctx.joint
        assert np.count_nonzero(entry_multi(ctx.interposer)) > 0
        self.assert_matches_reference(ctx.interposer, table.b0, table.b1, p_block)

    def test_every_count_pair_to_the_deepest_truncation(self):
        # the rounded quotient b1 / total is one ulp off the least split on
        # either side for some pairs past total 12
        pairs = [(n0, total - n0) for total in range(128) for n0 in range(total + 1)]
        b0, b1 = np.array(pairs, dtype=np.int8).T
        total = b0 + b1
        quotient = np.divide(b1, total, out=np.zeros(len(total)), where=total > 0)
        tap = _Interposer.build(b0, b1, 0.5)
        assert np.any(entry_multi(tap) & (tap.split > quotient))
        assert np.any(entry_multi(tap) & (tap.split < quotient))
        self.assert_matches_reference(tap, b0, b1, 0.5)

    @pytest.mark.parametrize("p_block", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("scheme, x", [
        (Scheme.WEAK_COHERENT, 0.5), (Scheme.WEAK_COHERENT, 3.0), (Scheme.TRIGGERED_PDC, 0.3),
    ])
    def test_prepared_entries(self, scheme, x, p_block):
        # a prepared entry holds all its photons in the mode of Alice's bit,
        # so only a single photon's block depends on the uniform, and the
        # entry's slot decides that: its tables must give the rule's outcome
        # at every uniform on the entry's side of p_block
        mean = {"mu_prime" if scheme is Scheme.WEAK_COHERENT else "g": x}
        ctx = _PreparedContext(resolved_point(scheme, p_block, eta_b=0.8, eta_l=0.5, **mean))
        entries = np.arange(len(ctx.classes))
        assert len(entries) == 32 * len(ctx.law)
        # the tally's multi and blocked masks and the stored mode, per entry
        multi_at, low_at = (ctx.classes & MULTI) != 0, (ctx.classes & LOW) != 0
        blocked_at = low_at & ~multi_at
        grid = np.clip([0.0, 0.25, 0.5, U_MAX, p_block, np.nextafter(p_block, 0.0)], 0.0, U_MAX)
        entry, u = (a.ravel() for a in np.meshgrid(entries, grid, indexing="ij"))
        photons, bit = entry >> 5, entry & 1
        w0, w1, multi, stored, blocked = pns_reference.intercept(
            u, photons * (1 - bit), photons * bit, p_block
        )
        # the uniforms that reach an entry: every one at n != 1 when it is
        # not blocked, and at n = 1 those on the entry's side of p_block
        reached = blocked == blocked_at.take(entry)
        possible = np.where(
            (entries >> 5) == 1, np.where(blocked_at, p_block > 0, p_block < 1), ~blocked_at
        )
        np.testing.assert_array_equal(np.isin(entries, entry[reached]), possible)
        entry, bit, w0, w1, multi, stored = (
            a[reached] for a in (entry, bit, w0, w1, multi, stored)
        )
        # every forwarded photon is in the mode of Alice's bit
        forwarded = w0 + w1
        assert not np.any(w0 * bit) and not np.any(w1 * (1 - bit))
        np.testing.assert_array_equal(multi, multi_at.take(entry))
        # Eve stores a photon of Alice's bit, the entry's low way
        np.testing.assert_array_equal(stored[multi], bit[multi] == 1)
        np.testing.assert_array_equal(stored[multi], low_at.take(entry)[multi])
        # Bob's thresholds at each entry are those of its forwarded photon
        # count with its combo
        bob = _bob_thresholds(1.0, len(ctx.law) - 1)
        for got, want in zip(ctx.bob, bob):
            np.testing.assert_array_equal(got.take(entry), want.take(8 * forwarded + entry % 8))


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
            "double_click_mismatched", "bob_no_click_rate",
        ):
            assert getattr(rep, name) is None, name

    def test_no_sifted_bit_has_no_per_sifted_rate(self):
        rep = report(bob_no_click=100)
        assert rep.r_key == 0.0 and rep.r_key_se == 0.0
        assert rep.bob_no_click_rate == 1.0
        assert rep.epsilon is None and rep.epsilon_se is None
        assert rep.eve_touched_fraction is None
