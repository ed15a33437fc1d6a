import dataclasses
import functools
import hashlib
import itertools
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pdcqkd import engine
from pdcqkd.analytics import (
    binary_information,
    ep_pns_oracle,
    exact_rates_oracle,
    pdc_attack_delivered,
    pdc_rates_closed,
    wcs_attack_delivered,
    wcs_leakage,
)
from pdcqkd.config import ConfigError, ExperimentConfig
from pdcqkd.engine import (
    BATCH_SIZE,
    STREAM_VERSION,
    _EpContext,
    _PreparedContext,
    _batch_rng,
    _COUNT_FIELDS,
    _Counts,
    _ep_batch,
    _pair_thresholds,
    _prepared_batch,
    _resolve_run_params,
    _two_detectors,
    run_experiment,
    run_experiments,
)
from pdcqkd.eve import PnsConfig
from pdcqkd.source import AUTO, Scheme, SourceParams, pair_distribution

from conftest import alias_probabilities, resolved_point


def ep_config(**overrides):
    base = dict(
        scheme=Scheme.ENTANGLED_PAIRS,
        g=0.3,
        eta_a=0.8,
        eta_b=0.9,
        eta_l=1.0,
        trials=600_000,
        master_seed=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def exact_law(ctx) -> dict[str, float]:
    """Each ``_Counts`` tally's exact per-trial probability under a run
    context's tables: a sum over its rows of the probability that its alias
    table draws the row, the row's class bits and the probability of Bob's
    outcome, read off the row's thresholds."""
    w = alias_probabilities(ctx.cut, ctx.alias)
    # the padding past the last row is never drawn
    assert not w[len(ctx.classes) :].any()
    w = w[: len(ctx.classes)]
    d0, d1_lo, d1_hi = ctx.bob
    both = np.maximum(np.minimum(d0, d1_hi) - d1_lo, 0.0)
    d0_only, d1_only = d0 - both, d1_hi - d1_lo - both
    single = d0_only + d1_only
    flag = {name: (ctx.classes & getattr(engine, name)) != 0 for name in (
        "PRESENT", "ANNOUNCED", "KEPT", "CANDIDATE", "BIT", "MULTI", "LOW", "HERALD"
    )}
    touched = flag["CANDIDATE"] & flag["MULTI"]
    return dict(
        excluded=w[~flag["PRESENT"]].sum(),
        sifted=(w * single)[flag["CANDIDATE"]].sum(),
        # Bob's click opposite to Alice's bit
        errors=(w * np.where(flag["BIT"], d0_only, d1_only))[flag["CANDIDATE"]].sum(),
        dc_matched=(w * both)[flag["KEPT"]].sum(),
        dc_mismatched=(w * both)[flag["ANNOUNCED"] & ~flag["KEPT"]].sum(),
        bob_no_click=(w * (1.0 - single - both))[flag["PRESENT"]].sum(),
        triggered=w[flag["HERALD"]].sum() if ctx.heralds else 0.0,
        touched_sifted=(w * single)[touched].sum(),
        eve_alice_hits=(w * single)[touched & (flag["LOW"] == flag["BIT"])].sum(),
        eve_bob_hits=(w * np.where(flag["LOW"], d1_only, d0_only))[touched].sum(),
        blocked=w[flag["LOW"] & ~flag["MULTI"]].sum(),
    )


def ep_law(params) -> dict[str, float]:
    """An ``ep`` point's tallies from the oracles: ``exact_rates_oracle``
    without the attack, ``ep_pns_oracle`` under it, and the truncation tail."""
    source, eta_a = params.source, params.config.eta_a
    g, truncation = source.g, source.truncation_order
    dist = pair_distribution(source)
    block = params.block_probability
    if block is None:
        o = exact_rates_oracle(g, eta_a, params.bob_eta, truncation)
        per_valid = dict(
            sifted=o.r_key, errors=o.r_err, dc_matched=o.dc_matched,
            dc_mismatched=o.dc_mismatched, bob_no_click=o.bob_no_click,
        )
    else:
        o = ep_pns_oracle(g, eta_a, 1.0 - block, truncation)
        touched = o.delivered_rate * (o.touched_fraction or 0.0)
        per_valid = dict(
            sifted=o.delivered_rate, errors=o.delivered_rate * (o.error_rate or 0.0),
            dc_matched=o.dc_matched, dc_mismatched=o.dc_matched, bob_no_click=o.bob_no_click,
            touched_sifted=touched, eve_alice_hits=touched * (o.p_ae or 0.0),
            eve_bob_hits=touched * (o.p_eb or 0.0),
        )
    valid = 1.0 - dist.tail
    law = {k: v * valid for k, v in per_valid.items()}
    law["excluded"] = dist.tail
    if block is not None:
        # a single photon at Bob, (0, 1) or (1, 0) in either basis, is blocked
        law["blocked"] = block * dist.probabilities[1:3].sum()
    return law


def prepared_law(params) -> dict[str, float]:
    """A ``wcs``/``pdc`` point's tallies: the sifted rate from the library's
    closed forms, the rest from the photon-number law P(n) through its
    generating function G(x) = sum P(n) x^n, and that of the heralded
    signals, H(x) = sum P(n) F(n) x^n, where the herald fires with
    F(n) = 1 - (1 - eta_a)^n (always for ``wcs``).  Every photon of a
    prepared signal is in the mode of Alice's bit, so no matched-basis round
    errs or double-clicks, and the photon Eve stores carries both bits."""
    source, eta_a, block = params.source, params.config.eta_a, params.block_probability
    g, mu = source.g, source.mu_prime
    if source.scheme is Scheme.WEAK_COHERENT:
        def G(x):
            return math.exp(-mu * (1.0 - x))

        H, p1, fire1 = G, mu * math.exp(-mu), 1.0
        rate = wcs_leakage(mu, params.bob_eta).r_exp
        delivered = functools.partial(wcs_attack_delivered, mu)
    else:
        def G(x):
            return (1.0 - g * g) / (1.0 - g * g * x)

        def H(x):
            return G(x) - G(x * (1.0 - eta_a))

        p1, fire1 = (1.0 - g * g) * g * g, eta_a
        rate = pdc_rates_closed(g, eta_a, params.bob_eta)[0]
        delivered = functools.partial(pdc_attack_delivered, g, eta_a)
    law = dict(triggered=H(1.0))
    if block is None:
        # in mismatched bases each photon reaches D0 or D1 with eta / 2
        eta = params.bob_eta
        return dict(
            law, sifted=rate, bob_no_click=G(1.0 - eta),
            dc_mismatched=0.5 * (H(1.0) - 2.0 * H(1.0 - eta / 2) + H(1.0 - eta)),
        )
    touched = delivered(0.0)
    # Bob detects every photon forwarded to him, n - 1 of a multi-photon
    # signal, split 50:50 in mismatched bases: both fire with 1 - 4 / 2^n at
    # n >= 2, and the sum over n >= 2 drops H's terms at n = 0 and 1
    return dict(
        law, sifted=delivered(1.0 - block), bob_no_click=G(0.0) + block * p1,
        dc_mismatched=0.5 * (H(1.0) - 4.0 * H(0.5) + 3.0 * H(0.0) + p1 * fire1),
        touched_sifted=touched, eve_alice_hits=touched, eve_bob_hits=touched,
        blocked=block * p1,
    )


def oracle_law(params) -> dict[str, float]:
    """The tallies of ``exact_law`` from the oracles and closed forms, 0
    where a point's oracle has no term."""
    ep = params.source.scheme is Scheme.ENTANGLED_PAIRS
    law = dict.fromkeys(_COUNT_FIELDS[1:], 0.0)
    law.update(ep_law(params) if ep else prepared_law(params))
    return law


def source_fields(scheme, x):
    """The config field of a source's mean: ``mu_prime`` for wcs, else ``g``."""
    return {"mu_prime" if scheme is Scheme.WEAK_COHERENT else "g": x}


class TestTableLaw:
    """Every run context's tables give every tally the law of the oracles."""

    EP = [(Scheme.ENTANGLED_PAIRS, g, t) for g in (0.0, 0.1, 0.3, 0.6, 0.9) for t in (2, 3, 4, 12)]
    # the mean, not the truncation, sets a prepared table's length
    PREPARED = [(Scheme.WEAK_COHERENT, mu, None) for mu in (0.0, 0.1, 0.5, 3.0, 100.0)] + [
        (Scheme.TRIGGERED_PDC, g, None) for g in (0.0, 0.1, 0.3, 0.6, 0.9, 0.99)
    ]
    ATTACKS = [None, AUTO, 0.0, 0.4, 1.0]
    # (eta_a, eta_b, eta_l): a working point, ideal detectors over a lossless
    # link, and the low efficiencies at which multi-pair signals cause errors
    EFFICIENCIES = {"working": (0.6, 0.8, 0.5), "ideal": (1.0, 1.0, 1.0), "low": (0.1, 0.2, 0.05)}

    @staticmethod
    def point(scheme, x, truncation, block, eta_a=0.6, eta_b=0.8, eta_l=0.5):
        fields = source_fields(scheme, x)
        if truncation is not None:
            fields["truncation_order"] = truncation
        return resolved_point(scheme, block, eta_a=eta_a, eta_b=eta_b, eta_l=eta_l, **fields)

    @staticmethod
    def assert_exact_law(params):
        ep = params.source.scheme is Scheme.ENTANGLED_PAIRS
        ctx = _EpContext(params) if ep else _PreparedContext(params)
        law, want = exact_law(ctx), oracle_law(params)
        # every tally but the trials
        assert law.keys() == want.keys() == set(_COUNT_FIELDS[1:])
        # each of the k cells of the alias table splits at a double, which
        # places its share of the unit interval to 2^-53, so a sum over rows
        # is exact to k 2^-53: a small tally of a large table can miss the
        # oracle by more than 1e-12 of itself
        resolution = len(ctx.cut) * 2.0**-53
        for tally, p in law.items():
            assert p == pytest.approx(want[tally], rel=1e-12, abs=resolution), tally

    # auto has no rate to match without photons
    @pytest.mark.parametrize("scheme, x, truncation, block", [
        (*point, block) for point, block in itertools.product(EP + PREPARED, ATTACKS)
        if point[1] or block != AUTO
    ])
    @pytest.mark.parametrize("etas", list(EFFICIENCIES.values()), ids=list(EFFICIENCIES))
    def test_tallies_follow_the_oracles(self, scheme, x, truncation, block, etas):
        self.assert_exact_law(self.point(scheme, x, truncation, block, *etas))

    @settings(max_examples=120, deadline=None)
    @given(
        source=st.one_of(
            st.tuples(st.just(Scheme.ENTANGLED_PAIRS), st.floats(0.01, 0.95), st.integers(2, 12)),
            st.tuples(st.just(Scheme.WEAK_COHERENT), st.floats(0.0, 10.0), st.none()),
            st.tuples(st.just(Scheme.TRIGGERED_PDC), st.floats(0.0, 0.95), st.none()),
        ),
        etas=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        block=st.sampled_from(ATTACKS) | st.floats(0.0, 1.0),
    )
    def test_tallies_follow_the_oracles_anywhere(self, source, etas, block):
        try:
            params = self.point(*source, block, *etas)
        except ConfigError:
            # auto with no sifted rate to match
            assume(False)
        self.assert_exact_law(params)

    @pytest.mark.parametrize(
        "truncation, entries, padded", [(2, 25, 64), (3, 41, 128), (127, 33_025, 1 << 17)]
    )
    def test_entry_count(self, truncation, entries, padded):
        # four blocks of (t+1)(t+2)/2 pair configurations + 1 exceeded, two
        # rows per entry under attack
        ctx = _EpContext(self.point(Scheme.ENTANGLED_PAIRS, 0.3, truncation, 0.5))
        assert len(ctx.joint.probabilities) == entries
        assert len(ctx.weights) == 2 * entries and len(ctx.cut) == padded

    # sha256 of the cut and alias arrays, of a table built with the working
    # weights in a list of Python floats: wcs-mu3 recorded at stream version
    # 8, ep-t43 at 10
    ALIAS_DIGESTS = {
        "ep-t43": "5dc74f407132c520ad9233dc1d76c12a29a570fb9d7c9412cf3b4ea93cd23b4b",
        "wcs-mu3": "864d5cdb472ac10e5cd5824aa9526e6ea2f73569296306178aaaaebeb2663e44",
    }

    @pytest.mark.parametrize("name", sorted(ALIAS_DIGESTS))
    def test_alias_tables_are_pinned(self, name):
        # no stream pin reaches a table this size: an unattacked ep table of
        # 3,961 entries, and a wcs table of 128 slots
        channel = dict(eta_b=0.8, eta_l=0.5)
        if name == "ep-t43":
            ctx = _EpContext(resolved_point(
                Scheme.ENTANGLED_PAIRS, g=0.9, eta_a=0.6, truncation_order=43, **channel
            ))
        else:
            ctx = _PreparedContext(resolved_point(Scheme.WEAK_COHERENT, mu_prime=3.0, **channel))
        assert ctx.alias.dtype == np.intp
        digest = hashlib.sha256(ctx.cut.tobytes() + ctx.alias.astype(np.int64).tobytes())
        assert digest.hexdigest() == self.ALIAS_DIGESTS[name]


class TestTwoDetectors:
    """Each ep side's two detectors on one uniform are two independent yes/no
    detectors, at any count pair and past the int8 range of the counts."""

    GRID = 1 << 12

    @staticmethod
    def context(truncation, eta, block=None):
        return _EpContext(resolved_point(
            Scheme.ENTANGLED_PAIRS, block, g=0.3, eta_a=eta, eta_b=eta,
            truncation_order=truncation,
        ))

    @pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
    @pytest.mark.parametrize("truncation", [2, 12])
    def test_outcome_regions_are_independent_detectors(self, truncation, eta):
        ctx = self.context(truncation, eta)
        # a sorted grid spanning [0, 1): every region is one interval, so its
        # share of the grid is its length to within one grid step
        u = np.arange(self.GRID) / self.GRID
        width = truncation + 1
        for fire in (ctx.fire_a, ctx.fire_b):
            # the thresholds of every count pair, at index n0 * width + n1
            thresholds = _pair_thresholds(np.repeat(fire, width), np.tile(fire, width))
            for n0 in range(width):
                for n1 in range(width):
                    index = np.full(self.GRID, n0 * width + n1)
                    d0, d1 = _two_detectors(u, index, *thresholds)
                    f0, f1 = fire[n0], fire[n1]
                    got = [np.count_nonzero(~d0 & ~d1), np.count_nonzero(d0 & ~d1),
                           np.count_nonzero(~d0 & d1), np.count_nonzero(d0 & d1)]
                    want = [(1 - f0) * (1 - f1), f0 * (1 - f1), (1 - f0) * f1, f0 * f1]
                    np.testing.assert_allclose(
                        np.array(got) / self.GRID, want, rtol=0, atol=1.0 / self.GRID
                    )

    @pytest.mark.parametrize("block", [None, 0.5])
    def test_entry_thresholds_past_int8(self, block):
        # at truncation 12 a flat index n0 * 13 + n1 of a count pair would
        # pass the int8 range of the counts; the tables are per entry, and
        # each row holds the thresholds of its own counts
        ctx = self.context(12, 0.6, block)
        table = ctx.joint
        assert table.b0.max() == table.b1.max() == 12
        bob_counts = (table.b0, table.b1)
        if block is not None:
            bob_counts = (ctx.interposer.f0, ctx.interposer.f1)
            assert len(ctx.interposer.f0) == 2 * len(table.b0)
        assert all(len(t) == len(bob_counts[0]) for t in ctx.bob)
        for (d0, d1_lo, d1_hi), c0, c1 in zip(zip(*ctx.bob), *(n.tolist() for n in bob_counts)):
            f0, f1 = ctx.fire_b[c0], ctx.fire_b[c1]
            assert (d0, d1_lo, d1_hi) == (f0, f0 * (1.0 - f1), f0 * (1.0 - f1) + f1)
            assert d1_hi - d1_lo == pytest.approx(f1, abs=1e-15)


class TestRunExperiment:
    def test_ep_rates_match_oracle(self):
        report = run_experiment(ep_config())
        oracle = exact_rates_oracle(0.3, 0.8, 0.9)
        assert abs(report.r_key - oracle.r_key) < 4 * report.r_key_se
        assert abs(report.r_err - oracle.r_err) < 4 * report.r_err_se
        dc_se = (oracle.dc_matched / report.valid_trials) ** 0.5
        assert abs(report.double_click_matched - oracle.dc_matched) < 4 * dc_se

    def test_truncation_exclusion_fraction(self):
        report = run_experiment(ep_config(g=0.6, trials=400_000, master_seed=5))
        dist = pair_distribution(SourceParams(Scheme.ENTANGLED_PAIRS, g=0.6))
        frac = report.truncation_exceeded_count / report.trials
        se = (dist.tail * (1 - dist.tail) / report.trials) ** 0.5
        assert abs(frac - dist.tail) < 5 * se

    def test_wcs_rate_matches_closed_form(self):
        config = ExperimentConfig(
            scheme=Scheme.WEAK_COHERENT,
            mu_prime=0.1,
            eta_b=0.5,
            eta_l=0.2,
            trials=2_000_000,
            master_seed=2,
        )
        report = run_experiment(config)
        r_exp = wcs_leakage(0.1, 0.1).r_exp
        assert abs(report.r_key - r_exp) < 4 * report.r_key_se
        assert report.error_count == 0

    def test_pdc_rate_matches_closed_form(self):
        config = ExperimentConfig(
            scheme=Scheme.TRIGGERED_PDC,
            g=0.3,
            eta_a=0.8,
            eta_b=0.9,
            eta_l=0.9,
            trials=1_000_000,
            master_seed=3,
        )
        report = run_experiment(config)
        r_exp = pdc_rates_closed(0.3, 0.8, 0.81)[0]
        assert abs(report.r_key - r_exp) < 4 * report.r_key_se
        assert report.error_count == 0

    def test_report_internal_consistency(self):
        report = run_experiment(ep_config(trials=200_000))
        assert report.valid_trials + report.truncation_exceeded_count == report.trials
        assert report.r_key == report.sifted_count / report.valid_trials
        assert report.epsilon == report.error_count / report.sifted_count

    def test_partial_final_batch(self):
        config = ep_config(trials=BATCH_SIZE + 123)
        report = run_experiment(config)
        assert report.trials == BATCH_SIZE + 123

    def test_rejects_invalid_config(self):
        with pytest.raises(ConfigError):
            run_experiment(ep_config(g=None))

    def test_vacuum_source_never_sifts(self):
        report = run_experiment(ep_config(g=0.0, trials=BATCH_SIZE + 5))
        assert report.truncation_exceeded_count == 0
        assert report.sifted_count == report.error_count == 0
        assert report.bob_no_click_rate == 1.0

    def test_pdc_trigger_gates_sifting(self):
        config = ExperimentConfig(
            scheme=Scheme.TRIGGERED_PDC,
            g=0.3,
            eta_a=0.8,
            eta_b=0.9,
            eta_l=0.9,
            trials=200_000,
            master_seed=4,
        )
        report = run_experiment(config)
        assert 0 < report.sifted_count <= report.triggered_count
        dark = run_experiment(dataclasses.replace(config, eta_a=0.0))
        assert dark.triggered_count == dark.sifted_count == 0

    @pytest.mark.parametrize("block", [None, 0.5])
    def test_perfect_alice_detectors_make_no_errors(self, block):
        # at eta_a 1 Alice has a single click exactly when one mode holds
        # photons, and then so does Bob's arm: an entry with both or neither
        # mode occupied has a single-click weight of exactly 0, and a drawn
        # one could make an error
        attack = None if block is None else PnsConfig(block_probability=block)
        report = run_experiment(
            ep_config(eta_a=1.0, trials=1 << 17, master_seed=8, attack=attack)
        )
        assert report.sifted_count > 0 and report.error_count == 0

    def test_attacked_run_has_no_matched_double_clicks(self):
        config = ep_config(
            g=0.6,
            eta_a=0.6,
            trials=300_000,
            attack=PnsConfig(block_probability=1.0),
        )
        report = run_experiment(config)
        assert report.double_click_matched_count == 0
        assert report.eve_touched_fraction == 1.0
        assert report.block_probability == 1.0

    @pytest.mark.parametrize("block", [0.0, 0.4, 1.0])
    @pytest.mark.parametrize(
        "source", [dict(scheme=Scheme.WEAK_COHERENT, mu_prime=0.5), dict(scheme=Scheme.TRIGGERED_PDC, g=0.3)]
    )
    def test_prepared_eve_stores_alices_bit(self, source, block):
        # every photon of a prepared signal is in the mode of Alice's bit, so
        # is the one Eve stores, and so is Bob's bit in a sifted round
        params = resolved_point(block_probability=block, eta_a=0.6, eta_b=0.8, eta_l=0.5, **source)
        counts = _prepared_batch(_batch_rng(3, 0), BATCH_SIZE, _PreparedContext(params))
        assert counts.touched_sifted > 0
        assert counts.eve_alice_hits == counts.eve_bob_hits == counts.touched_sifted
        # only single photons are blocked; with all of them blocked, every
        # sifted round is a touched multi-photon one
        assert (counts.blocked == 0) == (block == 0.0)
        if block == 1.0:
            assert counts.touched_sifted == counts.sifted


# Largest |z| a statistical check below accepts.  The seeds are fixed, so a
# correct kernel fails one of the sixteen checks with probability about 1e-4.
SIGMA_BOUND = 4.5


def assert_binomial(observed, p, n):
    """``observed`` is a frequency over ``n`` events with exact probability ``p``."""
    se = (p * (1.0 - p) / n) ** 0.5
    assert abs(observed - p) <= SIGMA_BOUND * se, (observed, p, n, se)


class TestEpStatistics:
    """Event-level ep tallies against the exact enumeration oracles, including
    the mismatched-basis sector draw and the truncation exclusions."""

    G, ETA_A, ETA_B, ETA_L = 0.4, 0.6, 0.8, 0.5

    def config(self, truncation, **overrides):
        return ep_config(
            g=self.G,
            eta_a=self.ETA_A,
            eta_b=self.ETA_B,
            eta_l=self.ETA_L,
            truncation_order=truncation,
            trials=1_000_000,
            **overrides,
        )

    @pytest.mark.parametrize("truncation, seed", [(2, 21), (4, 22)])
    def test_unattacked_mismatched_and_no_click(self, truncation, seed):
        report = run_experiment(self.config(truncation, master_seed=seed))
        oracle = exact_rates_oracle(
            self.G, self.ETA_A, self.ETA_B * self.ETA_L, truncation
        )
        valid = report.valid_trials
        assert_binomial(report.double_click_mismatched, oracle.dc_mismatched, valid)
        assert_binomial(report.bob_no_click_rate, oracle.bob_no_click, valid)
        assert_binomial(
            report.truncation_exceeded_count / report.trials,
            1.0 - oracle.retained_mass,
            report.trials,
        )

    @pytest.mark.parametrize("truncation, seed", [(2, 23), (4, 24)])
    def test_attacked_matches_pns_oracle(self, truncation, seed):
        report = run_experiment(
            self.config(
                truncation,
                master_seed=seed,
                attack=PnsConfig(block_probability=0.5),
            )
        )
        oracle = ep_pns_oracle(self.G, self.ETA_A, 0.5, truncation)
        sifted = report.sifted_count
        touched = round(report.eve_touched_fraction * sifted)
        assert report.block_probability == 0.5
        assert_binomial(report.r_key, oracle.delivered_rate, report.valid_trials)
        assert_binomial(report.epsilon, oracle.error_rate, sifted)
        assert_binomial(report.eve_touched_fraction, oracle.touched_fraction, sifted)
        assert_binomial(report.p_ae_hat, oracle.p_ae, touched)
        assert_binomial(report.p_eb_hat, oracle.p_eb, touched)


class TestPreparedTable:
    """The prepared context's photon-number law is the source's, with the
    tail past the table folded into its last entry."""

    CASES = [(Scheme.WEAK_COHERENT, mu) for mu in (0.0, 0.1, 0.5, 3.0, 100.0)] + [
        (Scheme.TRIGGERED_PDC, g) for g in (0.0, 0.1, 0.3, 0.6, 0.9, 0.99)
    ]

    @staticmethod
    def context(scheme, x):
        return _PreparedContext(resolved_point(scheme, **source_fields(scheme, x)))

    @staticmethod
    def exact_law(scheme, x, count):
        """P(n) for n < count: the Poisson recurrence from P(0) = exp(-mu), or
        the geometric terms one by one."""
        if scheme is Scheme.WEAK_COHERENT:
            terms = [math.exp(-x)]
            for n in range(1, count):
                terms.append(terms[-1] * x / n)
            return np.array(terms)
        return np.array([(1.0 - x * x) * (x * x) ** n for n in range(count)])

    @pytest.mark.parametrize("scheme, x", CASES)
    def test_law_matches_source_with_folded_tail(self, scheme, x):
        law = self.context(scheme, x).law
        n_max = len(law) - 1
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        exact = self.exact_law(scheme, x, n_max + 200)
        np.testing.assert_allclose(law[:-1], exact[:n_max], rtol=0, atol=1e-12)
        folded = law[-1] - exact[n_max]
        tail = exact[n_max + 1 :].sum()
        # the folded mass bounds the tail (equals it for the geometric law)
        assert 0.0 <= tail <= folded * (1.0 + 1e-9) and folded < 2.0**-64

    @pytest.mark.parametrize("mu", [800.0, 1000.0])
    def test_large_poisson_mean_keeps_its_mass(self, mu):
        # exp(-mu) underflows, so the law must not be built up from P(0)
        law = self.context(Scheme.WEAK_COHERENT, mu).law
        n = np.arange(len(law))
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        assert (n * law).sum() == pytest.approx(mu, rel=1e-12)
        assert (n * n * law).sum() - mu * mu == pytest.approx(mu, rel=1e-9)


class TestPreparedStatistics:
    """Event-level wcs/pdc tallies against the prepared closed forms of
    ``oracle_law``, including the mismatched-basis double clicks that only
    Bob's detector stage decides."""

    @staticmethod
    def assert_closed_forms(scheme, x, seed):
        params = resolved_point(
            scheme, eta_a=0.6, eta_b=0.8, eta_l=0.5, trials=1_000_000, master_seed=seed,
            **source_fields(scheme, x),
        )
        report = next(run_experiments([params]))
        law, n = oracle_law(params), report.trials
        assert report.valid_trials == n and report.error_count == 0
        assert_binomial(report.r_key, law["sifted"], n)
        assert_binomial(report.bob_no_click_rate, law["bob_no_click"], n)
        assert_binomial(report.triggered_count / n, law["triggered"], n)
        assert_binomial(report.double_click_mismatched, law["dc_mismatched"], n)

    @pytest.mark.parametrize("mu, seed", [(0.5, 71), (3.0, 72)])
    def test_wcs_matches_closed_forms(self, mu, seed):
        self.assert_closed_forms(Scheme.WEAK_COHERENT, mu, seed)

    @pytest.mark.parametrize("g, seed", [(0.3, 73), (0.7, 74)])
    def test_pdc_matches_closed_forms(self, g, seed):
        self.assert_closed_forms(Scheme.TRIGGERED_PDC, g, seed)


class TestDeterminism:
    def test_same_seed_same_report(self):
        config = ep_config(trials=200_000, master_seed=9)
        assert run_experiment(config) == run_experiment(config)

    def test_worker_count_does_not_change_results(self):
        base = ep_config(trials=3 * BATCH_SIZE + 77, master_seed=11)
        serial = run_experiment(base)
        parallel = run_experiment(dataclasses.replace(base, workers=3))
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = run_experiment(ep_config(trials=200_000, master_seed=1))
        b = run_experiment(ep_config(trials=200_000, master_seed=2))
        assert a.sifted_count != b.sifted_count

    def test_attacked_run_deterministic_across_workers(self):
        base = ep_config(
            trials=2 * BATCH_SIZE + 10,
            master_seed=13,
            attack=PnsConfig(block_probability=0.5),
        )
        serial = run_experiment(base)
        parallel = run_experiment(dataclasses.replace(base, workers=2))
        assert serial == parallel


    @pytest.mark.parametrize("attack", [None, PnsConfig(block_probability=0.5)])
    @pytest.mark.parametrize(
        "source", [dict(scheme=Scheme.WEAK_COHERENT, mu_prime=0.5), dict(scheme=Scheme.TRIGGERED_PDC, g=0.3)]
    )
    def test_prepared_run_deterministic_across_workers(self, source, attack):
        base = ExperimentConfig(
            **source, eta_a=0.6, eta_b=0.8, eta_l=0.5, trials=3 * BATCH_SIZE + 7,
            master_seed=15, attack=attack,
        )
        serial = run_experiment(base)
        assert serial == run_experiment(dataclasses.replace(base, workers=2))
        assert serial.sifted_count > 0


def marked_range(directory, params, start, stop):
    """Stands in for ``engine._run_batch_range``: leaves one marker file per
    range in ``directory`` and sleeps briefly, so later ranges queue up."""
    (directory / f"{params.config.master_seed}-{start}").touch()
    time.sleep(0.05)
    return _Counts()


class TestRunExperiments:
    def configs(self, workers):
        return [
            ep_config(trials=3 * BATCH_SIZE + 5, master_seed=31, workers=workers),
            ep_config(
                trials=2 * BATCH_SIZE,
                master_seed=32,
                workers=workers,
                truncation_order=3,
                attack=PnsConfig(),
            ),
            ep_config(trials=BATCH_SIZE // 2, master_seed=33, workers=workers),
            ExperimentConfig(
                scheme=Scheme.WEAK_COHERENT,
                mu_prime=0.4,
                eta_b=0.5,
                trials=2 * BATCH_SIZE + 9,
                master_seed=34,
                workers=workers,
                attack=PnsConfig(block_probability=0.3),
            ),
            ExperimentConfig(
                scheme=Scheme.TRIGGERED_PDC,
                g=0.3,
                eta_a=0.7,
                trials=0,
                master_seed=35,
                workers=workers,
            ),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_equal_single_runs_in_order(self, workers):
        configs = self.configs(workers)
        singles = [run_experiment(dataclasses.replace(c, workers=1)) for c in configs]
        assert list(run_experiments(map(_resolve_run_params, configs))) == singles

    def test_information_is_eq10_of_the_touched_group(self):
        # the untouched group is guessed at p = 1/2 and adds exactly 0, so
        # Eq. 10 gives the touched fraction times f(p) bit for bit
        reports = run_experiments(map(_resolve_run_params, self.configs(1)))
        attacked = [r for r in reports if r.p_ae_hat is not None]
        assert len(attacked) == 2
        for report in attacked:
            touched = report.eve_touched_fraction
            assert report.i_ae == touched * binary_information(report.p_ae_hat)
            assert report.i_eb == touched * binary_information(report.p_eb_hat)

    def test_closing_early_drops_the_ranges_not_started(
        self, monkeypatch, tmp_path, counting_pool
    ):
        check = ep_config(trials=2 * BATCH_SIZE, master_seed=99, workers=2)
        serial = run_experiment(dataclasses.replace(check, workers=1))
        assert run_experiment(check) == serial
        real = engine._run_batch_range
        # the pool forked before the patch: the stand-in reaches its workers
        # because it is pickled by reference with each task
        monkeypatch.setattr(engine, "_run_batch_range", functools.partial(marked_range, tmp_path))
        configs = [
            ep_config(trials=2 * BATCH_SIZE, master_seed=seed, workers=2) for seed in range(20)
        ]
        reports = run_experiments(map(_resolve_run_params, configs))
        next(reports)
        reports.close()
        monkeypatch.setattr(engine, "_run_batch_range", real)
        # its ranges queue behind every range of the closed run that started
        assert run_experiment(check) == serial
        started = len(list(tmp_path.iterdir()))
        assert 2 <= started < 2 * len(configs)
        assert len(counting_pool) == 1 and not counting_pool[0].shut_down

    def test_invalid_config_raises_before_any_run(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a batch range ran")

        monkeypatch.setattr(engine, "_run_batch_range", no_run)
        # the points are taken, and so resolved, before the first run
        points = map(_resolve_run_params, self.configs(1) + [ep_config(g=None)])
        with pytest.raises(ConfigError):
            next(run_experiments(points))


def dying_range(params, start, stop):
    """Stands in for ``engine._run_batch_range`` and kills the pool worker
    that runs it (and nothing else)."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _Counts()


class TestPool:
    """``run_experiments`` keeps one process pool per interpreter: forked on
    first use, replaced when a run needs more processes or it broke."""

    def config(self, workers):
        return ep_config(trials=3 * BATCH_SIZE + 5, master_seed=61, workers=workers)

    def test_more_ranges_replace_the_pool_once(self, counting_pool):
        serial = run_experiment(self.config(1))
        assert counting_pool == []
        for workers in (2, 3, 2, 3):
            assert run_experiment(self.config(workers)) == serial
        assert len(counting_pool) == 2
        assert counting_pool[0].shut_down and not counting_pool[1].shut_down

    def test_threads_share_the_pool(self, counting_pool):
        serial = run_experiment(self.config(1))
        with ThreadPoolExecutor(4) as threads:
            reports = list(threads.map(lambda w: run_experiment(self.config(w)), [2, 3] * 4))
        assert reports == [serial] * 8
        # a pool of 2 is replaced at most once, by the pool of 3
        assert 1 <= len(counting_pool) <= 2 and not counting_pool[-1].shut_down

    def test_a_killed_worker_gets_a_fresh_pool(self, counting_pool):
        serial = run_experiment(self.config(1))
        assert run_experiment(self.config(2)) == serial
        victim, _ = multiprocessing.active_children()
        os.kill(victim.pid, signal.SIGKILL)
        # the pool marks itself broken before it ends its other worker
        deadline = time.monotonic() + 60
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "the broken pool kept a worker"
            time.sleep(0.01)
        assert run_experiment(self.config(2)) == serial
        assert len(counting_pool) == 2 and counting_pool[0].shut_down

    def test_a_pool_broken_mid_run_is_dropped(self, monkeypatch, counting_pool):
        serial = run_experiment(self.config(1))
        assert run_experiment(self.config(2)) == serial
        real = engine._run_batch_range
        monkeypatch.setattr(engine, "_run_batch_range", dying_range)
        with pytest.raises(BrokenProcessPool):
            run_experiment(self.config(2))
        monkeypatch.setattr(engine, "_run_batch_range", real)
        assert counting_pool[0].shut_down
        assert run_experiment(self.config(2)) == serial
        assert len(counting_pool) == 2 and not counting_pool[1].shut_down

    def test_no_worker_outlives_its_interpreter(self):
        script = (
            "import multiprocessing\n"
            "from pdcqkd import ExperimentConfig, run_experiment\n"
            "from pdcqkd.source import Scheme\n"
            "run_experiment(ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS, g=0.3,"
            f" trials={2 * BATCH_SIZE}, workers=2))\n"
            "print(*(p.pid for p in multiprocessing.active_children()))\n"
        )
        src = Path(engine.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            # the interpreter joined its pool's workers on its way out
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestChunks:
    """A kernel's column chunks and its context's reused uniform buffer change
    no count."""

    # scheme, block probability and config fields of each point
    PARAMS = {
        "ep": (Scheme.ENTANGLED_PAIRS, None, dict(g=0.3, eta_a=0.6, eta_b=0.8, eta_l=0.5)),
        "ep-pns-t3": (
            Scheme.ENTANGLED_PAIRS, 0.5,
            dict(g=0.4, eta_a=0.6, eta_b=0.8, eta_l=0.5, truncation_order=3),
        ),
        "wcs-pns": (Scheme.WEAK_COHERENT, 0.3, dict(mu_prime=0.5, eta_b=0.8, eta_l=0.5)),
        "pdc": (Scheme.TRIGGERED_PDC, None, dict(g=0.3, eta_a=0.6, eta_b=0.7, eta_l=0.9)),
        "pdc-pns": (Scheme.TRIGGERED_PDC, 0.4, dict(g=0.3, eta_a=0.6, eta_b=0.7, eta_l=0.9)),
    }

    @classmethod
    def point(cls, name):
        scheme, block, fields = cls.PARAMS[name]
        return resolved_point(scheme, block, **fields)

    @staticmethod
    def batch(params, size, batch_index, ctx=None):
        ep = params.source.scheme is Scheme.ENTANGLED_PAIRS
        if ctx is None:
            ctx = _EpContext(params) if ep else _PreparedContext(params)
        kernel = _ep_batch if ep else _prepared_batch
        return kernel(_batch_rng(71, batch_index), size, ctx)

    @pytest.mark.parametrize("size", [BATCH_SIZE, 5_123])
    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_chunk_size_does_not_change_counts(self, name, size, monkeypatch):
        params = self.point(name)
        chunked = self.batch(params, size, 0)
        assert chunked.trials == size
        for chunk in (BATCH_SIZE, 1_000):
            monkeypatch.setattr(engine, "CHUNK_SIZE", chunk)
            assert self.batch(params, size, 0) == chunked, f"CHUNK_SIZE {chunk}"

    @pytest.mark.parametrize("name", sorted(PARAMS))
    def test_reused_buffer_carries_nothing_between_batches(self, name):
        params = self.point(name)
        ep = params.source.scheme is Scheme.ENTANGLED_PAIRS
        ctx = _EpContext(params) if ep else _PreparedContext(params)
        for b, size in enumerate((BATCH_SIZE, 5_123, BATCH_SIZE)):
            assert self.batch(params, size, b, ctx) == self.batch(params, size, b)

    def test_buffer_holds_the_stream_of_one_random_call(self):
        ctx = _EpContext(self.point("ep"))
        ctx.uniforms(_batch_rng(5, 0), 4, 2 * BATCH_SIZE)
        u = ctx.uniforms(_batch_rng(5, 1), 3, 5_123)
        assert u.flags.c_contiguous
        np.testing.assert_array_equal(u, _batch_rng(5, 1).random((3, 5_123)))


class TestStreams:
    """Exact counts of five runs: ``wcs-pns`` and ``pdc`` recorded when
    STREAM_VERSION was 8, ``ep``, ``ep-pns`` and ``ep-pns-deep`` when it was
    10."""

    TRIALS = BATCH_SIZE + 123
    # trials, valid, excluded, sifted, errors, matched double clicks,
    # triggered, blocked
    PINNED = {
        "ep": (65659, 65479, 180, 4063, 7, 177, 0, 0),
        "ep-pns": (65659, 65452, 207, 3661, 131, 121, 0, 7413),
        "ep-pns-deep": (65659, 65657, 2, 8789, 490, 1897, 0, 9752),
        "wcs-pns": (65659, 65659, 0, 9787, 0, 0, 65659, 5956),
        "pdc": (65659, 65659, 0, 1296, 0, 0, 3770, 0),
    }

    def configs(self):
        return {
            "ep": ep_config(trials=self.TRIALS, master_seed=61),
            "ep-pns": ep_config(
                g=0.4,
                eta_a=0.6,
                eta_b=0.8,
                eta_l=0.5,
                truncation_order=3,
                trials=self.TRIALS,
                master_seed=62,
                attack=PnsConfig(block_probability=0.5),
            ),
            # a joint table of 365 entries, whose mismatched-basis block
            # reaches sector total 12
            "ep-pns-deep": ep_config(
                g=0.6,
                eta_a=0.6,
                eta_b=0.8,
                eta_l=0.5,
                truncation_order=12,
                trials=self.TRIALS,
                master_seed=65,
                attack=PnsConfig(block_probability=0.5),
            ),
            "wcs-pns": ExperimentConfig(
                scheme=Scheme.WEAK_COHERENT,
                mu_prime=0.5,
                eta_b=0.8,
                eta_l=0.5,
                trials=self.TRIALS,
                master_seed=63,
                attack=PnsConfig(block_probability=0.3),
            ),
            "pdc": ExperimentConfig(
                scheme=Scheme.TRIGGERED_PDC,
                g=0.3,
                eta_a=0.6,
                eta_b=0.7,
                eta_l=0.9,
                trials=self.TRIALS,
                master_seed=64,
            ),
        }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_counts_are_pinned(self, name):
        r = run_experiment(self.configs()[name])
        got = (
            r.trials,
            r.valid_trials,
            r.truncation_exceeded_count,
            r.sifted_count,
            r.error_count,
            r.double_click_matched_count,
            r.triggered_count,
            r.eve_blocked_count,
        )
        assert got == self.PINNED[name], (
            f"the {name} stream changed: if the generator or the kernel's draws changed "
            f"on purpose, bump STREAM_VERSION (now {STREAM_VERSION}) and record the new counts"
        )

    SEEDS = [0, 7, np.uint64(7), 2**64 - 1]
    BATCHES = [0, 1, 2**40]

    @pytest.mark.parametrize("batch_index", BATCHES)
    @pytest.mark.parametrize("seed", SEEDS, ids=repr)
    def test_batch_stream_is_sfc64_keyed_by_seed_sequence(self, seed, batch_index):
        seq = np.random.SeedSequence(seed, spawn_key=(batch_index,))
        expected = np.random.Generator(np.random.SFC64(seq)).random(8)
        np.testing.assert_array_equal(_batch_rng(seed, batch_index).random(8), expected)

    def test_distinct_keys_give_distinct_streams(self):
        draws = {}
        for seed in self.SEEDS:
            for b in self.BATCHES:
                first = tuple(_batch_rng(seed, b).random(8))
                # np.uint64(7) keys the same streams as 7
                assert draws.setdefault((int(seed), b), first) == first
        assert len(draws) == 9
        assert len(set(draws.values())) == len(draws)
