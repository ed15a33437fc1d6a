import dataclasses
import functools
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

from pdcqkd import engine, fock
from pdcqkd.analytics import (
    binary_information,
    ep_pns_oracle,
    exact_rates_oracle,
    pdc_rates_closed,
    wcs_leakage,
)
from pdcqkd.config import ConfigError, ExperimentConfig
from pdcqkd.engine import (
    BATCH_SIZE,
    STREAM_VERSION,
    _EpContext,
    _PreparedContext,
    _alias_draw,
    _batch_rng,
    _bob_thresholds,
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
from pdcqkd.source import Scheme, SourceParams, pair_distribution

from conftest import resolved_point


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


class TestEpJointTable:
    """The ep kernel's joint table reproduces the source and sector
    distributions it is built from."""

    CASES = [(g, t) for g in (0.0, 0.1, 0.3, 0.6, 0.9) for t in (2, 3, 4, 12)]

    @staticmethod
    def context(g, truncation, block=None):
        return _EpContext(resolved_point(
            Scheme.ENTANGLED_PAIRS, block, g=g, eta_a=0.6, eta_b=0.8, eta_l=0.5,
            truncation_order=truncation,
        ))

    @pytest.mark.parametrize("g, truncation", CASES)
    def test_entries_match_source_and_sectors(self, g, truncation):
        table = self.context(g, truncation).joint
        dist = pair_distribution(SourceParams(Scheme.ENTANGLED_PAIRS, g, truncation))
        p = table.probabilities
        pairs = len(dist.configs)
        assert table.pairs == pairs
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        exceeded = len(p) - 1
        assert p[exceeded] == pytest.approx(dist.tail, abs=1e-12)
        assert table.a0[exceeded] == table.a1[exceeded] == 0
        assert table.b0[exceeded] == table.b1[exceeded] == 0

        # three matched blocks, by Alice's outcome at eta_a 0.6: D0 alone, D1
        # alone, no single click
        for i, (c, w) in enumerate(zip(dist.configs, dist.probabilities)):
            f0, f1 = 1.0 - 0.4**c.m, 1.0 - 0.4**c.n
            classes = (f0 * (1.0 - f1), f1 * (1.0 - f0), f0 * f1 + (1.0 - f0) * (1.0 - f1))
            rows = [i, pairs + i, 2 * pairs + i]
            for j, q in zip(rows, classes):
                assert (table.a0[j], table.a1[j], table.b0[j], table.b1[j]) == (c.m, c.n, c.m, c.n)
                assert p[j] == pytest.approx(w / 2 * q, abs=1e-12)
            assert p[rows].sum() == pytest.approx(w / 2, abs=1e-12)

        # one mismatched block per total, at P(total)/2 for either combo
        rows = np.arange(3 * pairs, exceeded)
        seen = 0
        for total in range(truncation + 1):
            p_total = sum(w for c, w in zip(dist.configs, dist.probabilities) if c.m + c.n == total)
            block = [j for j in rows if table.a0[j] + table.a1[j] == total]
            got = {(table.a0[j], table.a1[j], table.b0[j], table.b1[j]): p[j] for j in block}
            occs, probs = fock.sector_distribution(total)
            assert len(block) == len(got) and sorted(got) == sorted(occs)
            assert p[block].sum() == pytest.approx(p_total / 2, abs=1e-12)
            for occ, q in zip(occs, probs):
                assert got[occ] == pytest.approx(p_total / 2 * q, abs=1e-12)
            seen += len(block)
        assert seen == len(rows)

    @pytest.mark.parametrize("truncation, entries", [(2, 32), (3, 60)])
    def test_entry_count(self, truncation, entries):
        # 3 (t+1)(t+2)/2 matched + the sector tables' occupations + 1 exceeded
        assert len(self.context(0.3, truncation).joint.probabilities) == entries

    @pytest.mark.parametrize("truncation", [2, 3])
    def test_sector_tables_cover_every_total_from_vacuum(self, truncation):
        tables = self.context(0.3, truncation).sector_tables
        assert list(tables) == list(range(truncation + 1))
        cdf, *occupations = tables[0]
        assert cdf.tolist() == [1.0] and [o.tolist() for o in occupations] == [[0]] * 4

    @pytest.mark.parametrize("g, truncation", CASES)
    def test_alias_table_reproduces_probabilities(self, g, truncation):
        table = self.context(g, truncation).joint
        k = len(table.cut)
        keep = table.cut - np.arange(k)
        assert k & (k - 1) == 0 and np.all((keep >= 0) & (keep <= 1))
        implied = np.zeros(k)
        np.add.at(implied, np.arange(k), keep / k)
        np.add.at(implied, table.alias, (1.0 - keep) / k)
        n = len(table.probabilities)
        np.testing.assert_allclose(implied[:n], table.probabilities, rtol=0, atol=1e-12)
        assert np.all(implied[n:] == 0.0)
        edges = np.array([0.0, np.nextafter(1.0, 0.0)])
        assert np.all(_alias_draw(table.cut, table.alias, edges) < n)

    @pytest.mark.parametrize("block, bob_eta", [(None, 0.8 * 0.5), (0.5, 1.0)])
    @pytest.mark.parametrize("g, truncation", CASES)
    def test_fire_tables_cover_every_count(self, g, truncation, block, bob_eta):
        ctx = self.context(g, truncation, block)
        table = ctx.joint
        for fire, eta, modes in (
            (ctx.fire_a, 0.6, (table.a0, table.a1)),
            (ctx.fire_b, bob_eta, (table.b0, table.b1)),
        ):
            counts = np.arange(len(fire))
            np.testing.assert_allclose(fire, 1.0 - (1.0 - eta) ** counts, rtol=0, atol=1e-12)
            assert max(mode.max() for mode in modes) < len(fire)


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
        # each row holds the thresholds, or Alice's class weight, of its own
        # counts
        ctx = self.context(12, 0.6, block)
        table = ctx.joint
        assert table.a0.max() == table.a1.max() == table.b0.max() == table.b1.max() == 12
        bob_counts = (table.b0, table.b1)
        if block is not None:
            bob_counts = (ctx.interposer.f0, ctx.interposer.f1)
            assert len(ctx.interposer.f0) == 2 * len(table.b0)
        assert all(len(t) == len(bob_counts[0]) for t in ctx.bob)
        for (d0, d1_lo, d1_hi), c0, c1 in zip(zip(*ctx.bob), *(n.tolist() for n in bob_counts)):
            f0, f1 = ctx.fire_b[c0], ctx.fire_b[c1]
            assert (d0, d1_lo, d1_hi) == (f0, f0 * (1.0 - f1), f0 * (1.0 - f1) + f1)
            assert d1_hi - d1_lo == pytest.approx(f1, abs=1e-15)

        # Alice's class of each matched entry, at that entry's counts
        pairs = table.pairs
        half = pair_distribution(SourceParams(Scheme.ENTANGLED_PAIRS, 0.3, 12)).probabilities / 2
        for j, (c0, c1) in enumerate(zip(table.a0[: 3 * pairs].tolist(), table.a1.tolist())):
            f0, f1 = ctx.fire_a[c0], ctx.fire_a[c1]
            q = (f0 * (1.0 - f1), f1 * (1.0 - f0), f0 * f1 + (1.0 - f0) * (1.0 - f1))[j // pairs]
            assert table.probabilities[j] == half[j % pairs] * q


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
        counts = _prepared_batch(_batch_rng(3, 0), BATCH_SIZE, params, _PreparedContext(params))
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
    """The prepared kernel's alias table reproduces the photon-number law
    times the herald and block outcomes and the eight equally likely combos,
    and Bob's thresholds reproduce binomial thinning followed by a 50:50
    split."""

    CASES = [(Scheme.WEAK_COHERENT, mu) for mu in (0.0, 0.1, 0.5, 3.0, 100.0)] + [
        (Scheme.TRIGGERED_PDC, g) for g in (0.0, 0.1, 0.3, 0.6, 0.9, 0.99)
    ]

    @staticmethod
    def context(scheme, x, eta_a=0.6, bob_eta=0.4, block=None):
        mean = {"mu_prime" if scheme is Scheme.WEAK_COHERENT else "g": x}
        return _PreparedContext(
            resolved_point(scheme, block, eta_a=eta_a, eta_b=bob_eta, **mean)
        )

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

    @pytest.mark.parametrize("block", [None, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("scheme, x", CASES)
    def test_alias_table_reproduces_probabilities(self, scheme, x, block):
        ctx = self.context(scheme, x, block=block)
        k = len(ctx.cut)
        keep = ctx.cut - np.arange(k)
        assert k & (k - 1) == 0 and np.all((keep >= 0) & (keep <= 1))
        implied = np.zeros(k)
        np.add.at(implied, np.arange(k), keep / k)
        np.add.at(implied, ctx.alias, (1.0 - keep) / k)
        # entry 32 n + 16 dark + 8 blocked + c, with combo
        # c = bit | basis_a << 1 | basis_b << 2
        entry = np.arange(32 * len(ctx.law))
        n, c = entry >> 5, entry % 8
        np.testing.assert_array_equal(ctx.matched, (c >> 1 & 1) == c >> 2)
        np.testing.assert_array_equal(ctx.announced, (entry & 16) == 0)
        np.testing.assert_array_equal(ctx.blocked, (entry & 8) != 0)
        # the herald fires with 1 - (1 - eta_a)^n, a wcs signal is always
        # announced, and only a single photon can be blocked
        fire = 1.0 - 0.4**n if scheme is Scheme.TRIGGERED_PDC else np.ones(len(n))
        herald = np.where(ctx.announced, fire, 1.0 - fire)
        block_at_n = np.where(n == 1, block or 0.0, 0.0)
        blocking = np.where(ctx.blocked, block_at_n, 1.0 - block_at_n)
        expected = ctx.law[n] * herald * blocking / 8
        np.testing.assert_allclose(implied[: len(expected)], expected, rtol=0, atol=1e-12)
        assert np.all(implied[len(expected) :] == 0.0)
        zero = expected == 0.0
        assert np.all(implied[: len(expected)][zero] == 0.0)
        assert np.all(zero[ctx.blocked & (n != 1)])
        if scheme is Scheme.WEAK_COHERENT:
            assert np.all(zero[~ctx.announced])
        elif x == 0.0:
            assert np.all(zero[n > 0]) and np.all(zero[ctx.announced])
        if block in (0.0, 1.0):
            assert np.all(zero[(n == 1) & (ctx.blocked == (block == 0.0))])

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.4, 0.8, 1.0])
    def test_bob_thresholds_match_thin_then_split(self, eta):
        max_count = 40
        d0, d1_lo, d1_hi = (t.reshape(max_count + 1, 8) for t in _bob_thresholds(eta, max_count))
        for k in range(max_count + 1):
            survivors = [math.comb(k, s) * eta**s * (1.0 - eta) ** (k - s) for s in range(k + 1)]
            fire = 1.0 - survivors[0]
            # every survivor to D0, every one to D1, at least one to each
            alone = sum(p * 0.5**s for s, p in enumerate(survivors) if s > 0)
            for c in range(8):
                bit, matched = c & 1, (c >> 1 & 1) == c >> 2
                if matched:
                    want = (fire, 0.0, 0.0) if bit == 0 else (0.0, fire, 0.0)
                else:
                    want = (alone, alone, fire - 2 * alone)
                # D0 fires on [0, d0), D1 on [d1_lo, d1_hi)
                both = max(0.0, min(d0[k, c], d1_hi[k, c]) - d1_lo[k, c])
                got = (d0[k, c] - both, d1_hi[k, c] - d1_lo[k, c] - both, both)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
                assert 0.0 <= d1_lo[k, c] <= d1_hi[k, c] <= 1.0 and 0.0 <= d0[k, c] <= 1.0


class TestPreparedStatistics:
    """Event-level wcs/pdc tallies against the leakage closed forms, including
    the mismatched-basis double clicks that only Bob's detector stage
    decides."""

    ETA_A, ETA_B, ETA_L = 0.6, 0.8, 0.5
    ETA = ETA_B * ETA_L

    def run(self, scheme, x, seed):
        source = {"mu_prime": x} if scheme is Scheme.WEAK_COHERENT else {"g": x}
        return run_experiment(
            ExperimentConfig(
                scheme=scheme,
                eta_a=self.ETA_A,
                eta_b=self.ETA_B,
                eta_l=self.ETA_L,
                trials=1_000_000,
                master_seed=seed,
                **source,
            )
        )

    @pytest.mark.parametrize("mu, seed", [(0.5, 71), (3.0, 72)])
    def test_wcs_matches_closed_forms(self, mu, seed):
        report = self.run(Scheme.WEAK_COHERENT, mu, seed)
        eta, n = self.ETA, report.trials
        assert report.valid_trials == report.triggered_count == n
        assert report.error_count == 0
        assert_binomial(report.r_key, wcs_leakage(mu, eta).r_exp, n)
        assert_binomial(report.bob_no_click_rate, math.exp(-mu * eta), n)
        double = 0.5 * (1.0 - 2.0 * math.exp(-mu * eta / 2) + math.exp(-mu * eta))
        assert_binomial(report.double_click_mismatched, double, n)

    @pytest.mark.parametrize("g, seed", [(0.3, 73), (0.7, 74)])
    def test_pdc_matches_closed_forms(self, g, seed):
        report = self.run(Scheme.TRIGGERED_PDC, g, seed)
        eta, n = self.ETA, report.trials
        g2 = g * g

        def law_sum(x):
            """Sum over n of (1 - g^2) g^(2n) x^n."""
            return (1.0 - g2) / (1.0 - g2 * x)

        dark_a = 1.0 - self.ETA_A
        assert report.error_count == 0
        assert_binomial(report.r_key, pdc_rates_closed(g, self.ETA_A, eta)[0], n)
        assert_binomial(report.bob_no_click_rate, law_sum(1.0 - eta), n)
        assert_binomial(report.triggered_count / n, 1.0 - law_sum(dark_a), n)
        # heralded, mismatched bases, both of Bob's detectors fire
        double = 0.5 * sum(
            sign * (law_sum(x) - law_sum(x * dark_a))
            for sign, x in ((1.0, 1.0), (-2.0, 1.0 - eta / 2), (1.0, 1.0 - eta))
        )
        assert_binomial(report.double_click_mismatched, double, n)


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
        return kernel(_batch_rng(71, batch_index), size, params, ctx)

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
    """Exact counts of five runs: ``ep``, ``ep-pns`` and ``ep-pns-deep``
    recorded when STREAM_VERSION was 7, ``wcs-pns`` and ``pdc`` when it was
    8."""

    TRIALS = BATCH_SIZE + 123
    # trials, valid, excluded, sifted, errors, matched double clicks,
    # triggered, blocked
    PINNED = {
        "ep": (65659, 65472, 187, 4063, 7, 177, 0, 0),
        "ep-pns": (65659, 65448, 211, 3705, 132, 130, 0, 7448),
        "ep-pns-deep": (65659, 65659, 0, 8720, 453, 1976, 0, 9674),
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
            # a joint table of 1,046 entries, whose mismatched-basis blocks
            # reach sector total 12
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
