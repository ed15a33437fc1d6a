import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcqkd.source import (
    MAX_MEAN_PHOTONS,
    MAX_TRUNCATION,
    MIN_TRUNCATION,
    PairConfiguration,
    Scheme,
    SourceParams,
    g_for_mean,
    g_for_single_arm_mean,
    mean_pairs,
    pair_distribution,
)
from pdcqkd.engine import (
    _alias_draw,
    _EpContext,
    _ep_batch,
    _prepared_batch,
    _PreparedContext,
)

from conftest import freq_se, resolved_point


def ep_params(g, truncation=2):
    return SourceParams(Scheme.ENTANGLED_PAIRS, g=g, truncation_order=truncation)


ETA = dict(eta_a=0.8, eta_b=0.9)


class TestPairDistribution:
    def test_vacuum_only_source(self):
        dist = pair_distribution(ep_params(0.0))
        table = dict(zip(dist.configs, dist.probabilities))
        assert table[PairConfiguration(0, 0)] == 1.0
        assert all(p == 0.0 for c, p in table.items() if c.m + c.n > 0)
        assert dist.tail == 0.0

    def test_small_gain_values(self):
        # direct evaluation of (1-g^2)^2 g^(2(m+n)) at g=0.1
        dist = pair_distribution(ep_params(0.1))
        table = dict(zip(dist.configs, dist.probabilities))
        assert table[PairConfiguration(0, 0)] == pytest.approx(0.9801, abs=1e-12)
        assert table[PairConfiguration(1, 0)] == pytest.approx(0.009801, abs=1e-12)
        assert table[PairConfiguration(0, 1)] == pytest.approx(0.009801, abs=1e-12)

    @given(
        g=st.floats(min_value=0.0, max_value=0.95),
        truncation=st.integers(min_value=MIN_TRUNCATION, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_normalization_with_tail(self, g, truncation):
        dist = pair_distribution(ep_params(g, truncation))
        assert float(dist.probabilities.sum() + dist.tail) == pytest.approx(1.0, abs=1e-12)

    @given(g=st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_crystal_symmetry(self, g):
        dist = pair_distribution(ep_params(g, 3))
        table = dict(zip(dist.configs, dist.probabilities))
        for cfg, p in table.items():
            assert table[PairConfiguration(cfg.n, cfg.m)] == p

    def test_partial_mean_monotone_in_truncation(self):
        g = 0.4
        mu = mean_pairs(g)
        previous = -1.0
        for truncation in range(MIN_TRUNCATION, 10):
            dist = pair_distribution(ep_params(g, truncation))
            partial = sum(
                (c.m + c.n) * p for c, p in zip(dist.configs, dist.probabilities)
            )
            assert previous < partial <= mu + 1e-12
            previous = partial
        assert partial == pytest.approx(mu, rel=1e-3)

    @pytest.mark.parametrize("truncation", [MIN_TRUNCATION - 1, MAX_TRUNCATION + 1])
    def test_rejects_truncation_out_of_range(self, truncation):
        with pytest.raises(ValueError, match="truncation_order"):
            ep_params(0.1, truncation)

    def test_rejects_prepared_mean_above_limit(self):
        over = MAX_MEAN_PHOTONS * 1.01
        for params in (
            dict(scheme=Scheme.WEAK_COHERENT, mu_prime=over),
            dict(scheme=Scheme.TRIGGERED_PDC, g=g_for_single_arm_mean(over)),
        ):
            with pytest.raises(ValueError, match="mean photon number"):
                SourceParams(**params)
        SourceParams(Scheme.WEAK_COHERENT, mu_prime=MAX_MEAN_PHOTONS)
        # the gain of a pdc mean at the limit converts back to a little more,
        # and is accepted
        pdc = SourceParams(Scheme.TRIGGERED_PDC, g=g_for_single_arm_mean(MAX_MEAN_PHOTONS))
        assert pdc.g * pdc.g / (1.0 - pdc.g * pdc.g) > MAX_MEAN_PHOTONS

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            pair_distribution(ep_params(1.0))
        with pytest.raises(ValueError):
            ep_params(-0.1)


class TestMeanPairs:
    def test_values(self):
        assert mean_pairs(0.0) == 0.0
        assert mean_pairs(0.1) == pytest.approx(0.02 / 0.99, abs=1e-15)

    def test_round_trip(self):
        for g in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            assert g_for_mean(mean_pairs(g)) == pytest.approx(g, abs=1e-12)

    def test_inverse_values(self):
        assert g_for_mean(0.0) == 0.0
        assert g_for_mean(2.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert g_for_mean(0.02) == pytest.approx(math.sqrt(0.02 / 2.02), abs=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            mean_pairs(1.0)
        with pytest.raises(ValueError):
            g_for_mean(-0.5)

    def test_single_arm_round_trip(self):
        for g in (0.1, 0.3, 0.6):
            mu = g * g / (1.0 - g * g)
            assert g_for_single_arm_mean(mu) == pytest.approx(g, abs=1e-12)


class TestSamplers:
    """The kernels' photon draws: the ``ep`` joint table and the photon
    numbers of ``_prepared_batch``."""

    def test_deterministic_pair_config(self):
        table = _EpContext(resolved_point(Scheme.ENTANGLED_PAIRS, g=0.0, **ETA)).joint
        entry = _alias_draw(table.cut, table.alias, np.random.default_rng(5).random(1_000))
        for column in (table.a0, table.a1, table.b0, table.b1):
            assert not column.take(entry).any()

    def test_pair_config_frequencies(self):
        # a matched entry carries its pair configuration (m, n) in both arms,
        # in one block per Alice outcome: D0 alone, D1 alone, no single click
        table = _EpContext(resolved_point(Scheme.ENTANGLED_PAIRS, g=0.1, **ETA)).joint
        n = 400_000
        entry = _alias_draw(table.cut, table.alias, np.random.default_rng(7).random(n))
        one_pair = (
            (entry < 3 * table.pairs) & (table.a0.take(entry) == 1) & (table.a1.take(entry) == 0)
        )
        p = 0.5 * 0.009801
        assert abs(np.count_nonzero(one_pair) / n - p) < 5 * freq_se(p, n)
        outcome = entry[one_pair] // table.pairs
        # D1 cannot fire without a photon, so that entry is never drawn
        for block, q in enumerate((ETA["eta_a"], 0.0, 1.0 - ETA["eta_a"])):
            hits = np.count_nonzero(outcome == block)
            assert abs(hits / n - p * q) <= 5 * freq_se(p * q, n)

    def test_same_seed_same_sequence(self):
        params = resolved_point(Scheme.ENTANGLED_PAIRS, g=0.3, **ETA)
        ctx = _EpContext(params)
        first = _ep_batch(np.random.default_rng(3), 5_000, ctx)
        second = _ep_batch(np.random.default_rng(3), 5_000, ctx)
        assert first == second
        assert first.sifted > 0

    def test_wcs_zero_mean(self):
        params = resolved_point(Scheme.WEAK_COHERENT, mu_prime=0.0, **ETA)
        counts = _prepared_batch(np.random.default_rng(9), 2_000, _PreparedContext(params))
        assert counts.sifted == 0 and counts.bob_no_click == 2_000

    def test_wcs_rejects_negative(self):
        with pytest.raises(ValueError):
            SourceParams(Scheme.WEAK_COHERENT, mu_prime=-0.1)

    def test_pdc_single_arm_zero_gain(self):
        params = resolved_point(Scheme.TRIGGERED_PDC, g=0.0, **ETA)
        counts = _prepared_batch(np.random.default_rng(15), 2_000, _PreparedContext(params))
        assert counts.triggered == 0 and counts.sifted == 0

    def test_pdc_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            SourceParams(Scheme.TRIGGERED_PDC, g=1.0)
