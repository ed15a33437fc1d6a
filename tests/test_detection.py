import numpy as np
import pytest

from pdcqkd.detection import ChannelParams, compose_bob_efficiency
from pdcqkd.engine import _fire_table, _tally

from conftest import freq_se


def tally(fb0, fb1, bit_a, matched=True, announced=True):
    fb0, fb1 = np.array(fb0), np.array(fb1)
    present = np.ones(len(fb0), dtype=bool)
    return _tally(present, announced, matched, True, np.array(bit_a), fb0, fb1)


class TestBobClicks:
    """Bob's two detectors read as no click, a single click or a double click."""

    def test_classify_table(self):
        # no click, single on mode 0, single on mode 1, double click
        counts = tally([0, 1, 0, 1], [0, 0, 1, 1], bit_a=[0, 0, 1, 1])
        assert counts.sifted == 2 and counts.errors == 0
        assert counts.bob_no_click == 1
        assert counts.dc_matched == 1 and counts.dc_mismatched == 0
        counts = tally([0, 1, 0, 1], [0, 0, 1, 1], bit_a=[0, 0, 1, 1], matched=False)
        assert counts.sifted == 0 and counts.bob_no_click == 1
        assert counts.dc_matched == 0 and counts.dc_mismatched == 1

    def test_single_click_carries_bit(self):
        # a click on mode 1 reads bit 1: wrong exactly where Alice holds 0
        counts = tally([1, 1, 0, 0], [0, 0, 1, 1], bit_a=[0, 1, 0, 1])
        assert counts.sifted == 4 and counts.errors == 2
        unannounced = tally([1, 0], [0, 1], bit_a=[1, 0], announced=np.array([False, True]))
        assert unannounced.sifted == 1 and unannounced.errors == 1


class TestDetectSide:
    """A detector seeing n photons fires with probability 1 - (1 - eta)^n."""

    def test_perfect_efficiency_is_deterministic(self):
        np.testing.assert_array_equal(_fire_table(1.0, 4), [0.0, 1.0, 1.0, 1.0, 1.0])

    def test_zero_efficiency_never_fires(self):
        np.testing.assert_array_equal(_fire_table(0.0, 4), np.zeros(5))

    def test_fire_probability_matches_yes_no_projector(self):
        # the kernels fire a detector seeing n photons when u < table[n]
        n, eta, count = 60_000, 0.3, 3
        p = 1.0 - (1.0 - eta) ** count
        table = _fire_table(eta, 4)
        assert table[count] == pytest.approx(p, abs=1e-15)
        fired = np.count_nonzero(np.random.default_rng(29).random(n) < table[count])
        assert abs(fired / n - p) < 5 * freq_se(p, n)


class TestChannelParams:
    def test_defaults_lossless(self):
        assert compose_bob_efficiency(ChannelParams()) == 1.0

    def test_bob_efficiency_is_product(self):
        params = ChannelParams(eta_a=0.5, eta_b=0.5, eta_l=0.2)
        assert compose_bob_efficiency(params) == pytest.approx(0.1, abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ChannelParams(eta_a=1.5)
        with pytest.raises(ValueError):
            ChannelParams(eta_l=-0.1)
