import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdcqkd.fock import sector_distribution

from fock_reference import (
    Basis,
    FockSuperposition,
    build_sector_state,
    build_truncated_state,
    joint_count_distribution,
    rotate_side,
    verify_basis_invariance,
)

SQ2 = math.sqrt(0.5)
MISMATCHED = ((Basis.PLUS, Basis.CROSS), (Basis.CROSS, Basis.PLUS))


class TestBuildStates:
    def test_truncated_state_is_normalized(self):
        for g in (0.0, 0.1, 0.5, 0.9):
            state = build_truncated_state(g)
            assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_truncated_state_probabilities(self):
        g = 0.1
        state = build_truncated_state(g)
        # renormalized over the retained terms (1 vacuum, 2 singles, 3 doubles)
        z = 1.0 + 2.0 * g**2 + 3.0 * g**4
        p10 = abs(state.amplitudes[(1, 0, 1, 0)]) ** 2
        assert p10 == pytest.approx(g**2 / z, abs=1e-15)
        # close to the untruncated weight (1-g^2)^2 g^2 up to O(g^2)
        assert p10 == pytest.approx((1 - g * g) ** 2 * g * g, rel=3 * g * g)

    def test_truncated_state_support(self):
        state = build_truncated_state(0.3, truncation=3)
        occs = set(state.amplitudes)
        assert all(a0 == b0 and a1 == b1 for a0, a1, b0, b1 in occs)
        assert max(a0 + a1 for a0, a1, _, _ in occs) == 3
        assert len(occs) == 1 + 2 + 3 + 4

    def test_rejects_bad_gain(self):
        with pytest.raises(ValueError):
            build_truncated_state(1.0)

    def test_sector_state_uniform(self):
        state = build_sector_state(2)
        assert len(state.amplitudes) == 3
        for amp in state.amplitudes.values():
            assert abs(amp) ** 2 == pytest.approx(1.0 / 3.0, abs=1e-15)


class TestRotation:
    def test_single_photon_splits_evenly(self):
        state = FockSuperposition({(0, 0, 1, 0): 1.0 + 0j})
        rotated = rotate_side(state, "B")
        assert rotated.amplitudes[(0, 0, 1, 0)] == pytest.approx(SQ2, abs=1e-12)
        assert rotated.amplitudes[(0, 0, 0, 1)] == pytest.approx(SQ2, abs=1e-12)

    def test_two_photon_bunching(self):
        # one photon in each mode leaves through the same rotated port
        state = FockSuperposition({(0, 0, 1, 1): 1.0 + 0j})
        rotated = rotate_side(state, "B")
        assert abs(rotated.amplitudes[(0, 0, 2, 0)]) ** 2 == pytest.approx(
            0.5, abs=1e-12
        )
        assert abs(rotated.amplitudes[(0, 0, 0, 2)]) ** 2 == pytest.approx(
            0.5, abs=1e-12
        )
        assert (0, 0, 1, 1) not in rotated.amplitudes

    def test_rotation_is_self_inverse(self):
        state = build_truncated_state(0.4)
        twice = rotate_side(rotate_side(state, "A"), "A")
        assert twice.basis_a is state.basis_a
        for occ, amp in state.amplitudes.items():
            assert twice.amplitudes[occ] == pytest.approx(amp, abs=1e-12)

    @given(g=st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_rotation_preserves_norm(self, g):
        state = build_truncated_state(g)
        assert rotate_side(state, "B").norm() == pytest.approx(1.0, abs=1e-10)

    def test_rotation_preserves_side_totals(self):
        state = build_sector_state(2)
        rotated = rotate_side(state, "B")
        for _, _, b0, b1 in rotated.amplitudes:
            assert b0 + b1 == 2

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError):
            rotate_side(build_sector_state(1), "C")


class TestCountDistributions:
    def test_distribution_normalized(self):
        state = build_truncated_state(0.3)
        for ba in Basis:
            for bb in Basis:
                dist = joint_count_distribution(state, ba, bb)
                assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_matched_rotated_equals_unrotated(self):
        # identical analyzers on both sides leave the count statistics alone
        for g in (0.05, 0.1, 0.3):
            assert verify_basis_invariance(g) < 1e-10

    def test_mismatched_cross_coincidence_suppressed(self):
        # the double-pair sector shows no A-total-2 term with Bob photons split
        occs, probs = sector_distribution(2)
        table = dict(zip(occs, probs))
        for (a0, a1, b0, b1), p in table.items():
            assert a0 + a1 == 2 and b0 + b1 == 2
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_single_pair_mismatched_is_uniform(self):
        occs, probs = sector_distribution(1)
        assert len(occs) == 4
        for p in probs:
            assert p == pytest.approx(0.25, abs=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("total", [0, 1, 2, 27, 28, 64, 127])
    def test_sums_to_one_with_every_entry_positive(self, total):
        occs, probs = sector_distribution(total)
        assert abs(math.fsum(probs) - 1.0) <= 1e-15
        assert min(probs) > 0.0 and list(occs) == sorted(occs)

    @pytest.mark.parametrize("total", [0, 1, 2, 5, 28, 64, 127])
    def test_table_is_unchanged_by_the_side_swap(self, total):
        # so one table serves both mismatched combos, entry for entry
        occs, probs = sector_distribution(total)
        swapped = sorted(((b0, b1, a0, a1), p) for (a0, a1, b0, b1), p in zip(occs, probs))
        assert swapped == list(zip(occs, probs))

    @pytest.mark.parametrize("bases", MISMATCHED)
    def test_matches_the_float_rotation_at_small_totals(self, bases):
        # both combos' float rotations against the one table
        for total in range(31):
            table = dict(zip(*sector_distribution(total)))
            reference = joint_count_distribution(build_sector_state(total), *bases)
            for occ in table.keys() | reference.keys():
                assert table.get(occ, 0.0) == pytest.approx(reference.get(occ, 0.0), abs=1e-14)
            # the rotation leaves float residue where the Krawtchouk value is 0
            residue = reference.keys() - table.keys()
            assert table.keys() <= reference.keys()
            assert not residue if total <= 27 else max((reference[o] for o in residue), default=0.0) <= 6e-28

    @pytest.mark.parametrize("total", [-1, -2])
    def test_negative_totals_raise(self, total):
        with pytest.raises(ValueError):
            sector_distribution(total)
