"""Float state algebra of the truncated two-crystal state, kept as an
independent reference for ``pdcqkd.fock``'s closed-form sector tables.

States are sparse maps from four-mode occupation tuples
(A-mode0, A-mode1, B-mode0, B-mode1) to complex amplitudes.  The diagonal
basis is reached by re-expanding each side's creation-operator monomial with

    a0' = (a0 + a1)/sqrt(2),   a1' = (a0 - a1)/sqrt(2),

which is self-inverse, so rotating a side twice restores the original
amplitudes.  The rotation sums terms of alternating sign and binomial size
in floats, so it loses precision as the sector total grows; compare with it
only at small totals.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from pdcqkd.fock import Occupation
from pdcqkd.source import GAIN

PRUNE_TOL = 1e-14


class Basis(enum.Enum):
    PLUS = "+"
    CROSS = "x"


def other(basis: Basis) -> Basis:
    return Basis.CROSS if basis is Basis.PLUS else Basis.PLUS


@dataclass(frozen=True)
class FockSuperposition:
    """Normalized superposition over four-mode occupation tuples."""

    amplitudes: dict[Occupation, complex]
    basis_a: Basis = Basis.PLUS
    basis_b: Basis = Basis.PLUS

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))


def _merged(raw: dict[Occupation, complex]) -> dict[Occupation, complex]:
    return {occ: amp for occ, amp in raw.items() if abs(amp) > PRUNE_TOL}


def build_truncated_state(g: float, truncation: int = 2) -> FockSuperposition:
    """State of the two-crystal source keeping terms with at most
    ``truncation`` total pairs, renormalized over the retained terms."""
    GAIN.require(g=g)
    raw: dict[Occupation, complex] = {}
    for total in range(truncation + 1):
        for m in range(total + 1):
            n = total - m
            raw[(m, n, m, n)] = complex(g**total)
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
    amplitudes = {occ: amp / norm for occ, amp in raw.items()}
    return FockSuperposition(amplitudes)


def build_sector_state(total_pairs: int) -> FockSuperposition:
    """Normalized component of the source state with a fixed per-side photon
    total.  Within one sector all pair configurations share the same source
    amplitude, so the sector state does not depend on the gain."""
    if total_pairs < 0:
        raise ValueError("total_pairs must be >= 0")
    amp = complex(1.0 / math.sqrt(total_pairs + 1))
    amplitudes = {
        (m, total_pairs - m, m, total_pairs - m): amp
        for m in range(total_pairs + 1)
    }
    return FockSuperposition(amplitudes)


def _rotate_pair(p: int, q: int) -> dict[tuple[int, int], float]:
    """Amplitude map for |p, q> of one side re-expanded in the rotated modes."""
    coeffs: dict[tuple[int, int], float] = {}
    base = (0.5) ** ((p + q) / 2.0) / math.sqrt(
        math.factorial(p) * math.factorial(q)
    )
    for i in range(p + 1):
        for j in range(q + 1):
            x = i + j
            y = (p - i) + (q - j)
            c = (
                base
                * math.comb(p, i)
                * math.comb(q, j)
                * (-1.0) ** (q - j)
                * math.sqrt(math.factorial(x) * math.factorial(y))
            )
            coeffs[(x, y)] = coeffs.get((x, y), 0.0) + c
    return coeffs


def rotate_side(state: FockSuperposition, side: str) -> FockSuperposition:
    """Re-express one side ('A' or 'B') in its conjugate polarization basis."""
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    off = 0 if side == "A" else 2
    raw: dict[Occupation, complex] = {}
    for occ, amp in state.amplitudes.items():
        p, q = occ[off], occ[off + 1]
        for (x, y), c in _rotate_pair(p, q).items():
            new = list(occ)
            new[off], new[off + 1] = x, y
            key = (new[0], new[1], new[2], new[3])
            raw[key] = raw.get(key, 0.0) + amp * c
    amplitudes = _merged(raw)
    if side == "A":
        return FockSuperposition(amplitudes, other(state.basis_a), state.basis_b)
    return FockSuperposition(amplitudes, state.basis_a, other(state.basis_b))


def joint_count_distribution(
    state: FockSuperposition, basis_a: Basis, basis_b: Basis
) -> dict[Occupation, float]:
    """Pre-detection photon-count distribution in the requested bases.

    Photon number per side is conserved by the rotation, so coherences
    between different per-side-total sectors never contribute; coherences
    within a sector are captured by the amplitude merge before squaring.
    """
    if state.basis_a is not basis_a:
        state = rotate_side(state, "A")
    if state.basis_b is not basis_b:
        state = rotate_side(state, "B")
    dist: dict[Occupation, float] = {}
    for occ, amp in state.amplitudes.items():
        p = abs(amp) ** 2
        if p > PRUNE_TOL**2:
            dist[occ] = dist.get(occ, 0.0) + p
    return dist


def verify_basis_invariance(g: float, truncation: int = 2) -> float:
    """Largest entry-wise difference between the count distributions measured
    with both analyzers at + and both at x."""
    state = build_truncated_state(g, truncation)
    d_plus = joint_count_distribution(state, Basis.PLUS, Basis.PLUS)
    d_cross = joint_count_distribution(state, Basis.CROSS, Basis.CROSS)
    keys = set(d_plus) | set(d_cross)
    return max(
        (abs(d_plus.get(k, 0.0) - d_cross.get(k, 0.0)) for k in keys),
        default=0.0,
    )
