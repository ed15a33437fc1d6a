"""The PNS interposer's ways, enumerated one signal at a time, kept as an
independent reference for the engine's tables, which tabulate the same rule
once per row: the ``ep`` rows of ``pdcqkd.engine._Interposer``, and the class
bytes and Bob's thresholds of ``_PreparedContext``'s entries.
"""
from __future__ import annotations

import numpy as np


def ways(b0: int, b1: int, p_block: float) -> list[tuple[float, int, int, int | None, bool]]:
    """Each way the PNS interposer on Bob's arm can treat a signal of
    ``b0``/``b1`` photons in his two modes, as ``(probability, f0, f1,
    stored, blocked)``: the counts forwarded to Bob, the mode of the photon
    Eve stores (None when she stores none), and whether the signal is
    blocked.

    A multi-photon signal loses one photon, each equally likely, so Eve
    stores a photon of mode 1 with probability b1 / (b0 + b1) and one of mode
    0 with b0 / (b0 + b1); a single photon is blocked with ``p_block`` and
    passes otherwise; vacuum, which includes the truncation-exceeded event,
    passes.  A mode with no photon is no way; a single photon's block is
    listed even at probability 0.
    """
    total = b0 + b1
    if total == 0:
        return [(1.0, 0, 0, None, False)]
    if total == 1:
        return [(1.0 - p_block, b0, b1, None, False), (p_block, 0, 0, None, True)]
    return [
        (count / total, b0 - (mode == 0), b1 - (mode == 1), mode, False)
        for mode, count in ((0, b0), (1, b1))
        if count
    ]


def rows(probabilities, b0, b1, p_block: float):
    """The ``ways`` of entries ``j`` of probability ``probabilities[j]`` with
    ``b0[j]``/``b1[j]`` photons, laid out as rows ``2 j + low``, where the low
    way is the one that stores the photon of mode 1 or blocks.  Returns per
    row its probability, forwarded counts, and whether it is multi and low;
    a row that no way reaches has probability 0 and zero counts."""
    n = len(probabilities)
    weight, f0, f1 = np.zeros(2 * n), np.zeros(2 * n, dtype=int), np.zeros(2 * n, dtype=int)
    multi, low = np.zeros(2 * n, dtype=bool), np.tile([False, True], n)
    for j, (p, c0, c1) in enumerate(zip(np.asarray(probabilities).tolist(), b0.tolist(), b1.tolist())):
        for q, w0, w1, stored, blocked in ways(c0, c1, p_block):
            row = 2 * j + (stored == 1 or blocked)
            weight[row], f0[row], f1[row] = p * q, w0, w1
            multi[row] = stored is not None
    return weight, f0, f1, multi, low
