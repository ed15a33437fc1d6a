"""The PNS interposer applied trial by trial, kept as an independent
reference for the engine's tables, which tabulate the same rule once per
row: the ``ep`` rows of ``pdcqkd.engine._Interposer``, and the class bytes
and Bob's thresholds of ``_PreparedContext``'s entries.
"""
from __future__ import annotations

import numpy as np


def intercept(u, b0, b1, p_block: float):
    """The PNS interposer on Bob's arm, photon counts ``b0``/``b1`` per mode,
    on one uniform ``u`` per event.

    A multi-photon signal loses one photon, taken from mode 1 when
    ``u * (b0 + b1) < b1`` (each photon equally likely) and from mode 0
    otherwise; a single photon is blocked when ``u < p_block``; vacuum, which
    includes the truncation-exceeded event, passes.  No event is both multi
    and single, so the one uniform decides each.  Returns the forwarded
    counts and the ``multi``, ``stored`` (mode of the stored photon,
    meaningful where ``multi``) and ``blocked`` masks.
    """
    total = b0 + b1
    multi = total >= 2
    stored = u * total < b1
    b0 = b0 - (multi & ~stored)
    b1 = b1 - (multi & stored)
    blocked = (total == 1) & (u < p_block)
    b0 = np.where(blocked, 0, b0)
    b1 = np.where(blocked, 0, b1)
    return b0, b1, multi, stored, blocked
