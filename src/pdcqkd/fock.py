"""Mismatched-basis count table of the two-crystal source, in closed form.

Occupations are four-mode tuples (A-mode0, A-mode1, B-mode0, B-mode1).  The
sector of t pairs per side is sum_m |m, t-m>_A |m, t-m>_B / sqrt(t+1).  The
diagonal analyzer, a0' = (a0 + a1)/sqrt(2) and a1' = (a0 - a1)/sqrt(2),
re-expands one side's |m, t-m> as

    sum_x 2^(-t/2) K(m, x) sqrt(x! (t-x)! / (m! (t-m)!)) |x, t-x>,

where the Krawtchouk value K(m, x) is the coefficient of z^x in
(1+z)^m (z-1)^(t-m).  In a mismatched round the other side keeps (m, t-m),
so different m never interfere: with Alice at + and Bob at x, the occupation
(m, t-m, x, t-x) has probability

    C(t, m) K(m, x)^2 / (C(t, x) 2^t (t+1)).

Both mismatched combos share this one table.  The sector state is a power of
a0'b0' + a1'b1' = a0 b0 + a1 b1, so rotating both sides leaves it unchanged,
and the rotation is its own inverse: rotating Alice's side alone gives the
same state as rotating Bob's alone.  In the closed form this is
C(t, m) |K(m, x)| = C(t, x) |K(x, m)|, so the table is also unchanged when the
sides are swapped.

K is built in integers, and each probability is one int-by-int division,
which Python rounds correctly.  So every entry carries a single rounding at
any total, where summing the alternating binomial terms in floats would
cancel away the digits.  Photon number per side is conserved term by term,
which is why sector-conditioned sampling in the protocol engine is exact.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

Occupation = tuple[int, int, int, int]


@lru_cache(maxsize=None)
def sector_distribution(total_pairs: int) -> tuple[tuple[Occupation, ...], tuple[float, ...]]:
    """Cached mismatched-basis count distribution of one per-side-total
    sector, as parallel tuples of sorted occupation and probability; the
    probabilities sum to 1 and occupations of probability 0 are left out."""
    t = total_pairs
    if t < 0:
        raise ValueError(f"no sector of total {t}")
    occs, probs = [], []
    c = [math.comb(t, x) for x in range(t + 1)]
    k = [cx * (-1) ** (t - x) for x, cx in enumerate(c)]  # (z-1)^t
    for m in range(t + 1):
        if m:
            # k <- k (1+z) / (z-1): k_x = -(q_0 + ... + q_x) for q = k (1+z)
            k = [-s for s in accumulate(map(int.__add__, k, [0] + k[:-1]))]
        for x, kx in enumerate(k):
            if kx:
                occs.append((m, t - m, x, t - x))
                probs.append(c[m] * kx * kx / ((c[x] << t) * (t + 1)))
    return tuple(occs), tuple(probs)
