"""Monte Carlo protocol engine for the three key-distribution schemes.

Trials are partitioned into fixed-size batches; batch ``i`` of a run draws
from its own SFC64 stream, seeded by ``SeedSequence(master_seed,
spawn_key=(i,))``, so the aggregated integer counts -- and therefore the
whole report -- are bit-identical for a fixed seed regardless of how batches
are spread over workers.  Changing BATCH_SIZE changes the streams and is part
of the reproducibility contract; so is any change to the generator or to the
draws a kernel makes, which bumps STREAM_VERSION.

One kernel, ``_chunk``, serves every scheme.  A trial draws a row of its
run context's alias table (Walker's alias method) on one uniform; Bob's two
detectors then fire on the other in ``_two_detectors``, against thresholds
that make them independent yes/no detectors, and ``_tally`` sifts and counts
the rows by bit tests on their class bytes.  The class byte and Bob's
thresholds depend only on the row, so each context tabulates them once per
run, and a trial only indexes tables.  The contexts differ in their rows.

``_EpContext`` draws a joint table over the source and Alice's side: each
pair configuration in matched bases, where the classical per-photon model is
exact because the source state keeps its form under an identical basis
change on both sides, split three ways by Alice's outcome (D0 alone, D1
alone, no single click) from her two independent yes/no detectors, each
firing with probability 1 - (1 - eta)^n; then each count pair of Bob's in a
mismatched-basis round, at its probability under the sector-conditioned Fock
distribution that both mismatched combos share, which carries the two-photon
interference the classical model misses; and last the truncation-exceeded
event.  No tally reads Alice's side of a mismatched round, so its entries
sum over her occupations.  Under attack each entry is two rows, the two ways
of the PNS interposer, ``_Interposer``.

``_PreparedContext`` draws the ``wcs``/``pdc`` photon number, whether the
``pdc`` herald fires (with probability 1 - (1 - eta_a)^n) and, under attack,
whether a single photon is blocked, with Alice's bit and both bases.  A
prepared signal holds all its photons in the mode of Alice's bit, so the
interposer's rule leaves nothing else to chance -- Eve stores a photon of
that mode from every multi-photon signal -- and its rows are its entries.
Bob's thresholds give the yes/no detector law in the matched basis and
binomial loss followed by a 50:50 split in the other.

Every draw is a uniform, all of a batch's from one call through the run
context's ``uniforms`` into one float64 buffer, which every batch of a batch
range reuses.  ``_chunk`` runs on column slices of at most ``CHUNK_SIZE``
trials, and the batch sums their counts.  Every stage is elementwise and
every tally a sum, and the buffer holds the same doubles in the same order as
``rng.random((rows, size))``, so the chunking changes no count and no stream.
At 2^13 trials a float64 temporary is 64 KiB, under glibc's default 128 KiB
mmap threshold, so the temporaries come from reused heap memory instead of
fresh pages handed back to the operating system after every batch: a
2^16-trial batch took about 1,000 minor page faults with whole-batch
temporaries, and fewer than one with the chunks.

A run's inputs are one ``_RunParams`` record, which ``_resolve_run_params``
alone builds from a config: the source, the channel, the attack rates and
the blocking probability.  ``run_experiments`` runs a list of these
records -- the points of a sweep, all resolved before any batch runs.  Each
run's batches are split into ``min(workers, n_batches)`` contiguous ranges,
and every range of every run goes through one ``map``: in this process, a
range at a time, when no run has more than one range, otherwise the ``map``
of the interpreter's one process pool, which submits them all before the
first report is folded.  Reports come back in order, each folded from its own
ranges' integer counts, so a run's report is the same whether it runs
alone, in a sweep, or on any number of workers.

The pool is forked the first time a run has more than one range, with one
process per range, and later runs reuse it, so its workers stay warm: their
``fock`` cache filled, their memory paged in.  A run with more ranges than
the pool has processes shuts it down and forks a bigger one.  A pool that
raised ``BrokenProcessPool`` is dropped; the next run forks a fresh one,
and so does a run that finds its pool broken before any of its ranges was
submitted.  What a range reads of the parent's state after the fork comes
pickled with it, in its ``_RunParams``, so reuse changes no report.
``concurrent.futures`` joins the workers when the interpreter exits.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import threading
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from typing import Optional

import numpy as np

from . import analytics, eve, fock
from .config import ExperimentConfig
from .detection import ChannelParams, compose_bob_efficiency
from .source import (
    AUTO,
    ConfigError,
    PairDistribution,
    Scheme,
    SourceParams,
    pair_distribution,
    photon_number_law,
)

BATCH_SIZE = 1 << 16
# trials per kernel pass over a batch's uniforms (see the module docstring)
CHUNK_SIZE = 1 << 13
# 1: per-sector inverse-CDF draws and binomial detectors in the ep kernel;
# 2: one joint-table draw and per-count detector thresholds;
# 3: the same for the wcs/pdc kernel (ep streams as in 2);
# 4: each ep side's two detectors on one uniform, one interposer uniform
#    (wcs/pdc streams as in 3);
# 5: each batch draws from SFC64 seeded by SeedSequence (every draw as in 4);
# 6: one mismatched-basis block in the ep joint table (wcs/pdc streams as in 5);
# 7: Alice's ep outcome drawn with the joint entry, in a matched-basis block
#    per outcome, and no Alice uniform (wcs/pdc streams as in 6);
# 8: the pdc herald and the single-photon block drawn with the wcs/pdc
#    entry, and no herald or interposer uniform (ep streams as in 7);
# 9: the ep interposer's way drawn with the joint entry, in two rows per
#    entry, and no interposer uniform (unattacked ep and wcs/pdc streams as
#    in 8);
# 10: one mismatched-basis ep entry per count pair of Bob's, summed over
#    Alice's side, so every ep stream moves (wcs/pdc streams as in 9).
STREAM_VERSION = 10


# ---------------------------------------------------------------------------
# Vectorized batch kernels
# ---------------------------------------------------------------------------


@dataclass
class _Counts:
    trials: int = 0
    excluded: int = 0
    sifted: int = 0
    errors: int = 0
    dc_matched: int = 0
    dc_mismatched: int = 0
    bob_no_click: int = 0
    triggered: int = 0
    touched_sifted: int = 0
    eve_alice_hits: int = 0
    eve_bob_hits: int = 0
    blocked: int = 0

    def __add__(self, other: "_Counts") -> "_Counts":
        return _Counts(
            *[getattr(self, name) + getattr(other, name) for name in _COUNT_FIELDS]
        )


_COUNT_FIELDS = tuple(f.name for f in fields(_Counts))


@dataclass(frozen=True)
class _RunParams:
    """One resolved point, as ``_resolve_run_params`` builds it: picklable,
    and all that a run, its report and its analytic row read.

    ``config`` is the point as given.  ``block_probability`` is the attack's
    blocking probability, solved when the config says ``auto``; it is None
    without an attack, and for an ``auto`` attack with no rate to match at a
    point without trials.  ``rates`` are the point's ``eve.attack_rates``,
    None for an unattacked ``ep`` point.
    """

    config: ExperimentConfig
    source: SourceParams
    channel: ChannelParams
    block_probability: Optional[float]
    rates: Optional[analytics.AttackRates]

    @property
    def bob_eta(self) -> float:
        """Probability that one photon on Bob's arm is detected: line and
        detector loss, or 1 under attack, where the interceptor forwards over
        a lossless line with guaranteed detection."""
        if self.config.attack is None:
            return compose_bob_efficiency(self.channel)
        return 1.0


def _fire_table(eta: float, max_count: int) -> np.ndarray:
    """P(a detector fires) = 1 - (1 - eta)^n for n = 0 .. max_count photons."""
    return 1.0 - (1.0 - eta) ** np.arange(max_count + 1, dtype=np.float64)


def _pair_thresholds(f0: np.ndarray, f1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholds of ``_two_detectors`` for two independent yes/no detectors
    that fire with probabilities ``f0`` and ``f1``: D0 fires on [0, f0) and
    D1 on [f0 (1 - f1), f0 (1 - f1) + f1), which overlap on a length f0 f1."""
    d1_lo = f0 * (1.0 - f1)
    return f0, d1_lo, d1_lo + f1


def _two_detectors(u, index, d0, d1_lo, d1_hi):
    """Which of a side's two detectors fire, both on the uniforms ``u``: D0
    when ``u < d0``, D1 when ``d1_lo <= u < d1_hi``, with the thresholds taken
    at ``index``."""
    return u < d0.take(index), (u >= d1_lo.take(index)) & (u < d1_hi.take(index))


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker alias table of a categorical distribution, padded with empty
    entries to a power-of-two length ``k``.

    For a uniform ``u`` in [0, 1), ``x = u * k`` is exact; entry
    ``i = floor(x)`` is kept when ``x < cut[i]`` and replaced by ``alias[i]``
    otherwise, which selects entry ``j`` with probability ``weights[j]`` up
    to float64 rounding.
    """
    k = 1 << (len(weights) - 1).bit_length()
    scaled = np.zeros(k)
    scaled[: len(weights)] = weights * (k / weights.sum())
    # Python floats round as float64 scalars do, and the loop runs faster
    # on them than on numpy's
    scaled = scaled.tolist()
    alias = list(range(k))
    small = [i for i, s in enumerate(scaled) if s < 1.0]
    large = [i for i, s in enumerate(scaled) if s >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    # what is left over holds weight 1 up to rounding
    for i in small + large:
        scaled[i] = 1.0
    return np.arange(k) + np.array(scaled), np.array(alias, dtype=np.intp)


def _alias_draw(cut: np.ndarray, alias: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry indices of an ``_alias_table`` for uniforms ``u`` in [0, 1)."""
    x = u * len(cut)
    i = x.astype(np.intp)
    return np.where(x < cut.take(i), i, alias.take(i))


@dataclass(frozen=True)
class _JointTable:
    """One categorical distribution over everything an ``ep`` trial draws
    before the interposer and Bob's detectors; its entries are the rows of an
    unattacked ``_EpContext``.

    Entry ``j`` has probability ``probabilities[j]`` and Bob's photon counts
    ``b0, b1`` in his analyzer modes, int8.  Four blocks of ``pairs`` entries
    hold the pair configurations (m, n) of ``dist``, with Bob at (m, n), and
    the truncation-exceeded event (one entry, no photons) comes last.  The
    three matched blocks hold each configuration at half its probability
    times the probability that Alice's detectors, which fire with ``fire_a``
    at m and n, give D0 alone, D1 alone, and no single click.  The mismatched
    block holds each count pair of Bob's at the sum, over the sector tables'
    occupations where he holds it, of the total's probability times 1/2
    (either mismatched combo) times the sector probability.
    """

    probabilities: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    pairs: int

    @classmethod
    def build(cls, dist: PairDistribution, sector_tables: dict, fire_a: np.ndarray) -> _JointTable:
        m, n = np.array([(c.m, c.n) for c in dist.configs]).T
        f0, f1 = fire_a.take(m), fire_a.take(n)
        half = 0.5 * dist.probabilities
        alice = (f0 * (1.0 - f1), f1 * (1.0 - f0), f0 * f1 + (1.0 - f0) * (1.0 - f1))
        # each occupation at half its total's probability times its sector
        # probability, the last one taking all mass beyond the one before, as
        # inverse-CDF sampling of ``cdf`` does
        half_total = np.bincount(m + n, weights=half)
        cdfs, b0, b1 = zip(*sector_tables.values())
        weights = np.concatenate([
            half_total[total] * np.diff(cdf[:-1], prepend=0.0, append=1.0)
            for total, cdf in zip(sector_tables, cdfs)
        ])
        # dist.configs run by total, then by m, so Bob's (b0, b1) is
        # configuration s (s + 1) / 2 + b0 at s = b0 + b1
        b0, b1 = np.concatenate(b0), np.concatenate(b1)
        s = b0 + b1
        mismatched = np.bincount(s * (s + 1) // 2 + b0, weights=weights, minlength=len(m))
        probabilities = np.concatenate([*(half * q for q in alice), mismatched, [dist.tail]])
        b0, b1 = (np.append(np.tile(k, 4), 0).astype(np.int8) for k in (m, n))
        return cls(probabilities, b0, b1, len(m))


# A row's class byte, one bit per flag that ``_tally`` reads: present (not
# truncation-exceeded); announced by Alice; kept (announced in matched bases);
# a sift candidate (kept, and Alice holds a bit); her bit; under attack, a
# multi-photon arm that Eve splits, and the interposer's low way (Eve stores
# the photon of mode 1, or blocks a single photon); a prepared herald.
PRESENT, ANNOUNCED, KEPT, CANDIDATE, BIT, MULTI, LOW, HERALD = (np.uint8(1 << i) for i in range(8))


@dataclass(frozen=True)
class _Interposer:
    """The PNS interposer on Bob's arm, tabulated over the entries of a
    table whose entry ``j`` holds ``b0[j]``/``b1[j]`` photons in Bob's two
    modes: the ``ep`` joint table's, whose multi-photon arms can hold photons
    in both modes (a prepared signal needs none, see ``_PreparedContext``).

    Entry ``j`` goes the high way, row ``2 j``, or the low way, row
    ``2 j + 1``, as in ``analytics._bob_arm``: a multi-photon signal loses one
    photon, each equally likely, and the low way stores the photon of mode 1,
    with probability s = b1 / (b0 + b1); a single photon is blocked, the low
    way, with s = ``p_block``; vacuum, the truncation-exceeded entry
    included, passes (s = 0).  Per row, ``share`` is its way's probability,
    1 - s or s, ``classes`` holds the ``MULTI`` and ``LOW`` bits of the class
    byte, and ``f0``/``f1`` the counts forwarded to Bob.  A low row that is
    not multi is a blocked single photon.
    """

    share: np.ndarray
    classes: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    @classmethod
    def build(cls, b0: np.ndarray, b1: np.ndarray, p_block: float) -> "_Interposer":
        total = b0 + b1
        multi, single = total >= 2, total == 1
        low_share = np.divide(b1, total, out=np.zeros(len(total)), where=multi)
        low_share[single] = p_block
        # a multi-photon entry with no photon in one mode never goes that
        # mode's way (its row has share 0); the clamp keeps that row's counts
        high = (np.maximum(b0 - multi, 0), b1)
        low = (np.where(single, 0, b0), np.where(single, 0, np.maximum(b1 - multi, 0)))
        share = np.stack([1.0 - low_share, low_share], axis=1).ravel()
        f0, f1 = (np.stack(way, axis=1).ravel() for way in zip(high, low))
        classes = np.repeat(multi.astype(np.uint8) * MULTI, 2)
        classes[1::2] |= LOW
        return cls(share, classes, f0, f1)


class _BatchContext:
    """A float64 buffer for a batch's uniforms, reused by every batch a run
    context serves; empty until the first batch.

    A run context also holds what ``_chunk`` reads per row: the alias table
    ``(cut, alias)``, the class bytes ``classes``, Bob's thresholds ``bob``,
    whether it is ``attacked``, and whether a row can herald (``heralds``).
    """

    _buffer = np.empty(0)
    heralds = False

    def uniforms(self, rng: np.random.Generator, rows: int, size: int) -> np.ndarray:
        """A batch's ``(rows, size)`` uniforms from one ``rng.random`` call:
        the same doubles, in the same order, as ``rng.random((rows, size))``,
        in a view of the buffer that the next call overwrites."""
        if self._buffer.size < rows * size:
            self._buffer = np.empty(rows * size)
        u = self._buffer[: rows * size].reshape(rows, size)
        rng.random(out=u)
        return u


class _EpContext(_BatchContext):
    """Per-run tables of the entangled-pair kernel.

    ``sector_tables`` maps each sector total, from 0 (the vacuum, one
    occupation) to the truncation, to the inverse-CDF table ``(cdf, b0, b1)``
    of its mismatched-basis occupations, which both mismatched combos share
    (see ``fock``), with Bob's counts of each.  ``fire_a``/``fire_b`` are
    each side's per-count fire tables.

    The row tables are derived from the sector tables on first use, so they
    always reflect the sector tables the kernel sees.  The rows are the
    entries of the joint table, which holds Alice's outcome in its matched
    blocks, or under attack the rows of ``interposer``, the ``_Interposer``
    of Bob's counts, and ``weights`` holds their probabilities.  The class
    byte's other bits follow the joint table's block bounds: every entry but
    the exceeded one is present and announced, the three matched blocks are
    kept, the first two (Alice's single click) are sift candidates, and the
    second has bit 1.  ``bob`` holds Bob's thresholds at each row's counts.
    """

    def __init__(self, params: _RunParams):
        truncation = params.source.truncation_order
        self.dist = pair_distribution(params.source)
        self.block_probability = params.block_probability
        self.attacked = params.block_probability is not None
        self.sector_tables = {}
        for total in range(truncation + 1):
            occs, probs = fock.sector_distribution(total)
            b0 = np.fromiter((occ[2] for occ in occs), np.int64, len(occs))
            self.sector_tables[total] = (np.cumsum(probs), b0, total - b0)
        # no mode holds more photons than the truncation allows pairs
        self.fire_a = _fire_table(params.channel.eta_a, truncation)
        self.fire_b = _fire_table(params.bob_eta, truncation)

    @cached_property
    def joint(self) -> _JointTable:
        return _JointTable.build(self.dist, self.sector_tables, self.fire_a)

    @cached_property
    def interposer(self) -> _Interposer:
        return _Interposer.build(self.joint.b0, self.joint.b1, self.block_probability)

    @cached_property
    def weights(self) -> np.ndarray:
        if not self.attacked:
            return self.joint.probabilities
        return np.repeat(self.joint.probabilities, 2) * self.interposer.share

    @cached_property
    def alias_table(self) -> tuple[np.ndarray, np.ndarray]:
        return _alias_table(self.weights)

    cut = property(lambda self: self.alias_table[0])
    alias = property(lambda self: self.alias_table[1])

    @cached_property
    def classes(self) -> np.ndarray:
        pairs = self.joint.pairs
        classes = np.full(len(self.joint.probabilities), PRESENT | ANNOUNCED, dtype=np.uint8)
        classes[: 3 * pairs] |= KEPT
        classes[: 2 * pairs] |= CANDIDATE
        classes[pairs : 2 * pairs] |= BIT
        classes[-1] = 0
        if not self.attacked:
            return classes
        return np.repeat(classes, 2) | self.interposer.classes

    @cached_property
    def bob(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self.attacked:
            n0, n1 = self.interposer.f0, self.interposer.f1
        else:
            n0, n1 = self.joint.b0, self.joint.b1
        return _pair_thresholds(self.fire_b.take(n0), self.fire_b.take(n1))


# A prepared trial's combo c = bit | basis_a << 1 | basis_b << 2; all eight
# are equally likely.
_COMBOS = np.arange(8)
_COMBO_BIT = _COMBOS & 1
_COMBO_MATCHED = (_COMBOS >> 1 & 1) == _COMBOS >> 2


def _bob_thresholds(eta: float, max_count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bob's two detectors on one uniform ``u``, per forwarded photon count k
    and combo c (flat index ``8 k + c``): D0 fires when ``u < d0``, D1 when
    ``d1_lo <= u < d1_hi``.

    In the matched basis every photon is in the mode of Alice's bit, and that
    detector fires with probability 1 - (1 - eta)^k.  In the other basis each
    photon reaches D0 with probability eta/2, D1 with eta/2, or is lost, so
    each detector fires alone with probability (1 - eta/2)^k - (1 - eta)^k
    and both share the rest of 1 - (1 - eta)^k: D0 alone on [0, alone), both
    on [alone, fire - alone), D1 alone on [fire - alone, fire).
    """
    k = np.arange(max_count + 1, dtype=np.float64)[:, None]
    fire = _fire_table(eta, max_count)[:, None]
    alone = (1.0 - 0.5 * eta) ** k - (1.0 - eta) ** k
    d0 = np.where(_COMBO_MATCHED, np.where(_COMBO_BIT == 0, fire, 0.0), fire - alone)
    d1_lo = np.where(_COMBO_MATCHED, 0.0, alone)
    d1_hi = np.where(_COMBO_MATCHED & (_COMBO_BIT == 0), 0.0, fire)
    return d0.ravel(), d1_lo.ravel(), d1_hi.ravel()


class _PreparedContext(_BatchContext):
    """Per-run tables of the prepare-and-measure kernel.

    ``law`` is the photon-number law of ``source.photon_number_law``.  The
    alias table ``(cut, alias)`` draws a slot ``s = 4 n + 2 dark + blocked``
    -- n photons, the ``pdc`` herald dark or fired, a single photon blocked
    or not -- with probability ``law[n]`` times the herald's fire
    probability 1 - (1 - eta_a)^n, or the rest when dark, times the
    blocking probability at n = 1 under attack, or the rest when not
    blocked.  ``wcs`` always announces and only n = 1 can be blocked, so a
    ``wcs`` dark slot and a blocked slot at any other n have weight 0.
    Only the slots go through ``_alias_table``, and each is split into
    entries ``8 s + c`` for the eight equally likely combos c, which keeps
    the build linear in the table length.

    A prepared signal holds all its photons in the mode of Alice's bit, so a
    multi-photon entry goes one way of the interposer only, the way of that
    mode, and the slot decides a single photon's block: the rows are the
    entries.  An entry's class byte comes from its bit fields: it is
    present; announced and triggered when the herald fired, and then kept in
    matched bases and a sift candidate, as Alice always holds her bit; multi
    at n >= 2 under attack, where low is Alice's bit, the mode of the photon
    Eve stores, and otherwise low in a blocked slot.  ``bob`` holds Bob's
    thresholds of ``_bob_thresholds`` at the entry's combo and the count
    forwarded to him: n - 1 when multi, 0 when blocked, n otherwise.
    """

    heralds = True

    def __init__(self, params: _RunParams):
        self.law = photon_number_law(params.source)
        n_max = len(self.law) - 1
        block = params.block_probability
        self.attacked = block is not None
        fire = np.ones(n_max + 1)
        if params.source.scheme is Scheme.TRIGGERED_PDC:
            fire = _fire_table(params.channel.eta_a, n_max)
        passes = np.ones(n_max + 1)
        if self.attacked and n_max >= 1:
            passes[1] = 1.0 - block
        herald = np.stack([fire, 1.0 - fire], axis=1)
        blocking = np.stack([passes, 1.0 - passes], axis=1)
        weights = self.law[:, None, None] * herald[:, :, None] * blocking[:, None, :]
        cut, alias = _alias_table(weights.ravel())
        slots = np.arange(len(cut))[:, None]
        self.cut = (8 * slots + _COMBOS + (cut[:, None] - slots)).ravel()
        self.alias = (8 * alias[:, None] + _COMBOS).ravel()

        entry = np.arange(32 * (n_max + 1))
        photons, combo = entry >> 5, entry & 7
        announced = (entry & 16) == 0
        bit = (entry & 1) != 0
        multi = (photons >= 2) & self.attacked
        # a blocked slot at n >= 2 has weight 0; its row is multi
        blocked = ((entry & 8) != 0) & ~multi
        self.classes = np.full(len(entry), PRESENT, dtype=np.uint8)
        self.classes[announced] |= ANNOUNCED | HERALD
        self.classes[announced & _COMBO_MATCHED.take(combo)] |= KEPT | CANDIDATE
        self.classes[bit] |= BIT
        self.classes[multi] |= MULTI
        self.classes[blocked | (multi & bit)] |= LOW
        forwarded = np.where(blocked, 0, photons - multi)
        self.bob = tuple(
            t.take(8 * forwarded + combo) for t in _bob_thresholds(params.bob_eta, n_max)
        )


def _tally(
    classes: np.ndarray, fb0: np.ndarray, fb1: np.ndarray, attacked: bool, heralds: bool = False
) -> _Counts:
    """Sift one chunk of rows with the class bytes ``classes`` and count it;
    ``fb0``/``fb1`` say which of Bob's detectors fired.  Only rows that can
    herald (``heralds``) are counted for ``triggered``.

    A sifted bit needs a sift candidate and a single click on Bob's side,
    which carries his bit; an absent row holds no photons, so no click.
    Under attack Eve guesses the stored photon's mode, the low way's, for
    both bits, and a low row that is not multi is a blocked single photon.
    """
    size = len(fb0)
    present = int(np.count_nonzero(classes & PRESENT))
    kept, bit, sifted = ((classes & flag).astype(bool) for flag in (KEPT, BIT, CANDIDATE))
    sifted &= fb0 ^ fb1
    mismatched = (classes & (ANNOUNCED | KEPT)) == ANNOUNCED
    b_double = fb0 & fb1
    counts = _Counts(
        trials=size,
        excluded=size - present,
        sifted=int(np.count_nonzero(sifted)),
        errors=int(np.count_nonzero(sifted & (bit != fb1))),
        dc_matched=int(np.count_nonzero(kept & b_double)),
        dc_mismatched=int(np.count_nonzero(mismatched & b_double)),
        bob_no_click=present - int(np.count_nonzero(fb0 | fb1)),
        triggered=int(np.count_nonzero(classes & HERALD)) if heralds else 0,
    )
    if attacked:
        touched = sifted & (classes & MULTI).astype(bool)
        low = (classes & LOW).astype(bool)
        counts.touched_sifted = int(np.count_nonzero(touched))
        counts.eve_alice_hits = int(np.count_nonzero(touched & (low == bit)))
        counts.eve_bob_hits = int(np.count_nonzero(touched & (low == fb1)))
        counts.blocked = int(np.count_nonzero((classes & (MULTI | LOW)) == LOW))
    return counts


def _chunks(u: np.ndarray) -> Iterator[np.ndarray]:
    """Column slices of at most ``CHUNK_SIZE`` trials of a batch's uniforms."""
    return (u[:, lo : lo + CHUNK_SIZE] for lo in range(0, u.shape[1], CHUNK_SIZE))


def _chunk(u: np.ndarray, ctx: _EpContext | _PreparedContext) -> _Counts:
    row = _alias_draw(ctx.cut, ctx.alias, u[0])
    fb0, fb1 = _two_detectors(u[1], row, *ctx.bob)
    return _tally(ctx.classes.take(row), fb0, fb1, ctx.attacked, ctx.heralds)


def _batch(rng: np.random.Generator, size: int, ctx: _EpContext | _PreparedContext) -> _Counts:
    # rows: the alias draw, Bob's detectors
    u = ctx.uniforms(rng, 2, size)
    return sum((_chunk(chunk, ctx) for chunk in _chunks(u)), _Counts())


# one batch function under each scheme's name, which the benchmark's tracer
# patches to time each scheme apart
_ep_batch = _prepared_batch = _batch


def _batch_rng(master_seed: int, batch_index: int) -> np.random.Generator:
    seed = np.random.SeedSequence(int(master_seed), spawn_key=(batch_index,))
    return np.random.Generator(np.random.SFC64(seed))


def _run_batch_range(params: _RunParams, start: int, stop: int) -> _Counts:
    # the kernel is looked up at call time, as the benchmark's tracer patches it
    if params.source.scheme is Scheme.ENTANGLED_PAIRS:
        ctx, batch = _EpContext(params), _ep_batch
    else:
        ctx, batch = _PreparedContext(params), _prepared_batch
    counts = _Counts()
    for b in range(start, stop):
        size = min(BATCH_SIZE, params.config.trials - b * BATCH_SIZE)
        counts = counts + batch(_batch_rng(params.config.master_seed, b), size, ctx)
    return counts


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rate:
    """A report's rate: its row stem, the ``_Counts`` tally it counts, what
    it is a share of (``valid``, the trials inside the truncation, or a
    tally) and its ``RateReport`` field.  A judged rate also has the report
    field ``<stem>_se`` and the row columns ``<stem>_mc``, ``_se``,
    ``_oracle`` and ``_z``; an unjudged rate's row column is its field."""

    stem: str
    tally: str
    share_of: str
    field: str
    judged: bool = True


# Every rate of a report.  compare judges those with an oracle column and a
# denominator that a row carries; no row carries the touched bits.
RATES = (
    Rate("r_key", "sifted", "valid", "r_key"),
    Rate("r_err", "errors", "valid", "r_err"),
    Rate("epsilon", "errors", "sifted", "epsilon"),
    Rate("double_click_matched", "dc_matched", "valid", "double_click_matched"),
    Rate("double_click_mismatched", "dc_mismatched", "valid", "double_click_mismatched"),
    Rate("bob_no_click", "bob_no_click", "valid", "bob_no_click_rate"),
    Rate("eve_touched", "touched_sifted", "sifted", "eve_touched_fraction", judged=False),
    Rate("p_ae", "eve_alice_hits", "touched_sifted", "p_ae_hat", judged=False),
    Rate("p_eb", "eve_bob_hits", "touched_sifted", "p_eb_hat", judged=False),
)


@dataclass(frozen=True)
class RateReport:
    scheme: Scheme
    trials: int
    valid_trials: int
    truncation_exceeded_count: int
    sifted_count: int
    error_count: int
    r_key: Optional[float]
    r_key_se: Optional[float]
    r_err: Optional[float]
    r_err_se: Optional[float]
    epsilon: Optional[float]
    epsilon_se: Optional[float]
    double_click_matched: Optional[float]
    double_click_matched_se: Optional[float]
    double_click_mismatched: Optional[float]
    double_click_mismatched_se: Optional[float]
    double_click_matched_count: int
    bob_no_click_rate: Optional[float]
    bob_no_click_se: Optional[float]
    triggered_count: int
    eve_touched_fraction: Optional[float]
    p_ae_hat: Optional[float]
    p_eb_hat: Optional[float]
    i_ae: Optional[float]
    i_eb: Optional[float]
    eve_blocked_count: int
    block_probability: Optional[float]
    master_seed: int

    def to_dict(self) -> dict:
        return {**asdict(self), "scheme": self.scheme.value, "stream_version": STREAM_VERSION}


def _build_report(counts: _Counts, point: _RunParams) -> RateReport:
    valid = counts.trials - counts.excluded
    rates = {}
    for rate in RATES:
        n = valid if rate.share_of == "valid" else getattr(counts, rate.share_of)
        # a rate over an empty denominator, and its standard error, is None
        rates[rate.field] = p = getattr(counts, rate.tally) / n if n else None
        if rate.judged:
            rates[f"{rate.stem}_se"] = None if p is None else math.sqrt(p * (1.0 - p) / n)
    touched, p_ae, p_eb = (rates[k] for k in ("eve_touched_fraction", "p_ae_hat", "p_eb_hat"))
    if p_ae is not None:
        # Eq. 10: Eve knows a touched bit with her hit probability and guesses
        # every other one
        i_ae = analytics.eq10_information([(touched, p_ae), (1.0 - touched, 0.5)])
        i_eb = analytics.eq10_information([(touched, p_eb), (1.0 - touched, 0.5)])
    else:
        i_ae = i_eb = 0.0 if counts.sifted > 0 and point.block_probability is not None else None
    return RateReport(
        scheme=point.source.scheme,
        trials=counts.trials,
        valid_trials=valid,
        truncation_exceeded_count=counts.excluded,
        sifted_count=counts.sifted,
        error_count=counts.errors,
        double_click_matched_count=counts.dc_matched,
        triggered_count=counts.triggered,
        i_ae=i_ae,
        i_eb=i_eb,
        eve_blocked_count=counts.blocked,
        block_probability=point.block_probability,
        master_seed=point.config.master_seed,
        **rates,
    )


def _resolve_run_params(config: ExperimentConfig) -> _RunParams:
    """The one map from a config to its run inputs: validates ``config``,
    builds its source and channel, evaluates its attack rates and solves an
    ``auto`` blocking probability.

    Without trials, an ``auto`` attack with no rate to match stays unsolved,
    so the point's analytic row can still be shown; with trials it raises.
    """
    config = config.validated()
    scheme, attack = config.scheme, config.attack
    g = config.resolved_gain() if scheme is not Scheme.WEAK_COHERENT else 0.0
    source = SourceParams(scheme, g, config.truncation_order, config.mu_prime or 0.0)
    channel = ChannelParams(config.eta_a, config.eta_b, config.eta_l)
    rates = None
    if attack is not None or scheme is not Scheme.ENTANGLED_PAIRS:
        rates = eve.attack_rates(source, channel)
    block = None
    if attack is not None and attack.block_probability != AUTO:
        block = float(attack.block_probability)
    elif attack is not None:
        try:
            block = eve.solve_block_probability(source, channel, rates)
        except ConfigError:
            if config.trials:
                raise
    return _RunParams(config, source, channel, block, rates)


def _batch_ranges(config: ExperimentConfig) -> list[tuple[int, int]]:
    """A run's batches split into ``min(workers, n_batches)`` contiguous,
    non-empty ranges (none when the run has no trials)."""
    n_batches = (config.trials + BATCH_SIZE - 1) // BATCH_SIZE
    parts = max(1, min(config.workers, n_batches))
    bounds = [round(i * n_batches / parts) for i in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


# The interpreter's process pool and its number of processes (see the module
# docstring); None until a run has more than one range.  The lock makes
# replacing the pool and submitting to it one step for each thread.
_pool: Optional[ProcessPoolExecutor] = None
_pool_size = 0
_pool_lock = threading.RLock()


def _drop_pool() -> None:
    """Shut the pool down, once every range submitted to it is done, and
    forget it; the next run that needs a pool forks one."""
    global _pool, _pool_size
    with _pool_lock:
        pool, _pool, _pool_size = _pool, None, 0
        if pool is not None:
            pool.shutdown()


def _submit(size: int, tasks: list) -> Iterator[_Counts]:
    """Every task submitted to the pool, first replaced by one of ``size``
    processes when it has fewer; its ``map`` results, in task order."""
    global _pool, _pool_size
    with _pool_lock:
        if size > _pool_size:
            _drop_pool()
            _pool, _pool_size = ProcessPoolExecutor(max_workers=size), size
        return _pool.map(_run_batch_range, *zip(*tasks))


def _pool_map(size: int, tasks: list) -> Iterator[_Counts]:
    """``_run_batch_range`` over ``tasks`` on the pool, all submitted on the
    first ``next()``.  Closing this generator closes the pool's ``map``
    results, which cancels the tasks not yet started and leaves the pool to
    the next run."""
    try:
        results = _submit(size, tasks)
    except BrokenProcessPool:
        # a worker died after the last run, and none of these tasks has run
        _drop_pool()
        results = _submit(size, tasks)
    try:
        yield from results
    except BrokenProcessPool:
        _drop_pool()
        raise


def run_experiments(points: Iterable[_RunParams]) -> Iterator[RateReport]:
    """Yield one RateReport per resolved point, in order.

    The points come from ``_resolve_run_params``, so nothing is validated or
    solved here.  Every batch range of every point goes through one ``map``,
    opened on the first ``next()``, and each report is folded from the next
    ``len(parts)`` results.  When no run has more than one range, each range
    runs in this process when its report is asked for, and no pool is
    forked.  Otherwise it is the ``map`` of the interpreter's process pool,
    which submits every range up front; the pool is forked on first use, or
    when it has fewer processes than the largest run has ranges, and is kept
    for the next call.  Closing the generator early drops the ranges not yet
    started and leaves the pool running.
    """
    points = list(points)
    ranges = [_batch_ranges(point.config) for point in points]
    tasks = [(point, lo, hi) for point, parts in zip(points, ranges) for lo, hi in parts]
    pool_size = max(map(len, ranges), default=0)
    if pool_size > 1:
        results = _pool_map(pool_size, tasks)
    else:
        results = (_run_batch_range(*task) for task in tasks)
    with contextlib.closing(results):
        for point, parts in zip(points, ranges):
            counts = sum(itertools.islice(results, len(parts)), _Counts())
            yield _build_report(counts, point)


def run_experiment(config: ExperimentConfig) -> RateReport:
    """Aggregate ``config.trials`` rounds into a RateReport: a one-point
    ``run_experiments`` of the resolved config, with the same batch ranges,
    on the interpreter's process pool when it has more than one.

    Bit-identical for a fixed master seed regardless of worker count.
    """
    with contextlib.closing(run_experiments([_resolve_run_params(config)])) as reports:
        return next(reports)
