"""Monte Carlo protocol engine for the three key-distribution schemes.

Trials are partitioned into fixed-size batches; batch ``i`` of a run draws
from its own SFC64 stream, seeded by ``SeedSequence(master_seed,
spawn_key=(i,))``, so the aggregated integer counts -- and therefore the
whole report -- are bit-identical for a fixed seed regardless of how batches
are spread over workers.  Changing BATCH_SIZE changes the streams and is part
of the reproducibility contract; so is any change to the generator or to the
draws a kernel makes, which bumps STREAM_VERSION.

One kernel, ``_chunk``, serves every scheme.  A trial draws a row of its
run context's alias table (Walker's alias method) on one uniform, and under
an ``ep`` attack turns it into the PNS interposer's row ``2 j + low`` on one
more; Bob's two detectors then fire on one last uniform in
``_two_detectors``, against thresholds that make them independent yes/no
detectors, and ``_tally`` sifts and counts the rows by bit tests on their
class bytes.  The class byte and Bob's thresholds depend only on the row, so
each context tabulates them once per run, and a trial only indexes tables.
The contexts differ in their rows.

``_EpContext`` draws a joint table over everything before the interposer:
each pair configuration in matched bases, where the classical per-photon
model is exact because the source state keeps its form under an identical
basis change on both sides, split three ways by Alice's outcome (D0 alone,
D1 alone, no single click) from her two independent yes/no detectors, each
firing with probability 1 - (1 - eta)^n; then each occupation of each
per-side-total sector, from total 0 up, in a mismatched-basis round, drawn
from the sector-conditioned Fock distribution that both mismatched combos
share, which carries the two-photon interference the classical model
misses; and last the truncation-exceeded event.  No tally reads Alice's
outcome in a mismatched round, so nothing draws it.  The interposer,
``_Interposer``, decides on its uniform the stored photon of a multi-photon
arm or the block of a single photon: no arm is both, and the exceeded entry
holds no photons, so every entry goes through it.

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

import array
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
#    entry, and no herald or interposer uniform (ep streams as in 7).
STREAM_VERSION = 8


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
    # The indices are typed arrays, not lists of boxed ints, which at
    # truncation 127 (k = 2^20) were the peak memory of the whole run.  The
    # weights are a list: Python floats round as float64 scalars do, and the
    # loop runs faster on them than on numpy's.
    small, large = (
        array.array("q", np.flatnonzero(side).astype(np.int64, copy=False).tobytes())
        for side in (scaled < 1.0, scaled >= 1.0)
    )
    scaled = scaled.tolist()
    alias = array.array("q", np.arange(k, dtype=np.int64).tobytes())
    while small and large:
        s, l = small.pop(), large.pop()
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    # what is left over holds weight 1 up to rounding
    for i in itertools.chain(small, large):
        scaled[i] = 1.0
    del small, large
    cut = np.array(scaled)
    del scaled
    cut += np.arange(k)
    return cut, np.array(alias, dtype=np.intp)


def _alias_draw(cut: np.ndarray, alias: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Entry indices of an ``_alias_table`` for uniforms ``u`` in [0, 1)."""
    x = u * len(cut)
    i = x.astype(np.intp)
    return np.where(x < cut.take(i), i, alias.take(i))


@dataclass(frozen=True)
class _JointTable:
    """One categorical distribution over everything an ``ep`` trial draws
    before the interposer and Bob's detectors.

    Entry ``j`` has probability ``probabilities[j]`` and the photon counts
    ``a0, a1, b0, b1`` in the analyzer modes, all int8.  The entries come in
    array blocks, in this order: three matched blocks of ``pairs`` entries,
    each pair configuration (m, n) of ``dist`` at half its probability with
    counts (m, n, m, n), times the probability that Alice's detectors, which
    fire with ``fire_a`` at m and n, give D0 alone, D1 alone, and no single
    click; one mismatched block per sector total, from 0 up, each occupation
    of the total's sector table at the total's probability times 1/2 (either
    mismatched combo) times its sector probability; and the
    truncation-exceeded event (one entry, no photons).
    """

    probabilities: np.ndarray
    a0: np.ndarray
    a1: np.ndarray
    b0: np.ndarray
    b1: np.ndarray
    cut: np.ndarray
    alias: np.ndarray
    pairs: int

    @classmethod
    def build(
        cls, dist: PairDistribution, sector_tables: dict, fire_a: np.ndarray
    ) -> "_JointTable":
        m = np.array([c.m for c in dist.configs])
        n = np.array([c.n for c in dist.configs])
        totals = m + n
        f0, f1 = fire_a.take(m), fire_a.take(n)
        half = 0.5 * dist.probabilities
        probabilities = [
            half * (f0 * (1.0 - f1)),
            half * (f1 * (1.0 - f0)),
            half * (f0 * f1 + (1.0 - f0) * (1.0 - f1)),
        ]
        counts = [np.tile((m, n, m, n), 3)]
        for total, (cdf, *occupations) in sector_tables.items():
            weight = 0.5 * dist.probabilities[totals == total].sum()
            # the last occupation takes all mass beyond the one before, as
            # inverse-CDF sampling of ``cdf`` does
            probabilities.append(weight * np.diff(cdf[:-1], prepend=0.0, append=1.0))
            counts.append(occupations)
        probabilities.append([dist.tail])
        counts.append(np.zeros((4, 1), dtype=np.int64))
        probabilities = np.concatenate(probabilities)
        a0, a1, b0, b1 = np.concatenate(counts, axis=1).astype(np.int8)
        return cls(probabilities, a0, a1, b0, b1, *_alias_table(probabilities), len(m))


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
    modes, for a trial's uniform ``u``: the ``ep`` joint table's entries,
    whose multi-photon arms can hold photons in both modes.  A prepared
    signal needs none, see ``_PreparedContext``.

    A multi-photon signal loses one photon, taken from mode 1 when
    ``u * (b0 + b1) < b1`` (each photon equally likely) and from mode 0
    otherwise; a single photon is blocked when ``u < p_block``; vacuum, which
    includes the truncation-exceeded entry, passes.  No entry is both multi
    and single, so one threshold per entry, ``split``, decides each: a trial
    goes to row ``2 j + low``, where ``low = u < split``.  For a multi-photon
    entry ``split`` is the least double ``t`` with ``t * total >= b1``, so
    ``u < split`` exactly when ``u * total < b1``; for a single photon it is
    ``p_block``, and for vacuum 0.

    Per row, ``classes`` holds the ``MULTI`` and ``LOW`` bits of the class
    byte, and ``f0``/``f1`` the counts forwarded to Bob.  A low row that is
    not multi is a blocked single photon, as vacuum never goes the low way.
    """

    split: np.ndarray
    classes: np.ndarray
    f0: np.ndarray
    f1: np.ndarray

    @classmethod
    def build(cls, b0: np.ndarray, b1: np.ndarray, p_block: float) -> "_Interposer":
        total = b0 + b1
        multi, single = total >= 2, total == 1
        # from the rounded quotient, one ulp at a time to the least such t
        t = np.divide(b1, total, out=np.zeros(len(total)), where=multi)
        while True:
            below = np.nextafter(t, -np.inf)
            up = multi & (t * total < b1)
            down = multi & (below * total >= b1)
            if not (up.any() or down.any()):
                break
            t = np.where(up, np.nextafter(t, np.inf), np.where(down, below, t))
        # a multi-photon entry with no photon in one mode never goes that
        # mode's way (its split is 0 or 1); the clamp keeps that row's counts
        high = (np.maximum(b0 - multi, 0), b1)
        low = (np.where(single, 0, b0), np.where(single, 0, np.maximum(b1 - multi, 0)))
        f0, f1 = (np.stack(way, axis=1).ravel() for way in zip(high, low))
        classes = np.repeat(multi.astype(np.uint8) * MULTI, 2)
        classes[1::2] |= LOW
        return cls(np.where(single, p_block, t), classes, f0, f1)


class _BatchContext:
    """A float64 buffer for a batch's uniforms, reused by every batch a run
    context serves; empty until the first batch.

    A run context also holds what ``_chunk`` reads per row: the alias table
    ``(cut, alias)``, the interposer's ``split`` or None, the class bytes
    ``classes``, Bob's thresholds ``bob``, and whether it is ``attacked``.
    """

    _buffer = np.empty(0)

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
    occupation) to the truncation, to the inverse-CDF table
    ``(cdf, a0, a1, b0, b1)`` of its mismatched-basis occupations, which both
    mismatched combos share (see ``fock``).  ``fire_a``/``fire_b`` are each
    side's per-count fire tables.

    The row tables are derived from the sector tables on first use, so they
    always reflect the sector tables the kernel sees.  The rows are the
    entries of the joint table, which holds Alice's outcome in its matched
    blocks, or under attack the rows ``2 j + low`` of ``interposer``, the
    ``_Interposer`` of Bob's counts.  The class byte's other bits follow the
    joint table's block bounds: every entry but the exceeded one is present
    and announced, the three matched blocks are kept, the first two (Alice's
    single click) are sift candidates, and the second has bit 1.  ``bob``
    holds Bob's thresholds at each row's counts.
    """

    def __init__(self, params: _RunParams):
        truncation = params.source.truncation_order
        self.dist = pair_distribution(params.source)
        self.block_probability = params.block_probability
        self.attacked = params.block_probability is not None
        self.sector_tables = {}
        for total in range(truncation + 1):
            occs, probs = fock.sector_distribution(total)
            self.sector_tables[total] = (
                np.cumsum(np.asarray(probs)), *np.array(occs, dtype=np.int64).T
            )
        # no mode holds more photons than the truncation allows pairs
        self.fire_a = _fire_table(params.channel.eta_a, truncation)
        self.fire_b = _fire_table(params.bob_eta, truncation)

    @cached_property
    def joint(self) -> _JointTable:
        return _JointTable.build(self.dist, self.sector_tables, self.fire_a)

    @cached_property
    def interposer(self) -> _Interposer:
        return _Interposer.build(self.joint.b0, self.joint.b1, self.block_probability)

    cut = property(lambda self: self.joint.cut)
    alias = property(lambda self: self.joint.alias)

    @cached_property
    def split(self) -> Optional[np.ndarray]:
        return self.interposer.split if self.attacked else None

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

    A prepared signal holds all its photons in the mode of Alice's bit, so
    the interposer's split is exactly 0 or 1 on a multi-photon entry, and the
    slot decides a single photon's block: the rows are the entries, with no
    ``split``.  An entry's class byte comes from its bit fields: it is
    present; announced and triggered when the herald fired, and then kept in
    matched bases and a sift candidate, as Alice always holds her bit; multi
    at n >= 2 under attack, where low is Alice's bit, the mode of the photon
    Eve stores, and otherwise low in a blocked slot.  ``bob`` holds Bob's
    thresholds of ``_bob_thresholds`` at the entry's combo and the count
    forwarded to him: n - 1 when multi, 0 when blocked, n otherwise.
    """

    split = None

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


def _tally(classes: np.ndarray, fb0: np.ndarray, fb1: np.ndarray, attacked: bool) -> _Counts:
    """Sift one chunk of rows with the class bytes ``classes`` and count it;
    ``fb0``/``fb1`` say which of Bob's detectors fired.

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
        triggered=int(np.count_nonzero(classes & HERALD)),
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
    if ctx.split is not None:
        row = 2 * row + (u[1] < ctx.split.take(row))
    fb0, fb1 = _two_detectors(u[-1], row, *ctx.bob)
    return _tally(ctx.classes.take(row), fb0, fb1, ctx.attacked)


def _batch(rng: np.random.Generator, size: int, ctx: _EpContext | _PreparedContext) -> _Counts:
    # rows: the alias draw, the ep interposer under attack, Bob's detectors
    u = ctx.uniforms(rng, 2 + (ctx.split is not None), size)
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


def _ratio(count: int, n: int) -> Optional[float]:
    """``count / n``, or None when ``n`` is 0: every rate of a report."""
    return count / n if n else None


def _binomial_se(p: Optional[float], n: int) -> Optional[float]:
    """Standard error of a rate ``p`` over ``n`` trials; None with the rate."""
    return None if p is None else math.sqrt(max(p * (1.0 - p), 0.0) / n)


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
    double_click_mismatched: Optional[float]
    double_click_matched_count: int
    bob_no_click_rate: Optional[float]
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
    r_key = _ratio(counts.sifted, valid)
    r_err = _ratio(counts.errors, valid)
    epsilon = _ratio(counts.errors, counts.sifted)
    touched = _ratio(counts.touched_sifted, counts.sifted)
    p_ae = _ratio(counts.eve_alice_hits, counts.touched_sifted)
    p_eb = _ratio(counts.eve_bob_hits, counts.touched_sifted)
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
        r_key=r_key,
        r_key_se=_binomial_se(r_key, valid),
        r_err=r_err,
        r_err_se=_binomial_se(r_err, valid),
        epsilon=epsilon,
        epsilon_se=_binomial_se(epsilon, counts.sifted),
        double_click_matched=_ratio(counts.dc_matched, valid),
        double_click_mismatched=_ratio(counts.dc_mismatched, valid),
        double_click_matched_count=counts.dc_matched,
        bob_no_click_rate=_ratio(counts.bob_no_click, valid),
        triggered_count=counts.triggered,
        eve_touched_fraction=touched,
        p_ae_hat=p_ae,
        p_eb_hat=p_eb,
        i_ae=i_ae,
        i_eb=i_eb,
        eve_blocked_count=counts.blocked,
        block_probability=point.block_probability,
        master_seed=point.config.master_seed,
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
