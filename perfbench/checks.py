"""Output checks: each Monte Carlo point against the exact oracle for the same
resolved parameters, plus bit-identity of repeated and re-partitioned runs.

A point is a dict of raw integer tallies and the parameters the engine
actually used (``block_probability`` is the resolved value, ``None`` when no
attack).  Each tally is tested with an exact two-sided binomial test; the
per-test threshold is the family-wise ``ALPHA`` divided by the number of
tests in the run (Bonferroni).  Each point is tested on its own and pooled
with the other seeds of the same parameters.  Where the oracle probability is
exactly 0 (or 1), any count but 0 (or all) fails.  The cli's own z columns
are not used, because the attacked ``ep`` row compares against the wrong
oracle (see ``cli_z_fail``).
"""
from __future__ import annotations

import hashlib
import json
import math

ALPHA = 1e-5
# integer tallies of a point; everything else in a point is a parameter
TALLIES = (
    "trials", "valid", "excluded", "sifted", "errors", "dc_matched", "dc_mismatched",
    "bob_no_click", "triggered", "blocked", "touched", "alice_hits", "bob_hits",
)
CLI_Z_COLUMNS = ("r_key_z", "r_err_z", "epsilon_z")


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:20]


def _tail_sum(log_first: float, k: int, n: int, p: float, upward: bool) -> float:
    """Sum of binomial pmf terms from k outward to the end of that tail,
    stepping by the pmf recurrence until the terms stop mattering."""
    term = math.exp(log_first)
    if term == 0.0:
        return 0.0
    total = term
    odds = p / (1.0 - p)
    while True:
        if upward:
            if k >= n:
                break
            term *= (n - k) / (k + 1) * odds
            k += 1
        else:
            if k <= 0:
                break
            term *= k / ((n - k + 1) * odds)
            k -= 1
        total += term
        if term < total * 1e-17:
            break
    return total


def binomial_p_value(k: int, n: int, p: float) -> float:
    """Exact two-sided p-value of k successes in n trials with probability p."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_pmf = (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )
    tail = _tail_sum(log_pmf, k, n, p, upward=k >= n * p)
    return min(1.0, 2.0 * tail)


def expected_rates(point: dict, analytics) -> list[tuple[str, int, int, float]]:
    """(quantity, count, denominator, oracle probability) for one point.

    A tally recorded as ``None`` (not in the program's output) is not tested.
    """
    g, eta_a = point["g"], point["eta_a"]
    eta_bl = point["eta_b"] * point["eta_l"]
    block = point["block_probability"]
    trials, valid = point.get("trials"), point["valid"]
    sifted, errors, touched = point["sifted"], point["errors"], point.get("touched")
    if point["scheme"] == "ep":
        o = analytics.exact_rates_oracle(g, eta_a, eta_bl, point["truncation"])
        rows = [("excluded", point.get("excluded"), trials, 1.0 - o.retained_mass)]
        if block is None:
            # the mismatched-basis rounds, drawn from the per-sector tables,
            # show in the double clicks and the no-clicks
            rows += [
                ("r_key", sifted, valid, o.r_key),
                ("r_err", errors, valid, o.r_err),
                ("dc_matched", point["dc_matched"], valid, o.dc_matched),
                ("dc_mismatched", point.get("dc_mismatched"), valid, o.dc_mismatched),
                ("bob_no_click", point.get("bob_no_click"), valid, o.bob_no_click),
            ]
        else:
            a = analytics.ep_pns_oracle(g, eta_a, 1.0 - block, point["truncation"])
            # singles are the one-pair sector, (m, n) = (1, 0) or (0, 1)
            single = 2.0 * (1.0 - g * g) ** 2 * g * g / o.retained_mass
            rows += [
                ("r_key", sifted, valid, a.delivered_rate),
                ("epsilon", errors, sifted, a.error_rate or 0.0),
                ("dc_matched", point["dc_matched"], valid, a.dc_matched),
                ("blocked", point.get("blocked"), valid, single * block),
                ("touched", touched, sifted, a.touched_fraction or 0.0),
                ("alice_hits", point.get("alice_hits"), touched, a.p_ae or 0.0),
                ("bob_hits", point.get("bob_hits"), touched, a.p_eb or 0.0),
            ]
        return [row for row in rows if row[1] is not None]
    if point["scheme"] == "wcs":
        mu = point["mu_prime"]
        single = mu * math.exp(-mu)
        if block is None:
            rate = analytics.wcs_leakage(mu, eta_bl).r_exp
            no_click = math.exp(-mu * eta_bl)
        else:
            rate = analytics.wcs_attack_delivered(mu, 1.0 - block)
            multi = analytics.wcs_attack_delivered(mu, 0.0)
            no_click = math.exp(-mu) + single * block
    else:
        g2 = g * g
        single = (1.0 - g2) * g2
        if block is None:
            rate = analytics.pdc_rates_closed(g, eta_a, eta_bl)[0]
            no_click = (1.0 - g2) / (1.0 - g2 * (1.0 - eta_bl))
        else:
            rate = analytics.pdc_attack_delivered(g, eta_a, 1.0 - block)
            multi = analytics.pdc_attack_delivered(g, eta_a, 0.0)
            no_click = (1.0 - g2) + single * block
    # every photon of a prepared signal carries Alice's bit, so matched-basis
    # rounds can neither err nor double-click, and the photon the attack
    # stores always agrees with both Alice and Bob
    rows = [
        ("excluded", point.get("excluded"), trials, 0.0),
        ("r_key", sifted, valid, rate),
        ("r_err", errors, valid, 0.0),
        ("dc_matched", point["dc_matched"], valid, 0.0),
        ("bob_no_click", point.get("bob_no_click"), valid, no_click),
    ]
    if block is not None:
        rows += [
            ("blocked", point.get("blocked"), valid, single * block),
            ("touched", touched, sifted, multi / rate),
            ("alice_hits", point.get("alice_hits"), touched, 1.0),
            ("bob_hits", point.get("bob_hits"), touched, 1.0),
        ]
    return [row for row in rows if row[1] is not None]


def _params_key(point: dict) -> str:
    return json.dumps({k: v for k, v in point.items() if k not in TALLIES}, sort_keys=True)


def cli_z_fail(rows: list[dict], sigma: float = 3.0) -> int:
    """Sweep rows whose own z columns exceed ``sigma`` (reported, not failed)."""
    return sum(
        any(row.get(c) is not None and abs(row[c]) > sigma for c in CLI_Z_COLUMNS)
        for row in rows
    )


class Checker:
    """Collects point records and decides which of them fail.

    Records that share a ``key`` (same point, same master seed) must share a
    digest, whatever the worker count or repeat; records with equal digests
    are tested against the oracle once.
    """

    def __init__(self, analytics):
        self._analytics = analytics
        self.records: list[dict] = []

    def add(self, record: dict) -> None:
        self.records.append(record)

    def verdict(self) -> dict:
        first_digest: dict = {}
        for rec in self.records:
            first_digest.setdefault(tuple(rec["key"]), rec["digest"])
        unique = {rec["digest"]: rec["point"] for rec in self.records}
        tests = {d: self._tests(point) for d, point in unique.items()}
        # pooling the distinct seeds of one parameter point tests it with all
        # the trials of the run, so small biases show too
        pooled: dict[str, dict] = {}
        for point in unique.values():
            acc = pooled.setdefault(_params_key(point), {**point, **{k: 0 for k in TALLIES}})
            for k in TALLIES:
                have = acc[k] is not None and point.get(k) is not None
                acc[k] = acc[k] + point[k] if have else None
        pooled_tests = {params: self._tests(point) for params, point in pooled.items()}
        n_tests = sum(map(len, tests.values())) + sum(map(len, pooled_tests.values()))
        threshold = ALPHA / max(n_tests, 1)

        def bad(rows):
            return any(pv < threshold for *_, pv in rows)

        bad_params = {params for params, rows in pooled_tests.items() if bad(rows)}
        failed = 0
        for rec in self.records:
            rec["oracle_tests"] = [
                {"quantity": name, "count": k, "n": n, "oracle": p, "p_value": pv,
                 "z": (k - n * p) / math.sqrt(n * p * (1 - p)) if 0 < p < 1 and n else None}
                for name, k, n, p, pv in tests[rec["digest"]]
            ]
            rec["digest_ok"] = first_digest[tuple(rec["key"])] == rec["digest"]
            rec["failed"] = (
                bad(tests[rec["digest"]])
                or _params_key(rec["point"]) in bad_params
                or not rec["digest_ok"]
            )
            failed += rec["failed"]
        return {
            "attempted": len(self.records),
            "failed": failed,
            "oracle_tests": n_tests,
            "p_value_threshold": threshold,
            "family_alpha": ALPHA,
            "pooled": [
                {"params": json.loads(params), "tests": rows}
                for params, rows in pooled_tests.items()
            ],
        }

    def _tests(self, point: dict) -> list[tuple]:
        return [
            (name, k, n, p, binomial_p_value(k, n, p))
            for name, k, n, p in expected_rates(point, self._analytics)
        ]
