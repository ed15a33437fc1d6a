"""Batch front-end: single-point runs, parameter sweeps and Monte-Carlo
versus closed-form comparison reports.

Configuration comes from an INI-style file (sections ``[experiment]``,
``[attack]``, ``[sweep]``, ``[output]``) and/or long-name flags.  Flags
become the same sections of raw strings and override the file key by key,
but ``--sweep`` replaces the whole ``[sweep]``; the merged values are parsed
once.  File values are literal (no ``%`` interpolation), an ``[attack]``
section is enabled unless it says ``enabled = false``, and a malformed or
unreadable file exits 2.  Output is data-only CSV or JSON for external
plotting.  JSON output echoes the configuration as given (an ``auto``
blocking probability stays ``auto``, and ``g`` stays null when ``mu`` was
given), and each row holds the values its point resolved to, such as its
``block_probability``, so a result file is self-describing and reproducible.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import dataclasses
import json
import math
import sys
from collections.abc import Iterator
from typing import Optional

from . import analytics, engine, eve
from .config import ConfigError, ExperimentConfig, SweepSpec, validate
from .detection import compose_bob_efficiency
# run_experiment is unused here but stays importable: the benchmark's tracer
# patches cli.run_experiment
from .engine import STREAM_VERSION, RateReport, run_experiment, run_experiments  # noqa: F401
from .eve import AUTO, PnsConfig
from .source import BLOCK_PROBABILITY, Rule, Scheme

# 2: the attacked ep row's *_oracle keys hold the exact attack oracle, the
# printed leading-order values moved to *_formula, i_ab_oracle is gone
# 3: every row, CSV or JSON, has exactly the CSV_COLUMNS keys
# 4: eps_prime_oracle and i_ae_formula are gone; they repeated epsilon_oracle
# and i_e
# 5: every *_formula key comes from analytics.PRINTED: eps_prime_formula is
# the printed ε′, and i_e_formula is new
# 6: every judged rate of engine.RATES has *_se and *_z keys: the double
# clicks and no-clicks gain them, and the CSV lists each rate's four together
# 7: attacked ep rows hold the mismatched double-click and no-click oracles
SCHEMA_VERSION = 7

# the rates compare judges, each with four columns: mc, se, oracle and z
JUDGED = tuple(rate for rate in engine.RATES if rate.judged)

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    *(f"{rate.stem}_{part}" for rate in JUDGED for part in ("mc", "se", "oracle", "z")),
    "r_key_formula",
    "r_err_formula",
    "epsilon_formula",
    "r_exp",
    "r_multi",
    "i_e",
    "i_e_formula",
    "i_e_saturated",
    "eve_touched_fraction",
    "p_ae_hat",
    "p_ae_oracle",
    "p_ae_formula",
    "p_eb_hat",
    "p_eb_oracle",
    "p_eb_formula",
    "i_ae_mc",
    "i_ae_oracle",
    "i_eb_mc",
    "i_eb_oracle",
    "i_eb_formula",
    "eps_prime_formula",
    "i_ab_formula",
    "block_probability",
    "truncation_exceeded",
    "sifted_count",
    "trials",
]

_SCHEME_NAMES = {s.value: s for s in Scheme}

_SECTION_KEYS = {
    "experiment": (
        "scheme", "g", "mu", "mu_prime", "eta_a", "eta_b", "eta_l",
        "trials", "seed", "truncation", "workers",
    ),
    "attack": ("enabled", "block_probability"),
    "sweep": ("param", "start", "stop", "steps", "scale"),
    "output": ("format", "path"),
}
# the ExperimentConfig field of each [experiment] and [output] key named otherwise
_CONFIG_FIELDS = {
    "seed": "master_seed",
    "truncation": "truncation_order",
    "format": "out_format",
    "path": "out_path",
}


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


# The parser and the name of every typed value, by field: an [experiment] key
# by its name, another section's key as ``section.key``; ``sigma`` is a flag
# of ``compare`` alone.  Every other value stays the string given.
_FLOAT, _INT = (float, "a float"), (int, "an int")
_TYPES = {
    **dict.fromkeys(("g", "mu", "mu_prime", "eta_a", "eta_b", "eta_l"), _FLOAT),
    **dict.fromkeys(("trials", "seed", "truncation", "workers"), _INT),
    "attack.enabled": (_boolean, "a boolean"),
    "attack.block_probability": (lambda raw: raw if raw == AUTO else float(raw), "a float"),
    **dict.fromkeys(("sweep.start", "sweep.stop"), _FLOAT),
    "sweep.steps": _INT,
    "sigma": _FLOAT,
}
_SIGMA = Rule(lambda sigma: 0.0 < sigma < math.inf, "must be finite and > 0")


def _parse(field: str, raw: str, errors: list[str]):
    """``raw`` parsed by ``field``'s type, or None with a message naming the
    field; the one parse of every value a file or a flag gives."""
    kind, name = _TYPES.get(field, (str, "a string"))
    try:
        return kind(raw)
    except ValueError:
        errors.append(f"{field}: expected {name}, got {raw!r}")
        return None


def _parse_sections(sections: dict, errors: list[str]) -> dict:
    """``{section: {key: raw string}}`` with each value parsed by ``_parse``."""
    return {
        section: {
            key: _parse(key if section == "experiment" else f"{section}.{key}", raw, errors)
            for key, raw in keys.items()
        }
        for section, keys in sections.items()
    }


def read_config_file(path: str) -> dict[str, dict[str, str]]:
    """The file's sections as ``{section: {key: raw string}}``.

    Values are literal (no ``%`` interpolation), and an ``[attack]`` section
    is enabled unless it says ``enabled = false``.  A file that cannot be
    read, a file that is not INI, unknown sections or keys and an incomplete
    ``[sweep]`` are rejected by name.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError([f"config: cannot read {path!r}: {reason}"]) from exc
    except configparser.Error as exc:
        # the message names the file and the line
        raise ConfigError([" ".join(str(exc).split())]) from exc
    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            errors.append(f"{path}: unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                errors.append(f"{path}: unknown key '{key}' in section [{section}]")
    if parser.has_section("sweep"):
        missing = [k for k in ("param", "start", "stop", "steps") if k not in parser["sweep"]]
        if missing:
            errors.append(f"sweep: missing keys {missing}")
    if errors:
        raise ConfigError(errors)
    sections = {section: dict(parser[section]) for section in parser.sections()}
    if "attack" in sections:
        sections["attack"] = {"enabled": "true", **sections["attack"]}
    return sections


def build_config(file_sections: dict, flag_sections: dict) -> ExperimentConfig:
    """Parse the file's and the flags' sections, each ``{section: {key: raw
    string}}``, and merge the flags over the file key by key into a validated
    config; a flag ``[sweep]`` replaces the file's whole section."""
    errors: list[str] = []
    given = _parse_sections(file_sections, errors)
    flags = _parse_sections(flag_sections, errors)
    if errors:
        raise ConfigError(errors)
    values = {
        section: {**given.get(section, {}), **flags.get(section, {})} for section in _SECTION_KEYS
    }
    values["sweep"] = flags.get("sweep") or given.get("sweep", {})
    fields = {
        _CONFIG_FIELDS.get(key, key): value
        for section in ("experiment", "output")
        for key, value in values[section].items()
    }
    scheme_name = fields.pop("scheme", None)
    if scheme_name is None:
        raise ConfigError(["scheme: required (one of ep, wcs, pdc)"])
    scheme = _SCHEME_NAMES.get(scheme_name)
    if scheme is None:
        raise ConfigError([f"scheme: must be one of {sorted(_SCHEME_NAMES)}, got {scheme_name!r}"])
    attack = values["attack"]
    if attack.pop("enabled", False):
        try:
            fields["attack"] = PnsConfig(**attack)
        except ConfigError as exc:
            errors += [f"attack.{message}" for message in exc.errors]
    elif "block_probability" in flag_sections.get("attack", {}):
        errors.append(
            "attack.block_probability: applies only when the attack is enabled "
            "(--attack pns, or an enabled [attack] section)"
        )
    elif "block_probability" in attack:
        # a disabled file section's blocking probability goes unused, quietly
        # only when it is in range
        errors += BLOCK_PROBABILITY.violations(
            **{"attack.block_probability": attack["block_probability"]}
        )
    if values["sweep"]:
        fields["sweep"] = SweepSpec(**values["sweep"])
    config = ExperimentConfig(scheme, **fields)
    errors += validate(config)
    if errors:
        raise ConfigError(errors)
    return config


# ---------------------------------------------------------------------------
# Analytic and sweep rows
# ---------------------------------------------------------------------------


def analytic_row(point: engine._RunParams) -> dict:
    """Closed-form / oracle quantities for one resolved point, in a row of
    every ``CSV_COLUMNS`` key.

    Every ``*_formula`` key comes from ``analytics.PRINTED``.  Under attack
    the row records the blocking probability, and the attacked oracle keys
    hold the exact delivered statistics at it.
    """
    config, source, channel, rates = point.config, point.source, point.channel, point.rates
    row = dict.fromkeys(CSV_COLUMNS)
    eta_bl = compose_bob_efficiency(channel)
    printed = analytics.FormulaPoint(
        config.scheme, config.attack is not None, source.g, config.eta_a, eta_bl,
        source.mu_prime, rates,
    )
    row.update({entry.key: entry.value(printed) for entry in analytics.PRINTED})
    pass_probability = None
    if point.block_probability is not None:
        row["block_probability"] = point.block_probability
        pass_probability = 1.0 - point.block_probability
    if rates is not None:
        row.update(r_exp=rates.r_exp, r_multi=rates.r_multi, i_e_saturated=rates.saturated)
    if config.scheme is Scheme.ENTANGLED_PAIRS:
        if config.attack is None:
            oracle = analytics.exact_rates_oracle(
                source.g, config.eta_a, eta_bl, config.truncation_order
            )
            row.update(
                r_key_oracle=oracle.r_key,
                r_err_oracle=oracle.r_err,
                epsilon_oracle=oracle.epsilon,
                double_click_matched_oracle=oracle.dc_matched,
                double_click_mismatched_oracle=oracle.dc_mismatched,
                bob_no_click_oracle=oracle.bob_no_click,
            )
            return row
        # Eq. 10: Eve knows each bit she stored a photon of with the printed P_AE
        row["i_e"] = rates.information(analytics.binary_information(row["p_ae_formula"]))
        if pass_probability is not None:
            attack = analytics.ep_pns_oracle(
                source.g, config.eta_a, pass_probability, config.truncation_order
            )
            row.update(
                r_key_oracle=attack.delivered_rate,
                r_err_oracle=attack.delivered_rate * (attack.error_rate or 0.0),
                epsilon_oracle=attack.error_rate,
                double_click_matched_oracle=attack.dc_matched,
                # Bob's arm has one law in either basis
                double_click_mismatched_oracle=attack.dc_matched,
                bob_no_click_oracle=attack.bob_no_click,
                p_ae_oracle=attack.p_ae,
                p_eb_oracle=attack.p_eb,
                i_ae_oracle=attack.i_ae,
                i_eb_oracle=attack.i_eb,
            )
        return row
    if config.attack is None:
        rate = rates.r_exp
    elif pass_probability is None:
        rate = None
    else:
        rate = eve._delivered_rate(source, channel, pass_probability)
    # every delivered photon is in Alice's mode, so no sifted bit is wrong
    row.update(
        i_e=rates.information(1.0),
        r_key_oracle=rate,
        r_err_oracle=None if rate is None else 0.0,
        epsilon_oracle=0.0 if rate else None,
    )
    return row


def _verdict(row: dict, rate: engine.Rate, sigma: float) -> tuple[Optional[bool], str]:
    """``compare``'s verdict on a judged rate of a Monte Carlo row that holds
    its oracle, and its status; None with ``n/a`` when it has no estimate."""
    mc, oracle, z = (row[f"{rate.stem}_{part}"] for part in ("mc", "oracle", "z"))
    if mc is None:
        return None, "n/a"
    if oracle == 0.0:
        # an oracle of exactly 0 is judged exactly
        return mc == 0.0, "exact"
    if z is not None:
        return abs(z) <= sigma, f"z={z:+.3f}"
    # an estimate of 0 or 1 has no spread, so no z-score: its count, none or
    # all of its n trials, is judged by its binomial probability at the
    # oracle against the two-sided normal tail at sigma
    valid = row["trials"] - row["truncation_exceeded"]
    n = {"valid": valid, "sifted": row["sifted_count"]}[rate.share_of]
    chance = (1.0 - oracle) ** n if mc == 0.0 else oracle ** n
    return chance >= math.erfc(sigma / math.sqrt(2.0)), f"P(count)={chance:.3g}"


def point_row(
    point: engine._RunParams, sweep_param: str, sweep_value, reports: Iterator[RateReport]
) -> dict:
    """One result row of a resolved point: analytics always, and when
    trials > 0 the Monte Carlo report, the next one of ``reports`` (a
    ``run_experiments`` over the sweep's points)."""
    row = analytic_row(point)
    if point.config.trials > 0:
        report = next(reports)
        for rate in engine.RATES:
            mc = row[f"{rate.stem}_mc" if rate.judged else rate.field] = getattr(report, rate.field)
            if rate.judged:
                se = row[f"{rate.stem}_se"] = getattr(report, f"{rate.stem}_se")
                oracle = row[f"{rate.stem}_oracle"]
                # no z-score against an oracle of exactly 0, which is judged
                # exactly, nor for an estimate of 0 or 1, which has no spread
                if se and oracle:
                    row[f"{rate.stem}_z"] = (mc - oracle) / se
        row.update(
            i_ae_mc=report.i_ae,
            i_eb_mc=report.i_eb,
            truncation_exceeded=report.truncation_exceeded_count,
            sifted_count=report.sifted_count,
            trials=report.trials,
        )
    row.update(sweep_param=sweep_param, sweep_value=sweep_value)
    return row


def run_sweep(config: ExperimentConfig) -> list[dict]:
    """Evaluate the point, or every sweep point ordered by swept value.

    Every point is validated and resolved (``engine._resolve_run_params``)
    before any Monte Carlo runs; then all points' batches are scheduled on
    one pool and each row takes its report in turn.
    """
    sweep = config.validated().sweep
    param = sweep.param if sweep is not None else ""
    values = sorted(sweep.values()) if sweep is not None else [None]
    points = []
    for value in values:
        point = config
        if sweep is not None:
            # a swept gain or mean pair number replaces the other one
            cleared = {"g": {"mu": None}, "mu": {"g": None}}.get(param, {})
            point = dataclasses.replace(config, sweep=None, **{param: value}, **cleared)
        try:
            points.append(engine._resolve_run_params(point))
        except ConfigError as exc:
            if sweep is None:
                raise
            raise ConfigError(
                [f"sweep point {param}={value!r}: {e}" for e in exc.errors]
            ) from exc
    with contextlib.closing(run_experiments(points)) as reports:
        return [
            point_row(point, param, value, reports)
            for point, value in zip(points, values)
        ]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(rows: list[dict], fmt: str, path: Optional[str], config: ExperimentConfig) -> str:
    """Serialize rows to CSV or JSON; returns the rendered text (also written
    to ``path`` when given)."""
    if not rows:
        raise ValueError("no rows to emit")
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "stream_version": STREAM_VERSION,
            "config": config.to_dict(),
            "rows": rows,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[col]) for col in CSV_COLUMNS])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write output file {path!r}: {exc}") from exc
    return text


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    # each value stays a string, for build_config to parse as a file's are
    p.add_argument("-c", "--config", help="configuration file")
    p.add_argument("--scheme", help="ep, wcs or pdc")
    p.add_argument("--g", help="down-conversion gain")
    p.add_argument("--mu", help="mean pair number (converted to gain)")
    p.add_argument("--mu-prime", dest="mu_prime", help="WCS mean photon number")
    p.add_argument("--eta-a", dest="eta_a")
    p.add_argument("--eta-b", dest="eta_b")
    p.add_argument("--eta-l", dest="eta_l")
    p.add_argument("--trials")
    p.add_argument("--seed")
    p.add_argument("--truncation")
    p.add_argument("--workers")
    p.add_argument("--attack", help="none or pns")
    p.add_argument("--block-probability", dest="block_probability")
    p.add_argument("--sweep", help="param:start:stop:steps[:log]")
    p.add_argument("--format", help="csv or json")
    p.add_argument("--output", dest="path")


def _flag_sections(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """The given flags as the sections ``read_config_file`` returns."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    sections = {
        section: {key: flags[key] for key in keys if key in flags}
        for section, keys in _SECTION_KEYS.items()
    }
    if "attack" in flags:
        # any other value reaches the boolean parse, which names it
        sections["attack"]["enabled"] = {"pns": "true", "none": "false"}.get(
            flags["attack"], flags["attack"]
        )
    if "sweep" in flags:
        parts = flags["sweep"].split(":")
        if len(parts) not in (4, 5):
            raise ConfigError(["sweep: expected param:start:stop:steps[:log]"])
        sections["sweep"] = dict(zip(_SECTION_KEYS["sweep"], parts))
    return sections


def _error_block(exc: Exception) -> str:
    errors = getattr(exc, "errors", None) or [str(exc)]
    return json.dumps({"error": True, "messages": errors}, indent=2)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pdcqkd",
        description="Monte Carlo and analytic rates for QKD with imperfect pair sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("analytic", "closed forms and exact oracle only"),
        ("simulate", "single-point Monte Carlo plus oracle"),
        ("sweep", "sweep one parameter"),
        ("compare", "Monte Carlo vs oracle with z-score verdict"),
    ):
        p = sub.add_parser(name, help=desc)
        _add_common_flags(p)
        if name == "compare":
            p.add_argument("--sigma", default="3.0", help="z-score threshold")
    args = parser.parse_args(argv)

    try:
        if args.command == "compare":
            errors: list[str] = []
            sigma = _parse("sigma", args.sigma, errors)
            if errors:
                raise ConfigError(errors)
            _SIGMA.require(sigma=sigma)
        flags = _flag_sections(args)
        config = build_config(read_config_file(args.config) if args.config else {}, flags)
        if args.command == "analytic":
            config = dataclasses.replace(config, trials=0)
        elif args.command == "compare" and config.trials == 0:
            raise ConfigError(["trials: compare needs Monte Carlo trials, got 0"])
        rows = run_sweep(config)
        failed = False
        for row in rows if args.command == "compare" else ():
            label = row["sweep_param"] and f"{row['sweep_param']}={row['sweep_value']}"
            for rate in JUDGED:
                if row[f"{rate.stem}_oracle"] is None:
                    # no oracle at the row's scheme and attack: no line
                    continue
                ok, status = _verdict(row, rate, sigma)
                if ok is not None:
                    failed = failed or not ok
                    status = f"{'PASS' if ok else 'FAIL'} {status}"
                print(f"{label or 'point'} {rate.stem}: {status}", file=sys.stderr)
        print(emit(rows, config.out_format, config.out_path, config), end="")
        return 1 if failed else 0
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(_error_block(exc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
