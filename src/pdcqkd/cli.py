"""Batch front-end: single-point runs, parameter sweeps and Monte-Carlo
versus closed-form comparison reports.

Configuration comes from an INI-style file (sections ``[experiment]``,
``[attack]``, ``[sweep]``, ``[output]``) and/or long-name flags.  Flags
become the same sections of raw strings and override the file key by key,
but ``--sweep`` replaces the whole ``[sweep]``; the merged values are parsed
once.  File values are literal (no ``%`` interpolation), an ``[attack]``
section is enabled unless it says ``enabled = false``, and a malformed file
exits 2.  Output is data-only CSV or JSON for external plotting.  JSON output
echoes the configuration as given (an ``auto`` blocking probability stays
``auto``, and ``g`` stays null when ``mu`` was given), and each row holds the
values its point resolved to, such as its ``block_probability``, so a result
file is self-describing and reproducible.
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
from .source import Rule, Scheme

# 2: the attacked ep row's *_oracle keys hold the exact attack oracle, the
# printed leading-order values moved to *_formula, i_ab_oracle is gone
# 3: every row, CSV or JSON, has exactly the CSV_COLUMNS keys
SCHEMA_VERSION = 3

CSV_COLUMNS = [
    "sweep_param",
    "sweep_value",
    "r_key_mc",
    "r_key_se",
    "r_key_oracle",
    "r_key_z",
    "r_err_mc",
    "r_err_se",
    "r_err_oracle",
    "r_err_z",
    "epsilon_mc",
    "epsilon_se",
    "epsilon_oracle",
    "epsilon_z",
    "r_key_formula",
    "r_err_formula",
    "epsilon_formula",
    "r_exp",
    "r_multi",
    "i_e",
    "i_e_saturated",
    "double_click_matched_mc",
    "double_click_matched_oracle",
    "double_click_mismatched_mc",
    "double_click_mismatched_oracle",
    "bob_no_click_mc",
    "bob_no_click_oracle",
    "eve_touched_fraction",
    "p_ae_hat",
    "p_ae_oracle",
    "p_ae_formula",
    "p_eb_hat",
    "p_eb_oracle",
    "p_eb_formula",
    "i_ae_mc",
    "i_ae_oracle",
    "i_ae_formula",
    "i_eb_mc",
    "i_eb_oracle",
    "i_eb_formula",
    "eps_prime_oracle",
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
    "attack": ("enabled", "block_probability", "guarantee_delivery"),
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
    **dict.fromkeys(("attack.enabled", "attack.guarantee_delivery"), (_boolean, "a boolean")),
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
    is enabled unless it says ``enabled = false``.  A file that is not INI,
    unknown sections or keys and an incomplete ``[sweep]`` are rejected by
    name.
    """
    parser = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            parser.read_file(fh, source=path)
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
        # a disabled file section's blocking probability goes unused quietly
        errors.append(
            "attack.block_probability: applies only when the attack is enabled "
            "(--attack pns, or an enabled [attack] section)"
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

    Under attack the row records the blocking probability, and the attacked
    oracle rows hold the exact delivered statistics at it; they are empty
    without guaranteed delivery.
    """
    config, source, channel, rates = point.config, point.source, point.channel, point.rates
    row = dict.fromkeys(CSV_COLUMNS)
    eta_bl = compose_bob_efficiency(channel)
    pass_probability = None
    if point.block_probability is not None:
        row["block_probability"] = block = point.block_probability
        if config.attack.guarantee_delivery:
            pass_probability = 1.0 - block
    if rates is not None:
        row.update(r_exp=rates.r_exp, r_multi=rates.r_multi, i_e_saturated=rates.saturated)
    if config.scheme is Scheme.ENTANGLED_PAIRS:
        g = source.g
        fk, fe, feps = analytics.ep_rates_approx(g, config.eta_a, eta_bl)
        row.update(r_key_formula=fk, r_err_formula=fe, epsilon_formula=feps)
        if config.attack is None:
            oracle = analytics.exact_rates_oracle(
                g, config.eta_a, eta_bl, config.truncation_order
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
        q = analytics.ep_pns_quantities(g, config.eta_a, eta_bl, rates, config.truncation_order)
        row.update(
            i_e=q.i_ae,
            i_ae_formula=q.i_ae,
            i_eb_formula=q.i_eb,
            p_ae_formula=q.p_ae,
            p_eb_formula=q.p_eb,
            eps_prime_formula=q.eps_prime,
            i_ab_formula=q.i_ab,
        )
        if pass_probability is not None:
            attack = analytics.ep_pns_oracle(
                g, config.eta_a, pass_probability, config.truncation_order
            )
            row.update(
                r_key_oracle=attack.delivered_rate,
                r_err_oracle=attack.delivered_rate * (attack.error_rate or 0.0),
                epsilon_oracle=attack.error_rate,
                double_click_matched_oracle=attack.dc_matched,
                p_ae_oracle=attack.p_ae,
                p_eb_oracle=attack.p_eb,
                i_ae_oracle=attack.i_ae,
                i_eb_oracle=attack.i_eb,
                eps_prime_oracle=attack.error_rate,
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


def _z_score(mc: Optional[float], se: Optional[float], oracle: Optional[float]):
    if mc is None or se is None or oracle is None or not se > 0:
        return None
    return (mc - oracle) / se


def point_row(
    point: engine._RunParams,
    sweep_param: str = "",
    sweep_value=None,
    reports: Optional[Iterator[RateReport]] = None,
) -> dict:
    """One result row of a resolved point: analytics always, Monte Carlo
    when trials > 0.

    The Monte Carlo report is the next one of ``reports`` (a
    ``run_experiments`` over the sweep's points) when given, otherwise this
    point, as resolved, is run on its own.
    """
    row = analytic_row(point)
    if point.config.trials > 0:
        if reports is None:
            with contextlib.closing(run_experiments([point])) as own:
                report = next(own)
        else:
            report = next(reports)
        row.update(
            r_key_mc=report.r_key,
            r_key_se=report.r_key_se,
            r_err_mc=report.r_err,
            r_err_se=report.r_err_se,
            epsilon_mc=report.epsilon,
            epsilon_se=report.epsilon_se,
            double_click_matched_mc=report.double_click_matched,
            double_click_mismatched_mc=report.double_click_mismatched,
            bob_no_click_mc=report.bob_no_click_rate,
            eve_touched_fraction=report.eve_touched_fraction,
            p_ae_hat=report.p_ae_hat,
            p_eb_hat=report.p_eb_hat,
            i_ae_mc=report.i_ae,
            i_eb_mc=report.i_eb,
            truncation_exceeded=report.truncation_exceeded_count,
            sifted_count=report.sifted_count,
            trials=report.trials,
        )
        row["r_key_z"] = _z_score(report.r_key, report.r_key_se, row["r_key_oracle"])
        row["r_err_z"] = _z_score(report.r_err, report.r_err_se, row["r_err_oracle"])
        row["epsilon_z"] = _z_score(report.epsilon, report.epsilon_se, row["epsilon_oracle"])
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
            point_row(point, sweep_param=param, sweep_value=value, reports=reports)
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
    p.add_argument("--scheme", choices=sorted(_SCHEME_NAMES))
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
    p.add_argument("--attack", choices=["none", "pns"])
    p.add_argument("--block-probability", dest="block_probability")
    p.add_argument("--sweep", help="param:start:stop:steps[:log]")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--output", dest="path")


def _flag_sections(args: argparse.Namespace) -> dict[str, dict[str, str]]:
    """The given flags as the sections ``read_config_file`` returns."""
    flags = {key: value for key, value in vars(args).items() if value is not None}
    sections = {
        section: {key: flags[key] for key in keys if key in flags}
        for section, keys in _SECTION_KEYS.items()
    }
    if "attack" in flags:
        sections["attack"]["enabled"] = str(flags["attack"] == "pns")
    if flags.get("sweep"):
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
            for key in ("r_key_z", "r_err_z", "epsilon_z"):
                z = row[key]
                status = "n/a"
                if z is not None:
                    ok = abs(z) <= sigma
                    failed = failed or not ok
                    status = f"{'PASS' if ok else 'FAIL'} z={z:+.3f}"
                label = row["sweep_param"] and f"{row['sweep_param']}={row['sweep_value']}"
                print(f"{label or 'point'} {key[:-2]}: {status}", file=sys.stderr)
        print(emit(rows, config.out_format, config.out_path, config), end="")
        return 1 if failed else 0
    except (ConfigError, ValueError, OSError, RuntimeError) as exc:
        print(_error_block(exc), file=sys.stderr)
        return 2 if isinstance(exc, ConfigError) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
