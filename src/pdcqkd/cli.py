"""Batch front-end: single-point runs, parameter sweeps and Monte-Carlo
versus closed-form comparison reports.

Configuration comes from an INI-style file (sections ``[experiment]``,
``[attack]``, ``[sweep]``, ``[output]``) and/or long-name flags; flags
override file values.  Output is data-only CSV or JSON for external
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
from .config import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    DEFAULT_TRUNCATION,
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    validate,
)
from .detection import compose_bob_efficiency
from .engine import STREAM_VERSION, RateReport, run_experiment, run_experiments
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

# The type of every number a config file or a flag gives, by field; a key of
# the [attack] or [sweep] section is named after its section, and ``sigma``
# is a flag of ``compare`` alone.
_NUMBERS = {
    **dict.fromkeys(("g", "mu", "mu_prime", "eta_a", "eta_b", "eta_l"), float),
    **dict.fromkeys(("trials", "seed", "truncation", "workers"), int),
    "attack.block_probability": float,
    "sweep.start": float,
    "sweep.stop": float,
    "sweep.steps": int,
    "sigma": float,
}
_SECTION_KEYS = {
    "experiment": ("scheme", *(f for f in _NUMBERS if "." not in f and f != "sigma")),
    "attack": ("enabled", "block_probability", "guarantee_delivery"),
    "sweep": ("param", "start", "stop", "steps", "scale"),
    "output": ("format", "path"),
}
_SIGMA = Rule(lambda sigma: 0.0 < sigma < math.inf, "must be finite and > 0")


def _parse_bool(raw: str, field: str, errors: list[str]) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    errors.append(f"{field}: expected a boolean, got {raw!r}")
    return False


def _parse_numbers(raw: dict, errors: list[str], section: str = "") -> dict:
    """``raw`` with each value that ``_NUMBERS`` types parsed, or set to None
    with a message naming its field; a blocking probability may be ``auto``."""
    values = {}
    for key, value in raw.items():
        field = f"{section}.{key}" if section else key
        kind = _NUMBERS.get(field)
        if kind is not None and not (field == "attack.block_probability" and value == AUTO):
            try:
                value = kind(value)
            except ValueError:
                errors.append(f"{field}: expected a {kind.__name__}, got {value!r}")
                value = None
        values[key] = value
    return values


def read_config_file(path: str) -> dict:
    """Parse the flat key-value config file into override-style values.

    Unknown sections or keys are rejected with their names.
    """
    parser = configparser.ConfigParser()
    with open(path) as fh:
        parser.read_file(fh, source=path)
    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            errors.append(f"{path}: unknown section [{section}]")
            continue
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                errors.append(f"{path}: unknown key '{key}' in section [{section}]")
    if errors:
        raise ConfigError(errors)

    exp = parser["experiment"] if parser.has_section("experiment") else {}
    values = _parse_numbers(dict(exp), errors)
    if parser.has_section("attack"):
        sec = parser["attack"]
        attack = {
            key: _parse_bool(sec.get(key, "true"), f"attack.{key}", errors)
            for key in ("enabled", "guarantee_delivery")
        }
        attack["block_probability"] = sec.get("block_probability", AUTO)
        values["attack"] = _parse_numbers(attack, errors, "attack")
    if parser.has_section("sweep"):
        sec = parser["sweep"]
        missing = [k for k in ("param", "start", "stop", "steps") if k not in sec]
        if missing:
            errors.append(f"sweep: missing keys {missing}")
        else:
            values["sweep"] = _parse_numbers(dict(sec), errors, "sweep")
    if parser.has_section("output"):
        values.update(parser["output"])
    if errors:
        raise ConfigError(errors)
    return values


def build_config(file_values: dict, flag_values: dict) -> ExperimentConfig:
    """Merge file values with flag overrides into a validated config."""
    merged = dict(file_values)
    for key, value in flag_values.items():
        if value is not None:
            merged[key] = value
    scheme_name = merged.get("scheme")
    if scheme_name is None:
        raise ConfigError(["scheme: required (one of ep, wcs, pdc)"])
    scheme = _SCHEME_NAMES.get(str(scheme_name))
    if scheme is None:
        raise ConfigError([f"scheme: must be one of {sorted(_SCHEME_NAMES)}, got {scheme_name!r}"])
    errors: list[str] = []
    attack = None
    # --attack sets the file's [attack] enabled alone; a --block-probability
    # flag overrides the blocking probability of an enabled attack, and is an
    # error without one
    raw_attack = {**file_values.get("attack", {}), **flag_values.get("attack", {})}
    block = merged.pop("block_probability", None)
    if block is not None:
        raw_attack["block_probability"] = block
    if raw_attack.get("enabled"):
        try:
            attack = PnsConfig(
                block_probability=raw_attack.get("block_probability", AUTO),
                guarantee_delivery=raw_attack.get("guarantee_delivery", True),
            )
        except ConfigError as exc:
            errors += [f"attack.{message}" for message in exc.errors]
    elif block is not None:
        errors.append(
            "attack.block_probability: applies only when the attack is enabled "
            "(--attack pns, or an enabled [attack] section)"
        )
    sweep = None
    raw_sweep = merged.get("sweep")
    if raw_sweep is not None:
        sweep = SweepSpec(
            param=raw_sweep["param"],
            start=raw_sweep["start"],
            stop=raw_sweep["stop"],
            steps=raw_sweep["steps"],
            scale=raw_sweep.get("scale", "linear"),
        )
    config = ExperimentConfig(
        scheme=scheme,
        g=merged.get("g"),
        mu=merged.get("mu"),
        mu_prime=merged.get("mu_prime"),
        eta_a=merged.get("eta_a", 1.0),
        eta_b=merged.get("eta_b", 1.0),
        eta_l=merged.get("eta_l", 1.0),
        trials=merged.get("trials", DEFAULT_TRIALS),
        master_seed=merged.get("seed", DEFAULT_SEED),
        truncation_order=merged.get("truncation", DEFAULT_TRUNCATION),
        attack=attack,
        workers=merged.get("workers", 1),
        sweep=sweep,
        out_format=merged.get("format", "csv"),
        out_path=merged.get("path"),
    )
    errors += validate(config)
    if errors:
        raise ConfigError(errors)
    return config


def parse_config(
    path: Optional[str] = None, flags: Optional[dict] = None
) -> ExperimentConfig:
    """Load the config file (if any) and apply flag overrides."""
    file_values = read_config_file(path) if path else {}
    return build_config(file_values, flags or {})


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
    point is run on its own.
    """
    row = analytic_row(point)
    if point.config.trials > 0:
        report = next(reports) if reports is not None else run_experiment(point.config)
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
    # numbers stay strings here: _flags_to_values parses them as a file's are
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


def _flags_to_values(args: argparse.Namespace) -> dict:
    errors: list[str] = []
    keys = (*_SECTION_KEYS["experiment"], *_SECTION_KEYS["output"])
    given = {k: v for k, v in vars(args).items() if k in keys and v is not None}
    values = _parse_numbers(given, errors)
    block = getattr(args, "block_probability", None)
    if block is not None:
        # ``build_config`` applies it to whichever attack is enabled
        values.update(_parse_numbers({"block_probability": block}, errors, "attack"))
    if getattr(args, "attack", None) is not None:
        values["attack"] = {"enabled": args.attack == "pns"}
    if getattr(args, "sweep", None):
        parts = args.sweep.split(":")
        if len(parts) not in (4, 5):
            raise ConfigError(["sweep: expected param:start:stop:steps[:log]"])
        values["sweep"] = _parse_numbers(
            dict(zip(_SECTION_KEYS["sweep"], parts)), errors, "sweep"
        )
    if errors:
        raise ConfigError(errors)
    return values


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
            sigma = _parse_numbers({"sigma": args.sigma}, errors)["sigma"]
            if errors:
                raise ConfigError(errors)
            _SIGMA.require(sigma=sigma)
        flags = _flags_to_values(args)
        config = parse_config(getattr(args, "config", None), flags)
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
