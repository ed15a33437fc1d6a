import contextlib
import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest

from pdcqkd import analytics, cli, engine, eve
from pdcqkd.cli import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    analytic_row,
    build_config,
    main,
    point_row,
    read_config_file,
    run_sweep,
)
from pdcqkd.config import ConfigError, ExperimentConfig, SweepSpec, validate
from pdcqkd.detection import ChannelParams
from pdcqkd.engine import BATCH_SIZE, STREAM_VERSION, _resolve_run_params, run_experiments
from pdcqkd.eve import AUTO, PnsConfig
from pdcqkd.source import Scheme, SourceParams, mean_pairs


class TestSweepSpec:
    def test_linear_values(self):
        spec = SweepSpec("g", 0.1, 0.3, 3)
        assert spec.values() == pytest.approx([0.1, 0.2, 0.3])

    def test_log_values(self):
        spec = SweepSpec("mu", 0.001, 0.1, 3, scale="log")
        assert spec.values() == pytest.approx([0.001, 0.01, 0.1])

    def test_single_step(self):
        assert SweepSpec("g", 0.2, 0.9, 1).values() == [0.2]


class TestValidation:
    def test_requires_exactly_one_gain_parameter(self):
        config = ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS, g=0.1, mu=0.02)
        errors = validate(config)
        assert any("'g' and 'mu'" in e for e in errors)
        errors = validate(ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS))
        assert any("'g' and 'mu'" in e for e in errors)

    def test_wcs_requires_mu_prime(self):
        errors = validate(ExperimentConfig(scheme=Scheme.WEAK_COHERENT))
        assert any(e.startswith("mu_prime") for e in errors)

    def test_errors_name_fields(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS,
            g=0.1,
            eta_a=2.0,
            trials=-5,
            workers=0,
        )
        errors = validate(config)
        joined = " ".join(errors)
        assert "eta_a" in joined and "trials" in joined and "workers" in joined

    @pytest.mark.parametrize(
        "fields, field",
        [
            (dict(truncation_order=2.5), "truncation_order"),
            (dict(trials=1e5), "trials"),
            (dict(trials=True), "trials"),
            (dict(workers=2.0), "workers"),
            (dict(master_seed=1.0), "master_seed"),
            (dict(sweep=SweepSpec("g", 0.1, 0.3, 2.0)), "sweep.steps"),
        ],
    )
    def test_integer_fields_must_be_integers(self, fields, field):
        config = ExperimentConfig(
            **{"scheme": Scheme.ENTANGLED_PAIRS, "g": 0.1, "trials": 10, **fields}
        )
        (message,) = validate(config)
        assert message.startswith(f"{field}: must be an integer, got ")
        with pytest.raises(ConfigError, match=f"^{field}: "):
            engine.run_experiment(config)

    def test_numpy_integers_are_integers(self):
        config = ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS, g=0.3, trials=3000, master_seed=7)
        as_numpy = dataclasses.replace(
            config, trials=np.int64(3000), master_seed=np.uint64(7),
            truncation_order=np.int64(2), workers=np.int64(1),
        )
        assert validate(as_numpy) == []
        assert engine.run_experiment(as_numpy) == engine.run_experiment(config)

    @pytest.mark.parametrize("truncation", [1, 128])
    def test_truncation_range(self, truncation):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.1, truncation_order=truncation
        )
        assert any(e.startswith("truncation_order") for e in validate(config))

    def test_sweep_validation(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS,
            g=0.1,
            sweep=SweepSpec("bogus", 0, 1, 2),
        )
        assert any("sweep.param" in e for e in validate(config))
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS,
            g=0.1,
            sweep=SweepSpec("g", 0.0, 0.5, 3, scale="log"),
        )
        assert any("log scale" in e for e in validate(config))

    def test_resolved_gain_from_mean(self):
        config = ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS, mu=0.02)
        g = config.resolved_gain()
        assert 2 * g * g / (1 - g * g) == pytest.approx(0.02, abs=1e-12)
        pdc = ExperimentConfig(scheme=Scheme.TRIGGERED_PDC, mu=0.02)
        g2 = pdc.resolved_gain()
        assert g2 * g2 / (1 - g2 * g2) == pytest.approx(0.02, abs=1e-12)


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[experiment]\n"
            "scheme = ep\n"
            "g = 0.1\n"
            "eta_a = 0.5\n"
            "eta_b = 0.5\n"
            "eta_l = 0.2\n"
            "trials = 1000\n"
            "seed = 7\n"
            "[attack]\n"
            "enabled = true\n"
            "block_probability = auto\n"
            "[output]\n"
            "format = json\n"
        )
        config = build_config(read_config_file(str(path)), {})
        assert config.g == 0.1
        assert config.master_seed == 7
        assert config.attack == PnsConfig(AUTO)
        assert config.out_format == "json"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nscheme = ep\ngian = 0.1\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(str(path))
        assert "gian" in str(exc.value)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[experiments]\nscheme = ep\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(str(path))
        assert "experiments" in str(exc.value)

    @pytest.mark.parametrize(
        "text, line",
        [
            pytest.param("g = 0.3\n", 1, id="no section header"),
            pytest.param("[experiment]\nscheme = ep\ng = 0.3\ng = 0.4\n", 4, id="key given twice"),
            pytest.param("[experiment]\nscheme = ep\n[experiment]\ng = 0.3\n", 3,
                         id="section given twice"),
            pytest.param("[experiment]\nscheme = ep\ng\n", 3, id="line without ="),
        ],
    )
    def test_malformed_file_exits_2_naming_file_and_line(self, text, line, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert main(["analytic", "-c", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (message,) = json.loads(err)["messages"]
        assert str(path) in message and f"line {line}" in message.replace(":", "")

    @pytest.mark.parametrize(
        "name, content",
        [("missing.ini", None), (".", None), ("binary.ini", b"\xff\xfe[experiment]\n")],
        ids=["missing", "directory", "not text"],
    )
    def test_unreadable_file_exits_2_naming_it(self, name, content, tmp_path, capsys):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        assert main(["analytic", "-c", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (message,) = json.loads(err)["messages"]
        assert message.startswith(f"config: cannot read {str(path)!r}: ")

    def test_values_are_literal(self, tmp_path, capsys):
        target = tmp_path / "out%1.csv"
        path = tmp_path / "run.ini"
        path.write_text(f"[experiment]\nscheme = ep\ng = 0.3\n[output]\npath = {target}\n")
        assert main(["analytic", "-c", str(path)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[experiment]\nscheme = ep\ng = 0.1\ntrials = 1000\n")
        config = build_config(read_config_file(str(path)), {"experiment": {"trials": "50"}})
        assert config.trials == 50 and config.g == 0.1

    def test_missing_scheme_is_an_error(self):
        with pytest.raises(ConfigError) as exc:
            build_config({}, {"experiment": {"g": "0.1"}})
        assert "scheme" in str(exc.value)


class TestFlagsAndFileAgree:
    """A flag and its config-file key with the same value give the same
    config, or the same messages: every flag value, good or bad, is parsed
    and checked as the file's is."""

    EP = ["--scheme", "ep", "--g", "0.3"]
    ATTACKED = [*EP, "--attack", "pns"]
    # (section, key, file value, flags, flags given in both runs)
    CASES = [
        ("experiment", "scheme", "pdc", ["--scheme", "pdc"], ["--g", "0.3"]),
        ("experiment", "scheme", "xyz", ["--scheme", "xyz"], ["--g", "0.3"]),
        ("experiment", "g", "0.2", ["--g", "0.2"], ["--scheme", "ep"]),
        ("experiment", "g", "abc", ["--g", "abc"], ["--scheme", "ep"]),
        ("experiment", "mu", "0.02", ["--mu", "0.02"], ["--scheme", "ep"]),
        ("experiment", "mu", "-1", ["--mu", "-1"], ["--scheme", "ep"]),
        ("experiment", "mu_prime", "0.5", ["--mu-prime", "0.5"], ["--scheme", "wcs"]),
        ("experiment", "mu_prime", "nan", ["--mu-prime", "nan"], ["--scheme", "wcs"]),
        ("experiment", "eta_a", "0.6", ["--eta-a", "0.6"], EP),
        ("experiment", "eta_a", "1.5", ["--eta-a", "1.5"], EP),
        ("experiment", "eta_b", "0.8", ["--eta-b", "0.8"], EP),
        ("experiment", "eta_b", "x", ["--eta-b", "x"], EP),
        ("experiment", "eta_l", "0.5", ["--eta-l", "0.5"], EP),
        ("experiment", "eta_l", "-0.1", ["--eta-l", "-0.1"], EP),
        ("experiment", "trials", "2000", ["--trials", "2000"], EP),
        ("experiment", "trials", "1e6", ["--trials", "1e6"], EP),
        ("experiment", "seed", "7", ["--seed", "7"], EP),
        ("experiment", "seed", "-1", ["--seed", "-1"], EP),
        ("experiment", "truncation", "3", ["--truncation", "3"], EP),
        ("experiment", "truncation", "1", ["--truncation", "1"], EP),
        ("experiment", "workers", "2", ["--workers", "2"], EP),
        ("experiment", "workers", "0", ["--workers", "0"], EP),
        ("attack", "enabled", "true", ["--attack", "pns"], EP),
        ("attack", "enabled", "false", ["--attack", "none"], EP),
        ("attack", "enabled", "maybe", ["--attack", "maybe"], EP),
        ("attack", "block_probability", "0.3", ["--block-probability", "0.3"], ATTACKED),
        ("attack", "block_probability", "auto", ["--block-probability", "auto"], ATTACKED),
        ("attack", "block_probability", "1.5", ["--block-probability", "1.5"], ATTACKED),
        ("attack", "block_probability", "abc", ["--block-probability", "abc"], ATTACKED),
        ("output", "format", "json", ["--format", "json"], EP),
        ("output", "format", "xml", ["--format", "xml"], EP),
        ("output", "path", "{tmp}/rates.csv", ["--output", "{tmp}/rates.csv"], EP),
        ("output", "path", "{tmp}/missing/rates.csv", ["--output", "{tmp}/missing/rates.csv"], EP),
    ]

    @pytest.mark.parametrize(
        "section, key, value, flags, common",
        CASES,
        ids=[f"{section}.{key}={value}" for section, key, value, *_ in CASES],
    )
    def test_flag_and_file_key_agree(
        self, section, key, value, flags, common, tmp_path, monkeypatch, capsys
    ):
        configs = []

        def capture(config):
            configs.append(config)
            return [dict.fromkeys(CSV_COLUMNS)]

        monkeypatch.setattr(cli, "run_sweep", capture)
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value.format(tmp=tmp_path)}\n")
        outcomes = []
        for args in (["-c", str(path)], [flag.format(tmp=tmp_path) for flag in flags]):
            code = main(["simulate", *common, *args])
            outcomes.append((code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert configs[:1] == configs[1:]
        code, _, err = outcomes[0]
        assert code == 0 or json.loads(err)["error"] is True

    def test_sweep_flag_replaces_the_file_sweep(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text(
            "[experiment]\nscheme = ep\ng = 0.1\n"
            "[sweep]\nparam = g\nstart = 0.01\nstop = 0.2\nsteps = 5\nscale = log\n"
        )
        args = ["sweep", "-c", str(path), "--trials", "0", "--format", "json"]
        assert main([*args, "--sweep", "g:0.1:0.3:3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["sweep"]["scale"] == "linear"
        assert [row["sweep_value"] for row in payload["rows"]] == pytest.approx([0.1, 0.2, 0.3])


class TestRows:
    def test_analytic_row_ep(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.1, eta_a=0.5, eta_b=0.5, eta_l=0.2
        ).validated()
        row = analytic_row(_resolve_run_params(config))
        assert row["r_key_oracle"] > 0
        assert row["epsilon_oracle"] == pytest.approx(row["epsilon_formula"], abs=1e-14)

    def test_analytic_row_wcs_branches(self):
        config = ExperimentConfig(
            scheme=Scheme.WEAK_COHERENT, mu_prime=0.1, eta_b=0.5, eta_l=0.2
        ).validated()
        row = analytic_row(_resolve_run_params(config))
        assert row["i_e"] == pytest.approx(row["r_multi"] / row["r_exp"], abs=1e-12)
        assert row["i_e_saturated"] is False

    def test_analytic_row_records_block_probability(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, attack=PnsConfig(), trials=0
        ).validated()
        row = analytic_row(_resolve_run_params(config))
        assert row["block_probability"] == _resolve_run_params(config).block_probability
        assert 0.0 < row["block_probability"] < 1.0
        explicit = dataclasses.replace(config, attack=PnsConfig(0.25))
        assert analytic_row(_resolve_run_params(explicit))["block_probability"] == 0.25
        unattacked = dataclasses.replace(config, attack=None)
        assert analytic_row(_resolve_run_params(unattacked))["block_probability"] is None

    def test_attacked_prepared_rows_follow_block_probability(self):
        wcs = ExperimentConfig(
            scheme=Scheme.WEAK_COHERENT, mu_prime=0.5, eta_b=0.8, eta_l=0.5,
            attack=PnsConfig(block_probability=0.5),
        ).validated()
        row = analytic_row(_resolve_run_params(wcs))
        assert row["r_key_oracle"] == analytics.wcs_attack_delivered(0.5, 0.5)
        assert row["r_err_oracle"] == 0.0 and row["epsilon_oracle"] == 0.0
        pdc = ExperimentConfig(
            scheme=Scheme.TRIGGERED_PDC, g=0.3, eta_a=0.6,
            attack=PnsConfig(block_probability=0.0),
        ).validated()
        row = analytic_row(_resolve_run_params(pdc))
        assert row["r_key_oracle"] == analytics.pdc_attack_delivered(0.3, 0.6, 1.0)

    def test_attacked_ep_row_separates_oracle_and_formula(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, attack=PnsConfig(), trials=0
        ).validated()
        explicit = dataclasses.replace(config, attack=PnsConfig(0.25))
        row = analytic_row(_resolve_run_params(explicit))
        exact = analytics.ep_pns_oracle(0.3, 0.6, 0.75, 2)
        rates = eve.attack_rates(SourceParams(Scheme.ENTANGLED_PAIRS, g=0.3), ChannelParams(0.6))
        for key in ("p_ae", "p_eb", "i_ae", "i_eb"):
            assert row[f"{key}_oracle"] == getattr(exact, key)
        assert row["epsilon_oracle"] == exact.error_rate
        # the printed values: i_e is Eq. 10 at the printed P_AE, and the rate
        # is matched at block 0.036, so epsilon' is its small-mu leading order
        assert row["p_ae_formula"] == (5.0 - 3.0 * 0.6) / (6.0 - 4.0 * 0.6)
        assert row["i_e"] == rates.information(analytics.binary_information(row["p_ae_formula"]))
        assert row["eps_prime_formula"] == (1.0 - 0.6) * mean_pairs(0.3) / (4.0 * 1.0)
        assert row["i_ab_formula"] == analytics.binary_information(row["eps_prime_formula"])
        assert not {"i_ab_oracle", "i_ae_formula", "eps_prime_oracle"} & set(row)

    # points whose printed values are worked out by hand below; eta_B is 0.3
    FORMULA_SOURCES = {
        "ep": dict(scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, eta_l=0.3),
        "wcs": dict(scheme=Scheme.WEAK_COHERENT, mu_prime=0.5, eta_l=0.3),
        "pdc": dict(scheme=Scheme.TRIGGERED_PDC, g=0.3, eta_a=0.6, eta_l=0.3),
    }

    def test_formula_columns_are_the_printed_table(self):
        formula_keys = [key for key in CSV_COLUMNS if key.endswith("_formula")]
        assert sorted(formula_keys) == sorted(entry.key for entry in analytics.PRINTED)

    @pytest.mark.parametrize("scheme", FORMULA_SOURCES)
    @pytest.mark.parametrize("block", [None, AUTO, 0.5])
    def test_formula_keys_come_from_the_table(self, scheme, block):
        fields = self.FORMULA_SOURCES[scheme]
        point = _resolve_run_params(ExperimentConfig(
            **fields, attack=None if block is None else PnsConfig(block)
        ))
        row = analytic_row(point)
        printed = analytics.FormulaPoint(
            point.config.scheme, block is not None, point.source.g, point.config.eta_a, 0.3,
            point.source.mu_prime, point.rates,
        )
        for entry in analytics.PRINTED:
            assert row[entry.key] == entry.value(printed), entry.key
        # the printed attack terms read no blocking probability
        rate_keys = ("eps_prime_formula", "i_ab_formula", "i_eb_formula", "i_e_formula")
        if block == 0.5:
            at_auto = analytic_row(_resolve_run_params(dataclasses.replace(
                point.config, attack=PnsConfig(AUTO)
            )))
            assert {k: row[k] for k in rate_keys} == {k: at_auto[k] for k in rate_keys}
        expected = {
            "ep": {"eps_prime_formula": None if block is None else 0.06593406593406594},
            "wcs": {"i_e_formula": pytest.approx(0.5 / 0.6, rel=1e-15)},
            "pdc": {"i_e_formula": pytest.approx(1.4 / 0.3 * 0.09 / 0.91, rel=1e-14)},
        }[scheme]
        assert {k: row[k] for k in expected} == expected
        filled = {key for key in CSV_COLUMNS if key.endswith("_formula") and row[key] is not None}
        attack_keys = {"p_ae_formula", "p_eb_formula", "i_eb_formula", "eps_prime_formula",
                       "i_ab_formula"}
        ep_keys = {"r_key_formula", "r_err_formula", "epsilon_formula"}
        if block is not None:
            ep_keys |= attack_keys
        assert filled == (ep_keys if scheme == "ep" else {"i_e_formula"})

    def test_sweep_rows_ordered(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS,
            g=0.1,
            eta_a=0.5,
            trials=0,
            sweep=SweepSpec("g", 0.3, 0.1, 3),
        ).validated()
        rows = run_sweep(config)
        values = [row["sweep_value"] for row in rows]
        assert values == sorted(values)
        assert len(rows) == 3

    def test_sweep_point_failure_is_reported(self):
        config = ExperimentConfig(
            scheme=Scheme.ENTANGLED_PAIRS,
            g=0.1,
            trials=0,
            sweep=SweepSpec("eta_a", 0.5, 2.0, 2),
        ).validated()
        with pytest.raises(ConfigError) as exc:
            run_sweep(config)
        assert "eta_a=2.0" in str(exc.value)

    @pytest.mark.parametrize(
        "sweep, field",
        [
            (SweepSpec("g", 0.1, 0.3, 2.0), "sweep.steps"),
            (SweepSpec("bogus", 0.1, 0.3, 2), "sweep.param"),
        ],
    )
    def test_sweep_is_validated_before_its_points_are_built(self, sweep, field):
        config = ExperimentConfig(scheme=Scheme.ENTANGLED_PAIRS, g=0.1, trials=0, sweep=sweep)
        with pytest.raises(ConfigError, match=f"^{field}: "):
            run_sweep(config)


def attacked_sweep(workers, sweep=None):
    return ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS,
        eta_a=0.6,
        eta_b=0.8,
        eta_l=0.5,
        trials=2 * BATCH_SIZE + 17,
        master_seed=41,
        truncation_order=3,
        attack=PnsConfig(),
        workers=workers,
        sweep=sweep or SweepSpec("g", 0.1, 0.4, 3),
    ).validated()


class TestSweepScheduler:
    def test_rows_identical_for_any_worker_count(self):
        rows = [run_sweep(attacked_sweep(workers)) for workers in (1, 2, 3)]
        assert rows[0] == rows[1] == rows[2]
        alone = []
        for row in rows[0]:
            config = dataclasses.replace(attacked_sweep(2), sweep=None, g=row["sweep_value"])
            point = _resolve_run_params(config)
            with contextlib.closing(run_experiments([point])) as reports:
                alone.append(point_row(point, "g", row["sweep_value"], reports))
        assert alone == rows[0]

    def test_points_and_sweeps_share_one_pool(self, counting_pool):
        sweep = attacked_sweep(2, sweep=SweepSpec("g", 0.1, 0.4, 4))
        point = dataclasses.replace(sweep, sweep=None, g=0.2)
        first = engine.run_experiment(point)
        rows = run_sweep(sweep)
        assert engine.run_experiment(point) == first
        assert len(rows) == 4
        assert len(counting_pool) == 1 and not counting_pool[0].shut_down

    def test_invalid_last_point_fails_before_any_batch(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("a batch range ran")

        monkeypatch.setattr(engine, "_run_batch_range", no_run)
        config = dataclasses.replace(
            attacked_sweep(2), g=0.3, sweep=SweepSpec("eta_a", 0.2, 1.4, 3)
        )
        with pytest.raises(ConfigError) as exc:
            run_sweep(config)
        assert "sweep point eta_a=1.4" in str(exc.value)

    def test_row_error_mid_sweep_leaves_the_pool_to_the_next_run(
        self, monkeypatch, counting_pool
    ):
        sweep = attacked_sweep(2, sweep=SweepSpec("g", 0.1, 0.4, 4))
        expected = run_sweep(dataclasses.replace(sweep, workers=1))
        real = cli.analytic_row
        calls = []

        def failing_analytic_row(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("row failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "analytic_row", failing_analytic_row)
        # the held traceback keeps the sweep's frames, and so its generator, alive
        with pytest.raises(RuntimeError, match="row failed") as excinfo:
            run_sweep(sweep)
        monkeypatch.setattr(cli, "analytic_row", real)
        # the failed sweep's ranges not started were dropped, so this one's
        # queue behind at most the ranges that had started
        assert run_sweep(sweep) == expected
        assert len(counting_pool) == 1 and not counting_pool[0].shut_down
        del excinfo


class TestAttackedCompare:
    """``compare`` checks an attacked ep run against the exact attack oracle
    for the run's own blocking probability and truncation."""

    @pytest.mark.parametrize(
        "extra, seed",
        [
            (["--block-probability", "1.0"], 51),
            (["--block-probability", "auto", "--truncation", "4"], 52),
            (["--block-probability", "auto"], 53),
        ],
    )
    def test_compare_passes(self, extra, seed, capsys):
        code = main(
            ["compare", "--scheme", "ep", "--g", "0.4", "--eta-a", "0.6", "--attack", "pns"]
            + ["--trials", "1000000", "--seed", str(seed), "--sigma", "4.5"]
            + extra
        )
        err = capsys.readouterr().err
        assert code == 0, err
        assert err.count("PASS") == 6

    @pytest.mark.parametrize(
        "scheme, block, seed",
        [
            (scheme, block, seed)
            for seed, (scheme, block) in enumerate(
                [(s, b) for s in ("wcs", "pdc") for b in ("0", "0.5", "auto")], start=54
            )
        ],
    )
    def test_prepared_compare_passes(self, scheme, block, seed, capsys):
        # the oracle is the delivered rate at the run's blocking probability;
        # no sifted bit is wrong, so r_err and epsilon pass exactly at 0
        source = {
            "wcs": ["--mu-prime", "0.5", "--eta-b", "0.8", "--eta-l", "0.5"],
            "pdc": ["--g", "0.3", "--eta-a", "0.6", "--eta-b", "0.8", "--eta-l", "0.5"],
        }[scheme]
        code = main(
            ["compare", "--scheme", scheme, *source, "--attack", "pns"]
            + ["--block-probability", block, "--trials", "1000000"]
            + ["--seed", str(seed), "--sigma", "4.5"]
        )
        err = capsys.readouterr().err
        assert code == 0, err
        assert err.count("PASS") == 3
        assert "r_err: PASS exact" in err and "epsilon: PASS exact" in err

    def test_one_prepared_error_fails_exactly(self, monkeypatch, capsys):
        real = engine._prepared_batch

        def one_error(*args):
            counts = real(*args)
            counts.errors += 1
            return counts

        monkeypatch.setattr(engine, "_prepared_batch", one_error)
        code = main(["compare", "--scheme", "wcs", "--mu-prime", "0.5", "--trials", "20000",
                     "--seed", "3", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1, err
        assert "point r_key: PASS z=" in err
        assert "point r_err: FAIL exact" in err and "point epsilon: FAIL exact" in err
        (row,) = json.loads(out)["rows"]
        assert row["r_err_mc"] == 1 / 20000 and row["r_err_oracle"] == 0.0
        assert row["r_err_z"] is None and row["epsilon_z"] is None


class TestZeroSpreadVerdicts:
    """An estimate of exactly 0 against a nonzero oracle has no standard
    error, so no z-score; ``compare`` judges its count by its binomial
    probability at the oracle."""

    EP = ["compare", "--scheme", "ep", "--g", "0.3", "--eta-a", "0.6", "--eta-b", "0.8",
          "--eta-l", "0.5"]

    def test_no_errors_where_hundreds_are_expected_fails(self, monkeypatch, capsys):
        real = engine._ep_batch

        def no_errors(*args):
            counts = real(*args)
            counts.errors = 0
            return counts

        monkeypatch.setattr(engine, "_ep_batch", no_errors)
        code = main([*self.EP, "--trials", "1000000", "--seed", "5", "--format", "json"])
        out, err = capsys.readouterr()
        assert code == 1, err
        assert "point r_key: PASS z=" in err
        assert "point r_err: FAIL P(count)=" in err and "point epsilon: FAIL P(count)=" in err
        (row,) = json.loads(out)["rows"]
        assert row["r_err_mc"] == 0.0 and row["r_err_oracle"] * row["trials"] > 300
        assert row["r_err_z"] is None and row["epsilon_z"] is None

    def test_no_errors_where_fewer_than_one_is_expected_passes(self, capsys):
        code = main([*self.EP, "--trials", "1000", "--seed", "1", "--format", "json"])
        out, err = capsys.readouterr()
        (row,) = json.loads(out)["rows"]
        valid = row["trials"] - row["truncation_exceeded"]
        assert row["r_err_mc"] == 0.0 and row["r_err_oracle"] * valid < 1
        assert code == 0, err
        assert "point r_err: PASS P(count)=" in err and "point epsilon: PASS P(count)=" in err

    @pytest.mark.parametrize("eta", [1.0, 0.4])
    def test_alice_classes_that_ignore_eta_a_fail(self, eta, monkeypatch, capsys):
        # Alice's outcome classes in the ep joint table weighted at an
        # efficiency other than her own: ideal detectors, or Bob's
        build = engine._JointTable.build.__func__

        def ignore_eta_a(cls, dist, sector_tables, fire_a):
            return build(cls, dist, sector_tables, engine._fire_table(eta, len(fire_a) - 1))

        monkeypatch.setattr(engine._JointTable, "build", classmethod(ignore_eta_a))
        code = main([*self.EP, "--trials", "2000000", "--seed", "6"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "point r_key: FAIL z=" in err


class TestSectorWeights:
    """``compare`` judges the mismatched-basis double clicks, so it fails an
    ``ep`` kernel that draws each total's mismatched occupations at the wrong
    weights, although the matched-basis rounds, and with them ``r_key``,
    ``r_err`` and ``epsilon``, are unchanged.  The mutant is the "uniform
    sector weights" one of ``perfbench/selftest.py``.

    Under attack the interposer forwards Bob's arm over a lossless line to
    ideal detectors, so at g 0.3 and truncation 2 or 3 the mutant leaves his
    double clicks as they are; at g 0.7 and truncation 12, where the ``auto``
    attack saturates, it moves them.
    """

    @pytest.mark.parametrize("point", [
        ["--g", "0.3", "--truncation", "2"],
        ["--g", "0.3", "--truncation", "3"],
        ["--g", "0.7", "--truncation", "12", "--attack", "pns"],
    ], ids=["2", "3", "12-pns"])
    def test_uniform_sector_weights_fail(self, point, monkeypatch, capsys):
        class UniformSectorWeights(engine._EpContext):
            def __init__(self, params):
                super().__init__(params)
                self.sector_tables = {
                    total: (np.linspace(1.0 / len(cdf), 1.0, len(cdf)), *occupations)
                    for total, (cdf, *occupations) in self.sector_tables.items()
                }

        monkeypatch.setattr(engine, "_EpContext", UniformSectorWeights)
        code = main(["compare", "--scheme", "ep", *point, "--eta-a", "0.6", "--eta-b", "0.7",
                     "--eta-l", "0.5", "--trials", "2000000", "--seed", "5"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "point double_click_mismatched: FAIL z=" in err


class TestPreparedSlotWeights:
    """The herald and block weights of the prepared alias table are seen by
    ``compare``: a table weighted at the wrong ones fails it."""

    SOURCES = {
        "wcs": ["--scheme", "wcs", "--mu-prime", "0.5"],
        "pdc": ["--scheme", "pdc", "--g", "0.3", "--eta-a", "0.6"],
    }

    @staticmethod
    def build_from(monkeypatch, mutate):
        """Every ``_PreparedContext`` built from ``mutate`` of its point,
        while the report keeps the point as it is."""
        init = engine._PreparedContext.__init__
        monkeypatch.setattr(
            engine._PreparedContext, "__init__", lambda self, params: init(self, mutate(params))
        )

    @pytest.mark.parametrize("attack", [[], ["--attack", "pns", "--block-probability", "0.4"]])
    def test_herald_weighted_at_ideal_detectors_fails(self, attack, monkeypatch, capsys):
        self.build_from(monkeypatch, lambda params: dataclasses.replace(
            params, channel=dataclasses.replace(params.channel, eta_a=1.0)
        ))
        code = main(["compare", *self.SOURCES["pdc"], *attack, "--trials", "2000000", "--seed", "7"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "point r_key: FAIL z=" in err

    @pytest.mark.parametrize("scheme", sorted(SOURCES))
    def test_blocks_weighted_at_zero_fail(self, scheme, monkeypatch, capsys):
        self.build_from(
            monkeypatch, lambda params: dataclasses.replace(params, block_probability=0.0)
        )
        args = [*self.SOURCES[scheme], "--attack", "pns", "--block-probability", "0.4"]
        code = main(["compare", *args, "--trials", "2000000", "--seed", "8"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "point r_key: FAIL z=" in err


class TestRowSchema:
    """Every row, CSV or JSON, has exactly the ``CSV_COLUMNS`` keys, whatever
    the command, scheme or attack."""

    SOURCES = {
        "ep": ["--g", "0.3", "--eta-a", "0.6"],
        "wcs": ["--mu-prime", "0.5", "--eta-l", "0.4"],
        "pdc": ["--g", "0.3", "--eta-a", "0.6", "--eta-l", "0.4"],
    }
    ATTACKS = {
        "none": [],
        "auto": ["--attack", "pns"],
        "explicit": ["--attack", "pns", "--block-probability", "0.3"],
    }
    COMMANDS = {
        "analytic": [],
        "simulate": [],
        "sweep": ["--sweep", "eta_b:0.5:1:2"],
        "compare": ["--sigma", "1e9"],
    }

    def test_columns_are_unique(self):
        assert len(set(CSV_COLUMNS)) == len(CSV_COLUMNS)

    def test_rates_name_tallies_columns_and_fields(self):
        tallies = {field.name for field in dataclasses.fields(engine._Counts)}
        report = {field.name for field in dataclasses.fields(engine.RateReport)}
        for rate in engine.RATES:
            assert rate.tally in tallies and rate.share_of in tallies | {"valid"}, rate
            assert rate.field in report, rate
        assert [rate.stem for rate in cli.JUDGED] == [
            "r_key", "r_err", "epsilon", "double_click_matched", "double_click_mismatched",
            "bob_no_click",
        ]
        for rate in cli.JUDGED:
            assert {f"{rate.stem}_{part}" for part in ("mc", "se", "oracle", "z")} <= set(CSV_COLUMNS)
            assert f"{rate.stem}_se" in report, rate
        for rate in engine.RATES:
            assert rate.judged or rate.field in CSV_COLUMNS, rate

    @pytest.mark.parametrize("scheme", SOURCES)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_judged_z_scores(self, scheme, attack, capsys):
        args = ["simulate", "--scheme", scheme, *self.SOURCES[scheme], *self.ATTACKS[attack],
                "--trials", "20000", "--format", "json"]
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        scored = 0
        for rate in cli.JUDGED:
            mc, se, oracle, z = (row[f"{rate.stem}_{part}"] for part in ("mc", "se", "oracle", "z"))
            if z is not None:
                assert z == (mc - oracle) / se, rate
                scored += 1
        assert scored >= 1

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("scheme", SOURCES)
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_every_row_has_every_column(self, command, scheme, attack, capsys):
        args = [command, "--scheme", scheme, *self.SOURCES[scheme], *self.ATTACKS[attack],
                *self.COMMANDS[command], "--trials", "2000"]
        assert main([*args, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows and all(sorted(row) == sorted(CSV_COLUMNS) for row in rows)
        assert main([*args, "--format", "csv"]) == 0
        header = next(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert header == CSV_COLUMNS


class TestMain:
    @pytest.mark.parametrize(
        "args, field",
        [
            (["simulate", "--scheme", "ep", "--g", "0.3", "--attack", "pns",
              "--block-probability", "abc"], "attack.block_probability"),
            (["sweep", "--scheme", "ep", "--trials", "0", "--sweep", "g:a:0.3:3"], "sweep.start"),
            (["sweep", "--scheme", "ep", "--trials", "0", "--sweep", "g:0.1:0.3:x"], "sweep.steps"),
            (["simulate", "--scheme", "ep", "--g", "abc"], "g"),
        ],
    )
    def test_unparsable_flag_exits_2_naming_the_field(self, args, field, capsys):
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert any(msg.startswith(field) for msg in err["messages"])

    @pytest.mark.parametrize(
        "sweep, field",
        [("g:0.1:inf:3", "sweep.stop"), ("g:nan:0.3:3", "sweep.start"),
         ("eta_a:-inf:0.5:3", "sweep.start")],
    )
    def test_non_finite_sweep_bound_exits_2_naming_it(self, sweep, field, capsys):
        # rejected as given, not as the point it would produce
        assert main(["sweep", "--scheme", "ep", "--g", "0.3", "--trials", "0",
                     "--sweep", sweep]) == 2
        (message,) = json.loads(capsys.readouterr().err)["messages"]
        assert message.startswith(f"{field}: must be finite, got ")

    @pytest.mark.parametrize("sigma", ["abc", "nan", "-1", "0", "inf"])
    def test_compare_sigma_is_checked_before_any_trial(self, sigma, monkeypatch, capsys):
        def no_run(*args):
            raise AssertionError("a batch range ran")

        monkeypatch.setattr(engine, "_run_batch_range", no_run)
        args = ["compare", "--scheme", "ep", "--g", "0.3", "--trials", "1000", "--sigma", sigma]
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (message,) = json.loads(err)["messages"]
        assert message.startswith("sigma: ")

    def test_analytic_json(self, capsys):
        code = main(
            [
                "analytic",
                "--scheme",
                "ep",
                "--g",
                "0.1",
                "--eta-a",
                "0.5",
                "--eta-b",
                "0.5",
                "--eta-l",
                "0.2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["stream_version"] == STREAM_VERSION
        assert payload["config"]["scheme"] == "ep"
        assert payload["rows"][0]["r_key_oracle"] > 0

    def test_wcs_mu_prime_sweep_needs_no_base_mu_prime(self, capsys):
        args = ["sweep", "--scheme", "wcs", "--eta-l", "0.3", "--trials", "0",
                "--sweep", "mu_prime:0.1:0.8:3"]
        assert main(args) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [float(row["sweep_value"]) for row in rows] == pytest.approx([0.1, 0.45, 0.8])

    def test_wcs_sweep_over_another_param_still_requires_mu_prime(self, capsys):
        args = ["sweep", "--scheme", "wcs", "--trials", "0", "--sweep", "eta_l:0.1:0.8:3"]
        assert main(args) == 2
        err = json.loads(capsys.readouterr().err)
        assert any(msg.startswith("mu_prime:") for msg in err["messages"])

    def test_analytic_csv_header(self, capsys):
        code = main(["analytic", "--scheme", "wcs", "--mu-prime", "0.1"])
        assert code == 0
        reader = csv.reader(io.StringIO(capsys.readouterr().out))
        assert next(reader) == CSV_COLUMNS

    def test_simulate_emits_monte_carlo_columns(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "ep",
                "--g",
                "0.3",
                "--eta-a",
                "0.8",
                "--trials",
                "20000",
                "--seed",
                "3",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        row = payload["rows"][0]
        assert row["r_key_mc"] > 0
        assert row["trials"] == 20000

    def test_sweep_flag(self, capsys):
        code = main(
            [
                "sweep",
                "--scheme",
                "ep",
                "--eta-a",
                "0.5",
                "--trials",
                "0",
                "--sweep",
                "g:0.05:0.15:3",
                "--format",
                "json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["rows"]) == 3

    def test_compare_passes_on_honest_statistics(self, capsys):
        code = main(
            [
                "compare",
                "--scheme",
                "ep",
                "--g",
                "0.3",
                "--eta-a",
                "0.8",
                "--trials",
                "200000",
                "--seed",
                "17",
                "--sigma",
                "5",
            ]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "PASS" in err and "FAIL" not in err
        # stdout is the data alone; a lone point's verdicts are labelled point
        assert next(csv.reader(io.StringIO(out))) == CSV_COLUMNS
        assert err.startswith("point r_key: PASS z=")

    @pytest.mark.parametrize("block", ["auto", "0.064"])
    def test_attacked_ep_oracle_keys_hold_the_exact_oracle(self, block, capsys):
        code = main(
            ["analytic", "--scheme", "ep", "--g", "0.3", "--eta-a", "0.6",
             "--attack", "pns", "--block-probability", block, "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION == 7
        (row,) = payload["rows"]
        exact = analytics.ep_pns_oracle(0.3, 0.6, 1.0 - row["block_probability"], 2)
        assert row["i_ae_oracle"] == exact.i_ae
        # the leading-order value is the exact one only at the rate-matched
        # blocking probability (0.036 here)
        assert row["i_e"] == pytest.approx(0.0715, abs=5e-5)
        expected = 0.0715 if block == "auto" else 0.0733
        assert row["i_ae_oracle"] == pytest.approx(expected, abs=5e-5)

    def test_attacked_ep_formula_columns_follow_truncation(self, capsys):
        code = main(
            ["analytic", "--scheme", "ep", "--g", "0.3", "--eta-a", "0.6", "--attack", "pns",
             "--truncation", "4", "--format", "json"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["r_exp"] == analytics.exact_rates_oracle(0.3, 0.6, 1.0, 4).r_key
        assert row["r_multi"] == analytics.ep_pns_oracle(0.3, 0.6, 0.0, 4).delivered_rate

    @pytest.mark.parametrize("attack", [[], ["--attack", "pns"]])
    def test_deepest_truncation_gives_probabilities(self, attack, capsys):
        # g 0.99 keeps most of the mass in sectors near the truncation
        code = main(
            ["analytic", "--scheme", "ep", "--g", "0.99", "--eta-a", "0.6", "--eta-b", "0.7",
             "--eta-l", "0.5", "--truncation", "127", "--format", "json", *attack]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        # the printed epsilon' is a small-mu leading order, 28.1 here
        probabilities = {
            key: value for key, value in row.items()
            if key.endswith(("_oracle", "_formula")) and key != "eps_prime_formula"
            or key in ("r_exp", "r_multi")
        }
        assert row["double_click_mismatched_oracle"] is not None
        assert row["bob_no_click_oracle"] is not None
        assert (row["r_multi"] is None) != bool(attack)
        assert all(0.0 <= v <= 1.0 for v in probabilities.values() if v is not None), row

    def test_deepest_truncation_printed_eps_prime_past_one(self, capsys):
        code = main(
            ["analytic", "--scheme", "ep", "--g", "0.99", "--eta-a", "0.6", "--eta-b", "0.7",
             "--eta-l", "0.5", "--truncation", "127", "--attack", "pns", "--format", "json"]
        )
        assert code == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["eps_prime_formula"] == pytest.approx(28.1, abs=0.05)
        assert row["i_ab_formula"] is None

    @pytest.mark.parametrize(
        "args, field",
        [
            (["--scheme", "ep", "--g", "0.3", "--truncation", "1"], "truncation_order"),
            (["--scheme", "wcs", "--mu-prime", "1001"], "mu_prime"),
            (["--scheme", "pdc", "--mu", "1001"], "mu"),
            (["--scheme", "pdc", "--mu", "1000.001"], "mu"),
            (["--scheme", "pdc", "--g", "0.9999"], "g"),
            (["--scheme", "ep", "--g", "0.3", "--attack", "pns", "--block-probability", "1.5"],
             "attack.block_probability"),
            (["--scheme", "ep", "--g", "0.3", "--attack", "pns", "--block-probability", "nan"],
             "attack.block_probability"),
            (["--scheme", "ep", "--mu", "nan"], "mu"),
            (["--scheme", "ep", "--mu", "inf"], "mu"),
            (["--scheme", "pdc", "--mu", "nan"], "mu"),
            (["-c", str(Path(__file__).with_name("block_probability_1.5.ini"))],
             "attack.block_probability"),
            # a blocking probability without an attack would go unused
            (["--scheme", "ep", "--g", "0.3", "--block-probability", "2"],
             "attack.block_probability"),
            (["--scheme", "ep", "--g", "0.3", "--attack", "none", "--block-probability", "0.3"],
             "attack.block_probability"),
            # an ep pair mean past the bound would round its gain up to 1
            (["--scheme", "ep", "--mu", "1e17"], "mu"),
        ],
    )
    def test_out_of_range_source_exits_2(self, args, field, capsys):
        assert main(["simulate", "--trials", "10", *args]) == 2
        err = json.loads(capsys.readouterr().err)
        assert any(msg.startswith(field + ":") for msg in err["messages"])

    @pytest.mark.parametrize("enabled, code", [("true", 0), ("false", 2)])
    def test_block_probability_flag_needs_an_enabled_attack(self, enabled, code, tmp_path, capsys):
        path = tmp_path / "attack.ini"
        path.write_text(f"[experiment]\nscheme = ep\ng = 0.3\n\n[attack]\nenabled = {enabled}\n")
        args = ["analytic", "-c", str(path), "--block-probability", "0.3", "--format", "json"]
        assert main(args) == code
        out, err = capsys.readouterr()
        if code == 0:
            # the flag overrides the file's (default auto) blocking probability
            (row,) = json.loads(out)["rows"]
            assert row["block_probability"] == 0.3
        else:
            messages = json.loads(err)["messages"]
            assert any(msg.startswith("attack.block_probability:") for msg in messages)

    @pytest.mark.parametrize("block, code", [("1.5", 2), ("nan", 2), ("0.4", 0), ("auto", 0)])
    def test_disabled_attack_block_probability_is_range_checked(
        self, block, code, tmp_path, capsys
    ):
        path = tmp_path / "attack.ini"
        path.write_text(
            "[experiment]\nscheme = ep\ng = 0.3\n\n"
            f"[attack]\nenabled = false\nblock_probability = {block}\n"
        )
        assert main(["analytic", "-c", str(path), "--format", "json"]) == code
        out, err = capsys.readouterr()
        if code == 0:
            # a valid value in a disabled section goes unused
            (row,) = json.loads(out)["rows"]
            assert row["block_probability"] is None
        else:
            assert json.loads(err)["messages"] == [
                f"attack.block_probability: must be 'auto' or lie in [0, 1], got {float(block)!r}"
            ]

    def test_empty_sweep_flag_exits_2(self, capsys):
        assert main(["analytic", "--scheme", "ep", "--g", "0.1", "--sweep", ""]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["messages"] == ["sweep: expected param:start:stop:steps[:log]"]

    def test_invalid_config_exits_2(self, capsys):
        code = main(["analytic", "--scheme", "ep", "--g", "1.5"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] is True
        assert any("g" in msg for msg in err["messages"])

    @pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
    def test_out_of_range_seed_exits_2(self, seed, capsys):
        code = main(["simulate", "--scheme", "ep", "--g", "0.3", "--trials", "10", "--seed", seed])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any(msg.startswith("master_seed") for msg in err["messages"])

    def test_largest_seed_is_accepted(self, capsys):
        seed = str((1 << 64) - 1)
        code = main(["simulate", "--scheme", "ep", "--g", "0.3", "--trials", "10", "--seed", seed])
        assert code == 0

    def test_invalid_sweep_point_exits_2(self, capsys):
        code = main(
            ["sweep", "--scheme", "ep", "--eta-a", "0.5", "--trials", "0", "--sweep", "g:0.5:1.2:3"]
        )
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert any("g=1.2" in msg for msg in err["messages"])

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize(
        "source",
        [["--scheme", "ep", "--g", "0"], ["--scheme", "wcs", "--mu-prime", "0.5", "--eta-l", "0"]],
    )
    def test_auto_without_a_rate_to_match_exits_2(self, command, source, capsys):
        assert main([command, *source, "--attack", "pns", "--trials", "10"]) == 2
        (message,) = json.loads(capsys.readouterr().err)["messages"]
        assert message.startswith("attack.block_probability: ")

    def test_auto_sweep_without_a_rate_names_the_point(self, monkeypatch, capsys):
        def no_run(*args):
            raise AssertionError("a batch range ran")

        monkeypatch.setattr(engine, "_run_batch_range", no_run)
        args = ["sweep", "--scheme", "ep", "--eta-a", "0.6", "--attack", "pns", "--trials", "10",
                "--workers", "2", "--sweep", "g:0:0.3:3"]
        assert main(args) == 2
        (message,) = json.loads(capsys.readouterr().err)["messages"]
        assert message.startswith("sweep point g=0.0: attack.block_probability: ")

    def test_analytic_auto_without_a_rate_leaves_the_probability_empty(self, capsys):
        args = ["analytic", "--scheme", "ep", "--g", "0", "--attack", "pns", "--format", "json"]
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["block_probability"] is None

    def test_compare_without_trials_exits_2(self, capsys):
        assert main(["compare", "--scheme", "ep", "--g", "0.3", "--trials", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        (message,) = json.loads(err)["messages"]
        assert message.startswith("trials: ")

    def test_output_file_written(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(
            [
                "analytic",
                "--scheme",
                "pdc",
                "--g",
                "0.3",
                "--eta-a",
                "0.8",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.read_text() == capsys.readouterr().out

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing" / "rates.csv"
        code = main(
            [
                "analytic",
                "--scheme",
                "pdc",
                "--g",
                "0.3",
                "--output",
                str(target),
            ]
        )
        assert code == 1
        capsys.readouterr()

    def test_attack_flag_with_explicit_block(self, capsys):
        code = main(
            [
                "simulate",
                "--scheme",
                "ep",
                "--g",
                "0.6",
                "--eta-a",
                "0.6",
                "--trials",
                "65536",
                "--attack",
                "pns",
                "--block-probability",
                "1.0",
                "--format",
                "json",
            ]
        )
        assert code == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["block_probability"] == 1.0
        assert row["double_click_matched_mc"] == 0.0


class TestResolvedOnce:
    """Each point is resolved once: its rates, its blocking probability and
    its row come from one pass over the oracles."""

    ROW_PINS = json.loads(Path(__file__).with_name("row_pins.json").read_text())

    def test_rows_match_the_pins(self, capsys):
        # every value as float.hex; the simulate rows, of 3 batches and 7
        # trials each, pin the Monte Carlo values too
        assert len(self.ROW_PINS) == 181
        changed = []
        for argv, pinned in self.ROW_PINS.items():
            assert main(argv.split()) == 0, argv
            (row,) = json.loads(capsys.readouterr().out)["rows"]
            if {k: v.hex() if isinstance(v, float) else v for k, v in row.items()} != pinned:
                changed.append(argv)
        assert changed == []

    def test_attacked_ep_row_without_a_sifted_rate_shows_the_multi_pair_rate(self, capsys):
        args = ["analytic", "--scheme", "ep", "--g", "0.3", "--eta-l", "0", "--attack", "pns",
                "--format", "json"]
        assert main(args) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["r_exp"] == 0.0 and row["i_e"] is None and row["i_e_saturated"] is False
        assert row["r_multi"] == analytics.ep_pns_oracle(0.3, 1.0, 0.0, 2).delivered_rate > 0

    @pytest.fixture
    def oracle_calls(self, monkeypatch):
        calls = []
        for name in ("exact_rates_oracle", "ep_pns_oracle"):
            real = getattr(analytics, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(analytics, name, counted)
        return calls

    @pytest.mark.parametrize(
        "command, extra, points",
        [
            ("analytic", [], 1),
            ("simulate", ["--trials", "2000"], 1),
            ("sweep", ["--trials", "2000", "--sweep", "g:0.1:0.4:4"], 4),
        ],
    )
    def test_four_oracle_calls_per_attacked_ep_point(
        self, command, extra, points, oracle_calls, capsys
    ):
        # the two rates, the solve's all-pass rate and the row's attack oracle
        args = [command, "--scheme", "ep", "--g", "0.3", "--eta-a", "0.6", "--eta-b", "0.8",
                "--eta-l", "0.5", "--attack", "pns", "--format", "json", *extra]
        assert main(args) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == points and not any(row["i_e_saturated"] for row in rows)
        assert len(oracle_calls) == 4 * points
        assert oracle_calls.count("exact_rates_oracle") == points

    ATTACKED_EP = ExperimentConfig(
        scheme=Scheme.ENTANGLED_PAIRS, g=0.3, eta_a=0.6, eta_b=0.8, eta_l=0.5,
        trials=2000, attack=PnsConfig(),
    )

    def test_row_keeps_the_point_block_probability(self):
        point = dataclasses.replace(_resolve_run_params(self.ATTACKED_EP), block_probability=0.9)
        explicit = _resolve_run_params(dataclasses.replace(self.ATTACKED_EP, attack=PnsConfig(0.9)))
        rows = []
        for p in (point, explicit):
            with contextlib.closing(run_experiments([p])) as reports:
                rows.append(point_row(p, "", None, reports))
        assert rows[0] == rows[1]


class TestInputRules:
    @pytest.mark.parametrize("scheme", ["ep", "pdc"])
    def test_mu_prime_applies_only_to_wcs(self, scheme, capsys):
        assert main(["analytic", "--scheme", scheme, "--g", "0.3", "--mu-prime", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert any(m.startswith("mu_prime: ") for m in json.loads(err)["messages"])

    @pytest.mark.parametrize(
        "args",
        [
            ["analytic", "--scheme", "pdc", "--mu", "1000"],
            ["sweep", "--scheme", "pdc", "--eta-a", "0.6", "--trials", "0",
             "--sweep", "mu:10:1000:3"],
        ],
    )
    def test_pdc_mean_at_the_limit_is_accepted(self, args, capsys):
        assert main([*args, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert rows[-1]["r_exp"] > 0.0

    def test_mu_prime_sweep_names_the_point(self, capsys):
        args = ["sweep", "--scheme", "ep", "--g", "0.3", "--trials", "0",
                "--sweep", "mu_prime:0.1:0.5:2"]
        assert main(args) == 2
        messages = json.loads(capsys.readouterr().err)["messages"]
        assert messages == ["sweep point mu_prime=0.1: mu_prime: "
                            "applies only to the weak-coherent scheme"]

    ATTACK_FILE = (
        "[experiment]\nscheme = wcs\nmu_prime = 0.5\neta_b = 0.5\neta_l = 0.5\n"
        "[attack]\nenabled = {enabled}\nblock_probability = {block}\n"
    )

    @pytest.mark.parametrize("enabled", ["true", "false"])
    def test_attack_flag_sets_enabled_alone(self, enabled, tmp_path, capsys):
        path = tmp_path / "attack.ini"
        path.write_text(self.ATTACK_FILE.format(enabled=enabled, block=0.3))
        args = ["analytic", "-c", str(path), "--format", "json"]
        assert main([*args, "--attack", "pns"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["attack"] == {"block_probability": 0.3}
        (row,) = payload["rows"]
        assert row["block_probability"] == 0.3
        assert row["r_key_oracle"] == analytics.wcs_attack_delivered(0.5, 0.7)
        assert main([*args, "--attack", "none"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["attack"] is None
        assert payload["rows"][0]["block_probability"] is None

    def test_guarantee_delivery_is_an_unknown_key(self, capsys):
        # forwarding always guarantees delivery, so the file key is gone
        path = Path(__file__).with_name("removed_attack_key.ini")
        assert main(["analytic", "-c", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["messages"] == [
            f"{path}: unknown key 'guarantee_delivery' in section [attack]"
        ]

    def test_compare_stdout_is_data_only(self, capsys):
        args = ["compare", "--scheme", "ep", "--g", "0.3", "--eta-a", "0.6", "--eta-b", "0.8",
                "--eta-l", "0.5", "--trials", "100000", "--sigma", "1e9", "--format", "json"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        (row,) = json.loads(out)["rows"]
        judged = ("r_key", "r_err", "epsilon", "double_click_matched", "double_click_mismatched",
                  "bob_no_click")
        assert err.splitlines() == [f"point {key}: PASS z={row[key + '_z']:+.3f}" for key in judged]
