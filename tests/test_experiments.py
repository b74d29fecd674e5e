import os
import warnings

import numpy as np
import pytest

from mmkeygen.cli import main as cli_main
from mmkeygen.experiments import (
    ConfigError,
    ResultRow,
    ResultTable,
    parse_config,
    read_csv,
    run_scenario,
    serialize_config,
    table_to_csv,
    write_csv,
)

MINIMAL_FIG2 = 'scenario = "fig2"\nmaster_seed = 7\n'


def small_cfg(scenario="fig2", **kw):
    text = f'scenario = "{scenario}"\nmaster_seed = 3\ntrials = {kw.pop("trials", 8)}\n'
    if "snr_grid" in kw:
        text += "snr_grid = " + ", ".join(str(s) for s in kw.pop("snr_grid")) + "\n"
    for section, lines in kw.items():
        text += f"[{section}]\n"
        for k, v in lines.items():
            text += f"{k} = {v}\n"
    return parse_config(text)


class TestConfigParsing:
    def test_minimal_fig2_defaults(self):
        cfg = parse_config(MINIMAL_FIG2)
        assert cfg.scenario == "fig2"
        assert cfg.master_seed == 7
        assert cfg.snr_grid == (0.0, 5.0, 10.0, 15.0, 20.0)
        assert cfg.trials == 1000

    def test_fig3_default_grid(self):
        cfg = parse_config('scenario = "fig3"\nmaster_seed = 1\n')
        assert cfg.snr_grid == (-20.0, -15.0, -10.0, -5.0, 0.0)
        assert cfg.trials == 500

    def test_malformed_line_cites_number(self):
        text = 'scenario = "fig2"\nmaster_seed = 1\n# comment\nok = 1\nbroken line\n'
        with pytest.raises(ConfigError, match="line 5"):
            parse_config(text)

    def test_bad_value_cites_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config('scenario = "fig2"\nmaster_seed = what\n')

    def test_missing_required_lists_all(self):
        with pytest.raises(ConfigError, match="scenario, master_seed"):
            parse_config("trials = 5\n")

    def test_unknown_key_warns(self):
        with pytest.warns(UserWarning, match="frobnicate"):
            parse_config(MINIMAL_FIG2 + "frobnicate = 3\n")

    def test_round_trip(self):
        cfg = parse_config(
            MINIMAL_FIG2
            + "trials = 44\nsnr_grid = -5, 0, 5\n[scheme]\nlevels = 8\neve = \"bob\"\n"
            + "delta_max_deg = 2.5\n[cascade]\nerror_rates = 0.05, 0.1\n"
        )
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_preserves_float_precision(self):
        cfg = parse_config(
            MINIMAL_FIG2 + "snr_grid = 0.123456789012345\n[scheme]\ntemporal_rho = 0.7071067811865476\n"
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_scalar_snr_grid_promoted(self):
        cfg = parse_config(MINIMAL_FIG2 + "snr_grid = 10\n")
        assert cfg.snr_grid == (10.0,)

    def test_bad_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('scenario = "fig9"\nmaster_seed = 0\n')

    def test_validation_names_field(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config(MINIMAL_FIG2 + "trials = 0\n")

    def test_sections_route_keys(self):
        cfg = parse_config(MINIMAL_FIG2 + "[scheme]\nnum_paths = 4\n[cascade]\npasses = 2\n")
        assert cfg.scheme.num_paths == 4
        assert cfg.cascade.passes == 2


class TestResultTable:
    def _table(self):
        rows = (
            ResultRow("fig2", "secret_beam_32x16_eve_alice", 0.0, "bar_legit", 0.51234567891, 0.01, 10, 3),
            ResultRow("fig2", "secret_beam_32x16_eve_alice", 0.0, "bar_eve", 0.5, 0.011, 10, 3),
        )
        return ResultTable(rows=rows)

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(ResultTable(rows=()), str(path))
        content = path.read_bytes()
        assert content == b"scenario,scheme,snr_db,metric,value,stderr,trials,seed\n"

    def test_round_trip_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        table = self._table()
        write_csv(table, str(path))
        back = read_csv(str(path))
        assert len(back) == len(table)
        for a, b in zip(back.rows, table.rows):
            assert a.scenario == b.scenario and a.scheme == b.scheme and a.metric == b.metric
            assert a.value == pytest.approx(b.value, rel=1e-8)
        # a second render is byte-identical
        assert table_to_csv(back) == path.read_bytes()

    def test_nine_significant_digits(self):
        data = table_to_csv(self._table()).decode()
        assert "0.512345679" in data

    def test_lf_newlines(self):
        assert b"\r" not in table_to_csv(self._table())

    def test_metric_vocabulary_enforced(self):
        with pytest.raises(ValueError, match="metric"):
            ResultRow("fig2", "x", 0.0, "nonsense", 0.0, 0.0, 1, 0)

    def test_write_error_names_path(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        target = str(blocker / "sub" / "y.csv")
        with pytest.raises(OSError, match="blocker"):
            write_csv(ResultTable(rows=()), target)

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a mmkeygen result table"):
            read_csv(str(path))

    def test_read_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("scenario,scheme,snr_db,metric,value,stderr,trials,seed\nfig2,x,0\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_csv(str(path))


class TestRunScenario:
    def test_fig2_small_deterministic(self):
        cfg = small_cfg("fig2", trials=6, snr_grid=[0, 10])
        t1 = run_scenario(cfg)
        t2 = run_scenario(cfg)
        assert table_to_csv(t1) == table_to_csv(t2)
        # 2 dims x 2 eve placements x 2 snr x 2 metrics
        assert len(t1) == 16
        assert {r.metric for r in t1.rows} == {"bar_legit", "bar_eve"}

    def test_fig2_stderr_shrinks_with_trials(self):
        base = small_cfg("fig2", trials=32, snr_grid=[10])
        quad = small_cfg("fig2", trials=128, snr_grid=[10])
        se1 = [r.stderr for r in run_scenario(base).rows if r.metric == "bar_eve"]
        se4 = [r.stderr for r in run_scenario(quad).rows if r.metric == "bar_eve"]
        ratio = np.mean(se1) / np.mean(se4)
        assert 2.0 * 0.8 <= ratio <= 2.0 * 1.2

    def test_seed_changes_values_not_schema(self):
        a = run_scenario(small_cfg("fig2", trials=5, snr_grid=[10]))
        from dataclasses import replace

        cfg_b = replace(small_cfg("fig2", trials=5, snr_grid=[10]), master_seed=99)
        b = run_scenario(cfg_b)
        assert [(r.scenario, r.scheme, r.snr_db, r.metric) for r in a.rows] == [
            (r.scenario, r.scheme, r.snr_db, r.metric) for r in b.rows
        ]
        assert table_to_csv(a) != table_to_csv(b)

    def test_fig3_rows(self):
        cfg = small_cfg("fig3", trials=4, snr_grid=[-10])
        table = run_scenario(cfg)
        labels = {r.scheme for r in table.rows}
        assert "virtual_128x128_L3" in labels
        assert "baseline_128x128_L3" in labels
        assert all(r.metric == "bdr" for r in table.rows)

    def test_fig4_rows(self):
        cfg = small_cfg("fig4", trials=2000, snr_grid=[20])
        table = run_scenario(cfg)
        metrics = {r.metric: r.value for r in table.rows}
        assert set(metrics) == {"ker_multires", "ker_fixed"}
        assert metrics["ker_multires"] > metrics["ker_fixed"]

    def test_cascade_bench_rows(self):
        cfg = parse_config(
            'scenario = "cascade-bench"\nmaster_seed = 2\ntrials = 5\n'
            "[cascade]\nerror_rates = 0.1\nblock_bits = 1024\n"
        )
        table = run_scenario(cfg)
        metrics = {r.metric for r in table.rows}
        assert metrics == {"leak_fraction", "residual_mismatch"}
        leak = next(r for r in table.rows if r.metric == "leak_fraction")
        assert 0.3 < leak.value < 0.8

    def test_custom_virtual(self):
        cfg = parse_config(
            'scenario = "custom"\nmaster_seed = 4\ntrials = 3\nsnr_grid = 0\n'
            '[scheme]\nscheme = "virtual"\nalice_cols = 32\nbob_cols = 32\n'
            "num_paths = 2\ngrid_angles = 1\nnlos_offset_db = 0\nrounds_per_trial = 2\n"
        )
        table = run_scenario(cfg)
        assert len(table) == 1
        assert table.rows[0].metric == "bdr"

    def test_fig4_refuses_too_few_blocks(self):
        with pytest.raises(ConfigError, match="fig4 needs trials >= 2000"):
            small_cfg("fig4", trials=1999, snr_grid=[20])

    def test_grid_angles_honoured_by_fig2(self):
        bare = run_scenario(small_cfg("fig2", trials=4, snr_grid=[10]))
        grid = run_scenario(small_cfg("fig2", trials=4, snr_grid=[10], scheme={"grid_angles": 1}))
        assert table_to_csv(grid) != table_to_csv(bare)


class TestFixedKeys:
    @pytest.mark.parametrize(
        "scenario, scheme_lines, key",
        [
            ("fig2", "alice_cols = 64", "alice_cols"),
            ("fig2", 'eve = "none"', "eve"),
            ("fig3", "num_paths = 5", "num_paths"),
            ("fig3", "rounds_per_trial = 4", "rounds_per_trial"),
            ("fig4", 'scheme = "virtual"', "scheme"),
            ("fig4", "rounds_per_trial = 4", "rounds_per_trial"),
            ("cascade-bench", "levels = 8", "levels"),
            ("custom", 'scheme = "multires"\nrounds_per_trial = 4', "rounds_per_trial"),
        ],
    )
    def test_case_fixed_key_warns(self, scenario, scheme_lines, key):
        text = f'scenario = "{scenario}"\nmaster_seed = 1\ntrials = 2000\n[scheme]\n{scheme_lines}\n'
        with pytest.warns(UserWarning, match=rf"ignoring \[scheme\] key '{key}'"):
            parse_config(text)

    @pytest.mark.parametrize(
        "scenario, scheme_lines, message",
        [("fig2", 'eve = "carol"', "eve"), ("custom", 'scheme = "quantum"', "unknown scheme")],
    )
    @pytest.mark.filterwarnings("ignore:ignoring \\[scheme\\] key")
    def test_bad_scheme_or_eve_rejected(self, scenario, scheme_lines, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(f'scenario = "{scenario}"\nmaster_seed = 1\n[scheme]\n{scheme_lines}\n')

    def test_open_key_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            parse_config(MINIMAL_FIG2 + "[scheme]\nlevels = 8\ngrid_angles = 1\n")
            parse_config('scenario = "custom"\nmaster_seed = 1\n[scheme]\nrounds_per_trial = 4\n')

    def test_fixed_key_leaves_table_unchanged(self):
        bare = run_scenario(small_cfg("fig2", trials=3, snr_grid=[10]))
        with pytest.warns(UserWarning, match="alice_cols"):
            wide = run_scenario(small_cfg("fig2", trials=3, snr_grid=[10], scheme={"alice_cols": 64}))
        assert table_to_csv(wide) == table_to_csv(bare)


class TestCli:
    def _write(self, tmp_path, text, name="exp.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_run_writes_default_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = self._write(tmp_path, MINIMAL_FIG2 + "trials = 2\nsnr_grid = 10\n")
        assert cli_main(["run", "--config", cfg]) == 0
        assert os.path.exists(tmp_path / "results" / "fig2.csv")

    def test_run_out_and_overrides(self, tmp_path):
        cfg = self._write(tmp_path, MINIMAL_FIG2 + "trials = 2\nsnr_grid = 10\n")
        out1 = str(tmp_path / "a.csv")
        out2 = str(tmp_path / "b.csv")
        assert cli_main(["run", "--config", cfg, "--out", out1]) == 0
        assert cli_main(["run", "--config", cfg, "--out", out2, "--seed", "55"]) == 0
        a, b = read_csv(out1), read_csv(out2)
        assert [(r.scheme, r.metric) for r in a.rows] == [(r.scheme, r.metric) for r in b.rows]
        assert any(x.value != y.value for x, y in zip(a.rows, b.rows))

    def test_validate_ok(self, tmp_path, capsys):
        cfg = self._write(tmp_path, MINIMAL_FIG2)
        assert cli_main(["validate", "--config", cfg]) == 0
        assert "fig2" in capsys.readouterr().out

    def test_validate_malformed_exit_one(self, tmp_path, capsys):
        cfg = self._write(tmp_path, 'scenario = "fig2"\nmaster_seed = 1\ntrials = 0\n')
        assert cli_main(["validate", "--config", cfg]) == 1
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["passes", "block_bits"])
    def test_validate_rejects_nonpositive_cascade_key(self, tmp_path, capsys, key):
        text = f'scenario = "cascade-bench"\nmaster_seed = 1\ntrials = 2\n[cascade]\n{key} = 0\n'
        with pytest.raises(ConfigError, match=f"cascade {key} must be >= 1"):
            parse_config(text)
        cfg = self._write(tmp_path, text)
        assert cli_main(["validate", "--config", cfg]) == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme_key, message", [("levels = 5", "levels"), ("delta_max_deg = 30", "first pattern null")]
    )
    def test_validate_builds_sessions(self, tmp_path, capsys, scheme_key, message):
        cfg = self._write(tmp_path, MINIMAL_FIG2 + f"[scheme]\n{scheme_key}\n")
        assert cli_main(["validate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, capsys):
        assert cli_main(["run", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    def test_scenarios_listing(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "cascade-bench", "custom"):
            assert name in out

    def test_runtime_failure_exit_two(self, tmp_path, capsys):
        # valid config whose session construction fails (codebook too deep)
        cfg = self._write(
            tmp_path,
            'scenario = "custom"\nmaster_seed = 1\ntrials = 1\nsnr_grid = 10\n'
            '[scheme]\nscheme = "multires"\nalice_cols = 64\ncodebook_depth = 9\n',
        )
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "failed" in capsys.readouterr().err
