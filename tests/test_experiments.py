import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from mmkeygen import experiments, schemes
from mmkeygen.cli import main as cli_main
from mmkeygen.experiments import (
    CascadeBench,
    ConfigError,
    ExperimentConfig,
    ResultRow,
    ResultTable,
    parse_config,
    run_scenario,
    table_to_csv,
    write_csv,
    _cases,
    _mean_stderr,
    _score,
    _trial_seeds,
)
from mmkeygen.schemes import _SCHEMES, batch
from reference import cascade_bench_rows

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

    def test_sections_parse_to_expected_config(self):
        # fig2's cases fix eve: the key warns, and is kept as the file set it
        with pytest.warns(UserWarning, match=r"ignoring \[scheme\] key 'eve'"):
            cfg = parse_config(
                MINIMAL_FIG2
                + "trials = 44\nsnr_grid = -5, 0, 5\n[scheme]\nlevels = 8\neve = \"bob\"\n"
                + "delta_max_deg = 2.5\n[cascade]\nerror_rates = 0.05, 0.1\n"
            )
        assert cfg == ExperimentConfig(
            scenario="fig2",
            master_seed=7,
            trials=44,
            snr_grid=(-5.0, 0.0, 5.0),
            scheme={"levels": 8, "eve": "bob", "delta_max_deg": 2.5},
            cascade=CascadeBench(error_rates=(0.05, 0.1)),
        )

    def test_scheme_keys_read_only(self):
        keys = {"levels": 8}
        cfg = ExperimentConfig("fig2", 1, 2, (10.0,), scheme=keys)
        keys["levels"] = 4
        assert cfg.scheme == {"levels": 8}
        with pytest.raises(TypeError):
            cfg.scheme["levels"] = 4

    @pytest.mark.parametrize(
        "scheme, message",
        [({"levls": 8}, "unknown [scheme] key 'levls'"), ({"levels": 8.0}, "levels must be an integer, got 8.0")],
    )
    def test_validate_checks_scheme_keys(self, scheme, message):
        # a config built in code passes the checks that parsing makes
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig("fig2", 1, 2, (10.0,), scheme=scheme).validate()

    def test_float_precision_preserved(self):
        cfg = parse_config(
            MINIMAL_FIG2 + "snr_grid = 0.123456789012345\n[scheme]\ntemporal_rho = 0.7071067811865476\n"
        )
        assert cfg.snr_grid == (0.123456789012345,)
        assert cfg.scheme["temporal_rho"] == 0.7071067811865476

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
        assert cfg.scheme["num_paths"] == 4
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

    @pytest.mark.numpy_contract
    @pytest.mark.parametrize("master_seed", [2, 2**40 + 3])
    def test_cascade_bench_equals_per_trial_reference(self, master_seed):
        # each rate's data streams are seeded in one batch; the reference
        # seeds each trial's stream on its own
        cfg = parse_config(
            f'scenario = "cascade-bench"\nmaster_seed = {master_seed}\ntrials = 6\n'
            "[cascade]\nerror_rates = 0.02, 0.1, 0.3\nblock_bits = 512\n"
        )
        assert experiments._run_cascade_bench(cfg) == cascade_bench_rows(cfg)

    def test_custom_virtual(self):
        cfg = parse_config(
            'scenario = "custom"\nmaster_seed = 4\ntrials = 3\nsnr_grid = 0\n'
            '[scheme]\nscheme = "virtual"\nalice_cols = 32\nbob_cols = 32\n'
            "num_paths = 2\ngrid_angles = 1\nnlos_offset_db = 0\nrounds_per_trial = 2\n"
        )
        table = run_scenario(cfg)
        assert len(table) == 1
        assert table.rows[0].metric == "bdr"

    def test_short_multires_stderr_is_nan(self):
        # the jackknife needs 2 blocks in each of its 10 sections
        def stderrs(blocks):
            cfg = small_cfg("custom", trials=blocks, snr_grid=[10], scheme={"scheme": '"multires"'})
            table = run_scenario(cfg)
            assert all(np.isfinite(r.value) for r in table.rows)
            return [r.stderr for r in table.rows], table

        short, table = stderrs(19)
        assert len(short) == 2 and all(np.isnan(se) for se in short)
        assert b",nan,19," in table_to_csv(table)
        enough, _ = stderrs(20)
        assert all(np.isfinite(se) and se > 0.0 for se in enough)

    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 - 1])
    def test_trial_seeds_equal_scalar_derivation(self, master_seed):
        from mmkeygen import seeds
        from mmkeygen.experiments import _trial_seeds
        from reference import derive_seed

        cfg = parse_config(f'scenario = "fig2"\nmaster_seed = {master_seed}\ntrials = 3\n')
        expected = [derive_seed(master_seed, seeds.STREAM_TRIAL, 1, 2, 4, t) for t in range(3)]
        assert [int(s) for s in _trial_seeds(cfg, 2, 4, 3)] == expected
        # several points at once: each point's trials in turn
        expected = [derive_seed(master_seed, seeds.STREAM_TRIAL, 1, 2, p, t) for p in (4, 0, 1) for t in range(3)]
        assert [int(s) for s in _trial_seeds(cfg, 2, [4, 0, 1], 3)] == expected

    def test_fig4_refuses_too_few_blocks(self):
        with pytest.raises(ConfigError, match="fig4 needs trials >= 2000"):
            small_cfg("fig4", trials=1999, snr_grid=[20])

    def test_grid_angles_honoured_by_fig2(self):
        bare = run_scenario(small_cfg("fig2", trials=4, snr_grid=[10]))
        grid = run_scenario(small_cfg("fig2", trials=4, snr_grid=[10], scheme={"grid_angles": 1}))
        assert table_to_csv(grid) != table_to_csv(bare)


class TestRunPath:
    def test_steps_run_through_public_routines(self, monkeypatch):
        # the module attributes the runner calls each step through, so that
        # a wrapper rebound there (as a tracer does) sees every call
        calls = Counter()
        for module, name in (
            (schemes, "channel_matrix"),
            (schemes, "estimate_channel"),
            (schemes, "virtual_channel"),
            (experiments, "batch"),
            (experiments, "_score"),
        ):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        # every case is one batch call over all its points, scored by one
        # _score call: fig2's four cases, fig3's three virtual cases and its
        # baseline, and the one multires case
        run_scenario(small_cfg("fig2", trials=2, snr_grid=[0, 10]))
        assert calls == {"batch": 4, "_score": 4}
        calls.clear()
        run_scenario(small_cfg("fig3", trials=2, snr_grid=[0]))
        # three virtual cases of 2 trials and the baseline of 5, one round
        # each, each round's channel matrix, and each party's estimate
        assert calls == {
            "batch": 3 + 1,
            "_score": 4,
            "channel_matrix": 3 * 2 + 5,
            "estimate_channel": 2 * (3 * 2 + 5),
            "virtual_channel": 2 * 3 * 2,
        }
        calls.clear()
        run_scenario(small_cfg("custom", trials=20, snr_grid=[0, 10, 20], scheme={"scheme": '"multires"'}))
        # one trial at each of the 3 points, each channel matrix selecting its beams
        assert calls == {"batch": 1, "_score": 1, "channel_matrix": 3}


# each preset at a small scale, fig4 at the least blocks its estimator
# accepts, then one key entropy rate; after each, whether numpy.ma is loaded
_MASKED_ARRAY_PROBE = """
import sys
import numpy as np
import mmkeygen
from mmkeygen.experiments import parse_config, table_to_csv
presets = [
    'scenario = "fig2"\\nmaster_seed = 3\\ntrials = 3\\nsnr_grid = 10\\n',
    'scenario = "fig3"\\nmaster_seed = 3\\ntrials = 2\\nsnr_grid = 0\\n',
    'scenario = "fig4"\\nmaster_seed = 3\\ntrials = 2000\\nsnr_grid = 10\\n',
    'scenario = "cascade-bench"\\nmaster_seed = 3\\ntrials = 2\\n[cascade]\\nerror_rates = 0.05\\nblock_bits = 256\\n',
]
for text in presets:
    table_to_csv(mmkeygen.run_scenario(parse_config(text)))
    print(text.split('"')[1], "numpy.ma" in sys.modules)
samples = np.random.default_rng(3).standard_normal((3, 2000))
mmkeygen.key_entropy_rate(samples, mmkeygen.QuantizerConfig(levels=16))
print("key_entropy_rate", "numpy.ma" in sys.modules)
"""


class TestNoMaskedArrays:
    def test_presets_never_import_numpy_ma(self):
        # pytest, hypothesis and scipy import numpy.ma themselves, so the
        # presets run in a fresh interpreter
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-c", _MASKED_ARRAY_PROBE], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:-1] == [
            f"{name} False" for name in ("fig2", "fig3", "fig4", "cascade-bench", "key_entropy_rate")
        ]


class TestSetUpDrawsNothing:
    def test_import_and_validation_never_import_numpy_random(self):
        # a run's set-up (the import and the config check) draws nothing, so it
        # leaves numpy.random's imports, about 10 ms, to the first draw
        probe = (
            "import sys, mmkeygen\n"
            "from mmkeygen.experiments import parse_config\n"
            "for name in ('fig2', 'fig3', 'fig4', 'cascade-bench'):\n"
            "    parse_config(f'scenario = \"{name}\"\\nmaster_seed = 1\\n').validate()\n"
            "print('numpy.random' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"


def per_point_rows(cfg):
    """The rows of a secret-beam scenario with each point run as its own batch, scored from each trial's agreement."""
    rows = []
    for case_idx, (outputs, template, trials, _) in enumerate(_cases(cfg)):
        for snr_idx, snr in enumerate(cfg.snr_grid):
            trial_seeds = _trial_seeds(cfg, case_idx, snr_idx, trials)
            records = batch(replace(template, snr_db=snr), trial_seeds, [snr] * trials)
            agreements = np.concatenate([record.agreement() for record in records])
            scores = [dict(zip(("bar_legit", "bar_eve"), trial.tolist())) for trial in agreements]
            values = np.array([[score[metric] for _, metric in outputs] for score in scores])
            rows.extend(
                ResultRow(cfg.scenario, label, snr, metric, *_mean_stderr(values[:, j]), trials, cfg.master_seed)
                for j, (label, metric) in enumerate(outputs)
            )
    return tuple(rows)


class TestSecretBeamPoints:
    """A secret-beam case runs all its points as one stream of chunks; its table is the per-point one."""

    # 3 points of 30 trials cross the secret-beam chunk of 64 trials and a point boundary inside one chunk
    @pytest.mark.parametrize("trials", [1, 7, 30, 63, 64, 65, 130])
    @pytest.mark.parametrize("snr_grid", [[10], [0, 20], [20, 5, 0]])
    @pytest.mark.parametrize(
        "scenario, scheme", [("fig2", {}), ("custom", {"scheme": '"secret_beam"', "eve": '"alice"', "levels": 8})]
    )
    def test_table_equals_per_point_batches(self, scenario, scheme, snr_grid, trials):
        assert _SCHEMES["secret_beam"][1] == 64
        cfg = small_cfg(scenario, trials=trials, snr_grid=snr_grid, **({"scheme": scheme} if scheme else {}))
        table = run_scenario(cfg)
        expected = per_point_rows(cfg)
        assert table.rows == expected
        assert table_to_csv(table) == table_to_csv(ResultTable(rows=expected))
        assert {r.metric for r in table.rows} == {"bar_legit", "bar_eve"}


class TestScoreTrialCount:
    """``_score`` refuses records that do not hold ``per_point`` trials for each SNR point."""

    # a 2-point secret-beam case of 4 trials a point given 5 trials' records
    # used to score its second point from one real trial and three rows of
    # uninitialised memory, and 9 trials' records ignored the ninth
    @pytest.mark.parametrize("count", [5, 9])
    def test_records_of_too_few_or_too_many_trials_rejected(self, count):
        cfg = small_cfg("custom", trials=4, snr_grid=[0, 10], scheme={"scheme": '"secret_beam"'})
        [(outputs, template, trials, per_point)] = _cases(cfg)
        trial_seeds = _trial_seeds(cfg, 0, range(3), per_point)[:count]
        records = batch(template, trial_seeds, [10.0] * count)
        with pytest.raises(ValueError, match=f"the records hold {count} trials, not 4 for each of 2 SNR points"):
            _score(cfg, outputs, trials, records, per_point)


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
    def test_bad_scheme_or_eve_rejected(self, tmp_path, capsys, scenario, scheme_lines, message):
        text = f'scenario = "{scenario}"\nmaster_seed = 1\n[scheme]\n{scheme_lines}\n'
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli_main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert message in err
        if "eve" in scheme_lines:
            # names the value a config file writes for no eavesdropper
            assert '"none"' in err

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
        a, b = (
            [line.split(b",") for line in (tmp_path / name).read_bytes().splitlines()] for name in ("a.csv", "b.csv")
        )
        # the same rows (scenario, scheme, snr_db, metric), with other values
        assert [row[:4] for row in a] == [row[:4] for row in b]
        assert any(x[4] != y[4] for x, y in zip(a[1:], b[1:]))

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
        "scenario, scheme_key, message",
        [
            ("fig2", "levels = 5", "levels"),
            ("fig2", "delta_max_deg = 30", "first pattern null"),
            # with no offset every perturbed beam is the nominal beam
            ("fig2", "delta_max_deg = 0", "delta_max must be > 0"),
            ("fig2", "delta_max_deg = -3", "delta_max must be > 0"),
            # a selection used to widen a negative window silently
            ("fig4", "window_db = -5", "window_db must be > 0"),
            # these two used to pass validate and fail mid-run with exit 2:
            # the entropy rate indexes 8192**5 joint cells in an int64, and
            # a perturbation index is drawn from one 32-bit word
            ("fig4", "levels = 8192", "joint alphabet too large to index"),
            ("fig2", "levels = 8589934592", "levels=8589934592 exceeds the 2**32 offsets"),
            # this one ran, and wrote a wrong bdr: 2**63 cells overflow the
            # int64 cell index
            ("custom", 'scheme = "baseline"\nlevels = 9223372036854775808', "exceeds 2**62"),
        ],
    )
    def test_validate_builds_sessions(self, tmp_path, capsys, scenario, scheme_key, message):
        cfg = self._write(tmp_path, f'scenario = "{scenario}"\nmaster_seed = 7\n[scheme]\n{scheme_key}\n')
        assert cli_main(["validate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("scenario", ["fig2", "fig3", "fig4"])
    def test_validate_rejects_snr_whose_noise_variance_overflows(self, tmp_path, capsys, scenario):
        # 10**400 overflows a float: this passed validate, and run failed
        # mid-scenario with exit 2
        cfg = self._write(tmp_path, f'scenario = "{scenario}"\nmaster_seed = 7\nsnr_grid = 0, -4000\n')
        out = tmp_path / "out.csv"
        for argv in (["validate", "--config", cfg], ["run", "--config", cfg, "--out", str(out)]):
            assert cli_main(argv) == 1
            assert "SNR -4000.0 dB gives a noise variance 10**(400.0) that is not a finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("trials = 2.5", "line 3: trials must be an integer, got 2.5"),
            ('trials = "x"', "line 3: trials must be an integer, got 'x'"),
            ("master_seed = 1.9", "line 3: master_seed must be an integer, got 1.9"),
            ('snr_grid = "abc"', "line 3: snr_grid must be a number or a comma-separated list of numbers, got 'abc'"),
            ("output_path = 3", "line 3: output_path must be a quoted string, got 3"),
            ("[cascade]\nblock_bits = 4096.5", "line 4: block_bits must be an integer, got 4096.5"),
            ("[cascade]\npasses = 2.0", "line 4: passes must be an integer, got 2.0"),
            ('[cascade]\nerror_rates = "x"', "line 4: error_rates must be a number or a comma-separated list"),
            ("[scheme]\nnum_paths = 2.5", "line 4: num_paths must be an integer, got 2.5"),
            ('[scheme]\ntemporal_rho = "x"', "line 4: temporal_rho must be a number, got 'x'"),
            # a NaN delta_max_deg passes every range check, and the run fails
            ("[scheme]\ndelta_max_deg = nan", "line 4: delta_max_deg must be finite, got nan"),
            ("snr_grid = 0, inf", "line 3: snr_grid must be finite, got (0.0, inf)"),
        ],
    )
    def test_validate_rejects_value_of_wrong_type(self, tmp_path, capsys, lines, message):
        # a value of the wrong type fails validate with its line, rather than
        # being truncated (2.5 trials as 2) or failing as a bare ValueError
        cfg = self._write(tmp_path, f'scenario = "fig2"\nmaster_seed = 1\n{lines}\n')
        assert cli_main(["validate", "--config", cfg]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme_key, message",
        [
            ("num_paths = 0", "num_paths must be >= 1"),
            ("nlos_offset_db = -1", "nlos_offset_db must be >= 0"),
            ("temporal_rho = 1.5", "temporal_rho must lie in [0, 1]"),
        ],
    )
    def test_validate_rejects_channel_out_of_range(self, tmp_path, capsys, scheme_key, message):
        cfg = self._write(tmp_path, MINIMAL_FIG2 + f"[scheme]\n{scheme_key}\n")
        assert cli_main(["validate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err

    def test_unknown_flag_exit_one(self, capsys):
        assert cli_main(["run", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_path_is_a_directory(self, tmp_path, capsys, command):
        # this printed an IsADirectoryError traceback
        assert cli_main([command, "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: cannot read config file {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_file_not_utf8(self, tmp_path, capsys, command):
        # this printed a UnicodeDecodeError traceback
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b'scenario = "fig2"\nmaster_seed = 7\n# caf\xe9\n')
        assert cli_main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {path} is not UTF-8 text: ") and "0xe9" in err
        assert "Traceback" not in err

    def test_scenarios_listing(self, capsys):
        assert cli_main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3", "fig4", "cascade-bench", "custom"):
            assert name in out

    def test_runtime_failure_exit_two(self, tmp_path, capsys):
        # a valid config whose table cannot be written: --out names a directory
        cfg = self._write(tmp_path, 'scenario = "custom"\nmaster_seed = 1\ntrials = 1\nsnr_grid = 10\n')
        out = tmp_path / "taken"
        out.mkdir()
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert f"cannot write results to {out}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheme_keys, message",
        [
            ("num_beams = 200", "exceeds the 126 codewords"),
            ("codebook_depth = 7", "too deep"),
            ("codebook_depth = 0", "depth must be >= 1"),
            ("alice_cols = 1", "depth must be >= 1"),
            ("alice_cols = 8\nnum_beams = 15", "exceeds the 14 codewords"),
        ],
    )
    def test_validate_rejects_bad_multires_codebook(self, tmp_path, capsys, scheme_keys, message):
        # each of these used to pass validate and fail mid-run with exit 2
        cfg = self._write(
            tmp_path,
            'scenario = "custom"\nmaster_seed = 1\ntrials = 1\nsnr_grid = 10\n'
            f'[scheme]\nscheme = "multires"\n{scheme_keys}\n',
        )
        assert cli_main(["validate", "--config", cfg]) == 1
        assert message in capsys.readouterr().err
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("num_paths, code", [(5, 1), (4, 0)])
    def test_virtual_paths_limited_by_angular_bins(self, tmp_path, capsys, num_paths, code):
        # 2 x 2 elements give 4 angular bins; 5 paths used to pass validate
        # and fail mid-run with exit 2
        cfg = self._write(
            tmp_path,
            'scenario = "custom"\nmaster_seed = 1\ntrials = 2\nsnr_grid = 10\n'
            f'[scheme]\nscheme = "virtual"\nalice_cols = 2\nbob_cols = 2\nnum_paths = {num_paths}\n',
        )
        assert cli_main(["validate", "--config", cfg]) == code
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == code
        if code:
            assert "num_paths=5 exceeds the 4 angular bins" in capsys.readouterr().err

    def test_validate_rejects_single_block_multires(self, tmp_path, capsys):
        # a multires point runs its trials as coherence blocks; one block
        # used to pass validate and fail mid-run with exit 2 (zero entropy)
        text = 'scenario = "custom"\nmaster_seed = 1\nsnr_grid = 10\ntrials = {}\n[scheme]\nscheme = "multires"\n'
        cfg = self._write(tmp_path, text.format(1))
        assert cli_main(["validate", "--config", cfg]) == 1
        assert "needs rounds >= 2 coherence blocks, got 1" in capsys.readouterr().err
        # two blocks run, with a NaN jackknife stderr on both rows
        cfg = self._write(tmp_path, text.format(2))
        out = tmp_path / "x.csv"
        assert cli_main(["validate", "--config", cfg]) == 0
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_text().count(",nan,2,1\n") == 2

    def test_validate_accepts_deepest_multires_codebook(self, tmp_path, capsys):
        # all 62 codewords of depth 5 on 2 levels meet both limits: the
        # codebook's, and the entropy rate's 2**62 joint cells.  Every beam
        # of depth 6 would index 2**126 of them, which used to pass validate
        text = 'scenario = "custom"\nmaster_seed = 1\ntrials = 20\nsnr_grid = 10\n[scheme]\nscheme = "multires"\n'
        cfg = self._write(tmp_path, text + "codebook_depth = 5\nnum_beams = 62\nlevels = 2\n")
        assert cli_main(["validate", "--config", cfg]) == 0
        assert cli_main(["run", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 0
        for lines in ("codebook_depth = 5\nnum_beams = 62\nlevels = 4\n", "codebook_depth = 6\nnum_beams = 126\n"):
            assert cli_main(["validate", "--config", self._write(tmp_path, text + lines)]) == 1
            assert "joint alphabet too large to index" in capsys.readouterr().err

    def test_runs_multires_at_most_levels_validate_accepts(self, tmp_path):
        # 2**40 levels on one beam: validate accepts it, and the run used to
        # fail with exit 2 allocating a count per level (8 TiB)
        text = 'scenario = "custom"\nmaster_seed = 1\ntrials = 20\nsnr_grid = 10\n[scheme]\nscheme = "multires"\n'
        cfg = self._write(tmp_path, text + "num_beams = 1\nlevels = 1099511627776\n")
        out = tmp_path / "x.csv"
        assert cli_main(["validate", "--config", cfg]) == 0
        assert cli_main(["run", "--config", cfg, "--out", str(out)]) == 0
        # one stream: its joint cells are its cells, so both rates are 1
        assert out.read_text().count(",1,0,20,1\n") == 2
