import configparser
import json
from dataclasses import fields, replace

import pytest

from optics_coverage import experiments
from optics_coverage.cli import main
from optics_coverage.config import ConfigError, RunConfig, default_ini, load_config
from optics_coverage.experiments import (
    export_plot_data,
    run_rand_baseline,
    run_table_experiment,
)

FAST = [
    "--set", "experiment.grid_resolution=100",
]


def run_cli(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        config.validate()

    def test_default_ini_parses_back(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(default_ini())
        config = load_config(str(path))
        config.validate()
        assert config == RunConfig()

    def test_eps_below_radius_rejected_with_constraint_message(self):
        config = load_config(overrides=["optics.eps=3", "deployment.radius=5"])
        with pytest.raises(ConfigError, match="2r <= 2\\*eps"):
            config.validate()

    def test_eps_prime_above_eps_rejected(self):
        config = load_config(overrides=["optics.eps=10", "optics.eps_prime=12"])
        with pytest.raises(ConfigError, match="eps_prime"):
            config.validate()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["optics.bogus=1"])

    def test_override_types_checked(self):
        with pytest.raises(ConfigError):
            load_config(overrides=["optics.min_pts=lots"])

    def test_d_list_parsing(self):
        config = load_config(overrides=["experiment.d_list=10, 20,30"])
        assert config.d_list == (10, 20, 30)

    def test_eps_defaults_to_twice_radius(self):
        config = load_config(overrides=["deployment.radius=3"])
        assert config.resolved_eps == 6
        explicit = load_config(overrides=["deployment.radius=3", "optics.eps=7"])
        assert explicit.resolved_eps == 7

    def test_battery_range_validated(self):
        config = load_config(
            overrides=["deployment.battery_min=0.9", "deployment.battery_max=0.2"]
        )
        with pytest.raises(ConfigError, match="battery"):
            config.validate()

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/run.ini")

    def test_empty_battery_range_rejected(self):
        # batteries drawn from [0, 0] are empty, so every node would be dead
        config = load_config(
            overrides=["deployment.battery_min=0", "deployment.battery_max=0"]
        )
        with pytest.raises(ConfigError, match="max > 0"):
            config.validate()

    @pytest.mark.parametrize(
        "text",
        [
            b"count = 5\n",
            b"[deployment]\ncount = 5\ncount = 6\n",
            b"[deployment]\ncount = 5\n[deployment]\nseed = 3\n",
            b"[deployment]\ncount = \xff5\n",
        ],
        ids=["no-section", "repeated-key", "repeated-section", "invalid-utf8"],
    )
    def test_malformed_file_exits_2_without_traceback(self, text, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(str(path))
        assert run_cli("validate-config", "--config", str(path)) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["runs%1", "%(foo)s", "100%"])
    def test_percent_signs_read_literally(self, value, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(f"[output]\ndir = {value}\n")
        assert load_config(str(path)).output_dir == value

    def test_protocol_value_rejected_as_config_error(self):
        config = load_config(overrides=["protocol.theta=5"])
        with pytest.raises(ConfigError, match="theta"):
            config.validate()


# every RunConfig field at a non-default value: INI key -> (field, text, value)
NON_DEFAULTS = {
    "deployment.count": ("count", "7", 7),
    "deployment.width": ("width", "60.5", 60.5),
    "deployment.height": ("height", "40", 40.0),
    "deployment.radius": ("radius", "4.5", 4.5),
    "deployment.seed": ("seed", "9", 9),
    "deployment.battery_min": ("battery_min", "0.6", 0.6),
    "deployment.battery_max": ("battery_max", "0.9", 0.9),
    "optics.eps": ("eps", "12.5", 12.5),
    "optics.min_pts": ("min_pts", "5", 5),
    "optics.eps_prime": ("eps_prime", "3", 3.0),
    "protocol.theta": ("theta", "0.25", 0.25),
    "protocol.battery_drain": ("battery_drain", "0.2", 0.2),
    "protocol.sleep_rounds": ("sleep_rounds", "2", 2),
    "protocol.w_battery": ("w_battery", "0.5", 0.5),
    "protocol.w_neighbors": ("w_neighbors", "0.1", 0.1),
    "protocol.w_distance": ("w_distance", "0.3", 0.3),
    "experiment.d_list": ("d_list", "10, 20,30", (10, 20, 30)),
    "experiment.trials": ("trials", "2", 2),
    "experiment.rounds": ("rounds", "4", 4),
    "experiment.grid_resolution": ("grid_resolution", "200", 200),
    "output.dir": ("output_dir", "results", "results"),
}


FLOAT_KEYS = [
    key
    for key, (name, _, _) in NON_DEFAULTS.items()
    if "float" in RunConfig.__dataclass_fields__[name].type
]


class TestEveryKey:
    def test_cases_cover_every_field(self):
        assert sorted(name for name, _, _ in NON_DEFAULTS.values()) == sorted(
            f.name for f in fields(RunConfig)
        )

    @pytest.mark.parametrize("key", NON_DEFAULTS)
    def test_set_and_ini_read_back(self, key, tmp_path):
        name, text, value = NON_DEFAULTS[key]
        expected = replace(RunConfig(), **{name: value})
        assert getattr(RunConfig(), name) != value
        assert load_config(overrides=[f"{key}={text}"]) == expected

        section, option = key.split(".")
        parser = configparser.ConfigParser()
        parser.read_string(default_ini())
        parser[section][option] = text
        path = tmp_path / "run.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        assert load_config(str(path)) == expected


class TestValidateConfigCommand:
    def test_ok(self, capsys):
        assert run_cli("validate-config") == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_exits_2(self, capsys):
        code = run_cli("validate-config", "--set", "optics.eps=2")
        assert code == 2
        assert "2r <= 2*eps" in capsys.readouterr().err

    def test_print_default(self, capsys):
        assert run_cli("validate-config", "--print-default") == 0
        out = capsys.readouterr().out
        assert "[deployment]" in out
        assert "; blank eps means 2 * radius" in out
        assert "; blank eps_prime means eps / 2" in out


class TestRunCommand:
    def test_small_sweep_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--out", str(out), "--d-list", "20,30", "--trials", "2",
            *FAST,
        )
        assert code == 0
        assert (out / "active_node_table.csv").exists()
        assert (out / "trace_D20_trial0.jsonl").exists()
        assert (out / "trace_D30_trial1.jsonl").exists()
        reach = list(out.glob("reachability_D20_trial0_round*.csv"))
        assert reach
        stdout = capsys.readouterr().out
        assert "R_avg" in stdout

    def test_table_has_one_row_per_size(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--d-list", "15,25,35", "--trials", "1", *FAST) == 0
        lines = (out / "active_node_table.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3 + 1  # header, rows, footer

    def test_reruns_are_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["--d-list", "25", "--trials", "2", "--seed", "7", *FAST]
        assert run_cli("run", "--out", str(out_a), *args) == 0
        assert run_cli("run", "--out", str(out_b), *args) == 0
        for name in [p.name for p in out_a.iterdir()]:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_node_degenerate_run(self, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--out", str(out), "--d-list", "1", "--trials", "1", *FAST,
        )
        assert code == 0
        trace = (out / "trace_D1_trial0.jsonl").read_text().splitlines()
        round_record = json.loads(trace[1])
        assert round_record["report"]["active_count"] in (0, 1)

    def test_unwritable_output_exits_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run_cli(
            "run", "--out", str(blocker / "sub"), "--d-list", "10", "--trials", "1",
            *FAST,
        )
        assert code == 2

    def test_bad_config_exits_2(self):
        assert run_cli("run", "--set", "experiment.trials=0") == 2

    def test_blank_out_names_the_working_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--out", "", "--d-list", "20", "--trials", "1", *FAST) == 0
        assert capsys.readouterr().out.endswith("artifacts in ./\n")
        assert (tmp_path / "active_node_table.csv").exists()
        assert (tmp_path / "trace_D20_trial0.jsonl").exists()

    @pytest.mark.parametrize("seed", ["x", 1.5, True, b"ab"], ids=repr)
    def test_seed_that_is_not_an_int_is_a_config_error(self, seed, tmp_path, monkeypatch):
        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was generated")

        monkeypatch.setattr(experiments, "generate_deployment", no_deployment)
        config = replace(RunConfig(), seed=seed)
        with pytest.raises(ConfigError, match="seed must be an int"):
            run_table_experiment(config, tmp_path / "out")
        with pytest.raises(ConfigError, match="seed must be an int"):
            run_rand_baseline(config)
        assert not (tmp_path / "out").exists()

    def test_repeated_size_exits_2_before_any_deployment(self, tmp_path, capsys, monkeypatch):
        # a size listed twice would re-run its seeds and overwrite its traces
        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was generated")

        monkeypatch.setattr(experiments, "generate_deployment", no_deployment)
        out = tmp_path / "out"
        code = run_cli("run", "--out", str(out), "--d-list", "100,150,100", "--trials", "2")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "twice" in err
        assert not out.exists()

    def test_bad_d_list_exits_2_without_traceback(self, capsys):
        assert run_cli("run", "--d-list", "100,abc") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "'100,abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_exits_2_without_traceback(
        self, key, value, tmp_path, capsys, monkeypatch
    ):
        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was generated")

        monkeypatch.setattr(experiments, "generate_deployment", no_deployment)
        out = tmp_path / "out"
        assert run_cli("run", "--out", str(out), "--set", f"{key}={value}") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_empty_battery_range_exits_2_without_traceback(self, tmp_path, capsys):
        code = run_cli(
            "run", "--out", str(tmp_path / "o"), "--d-list", "3", "--trials", "1",
            "--set", "deployment.battery_min=0", "--set", "deployment.battery_max=0",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "battery" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_flags_override_set(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "run", "--set", f"output.dir={tmp_path / 'elsewhere'}", "--out", str(out),
            "--set", "deployment.seed=1", "--seed", "5", "--d-list", "20",
            "--trials", "1", *FAST,
        ) == 0
        header = json.loads((out / "trace_D20_trial0.jsonl").read_text().splitlines()[0])
        assert header["seed"] == 5


class TestRandBaselineCommand:
    def test_writes_paired_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "rand-baseline", "--out", str(out), "--count", "40", "--trials", "3",
            *FAST,
        )
        assert code == 0
        csv_path = out / "rand_baseline_D40.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,seed,active_count,protocol_grid_cr,rand_grid_cr"
        assert len(lines) == 1 + 3 + 1  # header, pairs, mean row
        assert lines[-1].startswith("mean,")
        assert "paired trials" in capsys.readouterr().out

    def test_single_trial(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(
            "rand-baseline", "--out", str(out), "--count", "30", "--trials", "1",
            *FAST,
        ) == 0
        lines = (out / "rand_baseline_D30.csv").read_text().strip().splitlines()
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "override",
        ["experiment.d_list=100,100", "experiment.d_list=", "experiment.rounds=0"],
        ids=["repeated_size", "empty_d_list", "zero_rounds"],
    )
    def test_ignores_the_sweep_keys(self, override, tmp_path, capsys):
        # rand-baseline runs one round at --count; it never reads these keys
        out = tmp_path / "out"
        code = run_cli(
            "rand-baseline", "--out", str(out), "--count", "40", "--trials", "1",
            "--set", override, *FAST,
        )
        assert code == 0, capsys.readouterr().err
        assert (out / "rand_baseline_D40.csv").exists()

    @pytest.mark.parametrize("command", ["run", "validate-config"])
    def test_sweep_commands_still_refuse_a_repeated_size(self, command, tmp_path, capsys):
        code = run_cli(command, "--set", "experiment.d_list=100,100", *FAST)
        assert code == 2
        assert "lists a size twice" in capsys.readouterr().err


class TestPlotDataCommand:
    @pytest.fixture
    def trace(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--out", str(out), "--d-list", "30", "--trials", "1",
            "--rounds", "2", *FAST,
        ) == 0
        return out / "trace_D30_trial0.jsonl"

    def test_exports_per_round(self, trace, tmp_path):
        out = tmp_path / "plots"
        code = run_cli(
            "plot-data", "--trace", str(trace), "--out", str(out),
            "--resolution", "50",
        )
        assert code == 0
        assert (out / "reachability_round1.csv").exists()
        assert (out / "reachability_round2.csv").exists()
        assert (out / "coverage_round1.csv").exists()
        assert (out / "coverage_round2.csv").exists()

    def test_reachability_csvs_round_trip_the_run(self, trace, tmp_path):
        # export_plot_data rebuilds each ordering from the trace by keyword
        out = tmp_path / "plots"
        assert export_plot_data(trace, out, 50)
        for k in (1, 2):
            ran = trace.parent / f"reachability_D30_trial0_round{k}.csv"
            assert (out / f"reachability_round{k}.csv").read_bytes() == ran.read_bytes()

    def test_blank_out_writes_to_and_names_the_working_directory(
        self, trace, tmp_path, monkeypatch, capsys
    ):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run_cli("plot-data", "--trace", str(trace), "--out", "", "--resolution", "50") == 0
        assert capsys.readouterr().out == "wrote 4 files to ./\n"
        assert sorted(p.name for p in work.iterdir()) == [
            "coverage_round1.csv", "coverage_round2.csv",
            "reachability_round1.csv", "reachability_round2.csv",
        ]

    @pytest.mark.parametrize(
        "active, message",
        [("[true]", "node_ids must be ints"), ("[7]", "unknown node id 7"), ('"0"', "node_ids")],
        ids=["bool-id", "unknown-id", "text"],
    )
    def test_bad_active_ids_name_the_round_and_its_field(self, active, message, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, 1]]}\n'
            f'{{"type": "round", "round_index": 3, "active": {active}, "ordering": []}}\n'
        )
        out = tmp_path / "plots"
        with pytest.raises(ValueError, match=f"round 3's active field: .*{message}"):
            export_plot_data(bad, out, 50)
        assert not out.exists()

    def test_missing_trace_exits_2(self, tmp_path):
        assert run_cli("plot-data", "--trace", str(tmp_path / "nope.jsonl")) == 2

    def test_empty_trace_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("plot-data", "--trace", str(empty)) == 2

    def test_low_resolution_names_the_flag(self, trace, tmp_path, capsys):
        code = run_cli(
            "plot-data", "--trace", str(trace), "--out", str(tmp_path / "plots"),
            "--resolution", "3",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--resolution" in err
        assert "bad trace" not in err

    def test_library_low_resolution_writes_nothing(self, trace, tmp_path):
        out = tmp_path / "plots"
        with pytest.raises(ValueError, match="resolution"):
            export_plot_data(trace, out, 3)
        assert not out.exists()

    @pytest.mark.parametrize("resolution", [10.5, 50.0, True])
    def test_library_non_int_resolution_writes_nothing(self, trace, tmp_path, resolution):
        out = tmp_path / "plots"
        with pytest.raises(ValueError, match="resolution must be an int"):
            export_plot_data(trace, out, resolution)
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [("region", [-50.0, 50.0]), ("region", [0.0, 50.0]), ("region", [50.0, 1e400]),
         ("radius", 0.0)],
        ids=["negative-width", "zero-width", "infinite-height", "zero-radius"],
    )
    def test_bad_header_region_exits_2_before_writing(self, field, value, trace, tmp_path, capsys):
        # it used to write every CSV, with a coverage grid of 0 cells
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        header[field] = value
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        out = tmp_path / "plots"
        assert run_cli("plot-data", "--trace", str(bad), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad trace {bad}:")
        assert "must be positive and finite" in err
        assert not out.exists()

    def test_corrupt_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "round"}\n')
        assert run_cli("plot-data", "--trace", str(bad)) == 2

    @pytest.mark.parametrize(
        "text",
        [
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, null, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, null]]}\n',
            "[1, 2]\n",
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": "../1", "active": [0], "ordering": []}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, NaN, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, Infinity]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1,'
            ' "nodes": [[0, 1, 1], [1, 2, 2], [0, 1000.0, 1000.0]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[null, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0],'
            ' "ordering": [[0, null, 1], [1, "far", 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[1e30, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0],'
            ' "ordering": [[0, null, 1], [5, 0.5, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1], [1, 2, 2]]}\n'
            '{"type": "round", "round_index": 1, "active": [0],'
            ' "ordering": [[0, null, 1], [0, 0.5, null]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0.5, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[true, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [1], "ordering": [[1, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[1, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [true], "ordering": [[1, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, "1", 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": "1", "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1.7, "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": "1", "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": true, "active": [0], "ordering": [[0, null, 1]]}\n',
            '{"type": "header", "region": [10, 10], "radius": 1, "nodes": [[0, 1, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [0], "ordering": [[0, null, 1]]}\n'
            '{"type": "round", "round_index": 1, "active": [], "ordering": []}\n',
        ],
        ids=["null-coordinate", "array-header", "path-round-index", "nan-coordinate",
             "infinite-coordinate", "repeated-node-id", "short-ordering-row",
             "null-ordering-id", "text-reachability", "ordering-id-past-int64",
             "ordering-id-not-in-header", "repeated-ordering-id", "fractional-node-id",
             "bool-node-id", "bool-active-id", "text-coordinate", "text-radius",
             "fractional-round-index", "text-round-index", "bool-round-index",
             "repeated-round-index"],
    )
    def test_malformed_trace_exits_2_as_bad_trace(self, text, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(text)
        assert run_cli("plot-data", "--trace", str(bad), "--out", str(tmp_path / "p")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"bad trace {bad}:")
        assert "Traceback" not in err
        assert not (tmp_path / "p").exists()
        if "NaN" in text or "Infinity" in text:
            assert "coordinates must be finite" in err
        if "1000.0" in text:
            assert "node ids must be unique" in err
        if "0.5, null]]" in text:
            assert "ordering lists an id twice or one not in the header" in err
        if text.count('"round_index": 1,') == 2:
            assert "lists a round index twice" in err


def table(config, out):
    return run_table_experiment(config, out)


def baseline(config, out):
    return run_rand_baseline(config)


class TestExperimentHelpers:
    def test_trial_seeds_derive_from_master(self):
        config = load_config(
            overrides=[
                "experiment.d_list=25",
                "experiment.trials=3",
                "deployment.seed=100",
                "experiment.grid_resolution=50",
            ]
        )
        result = run_table_experiment(config)
        assert [o.seed for o in result.outcomes] == [100, 101, 102]

    def test_baseline_pairs_have_equal_counts(self):
        config = load_config(
            overrides=["deployment.count=40", "experiment.grid_resolution=50"]
        )
        result = run_rand_baseline(replace(config, trials=2))
        assert len(result.pairs) == 2
        for pair in result.pairs:
            assert pair.active_count > 0

    def test_baseline_means_add_the_pairs_in_order(self):
        # ten 0.1s added left to right make 0.9999999999999999; a compensated
        # sum (math.fsum, or Python's sum from 3.12 on) makes 1.0
        pairs = [experiments.BaselinePair(t, t, 1, 0.1, 0.1) for t in range(10)]
        result = experiments.BaselineResult(10, pairs)
        assert result.mean_protocol_cr == result.mean_rand_cr == 0.9999999999999999 / 10
        assert result.mean_protocol_cr != 0.1

    def test_baseline_trial_that_activates_nothing(self):
        # min_pts above D: no core point, so no cluster and no active node
        config = replace(RunConfig(), count=5, min_pts=6, trials=2, grid_resolution=50)
        result = run_rand_baseline(config)
        assert result.deployed == 5
        assert result.pairs == [
            experiments.BaselinePair(0, 42, 0, 0.0, 0.0),
            experiments.BaselinePair(1, 43, 0, 0.0, 0.0),
        ]

    @pytest.mark.parametrize(
        "run, config",
        [
            (table, replace(RunConfig(), d_list=())),
            (table, replace(RunConfig(), eps=2.0)),
            (table, replace(RunConfig(), d_list=(100, 150, 100))),
            (table, replace(RunConfig(), rounds=0)),
            (table, replace(RunConfig(), d_list=(100, 150.5))),
            (table, replace(RunConfig(), trials=2.5)),
            (table, replace(RunConfig(), rounds=1.5)),
            (baseline, replace(RunConfig(), eps=2.0)),
            (baseline, replace(RunConfig(), trials=0)),
            (baseline, replace(RunConfig(), trials=2.5)),
        ],
        ids=[
            "table-empty_d_list",
            "table-eps_below_radius",
            "table-repeated_size",
            "table-zero_rounds",
            "table-fractional_size",
            "table-fractional_trials",
            "table-fractional_rounds",
            "rand_baseline-eps_below_radius",
            "rand_baseline-zero_trials",
            "rand_baseline-fractional_trials",
        ],
    )
    def test_invalid_config_rejected_before_any_deployment(
        self, run, config, tmp_path, monkeypatch
    ):
        def no_deployment(*args, **kwargs):
            raise AssertionError("a deployment was generated")

        monkeypatch.setattr(experiments, "generate_deployment", no_deployment)
        out = tmp_path / "out"
        with pytest.raises(ConfigError):
            run(config, out)
        assert not out.exists()
