import builtins
import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from causalboot import cli
from causalboot import rng as cbrng
from causalboot.cli import main
from causalboot.config import BlbConfig
from causalboot.data import load_csv
from causalboot.engine import run_blb
from causalboot.propensity import expit
from causalboot.simulation import generate_dgm

DOCS = Path(__file__).resolve().parents[1] / "docs"


def export_dgm_csv(path, n=1200, seed=0):
    table = generate_dgm(n, cbrng.substream(seed, cbrng.DOMAIN_DATASET, 0))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["y", "w", "x1", "x2"])
        for i in range(table.n):
            writer.writerow(
                [repr(float(table.y[i])), int(table.w[i]),
                 repr(float(table.x[i, 0])), repr(float(table.x[i, 1]))]
            )
    return path


@pytest.fixture(scope="module")
def dgm_csv(tmp_path_factory):
    return export_dgm_csv(tmp_path_factory.mktemp("data") / "dgm.csv")


@pytest.fixture(scope="module")
def csv_20k(tmp_path_factory):
    return export_dgm_csv(tmp_path_factory.mktemp("data") / "dgm_20k.csv", n=20_000)


def analyze_args(csv_path, out_dir, **overrides):
    args = {
        "--input": str(csv_path),
        "--outcome": "y",
        "--treatment": "w",
        "--covariates": "x1,x2",
        "--method": "logistic",
        "--gamma": "0.7",
        "--subsets": "4",
        "--replicates": "50",
        "--seed": "1",
        "--output": str(out_dir),
    }
    args.update(overrides)
    out = ["analyze"]
    for key, value in args.items():
        if value is None:
            continue
        out += [key, value]
    return out


class TestAnalyze:
    def test_end_to_end_writes_valid_result(self, dgm_csv, tmp_path):
        code = main(analyze_args(dgm_csv, tmp_path))
        assert code == 0
        document = json.loads((tmp_path / "result.json").read_text())
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((DOCS / "result_schema.json").read_text())
        jsonschema.validate(document, schema)
        assert document["payload"]["n"] == 1200
        assert document["manifest"]["input_digest"].startswith("sha256:")

    def test_reruns_are_identical_apart_from_timestamps(self, dgm_csv, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(analyze_args(dgm_csv, out1)) == 0
        assert main(analyze_args(dgm_csv, out2)) == 0
        doc1 = json.loads((out1 / "result.json").read_text())
        doc2 = json.loads((out2 / "result.json").read_text())
        assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(
            doc2["payload"], sort_keys=True
        )
        assert doc1["manifest"]["input_digest"] == doc2["manifest"]["input_digest"]

    def test_emit_draws(self, dgm_csv, tmp_path):
        code = main(analyze_args(dgm_csv, tmp_path) + ["--emit-draws"])
        assert code == 0
        with open(tmp_path / "draws.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["subset", "replicate", "estimate"]
        assert len(rows) - 1 == 4 * 50

    def test_subset_entries_hold_their_fit_and_threshold(self, dgm_csv, tmp_path):
        args = analyze_args(dgm_csv, tmp_path, **{"--method": "cbps", "--balance-threshold": "0.2"})
        assert main(args) == 0
        entries = json.loads((tmp_path / "result.json").read_text())["payload"]["subsets"]
        table = load_csv(str(dgm_csv), "y", "w", ["x1", "x2"])
        config = BlbConfig(gamma=0.7, subsets=4, replicates=50, seed=1, estimator="cbps",
                           balance_threshold=0.2)
        estimates = run_blb(table, config).subsets
        assert len(entries) == len(estimates) == 4
        for entry, est in zip(entries, estimates):
            assert entry["balance"]["threshold"] == 0.2
            fit = est.fit
            assert entry["fit"] == {
                "method": fit.method, "converged": fit.converged, "iterations": fit.iterations,
                "objective": fit.objective, "clamped": fit.clamped,
            }

    def test_constant_covariate_has_a_null_smd(self, tmp_path, write_csv):
        # the marginal fit accepts a covariate that is constant in every
        # subset; its SMD is NaN, written as null and left out of the max
        gen = np.random.default_rng(8)
        rows = [(repr(float(gen.standard_normal())), i % 2, repr(float(gen.standard_normal())), 3.0)
                for i in range(400)]
        path = write_csv("constant.csv", ["y", "w", "x1", "c"], rows)
        args = analyze_args(path, tmp_path, **{"--covariates": "x1,c", "--method": "marginal"})
        assert main(args) == 0
        payload = json.loads((tmp_path / "result.json").read_text())["payload"]
        for entry in payload["subsets"]:
            balance = entry["balance"]
            assert balance["smd"]["c"] is None
            assert balance["not_applicable"] == ["c"]
            assert balance["max_abs_smd"] == abs(balance["smd"]["x1"])
        assert payload["diagnostics"]["max_abs_smd"] == max(
            e["balance"]["max_abs_smd"] for e in payload["subsets"]
        )

    @pytest.mark.parametrize("covariates, column", [("x1,x1", "x1"), ("w,x1", "w"),
                                                    ("x1,y", "y")])
    def test_column_in_two_roles_exits_2_naming_it(self, dgm_csv, tmp_path, capsys,
                                                   covariates, column):
        code = main(analyze_args(dgm_csv, tmp_path, **{"--covariates": covariates}))
        assert code == 2
        assert f"column '{column}' is used twice" in capsys.readouterr().err
        assert not (tmp_path / "result.json").exists()

    def test_gamma_and_subset_size_conflict(self, dgm_csv, tmp_path, capsys):
        code = main(analyze_args(dgm_csv, tmp_path, **{"--subset-size": "300"}))
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: subset_size must be None when gamma is set, got 300\n"
        )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_subset_size_above_rows_is_a_config_error(self, csv_20k, tmp_path, capsys, threads):
        code = main(analyze_args(csv_20k, tmp_path, **{
            "--gamma": None, "--subset-size": "30000", "--threads": threads,
        }))
        assert code == 2
        assert capsys.readouterr().err == (
            "configuration error: subset size 30000 outside [2, 20000]\n"
        )

    def test_external_scores_wrong_length(self, dgm_csv, tmp_path):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n0.5\n", encoding="utf-8")
        code = main(analyze_args(dgm_csv, tmp_path, **{"--method": f"external:{scores}"}))
        assert code == 3

    def test_missing_input_file(self, tmp_path):
        code = main(analyze_args(tmp_path / "absent.csv", tmp_path))
        assert code == 3

    def test_unknown_flag_rejected(self, dgm_csv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(analyze_args(dgm_csv, tmp_path) + ["--frobnicate", "1"])
        assert exc.value.code == 2

    def test_estimation_failure_exit_code(self, tmp_path, dgm_csv):
        # impossible weight cap exhausts the redraw budget
        args = analyze_args(dgm_csv, tmp_path, **{"--config": None})
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("weight_cap=1e-12\n", encoding="utf-8")
        code = main(args + ["--config", str(cfg)])
        assert code == 4

    def test_config_file_precedence(self, dgm_csv, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("subsets=2\nreplicates=30\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(dgm_csv), "--outcome", "y",
             "--treatment", "w", "--covariates", "x1,x2", "--seed", "1",
             "--subsets", "3", "--output", str(out), "--config", str(cfg)]
        )
        assert code == 0
        document = json.loads((out / "result.json").read_text())
        # flag wins over file; file wins over default (100)
        assert document["manifest"]["config"]["subsets"] == 3
        assert document["manifest"]["config"]["replicates"] == 30

    def test_drop_policy_reported(self, tmp_path):
        path = tmp_path / "holes.csv"
        path.write_text(
            "y,w,x1,x2\n1.0,0,0.1,0.2\n2.0,1,,0.3\n0.5,0,0.2,0.1\n"
            "1.5,1,0.4,0.0\n2.5,0,0.3,0.2\n0.7,1,0.1,0.4\n",
            encoding="utf-8",
        )
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("weight_cap=1.0\n", encoding="utf-8")  # arms of 2-3 units
        out = tmp_path / "out"
        code = main(
            ["analyze", "--input", str(path), "--outcome", "y", "--treatment", "w",
             "--covariates", "x1,x2", "--gamma", "1.0", "--subsets", "1",
             "--replicates", "20", "--seed", "0", "--na-policy", "drop",
             "--method", "marginal", "--config", str(cfg), "--output", str(out)]
        )
        assert code == 0
        document = json.loads((out / "result.json").read_text())
        assert document["payload"]["diagnostics"]["dropped_rows"] == 1
        assert document["payload"]["n"] == 5


class TestSimulate:
    def test_quick_study(self, tmp_path):
        code = main(
            ["simulate", "--n", "600", "--replications", "12", "--gamma", "0.7",
             "--subsets", "3", "--replicates", "40", "--seed", "5",
             "--output", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["payload"]["replications"] == 12
        assert 0.0 <= summary["payload"]["coverage"] <= 1.0
        with open(tmp_path / "zipplot.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["replication", "tau_hat", "se", "lower", "upper",
                           "covered", "centile_rank"]
        assert len(rows) - 1 == 12

    def test_external_scores_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "scores.txt"
        scores.write_text("0.5\n" * 500, encoding="utf-8")
        code = main(["simulate", "--n", "500", "--replications", "10", "--subsets", "2",
                     "--replicates", "20", "--method", f"external:{scores}",
                     "--output", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == ("configuration error: estimator must not be "
                                           "'external': no scores file fits fresh datasets\n")
        assert not (tmp_path / "summary.json").exists()

    def test_below_minimum_replications(self, tmp_path):
        code = main(
            ["simulate", "--n", "600", "--replications", "1", "--output", str(tmp_path)]
        )
        assert code == 2

    def test_seeded_reproducibility(self, tmp_path):
        args = ["simulate", "--n", "500", "--replications", "10", "--subsets", "2",
                "--replicates", "30", "--seed", "9"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        pay1 = json.loads((out1 / "summary.json").read_text())["payload"]
        pay2 = json.loads((out2 / "summary.json").read_text())["payload"]
        assert pay1 == pay2


class TestRelerr:
    def test_trajectories_csv(self, tmp_path):
        code = main(
            ["relerr", "--n", "800", "--gammas", "0.5,0.9", "--replicates", "40",
             "--oracle-reps", "100", "--data-reps", "1", "--seed", "3",
             "--output", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "relerr.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["gamma", "subsets", "cum_seconds", "err"]
        gammas = {row[0] for row in rows[1:]}
        assert gammas == {"0.5", "0.9"}
        assert all(float(row[3]) >= 0.0 for row in rows[1:])

    def test_bad_gamma(self, tmp_path):
        code = main(
            ["relerr", "--n", "800", "--gammas", "1.5", "--output", str(tmp_path)]
        )
        assert code == 2


class TestBenchmark:
    def test_median_cells(self, tmp_path):
        code = main(
            ["benchmark", "--ns", "600", "--methods", "logistic,marginal",
             "--subsets", "2,3", "--p", "2", "--reps", "2", "--seed", "0",
             "--output", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "medians.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == 4
        with open(tmp_path / "timings.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "p", "method", "s", "rep", "seconds"]
        assert len(rows) - 1 == 8

    def test_zero_reps_rejected(self, tmp_path):
        code = main(["benchmark", "--ns", "600", "--reps", "0", "--output", str(tmp_path)])
        assert code == 2

    def test_grid_mode(self, tmp_path):
        code = main(
            ["benchmark", "--ns", "4000", "--methods", "logistic", "--grid",
             "--reps", "1", "--seed", "0", "--output", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "timings.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert {(row[1], row[3]) for row in rows} == {
            ("2", "2"), ("2", "4"), ("10", "2"), ("10", "4"), ("50", "2"), ("50", "4")
        }


@pytest.mark.parametrize("argv, name", [
    (["simulate", "--n", "400", "--replications", "10", "--subsets", "2",
      "--replicates", "20"], "summary.json"),
    (["relerr", "--n", "600", "--gammas", "0.7", "--replicates", "20",
      "--oracle-reps", "100", "--data-reps", "1"], "relerr_summary.json"),
    (["benchmark", "--ns", "600", "--methods", "logistic", "--subsets", "2",
      "--reps", "1"], "benchmark_summary.json"),
    (None, "result.json"),
], ids=["simulate", "relerr", "benchmark", "analyze"])
def test_every_command_writes_one_document_shape(argv, name, dgm_csv, tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    argv = (analyze_args(dgm_csv, tmp_path) + ["--emit-draws"] if argv is None
            else argv + ["--output", str(tmp_path)])
    assert main(argv) == 0
    # the files main refuses a directory in place of, before the run
    assert sorted(os.listdir(tmp_path)) == sorted(cli._COMMANDS[argv[0]][2])
    document = json.loads((tmp_path / name).read_text())
    assert set(document) == {"payload", "manifest", "timing"}
    schema = json.loads((DOCS / "result_schema.json").read_text())
    jsonschema.validate(document["manifest"], schema["properties"]["manifest"])
    assert document["manifest"]["command"] == argv[0]


class TestFiles:
    def test_analyze_opens_its_input_once(self, dgm_csv, tmp_path, monkeypatch):
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.fspath(file) == str(dgm_csv):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        assert main(analyze_args(dgm_csv, tmp_path)) == 0
        assert len(opened) == 1

    def test_input_digest_is_the_sha256_of_the_file(self, dgm_csv, tmp_path):
        path = tmp_path / "marked.csv"  # a byte-order mark and \r\n endings
        path.write_bytes(b"\xef\xbb\xbf" + dgm_csv.read_bytes())
        assert b"\r\n" in path.read_bytes()
        assert main(analyze_args(path, tmp_path)) == 0
        manifest = json.loads((tmp_path / "result.json").read_text())["manifest"]
        assert manifest["input_digest"] == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()

    def test_a_failed_write_leaves_the_old_result_whole(self, dgm_csv, tmp_path, monkeypatch,
                                                        capsys):
        (tmp_path / "result.json").write_text("the last run's result\n", encoding="utf-8")

        def full_disk(document, handle, **kwargs):
            handle.write('{"payload": ')
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.json, "dump", full_disk)
        capsys.readouterr()
        assert main(analyze_args(dgm_csv, tmp_path)) == 2
        assert capsys.readouterr().err == (f"configuration error: cannot write "
                                           f"{tmp_path / 'result.json'}: [Errno 28] No space "
                                           "left on device\n")
        assert (tmp_path / "result.json").read_text() == "the last run's result\n"
        assert os.listdir(tmp_path) == ["result.json"]  # no temporary file left

    @pytest.mark.parametrize("command,refusal,leaf,code", [
        ("simulate", ["--replications", "5"], "b", 2), ("simulate", ["--seed", "-1"], "b", 2),
        ("analyze", ["--weight-cap", "1e-12"], "b", 4), ("simulate", [], "b" * 300, 2)])
    def test_a_refused_run_leaves_no_directories(self, dgm_csv, tmp_path, command, refusal,
                                                 leaf, code):
        # the output directory and its missing parents are made before the
        # command checks its options, and before the run, which an
        # impossible weight cap fails; mkdir makes "a" and then refuses a
        # name too long; a directory that was there stays
        out = tmp_path / "there" / "a" / leaf
        (tmp_path / "there").mkdir()
        argv = (analyze_args(dgm_csv, out) if command == "analyze" else
                ["simulate", "--n", "400", "--replications", "10", "--subsets", "2",
                 "--replicates", "20", "--output", str(out)])
        assert main(argv + refusal) == code
        assert os.listdir(tmp_path / "there") == []

    def test_simulate_writes_no_summary_without_its_csv(self, tmp_path, monkeypatch, capsys):
        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def writerow(self, row):
                self.handle.write("partial")
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.csv, "writer", FullDisk)
        argv = ["simulate", "--n", "400", "--replications", "10", "--subsets", "2",
                "--replicates", "20", "--output", str(tmp_path)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {tmp_path / 'zipplot.csv'}: ")
        assert os.listdir(tmp_path) == []


def run_with_config(argv, tmp_path, lines):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return main(argv + ["--config", str(cfg)])


class TestConfigFile:
    @pytest.mark.parametrize("value", ["0.1", "0.1,0.5,0.9"])
    def test_bad_truncate_value_exits_2(self, dgm_csv, tmp_path, capsys, value):
        code = run_with_config(analyze_args(dgm_csv, tmp_path), tmp_path, [f"truncate={value}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: config file option truncate={value}: ")
        assert "Traceback" not in err

    def test_bad_flag_value_exits_2(self, dgm_csv, tmp_path, capsys):
        code = main(analyze_args(dgm_csv, tmp_path, **{"--truncate": "0.1"}))
        assert code == 2
        assert "option --truncate=0.1: expected LO,HI" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["analyze", "--input", "in.csv", "--outcome", "y", "--treatment", "w",
              "--covariates", "x1"], "replicate=5"),
            (["relerr", "--n", "800", "--gammas", "0.5"], "gamma=0.5"),
        ],
        ids=["analyze-replicate", "relerr-gamma"],
    )
    def test_unknown_key_exits_2_naming_known_keys(self, tmp_path, capsys, argv, line):
        code = run_with_config(argv, tmp_path, [line])
        assert code == 2
        err = capsys.readouterr().err
        key = line.split("=")[0]
        assert f"unknown key {key!r}" in err
        known = ", ".join(opt.name for opt in cli.OPTIONS[argv[0]])
        assert err.rstrip().endswith(f"{argv[0]} accepts {known}")

    def test_dashed_keys_read_as_underscored(self, dgm_csv, tmp_path):
        code = run_with_config(analyze_args(dgm_csv, tmp_path, **{"--gamma": None}), tmp_path,
                               ["subset-size=300", "redraw-on-imbalance=yes"])
        assert code == 0
        config = json.loads((tmp_path / "result.json").read_text())["manifest"]["config"]
        assert (config["subset_size"], config["redraw_on_imbalance"]) == (300, True)

    def test_missing_required_option_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--input", "in.csv", "--treatment", "w", "--covariates", "x1"])
        assert code == 2
        assert "--outcome is required" in capsys.readouterr().err


# One text per option name; each parses to a value other than its default.
OPTION_TEXT = {
    "input": "in.csv", "outcome": "y", "treatment": "w", "covariates": "x1,x2",
    "na_policy": "drop", "emit_draws": "true", "method": "cbps", "gamma": "0.6",
    "subset_size": "300", "subsets": "3", "replicates": "30", "seed": "7",
    "ci": "asymptotic", "alpha": "0.1", "truncate": "0.05,0.95", "weight_cap": "0.5",
    "balance_threshold": "0.2", "redraw_on_imbalance": "yes", "max_redraws": "4",
    "threads": "3", "output": "out", "n": "500", "replications": "12",
    "gammas": "0.5,0.9", "oracle_reps": "50", "data_reps": "2", "ns": "600,800",
    "methods": "marginal", "p": "5", "reps": "3", "grid": "1",
}


def _flag(name):
    return "--" + name.replace("_", "-")


class TestOptionTable:
    @pytest.mark.parametrize(
        "command, option",
        [(command, opt) for command, table in cli.OPTIONS.items() for opt in table],
        ids=lambda value: value if isinstance(value, str) else value.name,
    )
    def test_flag_and_config_key_resolve_alike(self, tmp_path, command, option):
        others = [opt for opt in cli.OPTIONS[command]
                  if opt.default is cli.REQUIRED and opt is not option]
        base = [command] + [arg for opt in others for arg in (_flag(opt.name), OPTION_TEXT[opt.name])]
        text = OPTION_TEXT[option.name]
        switch = option.parse is cli._parse_bool
        by_flag = base + [_flag(option.name)] + ([] if switch else [text])
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{option.name}={text}\n", encoding="utf-8")
        by_file = base + ["--config", str(cfg)]
        parser = cli.build_parser()
        from_flag = cli._options(parser.parse_args(by_flag))
        from_file = cli._options(parser.parse_args(by_file))
        assert from_flag == from_file
        assert getattr(from_flag, option.name) != option.default

    def test_analyze_defaults_are_blbconfig_defaults(self):
        argv = ["analyze", "--input", "in.csv", "--outcome", "y", "--treatment", "w",
                "--covariates", "x1,x2"]
        config = cli._build_config(cli._options(cli.build_parser().parse_args(argv)))
        assert config == BlbConfig(threads=os.cpu_count() or 1)

    @pytest.mark.parametrize("command, names", [
        ("relerr", ("replicates", "seed")),
        ("benchmark", ("seed",)),
    ])
    def test_shared_options_are_the_blb_entries(self, command, names):
        blb = {opt.name: opt for opt in cli._BLB_OPTIONS}
        table = {opt.name: opt for opt in cli.OPTIONS[command]}
        for name in names:
            assert table[name] is blb[name]

    @pytest.mark.parametrize("command", list(cli.OPTIONS))
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--config" in capsys.readouterr().out


class TestBenchmarkGrid:
    def test_grid_honours_explicit_subsets(self, tmp_path):
        code = main(
            ["benchmark", "--ns", "4000", "--methods", "logistic", "--grid", "--subsets", "3",
             "--reps", "1", "--output", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "timings.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert {(row[1], row[3]) for row in rows} == {("2", "3"), ("10", "3"), ("50", "3")}
        document = json.loads((tmp_path / "benchmark_summary.json").read_text())
        assert document["manifest"]["config"]["subsets"] == [3]

    def test_grid_honours_explicit_p(self, tmp_path):
        code = main(
            ["benchmark", "--ns", "4000", "--methods", "logistic", "--grid", "--p", "2",
             "--reps", "1", "--output", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "timings.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert {(row[1], row[3]) for row in rows} == {("2", "2"), ("2", "4")}
        document = json.loads((tmp_path / "benchmark_summary.json").read_text())
        assert document["manifest"]["config"]["p"] == [2]


def config_lines(config):
    """A manifest's ``config`` as key=value lines: lists joined by commas,
    None values left out."""
    return [f"{key}={','.join(map(str, value)) if isinstance(value, list) else value}"
            for key, value in config.items() if value is not None]


def write_scores(csv_path, path):
    """Logistic scores of the CSV's rows, one per line."""
    table = load_csv(str(csv_path), "y", "w", ["x1", "x2"])
    values = expit(-0.5 * table.x.sum(axis=1))
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return path


ANALYZE = ["analyze", "--input", "{csv}", "--outcome", "y", "--treatment", "w",
           "--covariates", "x1,x2", "--subsets", "4", "--replicates", "50", "--seed", "1"]
# run: (argv without --output, with {csv} and {scores} to fill in; result file)
RERUNS = {
    "analyze-default-gamma-threads-2": (ANALYZE + ["--threads", "2"], "result.json"),
    "analyze-subset-size-external": (
        ANALYZE + ["--subset-size", "400", "--method", "external:{scores}"], "result.json"),
    "simulate": (["simulate", "--n", "500", "--replications", "10", "--method", "cbps",
                  "--subsets", "2", "--replicates", "20", "--seed", "4"], "summary.json"),
    "relerr": (["relerr", "--n", "600", "--gammas", "0.6,0.8", "--replicates", "20",
                "--oracle-reps", "100", "--data-reps", "1", "--seed", "2"], "relerr_summary.json"),
    "benchmark-grid": (["benchmark", "--ns", "2000", "--methods", "logistic", "--grid",
                        "--reps", "1"], "benchmark_summary.json"),
}


@pytest.mark.parametrize("run", list(RERUNS))
def test_manifest_config_reruns_the_run(run, dgm_csv, tmp_path):
    argv, name = RERUNS[run]
    scores = write_scores(dgm_csv, tmp_path / "scores.txt")
    argv = [arg.format(csv=dgm_csv, scores=scores) for arg in argv]
    assert main(argv + ["--output", str(tmp_path / "first")]) == 0
    first = json.loads((tmp_path / "first" / name).read_text())
    config = first["manifest"]["config"]
    assert set(config) == {opt.name for opt in cli.OPTIONS[argv[0]]} - {"output"}
    # defaults that depend on other options are written in: only b's
    # unused form is left None
    assert [key for key, value in config.items() if value is None] in (
        [], ["gamma"], ["subset_size"])
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text("".join(f"{line}\n" for line in config_lines(config)), encoding="utf-8")
    assert main([argv[0], "--config", str(cfg), "--output", str(tmp_path / "again")]) == 0
    again = json.loads((tmp_path / "again" / name).read_text())
    assert again["payload"] == first["payload"]
    assert again["manifest"]["config"] == config


def test_manifest_reruns_from_another_directory(dgm_csv, tmp_path, monkeypatch):
    # relative paths are recorded absolute, so the rerun may start anywhere
    for name in ("run", "elsewhere"):
        (tmp_path / name).mkdir()
    (tmp_path / "run" / "in.csv").write_bytes(dgm_csv.read_bytes())
    write_scores(dgm_csv, tmp_path / "run" / "scores.txt")
    monkeypatch.chdir(tmp_path / "run")
    argv = [arg.format(csv="in.csv") for arg in ANALYZE] + ["--method", "external:scores.txt"]
    assert main(argv + ["--output", "first"]) == 0
    first = json.loads(Path("first", "result.json").read_text())
    config = first["manifest"]["config"]
    assert config["input"] == str(Path.cwd() / "in.csv")
    assert config["method"] == f"external:{Path.cwd() / 'scores.txt'}"
    monkeypatch.chdir(tmp_path / "elsewhere")
    Path("manifest.cfg").write_text("".join(f"{line}\n" for line in config_lines(config)),
                                    encoding="utf-8")
    assert main(["analyze", "--config", "manifest.cfg", "--output", "again"]) == 0
    again = json.loads(Path("again", "result.json").read_text())
    assert again["payload"] == first["payload"]


def test_analyze_timing_holds_the_load_and_run_wall_times(dgm_csv, tmp_path):
    assert main(analyze_args(dgm_csv, tmp_path)) == 0
    timing = json.loads((tmp_path / "result.json").read_text())["timing"]
    assert set(timing) == {"load_seconds", "total_seconds"}
    assert all(math.isfinite(value) and value >= 0 for value in timing.values())
