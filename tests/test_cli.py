"""Command-line surface: JSON determinism, exit codes, and I/O."""

import csv
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adoptkit import cli, datasets, econ, estimate, fisher, infer, jsonio, simgen
from adoptkit.curves import ThetaTwoComp
from adoptkit.errors import NonMonotoneTime, ParseError

SUBCOMMANDS = [
    "fit", "phase", "crlb", "test", "compare", "threshold",
    "simulate", "benchmark", "pilot",
]


THETA = ["--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25"]


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0, out
    return json.loads(out)


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["--help"])
        assert e.value.code == 0

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, capsys, sub):
        with pytest.raises(SystemExit) as e:
            cli.main([sub, "--help"])
        assert e.value.code == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out


class TestPhase:
    def test_reference_trough(self, capsys):
        payload = run_json(
            capsys, ["phase", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25"]
        )
        assert payload["kind"] == "trough"
        assert abs(payload["t_star"] - 2.85) <= 0.005
        assert payload["monotone"] is False
        assert payload["tstar_sensitivities"]["n0"] == pytest.approx(0.6061, abs=1e-3)

    def test_monotone_case(self, capsys):
        payload = run_json(
            capsys, ["phase", "--n0", "1", "--alpha", "0.8", "--umax", "5", "--beta", "0.3"]
        )
        assert payload["kind"] == "monotone_increase"
        assert payload["t_star"] is None

    def test_commands_share_one_parser(self, capsys):
        # in-process callers build the parser once; a command's flags do not
        # leak into the next
        cli.build_parser()
        built = cli.build_parser.cache_info().misses
        trough = ["phase", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25"]
        first = run_json(capsys, trough)
        assert run_json(capsys, ["phase", "--n0", "1", "--alpha", "0.8", "--umax", "5", "--beta", "0.3"])["t_star"] is None
        assert run_json(capsys, trough) == first
        assert cli.build_parser.cache_info().misses == built


class TestFitAndCompare:
    def test_fit_budget_default_is_the_library_default(self):
        args = cli.build_parser().parse_args(["fit", "--data", "builtin:synthetic21"])
        assert args.max_iter == inspect.signature(estimate.fit_nls).parameters["max_iter"].default

    def test_fit_builtin_beats_bass(self, capsys):
        two = run_json(capsys, ["fit", "--data", "builtin:synthetic21", "--family", "twocomp"])
        bass = run_json(capsys, ["fit", "--data", "builtin:synthetic21", "--family", "bass"])
        assert two["aic"] < bass["aic"]
        assert two["converged"] is True
        assert len(two["residuals"]) == 21
        assert two["cov"]["rows"] == 4 and two["cov"]["cols"] == 4

    def test_compare_enterprise_ranking(self, capsys):
        payload = run_json(capsys, ["compare", "--data", "builtin:enterprise78"])
        aic = {row["family"]: row["aic"] for row in payload["models"] if "aic" in row}
        assert aic["twocomp"] < aic["logisticbump"] < min(aic["logistic"], aic["bass"])
        assert max(aic.values()) == aic["bass"]
        two = next(r for r in payload["models"] if r["family"] == "twocomp")
        assert 1.6 <= two["dw"] <= 2.4
        assert two["bp_p"] > 0.05

    def test_fit_with_explicit_init(self, capsys):
        payload = run_json(
            capsys,
            ["fit", "--data", "builtin:synthetic21", "--family", "twocomp",
             "--init", "1.2,0.3,4.0,0.1"],
        )
        assert payload["converged"] is True
        assert payload["theta"][0] == pytest.approx(1.2357, rel=1e-3)

    def test_compare_reports_a_family_that_cannot_be_fit(self, capsys, tmp_path):
        # 6 points: too few for the 6-parameter families, enough for the others
        path = tmp_path / "six.csv"
        path.write_text("t,y\n" + "".join(f"{t},{y}\n" for t, y in enumerate([1.0, 0.8, 0.9, 1.3, 1.7, 1.9])))
        rows = {row["family"]: row for row in run_json(capsys, ["compare", "--data", str(path)])["models"]}
        assert rows["bilogistic"] == {"family": "bilogistic", "error": "need at least 7 points for bilogistic, got 6"}
        assert "error" not in rows["logistic"] and np.isfinite(rows["logistic"]["aic"])

    def test_compare_plot_export(self, capsys, tmp_path):
        out = tmp_path / "tidy.csv"
        code, _ = run_cli(
            capsys, ["compare", "--data", "builtin:synthetic21", "--plot-out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "series,t,value"
        assert any(line.startswith("observed,") for line in lines[1:])
        assert any(line.startswith("twocomp,") for line in lines[1:])


class TestTestCommand:
    def test_shape_on_embedded(self, capsys):
        payload = run_json(
            capsys,
            ["test", "--data", "builtin:synthetic21", "--which", "shape",
             "--n-boot", "800", "--seed", "0"],
        )
        assert payload["p"] < 0.05
        assert payload["statistic"] == pytest.approx(-0.13, abs=1e-9)

    def test_vuong_vs_bass(self, capsys):
        payload = run_json(
            capsys,
            ["test", "--data", "builtin:synthetic21", "--which", "vuong",
             "--family-a", "twocomp", "--family-b", "bass"],
        )
        assert payload["statistic"] > 1.96

    def test_dw_and_bp(self, capsys):
        dw = run_json(capsys, ["test", "--data", "builtin:enterprise78", "--which", "dw"])
        assert 0.0 <= dw["statistic"] <= 4.0
        bp = run_json(capsys, ["test", "--data", "builtin:enterprise78", "--which", "bp"])
        assert 0.0 <= bp["p"] <= 1.0

    def test_lr_matches_library(self, capsys):
        payload = run_json(capsys, ["test", "--data", "builtin:synthetic21", "--which", "lr"])
        result = infer.constrained_lr(datasets.synthetic21().series)
        assert payload == {"statistic": pytest.approx(result.statistic, rel=1e-9),
                           "p": pytest.approx(result.p_value, rel=1e-9), "method": result.method}


class TestCrlbCommand:
    def test_info_report_layout(self, capsys):
        payload = run_json(
            capsys,
            ["crlb", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25",
             "--times", "0,1,2,18,19,20", "--error-model", "gaussian", "--sigma", "0.1"],
        )
        assert payload["info_full"]["rows"] == 4 and payload["info_full"]["cols"] == 4
        assert payload["info_profiled"]["rows"] == 2
        assert payload["crlb_alpha"] > 0 and payload["crlb_beta"] > 0
        assert payload["corr_alpha_beta"] < 0

    def test_ar1_variant_fields(self, capsys):
        payload = run_json(
            capsys,
            ["crlb", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25",
             "--n-points", "21", "--horizon", "20", "--error-model", "ar1",
             "--sigma", "0.05", "--rho", "0.6"],
        )
        assert payload["ar1_simplified_info"]["rows"] == 4
        assert payload["ar1_simplified_max_rel_diff"] > 0

    @pytest.mark.parametrize("flags, em", [
        (["--error-model", "poisson", "--kappa", "20"], fisher.PoissonCounts(20.0)),
        (["--error-model", "binomial", "--m", "5", "--trials", "30"], fisher.BinomialCounts(5.0, 30)),
    ], ids=["poisson", "binomial"])
    def test_count_models_in_crlb_and_simulate(self, capsys, flags, em):
        theta, times = ThetaTwoComp(3.0, 0.8, 2.0, 0.25), [0.0, 1.0, 2.0, 18.0, 19.0, 20.0]
        payload = run_json(capsys, ["crlb", *THETA, "--times", "0,1,2,18,19,20", *flags])
        report = fisher.info_matrix(theta, times, em)
        assert payload["crlb_alpha"] == pytest.approx(report.crlb_alpha, rel=1e-9)
        assert payload["crlb_beta"] == pytest.approx(report.crlb_beta, rel=1e-9)
        code, text = run_cli(capsys, ["simulate", *THETA, "--seed", "3", *flags])
        series = simgen.gen_series(theta, em, 21, 20.0, seed=3)
        assert code == 0
        rows = zip(series.times.tolist(), series.values.tolist())
        assert text == "t,y\n" + "".join(f"{t!r},{y!r}\n" for t, y in rows)
        assert np.array_equal(series.values, np.round(series.values))


class TestThreshold:
    def test_matches_library(self, capsys):
        payload = run_json(
            capsys,
            ["threshold", "--r-chat", "0.51", "--delta-tau", "0.3", "--delta-phi", "0.1",
             "--mu-c", "1.0", "--sigma-mu", "0.05"],
        )
        rep = econ.threshold_uncertainty(0.51, 0.3, 0.1, 1.0, 1.0, 1.0, 0.05)
        assert payload["r_star"] == pytest.approx(rep.r_star)
        assert payload["robust_r_star"] == pytest.approx(rep.robust_r_star, rel=1e-9)

    def test_point_threshold_only(self, capsys):
        payload = run_json(
            capsys,
            ["threshold", "--r-chat", "0.5", "--delta-tau", "0", "--delta-phi", "0",
             "--mu-c", "2.0"],
        )
        assert payload == {"r_star": 0.5}

    def test_economy_csv_sets_mean_failure_cost(self, capsys, tmp_path):
        path = tmp_path / "econ.csv"
        path.write_text(
            "v,c_f,tau,phi,w\n"
            "1.0,2.0,0.1,0.0,0.5\n"
            "1.5,4.0,0.2,0.1,0.5\n"
        )
        payload = run_json(
            capsys,
            ["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1",
             "--economy", str(path)],
        )
        assert payload["r_star"] == pytest.approx(0.5 + 0.4 / 3.0)

    def test_missing_mu_c_is_validation_error(self, capsys):
        code, _ = run_cli(
            capsys,
            ["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1"],
        )
        assert code == 2


class TestSimulateAndIo:
    def test_simulate_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "series.csv"
        argv = ["simulate", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25",
                "--sigma", "0.05", "--n-points", "21", "--horizon", "20", "--seed", "3",
                "--out", str(out)]
        code, text = run_cli(capsys, argv)
        assert code == 0
        series = jsonio.load_csv(out)
        assert len(series) == 21
        # byte-identical re-run
        code2, text2 = run_cli(capsys, argv)
        assert text2 == text and out.read_text() == text

    def test_load_csv_two_points(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("t,y\n0,1.10\n1,1.35\n")
        series = jsonio.load_csv(path)
        assert series.times.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [1.10, 1.35]

    def test_save_load_roundtrip_bytes(self, tmp_path):
        series = datasets.synthetic21().series
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        jsonio.save_csv(series, p1)
        jsonio.save_csv(jsonio.load_csv(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_monotone_time_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n2,1.0\n1,2.0\n")
        with pytest.raises(NonMonotoneTime):
            jsonio.load_csv(path)

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,y\n0,1.0\nx,2.0\n")
        with pytest.raises(ParseError) as e:
            jsonio.load_csv(path)
        assert e.value.row == 3 and e.value.column == "t"

    def test_economy_missing_column(self, tmp_path):
        path = tmp_path / "econ.csv"
        path.write_text("v,c_f,tau,w\n1.0,2.0,0.1,1.0\n")
        with pytest.raises(ParseError, match="missing column 'phi'"):
            jsonio.load_task_economy(path)

    def test_economy_invalid_row_carries_location(self, tmp_path):
        path = tmp_path / "econ.csv"
        path.write_text("v,c_f,tau,phi,w\n1.0,2.0,0.1,0.0,0.5\n1.5,x,0.2,0.1,0.5\n")
        with pytest.raises(ParseError, match="invalid task row") as e:
            jsonio.load_task_economy(path)
        assert e.value.row == 3 and e.value.column is None

    def test_economy_header_only(self, tmp_path):
        path = tmp_path / "econ.csv"
        path.write_text("v,c_f,tau,phi,w\n")
        with pytest.raises(ParseError, match="no data rows"):
            jsonio.load_task_economy(path)

    def test_cli_exit_codes(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,y\n2,1.0\n1,2.0\n")
        code, _ = run_cli(capsys, ["fit", "--data", str(bad)])
        assert code == 2
        const = tmp_path / "const.csv"
        const.write_text("t,y\n" + "".join(f"{i},2.0\n" for i in range(12)))
        code, _ = run_cli(capsys, ["fit", "--data", str(const)])
        assert code == 3
        # malformed flags and config files exit 2 with a message, no traceback
        for name, text in [("reps.cfg", "replicates = abc\n"), ("depths.cfg", "depths = 0,x\n"),
                           ("nan.cfg", "depths = nan\nreplicates = 2\n")]:
            (tmp_path / name).write_text(text)
        theta = ["--n0", "1", "--alpha", "0.8", "--umax", "2", "--beta", "0.25"]
        for argv in [
            ["fit", "--data", "builtin:synthetic21", "--init", "a,b,c,d"],
            ["crlb", *theta, "--times", "0,x"],
            ["benchmark", "--config", str(tmp_path / "reps.cfg")],
            ["benchmark", "--config", str(tmp_path / "depths.cfg")],
            ["benchmark", "--config", str(tmp_path / "nan.cfg")],  # ran a depth-0 scenario
            ["fit", "--data", "builtin:synthetic21", "--tol", "nan"],
            ["benchmark", "--config", str(tmp_path / "missing.cfg")],
            ["test", "--data", "builtin:synthetic21", "--seed", "-1"],
            ["simulate", *theta, "--seed", "-1"],
            ["pilot", "--seed", "-1"],
            ["benchmark", "--seed", "-1"],
            ["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1",
             "--mu-c", "1", "--sigma-mu", "0.05", "--level", "1.5"],
            ["threshold", "--r-chat", "nan", "--delta-tau", "0.3", "--delta-phi", "0.1",
             "--mu-c", "1"],  # printed {"r_star": null}
            # a lone --n-samples or --c-max was ignored, c_max = inf gave a null
            # penalty, and c_max < mu_C a Hoeffding floor
            *(["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1", "--mu-c", "1",
               "--sigma-mu", "0.05", *hoeffding] for hoeffding in (
                ["--n-samples", "0"], ["--c-max", "0.5"], ["--c-max", "inf", "--n-samples", "10"],
                ["--c-max", "0.5", "--n-samples", "10"], ["--c-max", "2", "--n-samples", "0"])),
            # and without --sigma-mu both were ignored
            ["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1", "--mu-c", "1",
             "--c-max", "2", "--n-samples", "10"],
        ]:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own exit
                code = exc.code
            err = capsys.readouterr().err
            assert code == 2 and "error:" in err and "Traceback" not in err, argv
        # and through the interpreter, where a traceback would show
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "adoptkit.cli", "fit", "--data", "builtin:synthetic21",
                               "--init", "a,b,c,d"], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2 and "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestOutputPath:
    """``main`` writes every command's output: ``--out`` gets stdout's bytes,
    and a file that cannot be read or written exits 2 with one error line."""

    @staticmethod
    def grid(tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("depths = 0.2\nsigmas = 0.05\nrhos = 0\nn_points = 21\n"
                       "replicates = 4\nseed = 4\nshape_boot = 10\n")
        return str(cfg)

    def argv_for(self, sub, tmp_path):
        return {
            "fit": ["fit", "--data", "builtin:synthetic21", "--family", "logistic"],
            "phase": ["phase", *THETA],
            "crlb": ["crlb", *THETA, "--times", "0,1,2,18,19,20"],
            "test": ["test", "--data", "builtin:synthetic21", "--which", "dw"],
            "compare": ["compare", "--data", "builtin:synthetic21"],
            "threshold": ["threshold", "--r-chat", "0.5", "--delta-tau", "0", "--delta-phi", "0",
                          "--mu-c", "2.0"],
            "simulate": ["simulate", *THETA, "--seed", "3"],
            "benchmark": ["benchmark", "--config", self.grid(tmp_path)],
            "pilot": ["pilot", "--n-tasks", "50"],
        }[sub]

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, sub):
        out = tmp_path / "result.out"
        code, text = run_cli(capsys, [*self.argv_for(sub, tmp_path), "--out", str(out)])
        assert code == 0 and text
        assert out.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("case", [
        "pilot-out", "compare-plot-out", "benchmark-out-csv", "fit-data-dir", "threshold-economy-dir",
        "fit-data-not-utf8", "threshold-economy-not-utf8", "benchmark-config-not-utf8",
    ])
    def test_file_errors_exit_2(self, capsys, tmp_path, case):
        missing = str(tmp_path / "missing" / "x.out")
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes("t,y\n0,1.0\n1,2.0 # caf\u00e9\n".encode("latin-1"))
        econ_args = ["threshold", "--r-chat", "0.5", "--delta-tau", "0.3", "--delta-phi", "0.1"]
        argv = {
            "pilot-out": ["pilot", "--n-tasks", "50", "--out", missing],
            "compare-plot-out": ["compare", "--data", "builtin:synthetic21", "--plot-out", missing],
            "benchmark-out-csv": ["benchmark", "--config", self.grid(tmp_path), "--out-csv", missing],
            "fit-data-dir": ["fit", "--data", str(tmp_path)],
            "threshold-economy-dir": [*econ_args, "--economy", str(tmp_path)],
            "fit-data-not-utf8": ["fit", "--data", str(latin1)],
            "threshold-economy-not-utf8": [*econ_args, "--economy", str(latin1)],
            "benchmark-config-not-utf8": ["benchmark", "--config", str(latin1)],
        }[case]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        if case.endswith("not-utf8"):
            assert str(latin1) in lines[0] and "UTF-8" in lines[0]


class TestEquispacedDesign:
    @pytest.mark.parametrize("sub", ["simulate", "crlb"])
    @pytest.mark.parametrize("flags,named", [
        (["--horizon", "inf"], "horizon"),
        (["--horizon", "nan"], "horizon"),
        (["--horizon", "0"], "horizon"),
        (["--n-points", "-1"], "n_points"),
    ], ids=["horizon-inf", "horizon-nan", "horizon-0", "n-points-negative"])
    def test_bad_design_flags_exit_2(self, capsys, sub, flags, named):
        # before: horizon inf printed a RuntimeWarning and then "times must be
        # finite"; crlb --n-points -1 raised a ValueError traceback
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([sub, *THETA, *flags])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and not caught
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and named in lines[0]

    def test_crlb_times_do_not_consult_the_design_flags(self, capsys):
        payload = run_json(capsys, ["crlb", *THETA, "--times", "0,1,2,18,19,20",
                                    "--horizon", "inf", "--n-points", "-1"])
        assert payload["crlb_alpha"] > 0


class TestBenchmarkCommand:
    def test_byte_identical_across_runs_and_threads(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "# tiny grid\n"
            "depths = 0, 0.2\n"
            "sigmas = 0.05\n"
            "rhos = 0\n"
            "n_points = 21\n"
            "replicates = 8\n"
            "seed = 4\n"
            "shape_boot = 40\n"
        )
        argv = ["benchmark", "--config", str(cfg)]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        _, out8 = run_cli(capsys, argv + ["--threads", "8"])
        assert out1 == out2 == out8
        payload = json.loads(out1)
        assert payload["totals"]["n_scenarios"] == 2

    def test_csv_export(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(
            "depths = 0.2\nsigmas = 0.05\nrhos = 0\nn_points = 21\n"
            "replicates = 6\nseed = 4\nshape_boot = 30\n"
        )
        out_csv = tmp_path / "bench.csv"
        code, _ = run_cli(
            capsys, ["benchmark", "--config", str(cfg), "--out-csv", str(out_csv)]
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("depth,n_points,error_model")
        assert len(lines) == 2 and "GaussianIid" in lines[1]

    def test_csv_rows_of_the_default_noise_grid_are_distinct(self, capsys, tmp_path):
        # the default sigmas and rhos: three iid and six AR(1) noise models
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("depths = 0.2\nn_points = 21\nreplicates = 2\nseed = 4\nshape_boot = 10\n")
        out_csv = tmp_path / "bench.csv"
        code, _ = run_cli(capsys, ["benchmark", "--config", str(cfg), "--out-csv", str(out_csv)])
        assert code == 0
        with out_csv.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        keys = {(r["depth"], r["n_points"], r["error_model"], r["sigma"], r["rho"]) for r in rows}
        assert len(rows) == len(keys) == 9
        assert {(r["sigma"], r["rho"]) for r in rows} == {
            (s, r) for s in ("0.02", "0.05", "0.1") for r in ("0", "0.3", "0.6")
        }

    @pytest.mark.parametrize("horizon", ["0", "-5", "inf"])
    def test_horizon_not_positive_exits_2(self, capsys, tmp_path, horizon):
        # before: horizon 0 exited 0 with every replicate failed as NonMonotoneTime
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(f"depths = 0.2\nsigmas = 0.05\nrhos = 0\nreplicates = 2\nhorizon = {horizon}\n")
        code = cli.main(["benchmark", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "error:" in captured.err and "horizon" in captured.err

    def test_config_line_without_equals_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("depths = 0.2\nreplicates 2\n")
        code = cli.main(["benchmark", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: config line is not 'key = value': 'replicates 2'\n"

    def test_n_points_must_be_integers(self, capsys, tmp_path):
        # before: 21.7 ran silently with n = 21
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("depths = 0.2\nsigmas = 0.05\nrhos = 0\nn_points = 21.7\nreplicates = 2\n")
        code = cli.main(["benchmark", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "'n_points'" in captured.err

    def test_pilot_reference(self, capsys):
        payload = run_json(capsys, ["pilot", "--seed", "42", "--n-tasks", "200"])
        assert payload["r_chat"] == pytest.approx(0.59)
        assert payload["r_agent"] == pytest.approx(0.775)


class TestCanonicalJson:
    def test_float_capping_and_sorting(self):
        text = jsonio.dumps_canonical({"b": 1 / 3, "a": np.float64(2.0)})
        assert text.index('"a"') < text.index('"b"')
        assert "0.3333333333" in text

    def test_non_finite_maps_to_null(self):
        assert json.loads(jsonio.dumps_canonical({"x": float("inf")}))["x"] is None

    def test_matrix_layout(self):
        out = json.loads(jsonio.dumps_canonical(np.arange(6.0).reshape(2, 3)))
        assert out == {"rows": 2, "cols": 3, "data": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}


class TestBlasThreads:
    """Output bytes do not depend on the BLAS thread count."""

    AR1_CRLB = ["crlb", "--n0", "3", "--alpha", "0.8", "--umax", "2", "--beta", "0.25",
                "--n-points", "1826", "--horizon", "1825", "--error-model", "ar1",
                "--sigma", "0.05", "--rho", "0.3"]

    @pytest.mark.parametrize("argv", [
        ["compare", "--data", "builtin:synthetic21"],
        ["compare", "--data", "builtin:enterprise78"],
        ["compare", "--data", "builtin:enterprise78raw"],
        AR1_CRLB,
    ], ids=["compare-synthetic21", "compare-enterprise78", "compare-enterprise78raw", "crlb-ar1-n1826"])
    def test_one_and_two_threads_print_the_same_bytes(self, argv):
        # each run in a fresh process: the thread count is read when numpy loads
        src = str(Path(cli.__file__).resolve().parents[1])
        runs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            runs.append(subprocess.Popen(
                [sys.executable, "-c", "import sys; from adoptkit import cli; sys.exit(cli.main(sys.argv[1:]))",
                 *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        (one, err1), (two, err2) = (run.communicate(timeout=300) for run in runs)
        assert [run.returncode for run in runs] == [0, 0], (err1, err2)
        assert one and one == two
