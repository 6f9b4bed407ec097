"""Command-line front end: config parsing, CSV contracts, determinism,
figure-data shape claims, and exit codes."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import fdrelay
from fdrelay.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    UsageError,
    _parse_p_db,
    load_config,
    main,
)

from conftest import CDF_ABS_FLOOR, FLOAT_RANGE_DRAWS
from test_reach import (FLOAT_RANGE_ARGVS, FLOAT_RANGE_OUTAGE_ARGVS, TRACEBACK_EXAMPLES,
                        traceback_argv)


def run_cli(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    code = main(args + ["--output", str(out)])
    rows = []
    if out.exists():
        with open(out) as fh:
            rows = list(csv.reader(fh))
    return code, rows, out


class TestConfigParsing:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text(
            "# comment\n"
            "total_power_db = 20\n"
            "rsi_level = 0.1\n"
            "pathloss_exp = 3\n"
            "rho_lambda = 0.4  # trailing comment\n"
            "modulation = bpsk\n"
            "mc_samples = 20000\n"
            "seed = 99\n"
        )
        cfg = load_config(str(p))
        assert cfg["total_power_db"] == 20.0
        assert cfg["rho_lambda"] == 0.4
        assert cfg["mc_samples"] == 20000
        assert cfg["modulation"] == "bpsk"

    def test_unknown_key_reports_line(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("total_power_db = 20\nbogus_key = 3\n")
        with pytest.raises(UsageError, match=r"bad\.cfg:2.*bogus_key"):
            load_config(str(p))

    def test_bad_number_reports_field(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("rsi_level = lots\n")
        with pytest.raises(UsageError, match="rsi_level"):
            load_config(str(p))

    def test_missing_equals(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("rho_lambda 0.5\n")
        with pytest.raises(UsageError, match=r"bad\.cfg:1"):
            load_config(str(p))

    def test_p_db_forms(self):
        assert _parse_p_db("20") == [20.0]
        assert _parse_p_db("0:20:5") == [0.0, 5.0, 10.0, 15.0, 20.0]
        for bad in ("a", "0:20", "a:b:c", "20:0:5", "0:10:-1", "0:nan:5", "0:inf:5",
                    "0:10:nan", "0:1e9:1e-3"):
            with pytest.raises(UsageError):
                _parse_p_db(bad)
        # a range stops at stop: the rounding slack shrinks with a sub-dB
        # step, and a stop just short of a step is not passed
        fine = _parse_p_db("0:1e-10:1e-12")
        assert len(fine) == 101 and fine[-1] == 1e-10
        assert _parse_p_db("0:0.9999999995:1") == [0.0]
        assert _parse_p_db("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.1 + 0.2]
        # the cap counts points, start included: 100 000 pass, 100 001 do not
        assert len(_parse_p_db("0:99999:1")) == 100_000
        assert main(["outage", "--p-db", "0:100000:1"]) == EXIT_USAGE
        # and ends, however fine the step: in a fresh process, so that a loop
        # that never ends cannot hang the suite
        code = "from fdrelay.cli import _parse_p_db; print(_parse_p_db('0:1e-300:1e-300'))"
        src = str(Path(fdrelay.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=30)
        assert proc.stdout.split() == ["[0.0,", "1e-300]"], proc.stderr

    def test_unknown_modulation_in_config(self, tmp_path, capsys):
        # the flag's choices refuse it at parse time; a config value reaches the check
        p = tmp_path / "mod.cfg"
        p.write_text("modulation = foo\n")
        assert main(["ser", "--config", str(p)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unknown modulation 'foo'\n"

    def test_flags_override_config_keys(self, tmp_path):
        p = tmp_path / "scenario.cfg"
        p.write_text("total_power_db = 20\nrsi_level = 0.3\nrho_d = 0.7\n")
        out_cfg = tmp_path / "cfg.csv"
        out_flag = tmp_path / "flag.csv"
        assert main(["ser", "--config", str(p), "--output", str(out_cfg)]) == EXIT_OK
        assert main(["ser", "--config", str(p), "--rsi-level", "0.0",
                     "--output", str(out_flag)]) == EXIT_OK
        row_cfg = out_cfg.read_text().splitlines()[1].split(",")
        row_flag = out_flag.read_text().splitlines()[1].split(",")
        # zero RSI kills the floor column; the config-only run keeps it
        assert float(row_flag[5]) == 0.0
        assert float(row_cfg[5]) > 0.0

    # key, its flag, a value other than the default, and a third value
    @pytest.mark.parametrize("key, flag, value, other", [
        ("total_power_db", "--p-db", "25", "15"),
        ("rsi_level", "--rsi-level", "0.2", "0.05"),
        ("pathloss_exp", "--pathloss-exp", "2.5", "4"),
        ("sum_distance", "--sum-distance", "2", "0.5"),
        ("rho_lambda", "--rho-lambda", "0.3", "0.7"),
        ("rho_d", "--rho-d", "0.6", "0.4"),
        ("modulation", "--modulation", "qpsk", "bpsk"),
        ("mc_samples", "--mc-samples", "20000", "10000"),
        ("seed", "--seed", "7", "8"),
    ])
    def test_every_key_and_its_flag(self, tmp_path, key, flag, value, other):
        # a key read from a file gives the CSV its flag gives, and the flag
        # overrides the key; the other keys stay at their defaults, but for
        # a cheaper sample count
        base = "" if key == "mc_samples" else "mc_samples = 20000\n"
        plain = tmp_path / "plain.cfg"
        plain.write_text(base)
        keyed = tmp_path / "keyed.cfg"
        keyed.write_text(f"{base}{key} = {value}\n")

        def csv_of(cfg, *args):
            out = tmp_path / "out.csv"
            assert main(["ser", "--mode", "both", "--config", str(cfg), *args,
                         "--output", str(out)]) == EXIT_OK
            return out.read_text()

        from_key = csv_of(keyed)
        assert from_key != csv_of(plain)
        assert from_key == csv_of(plain, f"{flag}={value}")
        overridden = csv_of(keyed, f"{flag}={other}")
        assert overridden != from_key
        assert overridden == csv_of(plain, f"{flag}={other}")


class TestCommands:
    def test_ser_columns(self, tmp_path):
        code, rows, _ = run_cli(["ser", "--p-db", "10:20:5"], tmp_path)
        assert code == EXIT_OK
        assert rows[0] == ["p_db", "ser_series", "ser_quadrature", "ser_mc",
                           "ser_mc_stderr", "ser_floor"]
        assert len(rows) == 4
        # analytic mode leaves MC columns empty
        assert rows[1][3] == "" and rows[1][4] == ""

    def test_ser_with_mc(self, tmp_path):
        code, rows, _ = run_cli(
            ["ser", "--p-db", "20", "--mode", "both", "--mc-samples", "20000"],
            tmp_path)
        assert code == EXIT_OK
        assert float(rows[1][3]) > 0.0
        assert float(rows[1][4]) > 0.0

    def test_outage_columns(self, tmp_path):
        code, rows, _ = run_cli(
            ["outage", "--p-db", "20", "--threshold", "2.0"], tmp_path)
        assert code == EXIT_OK
        assert rows[0][:4] == ["p_db", "threshold", "outage_asymptotic", "outage_exact"]
        assert float(rows[1][2]) < float(rows[1][3]) * 1.2

    def test_outage_at_infinite_threshold(self, tmp_path):
        code, rows, _ = run_cli(["outage", "--p-db", "20", "--threshold", "inf"], tmp_path)
        assert code == EXIT_OK
        assert rows[1][2:4] == ["1", "1"]

    def test_outage_where_x_squared_underflows(self, tmp_path):
        # x^2 underflows at x = 1e-180, and the exact route needs it nowhere:
        # its F against the 40-digit kernel integral, 3.34e-182, to a few ulps
        # of 1, the floor of its closed form's difference near 1
        code, rows, _ = run_cli(["outage", "--threshold", "1e-180"], tmp_path)
        assert code == EXIT_OK
        assert float(rows[1][3]) == pytest.approx(3.3408100886214523364e-182,
                                                  abs=CDF_ABS_FLOOR)

    def test_negative_p_db_range(self, tmp_path):
        # "--p-db -10:0:5" reads as an option to argparse; the "=" form works
        code, rows, _ = run_cli(["outage", "--p-db=-10:0:5"], tmp_path)
        assert code == EXIT_OK
        assert [float(r[0]) for r in rows[1:]] == [-10.0, -5.0, 0.0]

    def test_optimize_joint_columns(self, tmp_path):
        code, rows, _ = run_cli(
            ["optimize-joint", "--p-db", "20", "--rsi-level", "0"], tmp_path)
        assert code == EXIT_OK
        assert rows[0] == ["p_db", "rho_lambda", "rho_d", "ser", "foc_residual",
                           "method"]
        assert float(rows[1][1]) == pytest.approx(0.5, abs=1e-6)
        assert float(rows[1][2]) == pytest.approx(0.5, abs=1e-6)

    def test_optimize_location_columns(self, tmp_path):
        code, rows, _ = run_cli(["optimize-location", "--p-db", "40"], tmp_path)
        assert code == EXIT_OK
        assert rows[0][0] == "p_db"
        closed, golden = float(rows[1][1]), float(rows[1][2])
        assert abs(closed - golden) < 0.02

    def test_determinism_byte_identical(self, tmp_path):
        _, _, a = run_cli(["ser", "--p-db", "10:20:5", "--mode", "both",
                           "--mc-samples", "20000", "--seed", "5"], tmp_path, "a.csv")
        _, _, b = run_cli(["ser", "--p-db", "10:20:5", "--mode", "both",
                           "--mc-samples", "20000", "--seed", "5"], tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_invariance(self, tmp_path):
        for args in (["outage", "--p-db", "0:30:5", "--mode", "both",
                      "--mc-samples", "20000", "--seed", "5"],
                     ["figure", "2", "--mode", "both", "--mc-samples", "20000"]):
            _, _, a = run_cli(args + ["--workers", "1"], tmp_path, "w1.csv")
            _, _, b = run_cli(args + ["--workers", "6"], tmp_path, "w6.csv")
            assert a.read_bytes() == b.read_bytes(), args

    @pytest.mark.parametrize("argv", [["outage", "--p-db", "0:30:10"],
                                      ["ser", "--p-db", "0:30:10"], ["figure", "2"]])
    def test_mode_mc_and_both_write_the_same_bytes(self, tmp_path, argv):
        # the analytic columns are always written, so the two modes are one
        args = argv + ["--mc-samples", "20000", "--seed", "5"]
        _, _, a = run_cli(args + ["--mode", "mc"], tmp_path, "mc.csv")
        _, _, b = run_cli(args + ["--mode", "both"], tmp_path, "both.csv")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("command", ["outage", "ser"])
    def test_single_row_estimate_uses_the_workers(self, tmp_path, monkeypatch, command):
        # one row leaves the pool idle, so its estimator gets the threads;
        # the bytes cannot tell, so the estimator's argument is recorded
        from fdrelay import mc
        name = {"outage": "estimate_outage", "ser": "estimate_ser_semianalytic"}[command]
        estimate = getattr(mc, name)
        seen = []

        def spy(*args, **kwargs):
            seen.append(args[-1])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(mc, name, spy)
        args = [command, "--p-db", "40", "--mode", "mc", "--mc-samples", "900000",
                "--seed", "5"]
        _, _, a = run_cli(args + ["--workers", "1"], tmp_path, "w1.csv")
        _, _, b = run_cli(args + ["--workers", "2"], tmp_path, "w2.csv")
        run_cli(args[:2] + ["0:10:5"] + args[3:] + ["--workers", "2"], tmp_path, "rows.csv")
        assert a.read_bytes() == b.read_bytes()
        assert seen == [1, 2, 1, 1, 1]

    def test_stdout_when_no_output(self, capsys):
        code = main(["ser", "--p-db", "20"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("p_db,ser_series")


class TestFigures:
    def test_figure5_u_shape(self, tmp_path):
        # SER over the power split has a unique interior minimum
        code, rows, _ = run_cli(["figure", "5"], tmp_path)
        assert code == EXIT_OK
        data = [r for r in rows[1:] if float(r[1]) == 0.1]
        sers = [float(r[2]) for r in data]
        k = sers.index(min(sers))
        assert 0 < k < len(sers) - 1
        assert all(a > b for a, b in zip(sers[:k], sers[1:k + 1]))
        assert all(a < b for a, b in zip(sers[k:], sers[k + 1:]))

    def test_figure8_floor_removal(self, tmp_path):
        code, rows, _ = run_cli(["figure", "8"], tmp_path)
        assert code == EXIT_OK
        by_p = {float(r[0]): r for r in rows[1:]}
        fixed40, fixed60 = float(by_p[40.0][1]), float(by_p[60.0][1])
        joint40, joint60 = float(by_p[40.0][4]), float(by_p[60.0][4])
        assert fixed60 / fixed40 > 0.9
        assert joint60 / joint40 < 0.5

    def test_figure3_optimal_ratio_columns(self, tmp_path):
        code, rows, _ = run_cli(["figure", "3"], tmp_path)
        assert code == EXIT_OK
        assert rows[0] == ["ratio", "rsi_level", "opt_rho_lambda_given_rho_d",
                           "opt_rho_d_given_rho_lambda"]
        # with rsi, more source power as the relay moves away
        with_rsi = [r for r in rows[1:] if float(r[1]) == 0.1]
        opt_rl = [float(r[2]) for r in with_rsi]
        assert all(a < b for a, b in zip(opt_rl, opt_rl[1:]))

    def test_all_figures_emit(self, tmp_path):
        # header and data-row count of each figure: 4 RSI levels times the
        # sweep length for figures 2-5 and 9, one row per power for 6-8
        shapes = {
            2: (["p_db", "rsi_level", "outage_asymptotic", "outage_exact",
                 "ser_series", "ser_floor", "outage_mc", "ser_mc"], 84),
            3: (["ratio", "rsi_level", "opt_rho_lambda_given_rho_d",
                 "opt_rho_d_given_rho_lambda"], 76),
            4: (["rho_d", "rsi_level", "ser_series", "rho_d_closed"], 196),
            5: (["rho_lambda", "rsi_level", "ser_series", "rho_lambda_closed"], 196),
            6: (["p_db", "ser_fixed", "ser_location_closed", "ser_location_golden"], 9),
            7: (["p_db", "ser_fixed", "ser_power_closed", "ser_power_golden"], 9),
            8: (["p_db", "ser_nonoptimized", "ser_location_only", "ser_power_only",
                 "ser_joint"], 13),
            9: (["ratio", "rsi_level", "ser_vs_rho_lambda", "ser_vs_rho_d"], 196),
        }
        for n, (header, n_rows) in shapes.items():
            code, rows, _ = run_cli(["figure", str(n)], tmp_path, f"f{n}.csv")
            assert code == EXIT_OK, f"figure {n}"
            assert rows[0] == header, f"figure {n}"
            assert len(rows) - 1 == n_rows, f"figure {n}"
            assert all(len(r) == len(header) for r in rows), f"figure {n}"


class TestValidateAndExitCodes:
    def test_validate_passes_canonical(self, tmp_path):
        code, rows, _ = run_cli(
            ["validate", "--mc-samples", "200000", "--seed", "3"], tmp_path)
        assert code == EXIT_OK
        assert rows[0] == ["check", "value", "reference", "tolerance", "status"]
        assert all(r[4] == "pass" for r in rows[1:])

    def test_validate_passes_qpsk(self, tmp_path):
        code, rows, _ = run_cli(
            ["validate", "--modulation", "qpsk", "--mc-samples", "200000", "--seed", "3"],
            tmp_path)
        assert code == EXIT_OK
        assert all(r[4] == "pass" for r in rows[1:])

    def test_validate_fails_outside_asymptotic_regime(self, tmp_path):
        # interference this strong breaks the stated closed-form bands, and
        # the battery must say so with the validation exit code
        code, rows, _ = run_cli(
            ["validate", "--rsi-level", "0.45", "--mc-samples", "200000"],
            tmp_path)
        assert code == EXIT_VALIDATION
        assert any(r[4] == "fail" for r in rows[1:])

    def test_usage_error_exit(self, capsys):
        assert main(["ser", "--p-db", "nonsense"]) == EXIT_USAGE
        assert main(["ser", "--rsi-level", "-1"]) == EXIT_USAGE
        assert main(["ser", "--p-db", "4000"]) == EXIT_USAGE
        assert main(["ser", "--p-db", "2000"]) == EXIT_USAGE
        assert main(["ser", "--p-db=-1000"]) == EXIT_USAGE
        assert main(["ser", "--p-db=-3000"]) == EXIT_USAGE
        assert main(["ser", "--n-terms", "30"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("p_db", ["-300", "-1600", "-1622"])
    def test_below_series_range_names_the_series(self, capsys, p_db):
        # the 2F1 argument 1 - delta / X_0 rounds below 0 here
        assert main(["ser", f"--p-db={p_db}", "--rsi-level", "0"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: series terms out of range: ")
        assert "hyp2f1_complement" not in err

    def test_row_runs_its_analytic_columns_before_its_estimate(self, capsys):
        # the series refuses -300 dB before the estimator could refuse 100
        # samples, so the error names the series
        argv = ["ser", "--p-db=-300", "--mode", "mc", "--mc-samples", "100"]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: series terms out of range: ")

    @pytest.mark.parametrize("argv", FLOAT_RANGE_ARGVS)
    def test_out_of_float_range_is_one_error_line(self, capsys, argv):
        # D^-v overflows, lambda_sr underflows to 0, or the series'
        # (1/sqrt(l_sr) + 1/sqrt(l_rd))^2 overflows at a subnormal l_rd
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, want", FLOAT_RANGE_OUTAGE_ARGVS)
    def test_out_of_float_range_outage_is_a_value(self, tmp_path, argv, want):
        # both CDF routes print a probability, and the exact one is its
        # 40-digit kernel integral to a few ulps of 1
        code, rows, _ = run_cli(argv, tmp_path)
        assert code == EXIT_OK
        asymptotic, exact = map(float, rows[1][2:4])
        assert 0.0 <= asymptotic <= 1.0 and 0.0 <= exact <= 1.0
        assert exact == pytest.approx(want, abs=CDF_ABS_FLOOR)

    def test_out_of_float_range_floor_without_rsi_is_zero(self, tmp_path):
        # D_SR^v overflows, but at eps = 0 the floor is 0 whatever D_SR^v is
        code, rows, _ = run_cli(["ser", "--p-db", "2700", "--sum-distance", "2.154e103",
                                 "--rho-d", "0.999999", "--rsi-level", "0"], tmp_path)
        assert code == EXIT_OK
        assert rows[1] == ["2700", "0.5", "0.5", "", "", "0"]

    @given(st.sampled_from(["ser", "outage", "optimize-location", "optimize-power",
                            "optimize-joint", "figure 2 --mode analytic",
                            *(f"figure {n}" for n in range(3, 10))]),
           *FLOAT_RANGE_DRAWS)
    # inputs that the 50 drawn examples do not reach (test_reach.TRACEBACK_EXAMPLES)
    @example(*TRACEBACK_EXAMPLES[0])
    @example(*TRACEBACK_EXAMPLES[1])
    @example(*TRACEBACK_EXAMPLES[2])
    @example(*TRACEBACK_EXAMPLES[3])
    @settings(max_examples=50, deadline=None)
    @seed(24)
    def test_accepted_inputs_exit_without_a_traceback(self, command, p_db, log_d, log_v,
                                                      eps, rho_lambda, rho_d):
        # any power, geometry and RSI the parser and SystemConfig accept ends
        # in a CSV, an error line or a numeric failure, never an exception
        argv = traceback_argv(command, p_db, log_d, log_v, eps, rho_lambda, rho_d)
        assert main([*argv, "--output", os.devnull]) in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)

    def test_validate_optimizer_checks_use_n_terms(self, tmp_path):
        from fdrelay import SystemConfig, db_to_linear, opt

        cfg = SystemConfig(db_to_linear(40.0), 0.1, 3.0)

        def gap(kind, closed_form, free, n_terms):
            res = opt.minimize_1d(kind, cfg, 0.5, tol=1e-6, n_terms=n_terms)
            return abs(closed_form(cfg, 0.5) - getattr(res.allocation, free))

        _, rows, _ = run_cli(["validate", "--n-terms", "5", "--mc-samples", "20000"],
                             tmp_path)
        values = {r[0]: r[1] for r in rows[1:]}
        for kind, closed_form, free in (("location", opt.optimal_location_closed, "rho_d"),
                                        ("power", opt.optimal_power_closed, "rho_lambda")):
            want = gap(kind, closed_form, free, 5)
            assert want != gap(kind, closed_form, free, 3)
            assert values[f"optimizer_{kind}_closed_vs_golden"] == format(want, ".12g")

    def test_numeric_failure_exit(self, monkeypatch, capsys):
        from fdrelay import cli
        from fdrelay.errors import QuadratureError

        def fail(spec):
            raise QuadratureError("ser_from_cdf: missed its tolerance", 1e-3)

        monkeypatch.setitem(cli._COMMANDS, "ser", fail)
        assert main(["ser"]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: ser_from_cdf: missed its tolerance\n"

    def test_unknown_command_exit(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_config_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nope = 1\n")
        assert main(["ser", "--config", str(p)]) == EXIT_USAGE
        assert "nope" in capsys.readouterr().err

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_NUMERIC) == (0, 1, 2, 3)
