"""Command-line front end: config parsing, CSV contracts, determinism,
figure-data shape claims, and exit codes."""

import csv

import pytest

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
        for bad in ("a", "0:20", "20:0:5", "0:10:-1", "0:nan:5", "0:inf:5", "0:10:nan",
                    "0:1e9:1e-3"):
            with pytest.raises(UsageError):
                _parse_p_db(bad)

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

    def test_unknown_command_exit(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_config_exit(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("nope = 1\n")
        assert main(["ser", "--config", str(p)]) == EXIT_USAGE
        assert "nope" in capsys.readouterr().err

    def test_exit_code_constants(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, EXIT_NUMERIC) == (0, 1, 2, 3)
