"""Small-size self-test of the benchmark.

    python3 -m pytest perfbench/test_bench.py -q

Runs every workload for about a second, traced and untraced, and checks that
each metric is printed with its unit and that the last line follows the
BENCHMARK.json contract.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_share": "share",
          "known_defect_share": "share",
          "part_a_rel": "x", "part_b_rel": "x", "part_c_rel": "x",
          "import.python_s": "s", "import.numpy_s": "s", "import.scipy_s": "s",
          "import.fdrelay_s": "s", "trace.overhead_share": "share"}

ESTIMATORS = ("estimate_outage", "estimate_ser_semianalytic",
              "estimate_ser_symbol_level")

EXPECTED = {
    "cli-cold": {
        "cli_wall_p50_s": "s", "cli_wall_tail_s": "s", "reference_s": "s",
        "cli.main_s": "s", "cli.compute_share": "share", "cli.rows": "count",
        "cli.csv_bytes": "count",
    },
    "analytic-sweep": {
        "sweep_points_per_s": "1/s", "opt_solves_per_s": "1/s",
        "oracle_calls_per_s": "1/s", "reference_s": "s",
        "model.link_stats.calls": "count", "model.link_stats.us_per_call": "us",
        "sfun.hyp2f1_complement.calls": "count",
        "sfun.hyp2f1_complement.us_per_call": "us",
        "sfun.bessel_k1.calls": "count", "sfun.bessel_k1.us_per_call": "us",
        "analytic.ser_series.calls": "count", "analytic.ser_series.us_per_call": "us",
        "analytic.ser_series.self_us": "us",
        "analytic.sinr_cdf_asymptotic.us_per_call": "us",
        "analytic.sinr_cdf_exact_numeric.us_per_call": "us",
        "analytic.ser_quadrature.us_per_call": "us",
        "opt.minimize_1d.ms_per_call": "ms", "opt.minimize_1d.iterations": "count",
        "opt.select_joint_optimum.ms_per_call": "ms",
        "opt.joint_foc_roots.ms_per_call": "ms", "opt.joint_candidates": "count",
        "opt.ser_evals_per_solve": "count",
    },
    "mc-estimate": {
        "mc_samples_per_s": "1/s", "mc_small_estimates_per_s": "1/s",
        "mc_time_to_1pct_s": "s", "reference_s": "s",
        **{f"mc.{e}.samples_per_s.{w}": "1/s" for e in ESTIMATORS for w in ("w1", "w2")},
        **{f"mc.{e}.rel_var_per_sample": "count" for e in ESTIMATORS},
        "mc.parallel_efficiency": "share", "mc.draw_gammas.samples_per_s": "1/s",
        "mc.small.us_per_call": "us",
    },
}


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def printed_metrics(stdout):
    out = {}
    for line in stdout.splitlines()[:-1]:
        if line.startswith("#"):
            continue
        name, _value, unit, *_ = line.split()
        out[name] = unit
    return out


def check_result(line, spec_metrics):
    res = json.loads(line)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= 1 and 0 <= res["failed"] <= res["attempted"]
    assert list(res["metrics"]) == [m["name"] for m in spec_metrics]
    for m in spec_metrics:
        got = res["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
    return res


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload):
    proc = run(workload, 1)
    assert proc.returncode == 0, proc.stderr
    printed = printed_metrics(proc.stdout)
    for name, unit in {**COMMON, **EXPECTED[workload]}.items():
        assert printed.get(name) == unit, f"{name}: {printed.get(name)}"
    check_result(proc.stdout.splitlines()[-1], SPEC["per_layer"])

    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    res = check_result(proc.stdout.splitlines()[-1], SPEC["end_to_end"])
    assert all(m["value"] > 0.0 for m in res["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("analytic-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
