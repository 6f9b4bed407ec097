"""fdrelay benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload {cli-cold,analytic-sweep,mc-estimate}
        --seed N --seconds S --trace {0,1}

Run from anywhere; the code under test is the src/ next to this directory.
Every metric is printed by name and unit, then the last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 its
metrics are the end-to-end ones of BENCHMARK.json, measured untraced. With
--trace 1 every round of ops runs untraced and then again with every public
fdrelay function wrapped in spans (tracer.py); the end-to-end figures printed
come from the untraced ops, and the JSON metrics are the per-layer ones. See README.md for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_PROBES = 5
IMPORT_PROBES = 3
REL_STDERR_TARGET = 0.01
# the estimators a user picks for each quantity: outage, and the
# low-variance semi-analytic SER (symbol level is a validation route)
TIME_TO_1PCT_ESTIMATORS = ("estimate_outage", "estimate_ser_semianalytic")
CLI_TIMEOUT_S = 120
# cli-cold's reference: a fresh interpreter importing the third-party
# modules fdrelay.cli imports, the bulk of a CLI invocation's start-up
CLI_REFERENCE = "import numpy, scipy.special, scipy.integrate"
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, worker crash)."""


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def low_decile(values) -> float:
    """10th percentile; the minimum of fewer than 11 values."""
    return sorted(values)[len(values) // 10]


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, share).

    With fewer than 21 samples no such percentile lies above the median, so
    the median is returned with share 0.5.
    """
    s = sorted(values)
    k = len(s) - 11
    if k < len(s) // 2:
        return median(s), 0.5
    return float(s[k]), (k + 1) / len(s)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args, timeout=CLI_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, timeout=timeout)


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of set-up."""
    if workload == "cli-cold":
        args = ["-c", "import fdrelay.cli, time; print(time.time())"]
    else:
        args = [str(HERE / "worker.py"), "probe", workload, str(seed)]
    start = time.time()
    proc = run_child(args)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return float(proc.stdout.split()[-1]) - start


def check_program() -> None:
    """Fail unless fdrelay imports from this checkout's src/ (this also
    warms the bytecode cache)."""
    if not (SRC / "fdrelay" / "__init__.py").is_file():
        raise BenchError(f"no fdrelay package under {SRC}")
    proc = run_child(["-c", "import fdrelay.cli; print(fdrelay.cli.__file__)"])
    where = proc.stdout.decode().strip()
    if proc.returncode != 0 or not Path(where).resolve().is_relative_to(SRC):
        raise BenchError(f"fdrelay.cli did not import from {SRC}: "
                         f"{where or proc.stderr.decode()[-2000:]}")


def import_times(module: str) -> dict[str, float]:
    """import.* metrics: medians over IMPORT_PROBES fresh interpreters.

    python_s is the wall time of `python -c pass`, a control. The others are
    `python -X importtime` cumulative times, summed over the outermost import
    lines of each package (scipy's count the numpy it pulls in first).
    """
    runs = []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter()
        run_child(["-c", "pass"])
        bare = perf_counter() - t0
        proc = run_child(["-X", "importtime", "-c", f"import {module}"])
        if proc.returncode != 0:
            raise BenchError(f"import {module} failed: {proc.stderr.decode()[-2000:]}")
        cum = parse_importtime(proc.stderr.decode())
        runs.append({"import.python_s": bare,
                     **{f"import.{pkg}_s": cum.get(pkg, 0.0)
                        for pkg in ("numpy", "scipy", "fdrelay")}})
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def parse_importtime(text: str) -> dict[str, float]:
    """Top-level package -> seconds, from `-X importtime` stderr."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, int(cum), name.strip().split(".")[0]))
    # lines come children first; walking them backwards visits each parent
    # before its children, so a stack gives every line its parent
    out: dict[str, float] = {}
    stack: list[tuple[int, str]] = []
    for depth, cum, pkg in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if not stack or stack[-1][1] != pkg:
            out[pkg] = out.get(pkg, 0.0) + cum * 1e-6
        stack.append((depth, pkg))
    return out


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit}


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def _cli_invoke(cmd, workers, traced: bool, spans_path: str = ""):
    args = ([str(HERE / "worker.py"), "cli", spans_path] if traced
            else ["-m", "fdrelay.cli"])
    t0 = perf_counter()
    proc = run_child([*args, *cmd, "--workers", str(workers)])
    return proc, perf_counter() - t0


class CliRun:
    """Outcomes of cli-cold invocations (see worker.Recorder)."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.broken: list[str] = []
        self.csv: dict[tuple, bytes] = {}

    def outcome(self, cmd, workers, proc) -> bytes:
        self.attempted += 1
        if proc.returncode == 2 and cmd[0] == "validate":
            self.failed["validate_exit_2"] += 1
        elif proc.returncode != 0 or not proc.stdout:
            self.failed["exit_nonzero"] += 1
            self.broken.append(f"{' '.join(cmd)} --workers {workers}: exit "
                               f"{proc.returncode}: {proc.stderr.decode()[-500:]}")
        return proc.stdout

    def same(self, reason, key, blob, ops):
        """CSV bytes must match the first CSV seen for this command, whatever
        the worker count, repeat or tracing."""
        first = self.csv.setdefault(key, blob)
        if first != blob:
            self.failed[reason] += ops
            self.broken.append(f"{reason}: {' '.join(key)}")


def cli_cold(seed: int, seconds: float, trace: bool) -> dict:
    """Closed loop over the command list, each command at workers 1 and 2,
    for `seconds` and at least once through the list.

    With trace, each pair is then replayed through the traced wrapper, so
    plain and traced invocations are the same commands.
    """
    cmds = inputs.cli_commands(seed)
    run = CliRun()
    plain, traced, tables, ref = [], [], [], []
    t_end = perf_counter() + seconds
    i = 0
    while True:
        cmd = cmds[i % len(cmds)]
        for w in (1, 2):
            proc, wall = _cli_invoke(cmd, w, traced=False)
            run.same("csv_mismatch", tuple(cmd), run.outcome(cmd, w, proc), 1)
            plain.append((cmd, w, wall))
        t0 = perf_counter()
        if run_child(["-c", CLI_REFERENCE]).returncode != 0:
            raise BenchError(f"reference failed: python -c {CLI_REFERENCE!r}")
        ref.append(perf_counter() - t0)
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            for w in (1, 2):
                spans = OUT_DIR / f"spans-cli-cold-{i % len(cmds)}-w{w}.jsonl"
                proc, wall = _cli_invoke(cmd, w, traced=True, spans_path=str(spans))
                blob = run.outcome(cmd, w, proc)
                run.same("traced_csv_mismatch", tuple(cmd), blob, 1)
                if proc.returncode not in (0, 2):
                    continue
                summary = json.loads(proc.stderr.decode().strip().splitlines()[-1])
                tables.append(summary["layers"])
                main_s = summary["layers"].get("cli.main", {}).get("total_s", 0.0)
                traced.append({"wall": wall, "main_s": main_s, "csv_bytes": len(blob),
                               "rows": max(blob.count(b"\n") - 1, 0)})
        i += 1
        # every run times the whole command list at least once, so runs on
        # different seeds time the same mix
        if perf_counter() >= t_end and i >= len(cmds):
            break
    return {"run": run, "plain": plain, "traced": traced, "ref": ref,
            "layers": merge_tables(tables)}


def merge_tables(tables):
    out = {}
    for table in tables:
        for name, row in table.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                        "extra": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class Metrics:
    """Ordered name -> (value, unit, note)."""

    def __init__(self):
        self.items: dict[str, tuple[float, str, str]] = {}

    def add(self, name, value, unit, note=""):
        self.items[name] = (float(value), unit, note)

    def print(self, title):
        print(f"# {title}")
        for name, (value, unit, note) in self.items.items():
            print(f"{name:44s} {value:14.6g} {unit:8s} {note}")

    def pick(self, names):
        out = {}
        for n in names:
            value, unit, _ = self.items.get(n, (math.nan, "", ""))
            if not math.isfinite(value):
                raise BenchError(f"metric {n} was not measured")
            out[n] = {"value": value, "unit": unit}
        return out


def _rate(p, kinds, per_op=False):
    """(units per second, ops) over op kinds of a pass; with per_op the
    units are ops.

    Each op is timed by the median time of its kind, so a stall in a few
    ops moves the rate no more than it moves a median.
    """
    t = u = 0.0
    n = 0
    for kind in kinds:
        ops = p["times"].get(kind)
        if not ops:
            continue
        per = 1.0 if per_op else p["units"][kind] / len(ops)
        t += median(ops) * len(ops)
        u += per * len(ops)
        n += len(ops)
    return u / t, n


def quiet_time(p, kinds, per_op=False) -> float:
    """Seconds per unit (per op with per_op) in a quiet moment of the host:
    the mean over distinct ops of the 10th percentile of their repeats.
    Every repeat of an op is the same work, and
    contention from other tenants only ever adds time."""
    out = []
    for kind in kinds:
        repeats = p["by_key"].get(kind, {}).values()
        if repeats:
            per = 1.0 if per_op else p["units"][kind] / len(p["times"][kind])
            out += [low_decile(v) / per for v in repeats]
    return statistics.fmean(out)


def pooled_rel_var(estimates) -> float:
    """n_total * (stderr/value)^2 of the mean of equal-size estimates, each
    given as [value, stderr, n]."""
    r = len(estimates)
    value = statistics.fmean(e[0] for e in estimates)
    var_of_mean = sum(e[1] ** 2 for e in estimates) / r**2
    return r * estimates[0][2] * var_of_mean / value**2 if value > 0 else float("nan")


def _layer_metrics(m: Metrics, layers: dict):
    def per_call(name, scale, suffix):
        row = layers.get(name)
        if row and row["calls"]:
            m.add(f"{name}.{suffix}", row["total_s"] / row["calls"] * scale,
                  suffix.split("_")[0], f"calls={row['calls']}")

    for name in ("model.link_stats", "sfun.hyp2f1_complement", "sfun.bessel_k1",
                 "analytic.ser_series"):
        if name in layers:
            m.add(f"{name}.calls", layers[name]["calls"], "count")
            per_call(name, 1e6, "us_per_call")
    row = layers.get("analytic.ser_series")
    if row and row["calls"]:
        m.add("analytic.ser_series.self_us", row["self_s"] / row["calls"] * 1e6, "us",
              "self time per call: span time minus child spans")
    for name in ("analytic.sinr_cdf_asymptotic", "analytic.sinr_cdf_exact_numeric",
                 "analytic.ser_quadrature"):
        per_call(name, 1e6, "us_per_call")
    for name in ("opt.minimize_1d", "opt.select_joint_optimum", "opt.joint_foc_roots"):
        per_call(name, 1e3, "ms_per_call")
    for name, metric in (("opt.minimize_1d", "opt.minimize_1d.iterations"),
                         ("opt.joint_foc_roots", "opt.joint_candidates")):
        row = layers.get(name)
        if row and row["calls"]:
            m.add(metric, row["extra"] / row["calls"], "count", "mean per call")
    solves = sum(layers.get(n, {}).get("calls", 0)
                 for n in ("opt.minimize_1d", "opt.select_joint_optimum"))
    if solves:
        evals = layers.get("analytic.ser_series@solve", {}).get("calls", 0)
        m.add("opt.ser_evals_per_solve", evals / solves, "count",
              f"ser_series calls inside {solves} solves")
    row = layers.get("mc.draw_gammas")
    if row and row["total_s"] > 0:
        m.add("mc.draw_gammas.samples_per_s", row["extra"] / row["total_s"], "1/s",
              f"calls={row['calls']}")


def sweep_metrics(m: Metrics, p: dict):
    solves = ["solve_location", "solve_power", "solve_joint"]
    oracle = ["oracle_ser_quadrature", "oracle_outage_exact"]
    rate, n = _rate(p, ["grid"])
    m.add("sweep_points_per_s", rate, "1/s",
          f"{n * len(inputs.GRID_RATIOS)} points in {n} curves")
    rate, n = _rate(p, solves)
    m.add("opt_solves_per_s", rate, "1/s", f"{n} solves")
    rate, n = _rate(p, oracle)
    m.add("oracle_calls_per_s", rate, "1/s", f"{n} calls")
    for kind in ["grid", *solves, *oracle]:
        if p["times"].get(kind):
            m.add(f"{kind}.p50_ms", median(p["times"][kind]) * 1e3, "ms",
                  f"median, n={len(p['times'][kind])}")
    ref = low_decile(p["ref"])
    return (quiet_time(p, ["grid"]) / ref, quiet_time(p, solves, per_op=True) / ref,
            quiet_time(p, oracle, per_op=True) / ref)


def _large_kinds(p, workers):
    return sorted(k for k in p["times"]
                  if k.startswith("large_") and k.endswith(f"_w{workers}"))


def _small_kinds(p):
    return sorted(k for k in p["times"] if k.startswith("small_"))


def mc_metrics(m: Metrics, p: dict, traced: dict | None):
    """End-to-end figures from the untraced pass `p`; per-layer ones from
    the traced pass, when there is one."""
    large2, small = _large_kinds(p, 2), _small_kinds(p)
    rate, n = _rate(p, large2)
    m.add("mc_samples_per_s", rate, "1/s", f"large mix at workers=2, {n} estimates")
    small_rate, n = _rate(p, small, per_op=True)
    m.add("mc_small_estimates_per_s", small_rate, "1/s", f"n={n}")

    def time_to_1pct(s_per_sample):
        total = 0.0
        for est in TIME_TO_1PCT_ESTIMATORS:
            for key, estimates in p["values"].items():
                if key.startswith(f"estimates_{est}_s"):
                    total += (pooled_rel_var(estimates) * s_per_sample(f"large_{est}_w2")
                              / REL_STDERR_TARGET**2)
        return total

    m.add("mc_time_to_1pct_s", time_to_1pct(lambda kind: 1.0 / _rate(p, [kind])[0]), "s",
          "sum over scenarios of outage + semi-analytic SER, workers=2")
    ref = low_decile(p["ref"])
    parts = (1e6 * quiet_time(p, large2) / ref, quiet_time(p, small, per_op=True) / ref,
             time_to_1pct(lambda kind: quiet_time(p, [kind])) / ref)
    if traced:
        for kind in _large_kinds(traced, 1) + _large_kinds(traced, 2):
            est, w = kind[len("large_"):].rsplit("_", 1)
            m.add(f"mc.{est}.samples_per_s.{w}", _rate(traced, [kind])[0], "1/s",
                  f"median of n={len(traced['times'][kind])} estimates")
        r1 = _rate(traced, _large_kinds(traced, 1))[0]
        r2 = _rate(traced, _large_kinds(traced, 2))[0]
        m.add("mc.parallel_efficiency", r2 / (2.0 * r1), "share",
              "large-mix rate at workers=2 over twice the rate at workers=1")
        rate, n = _rate(traced, _small_kinds(traced), per_op=True)
        m.add("mc.small.us_per_call", 1e6 / rate, "us", f"n={n}")
        for key, estimates in sorted(traced["values"].items()):
            if key.startswith("estimates_") and key.endswith("_s0"):
                est = key[len("estimates_"):-len("_s0")]
                value, std_error, n = estimates[0]
                m.add(f"mc.{est}.rel_var_per_sample", n * (std_error / value) ** 2,
                      "count", "n*(stderr/value)^2, 40 dB eps=0 scenario, first round")
    return parts


def cli_metrics(m: Metrics, res: dict):
    walls = [w for _, _, w in res["plain"]]
    figs = [w for cmd, _, w in res["plain"] if cmd[0] == "figure"]
    other = [w for cmd, _, w in res["plain"] if cmd[0] != "figure"]
    p50 = median(walls)
    tail_v, q = tail(walls)
    m.add("cli_wall_p50_s", p50, "s", f"median, n={len(walls)}")
    m.add("cli_wall_tail_s", tail_v, "s", f"p{100 * q:.0f}, n={len(walls)}")
    m.add("cli_figure_p50_s", median(figs), "s", f"median, n={len(figs)}")
    m.add("cli_other_p50_s", median(other), "s", f"median, n={len(other)}")
    # each invocation is divided by the reference that ran right after its
    # pair, so both saw the same state of the host
    rel = [wall / res["ref"][k // 2] for k, (_, _, wall) in enumerate(res["plain"])]
    rel_figs = [r for r, (cmd, _, _) in zip(rel, res["plain"]) if cmd[0] == "figure"]
    return median(rel_figs), median(rel), tail(rel)[0]


def run_workload(workload, seed, seconds, trace) -> tuple[Metrics, dict]:
    m = Metrics()
    check_program()
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]

    if workload == "cli-cold":
        res = cli_cold(seed, seconds, trace)
        run = res["run"]
        attempted, failed, broken = run.attempted, run.failed, run.broken
        known = Counter()
        parts = cli_metrics(m, res)
        ref = (median(res["ref"]), f"median of n={len(res['ref'])} runs of python -c "
               f"{CLI_REFERENCE!r}, one after each pair of invocations")
        layers = res["layers"]
        if trace:
            tr = res["traced"]
            plain_wall = sum(w for _, _, w in res["plain"])
            overhead = sum(t["wall"] for t in tr) / plain_wall - 1.0
            m.add("cli.main_s", median([t["main_s"] for t in tr]), "s",
                  f"median in-process main() per command, n={len(tr)}")
            m.add("cli.compute_share",
                  median([t["main_s"] / t["wall"] for t in tr]), "share",
                  "main() time over wall time, median")
            m.add("cli.rows", sum(t["rows"] for t in tr), "count")
            m.add("cli.csv_bytes", sum(t["csv_bytes"] for t in tr), "count")
    else:
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
        start = time.time()
        proc = run_child([str(HERE / "worker.py"), "run", workload, str(seed),
                          str(seconds), "1" if trace else "0",
                          str(OUT_DIR) if trace else ""], timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.decode()[-3000:]}")
        res = json.loads(proc.stdout.decode().splitlines()[-1])
        setups.append(res["setup_wall"] - start)
        passes = [res["plain"]] + ([res["traced"]] if trace else [])
        attempted = sum(p["attempted"] for p in passes)
        failed = sum((Counter(p["failed"]) for p in passes), Counter())
        known = sum((Counter(p["known"]) for p in passes), Counter())
        broken = [b for p in passes for b in p["broken"]]
        if workload == "analytic-sweep":
            parts = sweep_metrics(m, res["plain"])
        else:
            parts = mc_metrics(m, res["plain"], res.get("traced"))
        times = res["plain"]["ref"]
        ref = (low_decile(times), f"10th percentile of n={len(times)} runs of "
               "worker._scalar_reference, one after each round")
        layers = res.get("layers", {})
        if trace:
            def op_time(p):
                return sum(sum(v) for v in p["times"].values())
            overhead = op_time(res["traced"]) / op_time(res["plain"]) - 1.0

    m.add("setup_s", median(setups), "s", f"median of {len(setups)} fresh set-ups")
    m.add("reference_s", ref[0], "s", ref[1])
    for name, value in zip(("part_a_rel", "part_b_rel", "part_c_rel"), parts):
        m.add(name, value, "x", "gated, in units of reference_s; see README.md")
    n_failed = sum(failed.values())
    m.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
          "MB", "largest child process")
    m.add("failed_share", n_failed / attempted, "share",
          f"{n_failed} of {attempted} ops; " + ", ".join(f"{k}={v}" for k, v in
                                                         sorted(failed.items())))
    n_known = sum(known.values())
    m.add("known_defect_share", n_known / attempted, "share",
          f"{n_known} of {attempted} ops missed a check that a documented defect "
          "explains (worker.py); " + ", ".join(f"{k}={v}" for k, v in
                                               sorted(known.items())))
    if trace:
        _layer_metrics(m, layers)
        for name, value in import_times(
                "fdrelay.cli" if workload == "cli-cold" else "fdrelay").items():
            m.add(name, value, "s", f"median of {IMPORT_PROBES}")
        m.add("trace.overhead_share", overhead, "share",
              "traced op time over the same untraced ops, minus 1")
    outcome = {"correct": not broken, "attempted": attempted, "failed": n_failed,
               "broken": broken}
    return m, outcome


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    facts = machine_facts()
    print(f"# fdrelay benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# machine: " + " ".join(f"{k}={v!r}" for k, v in facts.items()))
    try:
        m, outcome = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    m.print("metrics (name, value, unit, sample count or note)")
    for line in outcome["broken"][:20]:
        print(f"# INCORRECT: {line}")
    names = [x["name"] for x in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        metrics = m.pick(names)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
