"""Command-line front end: scenario config, experiment sweeps, CSV output.

Commands
    outage             outage probability vs total power
    ser                average SER vs total power
    optimize-location  closed-form and Brent-optimized relay placement
    optimize-power     closed-form and Brent-optimized power split
    optimize-joint     joint stationary-candidate selection
    figure N           data behind result figure N (N in 2..9), FD curves; one
                       figure per run, so loop N over 2..9 for all of them
    validate           internal analytic-vs-oracle consistency battery

Config file: `key = value` lines, `#` comments. Keys: total_power_db,
rsi_level, pathloss_exp, sum_distance, rho_lambda, rho_d, modulation,
mc_samples, seed. CLI flags override keys one-for-one. dB values convert to
linear at parse time; the library itself is dB-free.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import analytic, mc, opt
from .errors import DomainError, NonConvergenceError
from .model import Allocation, SystemConfig, db_to_linear, link_stats

__all__ = ["main", "entrypoint", "load_config"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_MODULATIONS = {
    "bpsk": (1.0, 2.0),
    "qpsk": (2.0, 1.0),
}

# config key -> (type, default). Every key but total_power_db has a flag,
# --key-with-dashes, which overrides it; --p-db overrides total_power_db
_KEYS = {
    "total_power_db": (float, 20.0),
    "rsi_level": (float, 0.1),
    "pathloss_exp": (float, 3.0),
    "sum_distance": (float, 1.0),
    "rho_lambda": (float, 0.5),
    "rho_d": (float, 0.5),
    "modulation": (str, "bpsk"),
    "mc_samples": (int, 1_000_000),
    "seed": (int, 12345),
}

# SINR outage threshold of `outage` (its --threshold default) and of figure 2
_THRESHOLD = 1.0

# RSI grid used by figure sweeps when a caption-style "different levels"
# spread is needed.
_RSI_GRID = (0.0, 0.01, 0.1, 0.3)

# largest --p-db sweep accepted; a finer range would only fill memory
_MAX_P_DB_POINTS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route through UsageError so
    # main() can map usage problems to exit code 1.
    def error(self, message):
        raise UsageError(message)


def load_config(path: str) -> dict:
    """Parse a key=value config file with line-level diagnostics."""
    out: dict = {}
    with open(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _KEYS[key][0]
        try:
            out[key] = value.lower() if kind is str else kind(value)
        except ValueError:
            need = "an integer" if kind is int else "a number"
            raise UsageError(f"{path}:{lineno}: field {key!r} needs {need}, got {value!r}")
    return out


def _parse_p_db(text: str) -> list[float]:
    """'20' -> [20.0]; '0:40:5' -> [0, 5, ..., 40]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"--p-db range must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"--p-db range has non-numeric parts: {text!r}")
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"--p-db range needs finite parts: {text!r}")
        if step <= 0 or stop < start:
            raise UsageError(f"--p-db range must be increasing: {text!r}")
        # the whole steps from start to stop, with a rounding slack of
        # 1e-10 dB, or 1e-10 steps below a step of 1 dB; the points are those
        # steps and start
        steps = (stop - start) / step + 1e-10 * min(1.0, 1.0 / step)
        if steps >= _MAX_P_DB_POINTS:
            raise UsageError(f"--p-db range exceeds {_MAX_P_DB_POINTS} points: {text!r}")
        return [start + k * step for k in range(int(steps) + 1)]
    try:
        return [float(text)]
    except ValueError:
        raise UsageError(f"--p-db needs a number or start:stop:step, got {text!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="fdrelay", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of every command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file")
    common.add_argument("--p-db", help="total power in dB: value or start:stop:step; "
                        "write a negative start as --p-db=-10:0:5")
    for key, (kind, _) in _KEYS.items():
        if key != "total_power_db":
            common.add_argument("--" + key.replace("_", "-"), type=kind,
                                choices=sorted(_MODULATIONS) if kind is str else None)
    common.add_argument("--output", help="CSV output path (default: stdout)")
    common.add_argument("--mode", choices=("analytic", "mc", "both"), default="analytic")
    common.add_argument("--workers", type=int, default=1,
                        help="threads for Monte Carlo rows and validate checks")
    common.add_argument("--n-terms", type=int, default=analytic.DEFAULT_N_TERMS,
                        choices=range(1, analytic.MAX_N_TERMS + 1))

    def command(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    command("outage", help="outage probability vs total power").add_argument(
        "--threshold", type=float, default=_THRESHOLD,
        help="SINR outage threshold (linear)")
    for name in ("ser", "optimize-location", "optimize-power", "optimize-joint"):
        command(name)
    command("figure", help="emit the data behind a result figure").add_argument(
        "number", type=int, choices=range(2, 10))
    command("validate", help="analytic-vs-oracle consistency battery")
    return parser


def _spec_from_args(args) -> argparse.Namespace:
    """args with what the config file, the flags and the defaults resolve to:
    every key of _KEYS, p_db_values, scenario (the SystemConfig at the first
    power), allocation, workers (at least 1) and threshold."""
    file_cfg = load_config(args.config) if args.config else {}
    # a flag overrides its key, and the key its default
    for key, (_, default) in _KEYS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_cfg.get(key, default))

    if args.modulation not in _MODULATIONS:
        raise UsageError(f"unknown modulation {args.modulation!r}")
    alpha, beta = _MODULATIONS[args.modulation]

    args.p_db_values = ([args.total_power_db] if args.p_db is None
                        else _parse_p_db(args.p_db))

    try:
        args.scenario = SystemConfig(db_to_linear(args.p_db_values[0]), args.rsi_level,
                                     args.pathloss_exp, args.sum_distance, alpha, beta)
        args.allocation = Allocation(args.rho_lambda, args.rho_d)
    except DomainError as exc:
        raise UsageError(str(exc))

    args.workers = max(1, args.workers)
    args.threshold = getattr(args, "threshold", _THRESHOLD)
    return args


def _at(cfg: SystemConfig, p_db: float | None = None, **changes) -> SystemConfig:
    """cfg at total power p_db dB, when given, and with the other changes."""
    if p_db is not None:
        changes["total_power"] = db_to_linear(p_db)
    return cfg.replace(**changes)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _write_csv(path: str | None, header: list[str], rows: list[list]):
    def dump(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path is None:
        dump(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            dump(fh)


# ---------------------------------------------------------------------------
# commands: each returns (header, items, row, pooled); main maps row over
# items, on spec.workers threads when pooled
# ---------------------------------------------------------------------------

def _sweep(spec, header: list[str], columns, estimate=None):
    """A --p-db command: row idx is [p_db, *columns(cfg, mc_cells)] at the
    idx-th power. mc_cells(*args) is [value, std_error] of estimate(*args,
    samples, seed + idx, threads), or two empty cells when the mode asks for
    no Monte Carlo; the rows share spec.workers threads, and each estimate
    gets an equal share of them, at least 1 (no estimate depends on its
    thread count). Rows go on the pool only when they estimate."""
    want_mc = estimate is not None and spec.mode in ("mc", "both")
    items = list(enumerate(spec.p_db_values))
    mc_workers = max(1, spec.workers // len(items))

    def row(item):
        idx, p_db = item

        def mc_cells(*args):
            if not want_mc:
                return [None, None]
            est = estimate(*args, spec.mc_samples, spec.seed + idx, mc_workers)
            return [est.value, est.std_error]

        return [p_db, *columns(_at(spec.scenario, p_db), mc_cells)]

    return header, items, row, want_mc


def _outage(spec):
    def columns(cfg, mc_cells):
        stats = link_stats(cfg, spec.allocation)
        return [spec.threshold, analytic.outage(spec.threshold, stats, "asymptotic"),
                analytic.outage(spec.threshold, stats, "exact"),
                *mc_cells(stats, spec.threshold)]

    header = ["p_db", "threshold", "outage_asymptotic", "outage_exact",
              "outage_mc", "outage_mc_stderr"]
    return _sweep(spec, header, columns, mc.estimate_outage)


def _ser(spec):
    def columns(cfg, mc_cells):
        stats = link_stats(cfg, spec.allocation)
        series = analytic.ser_series(stats, cfg, spec.n_terms)
        quadrature = analytic.ser_quadrature(stats, cfg)
        floor = analytic.ser_floor(spec.allocation, cfg)
        return [series, quadrature, *mc_cells(stats, cfg), floor]

    header = ["p_db", "ser_series", "ser_quadrature", "ser_mc", "ser_mc_stderr",
              "ser_floor"]
    return _sweep(spec, header, columns, mc.estimate_ser_semianalytic)


def _optimize_1d(spec, objective: str):
    free, fixed, _ = opt._OBJECTIVES[objective]
    held = getattr(spec.allocation, fixed)

    def columns(cfg, _):
        closed = opt.closed_form_result(objective, cfg, held, n_terms=spec.n_terms)
        res = opt.minimize_1d(objective, cfg, held, tol=1e-6, n_terms=spec.n_terms)
        return [getattr(closed.allocation, free), getattr(res.allocation, free),
                closed.ser, res.ser, res.foc_residual, res.iterations]

    # the *_golden names predate the Brent solver and are kept for existing
    # readers of the CSV; they hold the Brent optimum
    header = ["p_db", f"{free}_closed", f"{free}_golden", "ser_closed",
              "ser_golden", "foc_residual", "iterations"]
    return _sweep(spec, header, columns)


def _optimize_joint(spec):
    def columns(cfg, _):
        res = opt.select_joint_optimum(cfg, n_terms=spec.n_terms)
        return [res.allocation.rho_lambda, res.allocation.rho_d, res.ser,
                res.foc_residual, res.method]

    header = ["p_db", "rho_lambda", "rho_d", "ser", "foc_residual", "method"]
    return _sweep(spec, header, columns)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def _points(step: float, ks: range, rsi_grid: bool = True) -> list[tuple]:
    """(step * k, eps) with the RSI grid as the outer loop, or (step * k,)."""
    if not rsi_grid:
        return [(step * k,) for k in ks]
    return [(step * k, eps) for eps in _RSI_GRID for k in ks]


def _figure(spec):
    """Figure data as a table: figure number -> (header, points, columns);
    each CSV row is a point followed by columns(*point). Unstated sweep
    parameters use declared defaults: v=3, BPSK, D=1, RSI grid
    {0, 0.01, 0.1, 0.3}, threshold 1.0. Figure 2 is the only one with Monte
    Carlo columns, and the only one on the pool."""
    base, nt = spec.scenario, spec.n_terms
    want_mc = spec.mode in ("mc", "both")

    def ser(cfg, rho_lambda, rho_d):
        return analytic.ser_series(link_stats(cfg, Allocation(rho_lambda, rho_d)), cfg, nt)

    def brent(kind, cfg):
        return opt.minimize_1d(kind, cfg, 0.5, tol=1e-6, n_terms=nt).ser

    def outage_and_ser(p_db, eps):
        cfg = _at(base, p_db, rsi_level=eps)
        stats = link_stats(cfg, spec.allocation)
        out_mc = ser_mc = None
        if want_mc:
            out_mc = mc.estimate_outage(stats, spec.threshold,
                                        spec.mc_samples, spec.seed).value
            ser_mc = mc.estimate_ser_semianalytic(stats, cfg,
                                                  spec.mc_samples, spec.seed).value
        return [analytic.outage(spec.threshold, stats, "asymptotic"),
                analytic.outage(spec.threshold, stats, "exact"),
                analytic.ser_series(stats, cfg, nt),
                analytic.ser_floor(spec.allocation, cfg), out_mc, ser_mc]

    def schemes(p_db):
        cfg = _at(base, p_db, rsi_level=0.2)
        return [ser(cfg, 0.5, 0.5), brent("location", cfg), brent("power", cfg),
                opt.select_joint_optimum(cfg, n_terms=nt).ser]

    figures = {
        # outage + SER vs power for the RSI grid, symmetric allocation
        2: (["p_db", "rsi_level", "outage_asymptotic", "outage_exact",
             "ser_series", "ser_floor", "outage_mc", "ser_mc"],
            _points(2.0, range(21)), outage_and_ser),
        # optimal ratio curves at P = 10 dB
        3: (["ratio", "rsi_level", "opt_rho_lambda_given_rho_d",
             "opt_rho_d_given_rho_lambda"],
            _points(0.05, range(1, 20)),
            lambda r, eps: [
                opt.optimal_power_closed(_at(base, 10.0, rsi_level=eps), r),
                opt.optimal_location_closed(_at(base, 10.0, rsi_level=eps), r)]),
        # SER vs one ratio, the other fixed at 1/2, at the spec's power
        # (figure 5's power split shows the U shape)
        4: (["rho_d", "rsi_level", "ser_series", "rho_d_closed"],
            _points(0.02, range(1, 50)),
            lambda r, eps: [ser(_at(base, rsi_level=eps), 0.5, r),
                            opt.optimal_location_closed(_at(base, rsi_level=eps), 0.5)]),
        5: (["rho_lambda", "rsi_level", "ser_series", "rho_lambda_closed"],
            _points(0.02, range(1, 50)),
            lambda r, eps: [ser(_at(base, rsi_level=eps), r, 0.5),
                            opt.optimal_power_closed(_at(base, rsi_level=eps), 0.5)]),
        # fixed vs closed-form vs Brent-optimized SER over power
        6: (["p_db", "ser_fixed", "ser_location_closed", "ser_location_golden"],
            _points(5.0, range(9), rsi_grid=False),
            lambda p: [ser(_at(base, p), 0.5, 0.5),
                       analytic.ser_location_optimized(_at(base, p), 0.5),
                       brent("location", _at(base, p))]),
        7: (["p_db", "ser_fixed", "ser_power_closed", "ser_power_golden"],
            _points(5.0, range(9), rsi_grid=False),
            lambda p: [ser(_at(base, p), 0.5, 0.5),
                       analytic.ser_power_optimized(_at(base, p), 0.5),
                       brent("power", _at(base, p))]),
        # scheme comparison at eps = 0.2
        8: (["p_db", "ser_nonoptimized", "ser_location_only", "ser_power_only",
             "ser_joint"],
            _points(5.0, range(13), rsi_grid=False), schemes),
        # SER vs each ratio at P = 10 dB for the RSI grid
        9: (["ratio", "rsi_level", "ser_vs_rho_lambda", "ser_vs_rho_d"],
            _points(0.02, range(1, 50)),
            lambda r, eps: [ser(_at(base, 10.0, rsi_level=eps), r, 0.5),
                            ser(_at(base, 10.0, rsi_level=eps), 0.5, r)]),
    }
    header, points, columns = figures[spec.number]
    return (header, points, lambda point: [*point, *columns(*point)],
            spec.number == 2 and want_mc)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _gap(value: float, ref: float) -> float:
    # |value - ref| relative to ref, or absolute where ref is 0
    return abs(value - ref) / ref if ref > 0 else abs(value)


def _validate(spec):
    """One row per entry (name, check, *args) of the table: check(*args)
    returns (value, tolerance), and the row passes when value <= tolerance,
    against a reference of 0. The checks run on the pool whatever the mode."""
    base = spec.scenario
    alloc = spec.allocation

    def at(p_db: float):
        cfg = _at(base, p_db)
        return cfg, link_stats(cfg, alloc)

    def mc_allowance(est, band: float) -> float:
        return 3.0 * est.std_error + band * est.value

    def cdf_gap(p_db: float, band: float):
        _, stats = at(p_db)
        worst = 0.0
        for x in (0.5, 1.0, 2.0, 4.0):
            asym = analytic.outage(x, stats, "asymptotic")
            exact = analytic.outage(x, stats, "exact")
            worst = max(worst, _gap(asym, exact))
        return worst, band

    def cdf_mc(threshold: float):
        _, stats = at(20.0)
        est = mc.estimate_outage(stats, threshold, spec.mc_samples, spec.seed, workers=1)
        asym = analytic.outage(threshold, stats, "asymptotic")
        return abs(asym - est.value), mc_allowance(est, 0.12)

    def series_vs_quadrature():
        worst = 0.0
        for p_db in (10.0, 20.0, 30.0):
            cfg, stats = at(p_db)
            s = analytic.ser_series(stats, cfg, spec.n_terms)
            q = analytic.ser_quadrature(stats, cfg)
            worst = max(worst, _gap(s, q))
        return worst, 0.01

    def series_vs_mc():
        cfg, stats = at(20.0)
        est = mc.estimate_ser_semianalytic(stats, cfg, spec.mc_samples, spec.seed, workers=1)
        s = analytic.ser_series(stats, cfg, spec.n_terms)
        return abs(s - est.value), mc_allowance(est, 0.05)

    def high_power_vs_quadrature():
        cfg, stats = at(40.0)
        hp = analytic.ser_high_power(stats, cfg)
        q = analytic.ser_quadrature(stats, cfg)
        return _gap(hp, q), 0.02

    def floor_vs_mc():
        cfg, stats = at(60.0)
        est = mc.estimate_ser_semianalytic(stats, cfg, spec.mc_samples, spec.seed, workers=1)
        floor = analytic.ser_floor(alloc, cfg)
        return _gap(est.value, floor), 0.10

    def coeff_taylor():
        worst = 0.0
        for x in (1e-3, 1e-2):
            approx = math.fsum(a * x ** (2 * i) * math.exp(-b * x)
                               for i, (a, b) in enumerate(analytic._COEFF_PAIRS[:3]))
            resid = abs(approx - 1.0 / (1.0 + x))
            worst = max(worst, resid / x**5)
        # the series' first three pairs match the Taylor series through x^5;
        # the x^5 envelope also absorbs double-precision noise at x = 1e-3
        return worst, 1.0

    def optimizer_agreement(kind: str):
        free, fixed, closed_form = opt._OBJECTIVES[kind]
        cfg = _at(base, 40.0)
        held = getattr(alloc, fixed)
        closed = closed_form(cfg, held)
        res = opt.minimize_1d(kind, cfg, held, tol=1e-6, n_terms=spec.n_terms)
        brent = getattr(res.allocation, free)
        return abs(closed - brent), 0.02

    def particular_foc():
        # the symmetric particular solution must be stationary
        cfg = _at(base, 20.0)
        resid = opt._residual(opt._particular_solution(cfg), cfg)
        return resid, 1e-9

    checks = [
        ("cdf_asym_vs_exact_20db", cdf_gap, 20.0, 0.12),
        ("cdf_asym_vs_exact_30db", cdf_gap, 30.0, 0.05),
        ("cdf_asym_vs_mc_x1", cdf_mc, 1.0),
        ("cdf_asym_vs_mc_x4", cdf_mc, 4.0),
        ("ser_series_vs_quadrature", series_vs_quadrature),
        ("ser_series_vs_mc", series_vs_mc),
        ("ser_high_power_vs_quadrature", high_power_vs_quadrature),
        ("ser_floor_vs_mc", floor_vs_mc),
        ("coeff_taylor_residual", coeff_taylor),
        ("optimizer_location_closed_vs_golden", optimizer_agreement, "location"),
        ("optimizer_power_closed_vs_golden", optimizer_agreement, "power"),
        ("joint_particular_foc_residual", particular_foc),
    ]

    def row(check):
        name, run, *args = check
        value, tol = run(*args)
        return [name, value, 0.0, tol, "pass" if value <= tol else "fail"]

    return ["check", "value", "reference", "tolerance", "status"], checks, row, True


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------

_COMMANDS = {
    "outage": _outage,
    "ser": _ser,
    "optimize-location": lambda spec: _optimize_1d(spec, "location"),
    "optimize-power": lambda spec: _optimize_1d(spec, "power"),
    "optimize-joint": _optimize_joint,
    "figure": _figure,
    "validate": _validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = _spec_from_args(args)
        header, items, row, pooled = _COMMANDS[spec.command](spec)
        # numpy releases the GIL inside Monte Carlo rows, so those share a
        # pool; pure-Python analytic rows hold it, where threads only add
        # overhead
        rows = mc.parallel_map(row, items, spec.workers if pooled else 1)
        _write_csv(spec.output, header, rows)
        if spec.command == "validate" and any(r[-1] == "fail" for r in rows):
            return EXIT_VALIDATION
        return EXIT_OK
    except (UsageError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergenceError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint():  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
