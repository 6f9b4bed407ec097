"""Golden corpus: SHA-256 digests of every CLI output and of the SER terms.

Each entry of CASES produces bytes: a CSV written by `cli.main` in-process,
or the `repr`s of a library function over a fixed grid or seeded pool. The
digests live in `golden.json` beside this file, together with the Python,
numpy and scipy versions and the platform they were taken on, because the
bytes bind to that toolchain's libm and numpy. tests/test_golden.py checks
every digest.

Check the table, or regenerate it after a change that moves bytes on
purpose (and say in CHANGES.md which digests moved and why):

    python tests/golden.py            # report moved digests, exit 1 if any
    python tests/golden.py --write    # rewrite golden.json
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import random
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).with_name("golden.json")

_SWEEP = "--p-db=-10:60:5"


def _cli_csv(*argv: str) -> bytes:
    """The CSV that `fdrelay argv` writes, run in-process; its exit code is
    part of the bytes."""
    from fdrelay.cli import main

    fd, path = tempfile.mkstemp(suffix=".csv")
    os.close(fd)
    try:
        code = main([*argv, "--output", path])
        return f"exit {code}\n".encode() + Path(path).read_bytes()
    finally:
        os.unlink(path)


def _outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


def _hyp_grid() -> bytes:
    """hyp2f1_complement over every SER term and w from 1e-300 to 1,
    log-spaced, with 1/2 and both of its neighbours."""
    from fdrelay.analytic import MAX_N_TERMS
    from fdrelay.sfun import hyp2f1_complement

    ws = [10.0 ** (-300.0 * k / 499) for k in range(500)]
    ws += [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)]
    lines = [_outcome(hyp2f1_complement, 2 * i + 2.5, 1.5, 2.0 * i + 2.0, w)
             for i in range(MAX_N_TERMS) for w in ws]
    return "\n".join(lines).encode()


def _ser_terms_pool() -> bytes:
    """ser_series_terms over 3 000 seeded scenarios (P -20...100 dB, eps 0
    or log-uniform 1e-4...10, v 1.5...6, ratios 1e-6...1 - 1e-6, BPSK and
    QPSK) at 1, 3 and 10 terms."""
    from fdrelay import Allocation, SystemConfig, link_stats
    from fdrelay.analytic import ser_series_terms

    rng = random.Random(20171)
    lines = []
    for _ in range(3000):
        p_db = rng.uniform(-20.0, 100.0)
        eps = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-4.0, 1.0)
        alpha, beta = rng.choice(((1.0, 2.0), (2.0, 1.0)))
        cfg = SystemConfig(total_power=10.0 ** (p_db / 10.0), rsi_level=eps,
                           pathloss_exp=rng.uniform(1.5, 6.0),
                           alpha_mod=alpha, beta_mod=beta)
        alloc = Allocation(rng.uniform(1e-6, 1.0 - 1e-6), rng.uniform(1e-6, 1.0 - 1e-6))
        stats = link_stats(cfg, alloc)
        lines += [_outcome(ser_series_terms, stats, cfg, n) for n in (1, 3, 10)]
    return "\n".join(lines).encode()


def _cases() -> dict:
    cases = {f"figure-{n}": (lambda n=n: _cli_csv("figure", str(n)))
             for n in range(2, 10)}
    cases["figure-2-both"] = lambda: _cli_csv("figure", "2", "--mode", "both",
                                              "--mc-samples", "10000")
    for command in ("ser", "outage", "optimize-location", "optimize-power",
                    "optimize-joint"):
        for eps in ("0", "0.3"):
            for modulation in ("bpsk", "qpsk"):
                cases[f"{command}-eps{eps}-{modulation}"] = (
                    lambda c=command, e=eps, m=modulation:
                    _cli_csv(c, _SWEEP, "--rsi-level", e, "--modulation", m))
    cases["ser-n-terms-10"] = lambda: _cli_csv("ser", "--n-terms", "10",
                                               "--rsi-level", "1")
    cases["validate"] = lambda: _cli_csv("validate", "--mc-samples", "100000")
    cases["hyp2f1_complement-grid"] = _hyp_grid
    cases["ser_series_terms-pool"] = _ser_terms_pool
    return cases


CASES = _cases()


def digest(name: str) -> str:
    return hashlib.sha256(CASES[name]()).hexdigest()


def toolchain() -> dict:
    import numpy
    import scipy

    libc = "".join(platform.libc_ver())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "platform": f"{platform.system()}-{platform.machine()}-{libc}"}


def load() -> dict:
    return json.loads(TABLE.read_text())


def main(argv: list[str]) -> int:
    write = argv == ["--write"]
    if argv and not write:
        print(__doc__, file=sys.stderr)
        return 1
    old = load()["digests"] if TABLE.exists() else {}
    new = {name: digest(name) for name in CASES}
    moved = sorted(name for name in new.keys() | old.keys()
                   if new.get(name) != old.get(name))
    for name in moved:
        print(f"moved: {name} {old.get(name, '-')[:12]} -> {new.get(name, '-')[:12]}")
    print(f"{len(moved)} of {len(new)} digests moved")
    if write:
        TABLE.write_text(json.dumps({"toolchain": toolchain(), "digests": new},
                                    indent=1, sort_keys=True) + "\n")
        print(f"wrote {TABLE}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
