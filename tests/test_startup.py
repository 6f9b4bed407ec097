"""Start-up cost: commands without Monte Carlo must not import numpy, no
command imports scipy, and the SER series builds its log-series tables only
when first used.

Runs in a fresh interpreter, since the rest of the suite has long since
loaded both and filled the tables.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdrelay
from fdrelay import sfun

_SCRIPT = """
import json, os, sys
before = set(sys.modules)
import fdrelay, fdrelay.cli
from fdrelay import analytic, estimate_outage, sfun

def new(names):
    return sorted(n for n in names if n in sys.modules and n not in before)

loaded = {"import": new(("dataclasses", "inspect", "logging", "fractions", "decimal",
                         "concurrent.futures", "typing", "pathlib"))}

def state():
    return {name: name in sys.modules
            for name in ("numpy", "scipy", "scipy.integrate", "fdrelay.mc")}

def tables():
    return [len(t.rows) for t in sfun._log_tables.values()]

out = {"import": state()}
rows = {"import": tables()}
def run(argv):
    assert fdrelay.cli.main(argv + ["--output", os.devnull]) in (0, 2), argv
    out[" ".join(argv[:2])] = state()
    rows[" ".join(argv[:2])] = tables()
    loaded[" ".join(argv[:2])] = new(("concurrent.futures", "logging", "fractions",
                                      "decimal"))

for argv in (["figure", "4"], ["optimize-joint", "--p-db", "0:60:5"],
             ["ser", "--p-db", "0:60:5"], ["outage", "--p-db", "0:60:5"],
             ["figure", "2"]):
    run(argv)
# bulk integration stays on the standard library
cfg = fdrelay.SystemConfig(100.0, 0.1, 3.0)
stats = fdrelay.link_stats(cfg, fdrelay.Allocation(0.5, 0.5))
for k in range(300):
    analytic.sinr_cdf_exact_numeric(1.0 + k / 100, stats)
for k in range(10):
    analytic.ser_quadrature(stats, cfg)
out["bulk"] = state()
# the Monte Carlo commands, keyed by their first word
mc = {}
for argv in (["ser", "--p-db", "0:30:10", "--mode", "both", "--mc-samples", "20000"],
             ["outage", "--p-db", "0:30:10", "--mode", "both", "--mc-samples", "20000"],
             ["figure", "2", "--mode", "both", "--mc-samples", "20000"]):
    assert fdrelay.cli.main(argv + ["--output", os.devnull]) == 0, argv
    mc[argv[0]] = state()
out["mc"] = mc
run(["validate", "--mc-samples", "20000"])
out["tables"] = rows
out["loaded"] = loaded
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def fresh_run():
    env = dict(os.environ)
    src = str(Path(fdrelay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_closed_form_commands_load_neither_numpy_nor_scipy(fresh_run):
    states = fresh_run
    # the quadrature columns of `ser`, `outage` and `figure 2`, and any
    # number of integrals after them, run on the standard library alone
    for step in ("import", "figure 4", "optimize-joint --p-db", "ser --p-db",
                 "outage --p-db", "figure 2", "bulk"):
        assert states[step] == {"numpy": False, "scipy": False, "scipy.integrate": False,
                                "fdrelay.mc": True}, step
    # the Monte Carlo columns and validate's checks need numpy, and no
    # command loads scipy: the SER's threshold is drawn without ndtri
    for step, state in [*states["mc"].items(), ("validate", states["validate --mc-samples"])]:
        assert state == {"numpy": True, "scipy": False, "scipy.integrate": False,
                         "fdrelay.mc": True}, step


def test_series_tables_are_built_on_demand(fresh_run):
    tables = fresh_run["tables"]
    # importing builds nothing
    assert tables["import"] == []
    # the three default terms each have one table, built whole on first use
    for step in ("figure 4", "ser --p-db"):
        assert len(tables[step]) == 3, step
        assert all(n == sfun._LOG_ROWS for n in tables[step]), step


def test_import_loads_only_what_commands_use(fresh_run):
    loaded = fresh_run["loaded"]
    # none of these is imported by `import fdrelay, fdrelay.cli`
    assert loaded["import"] == []
    # at one worker no thread pool starts, no series was clamped, and the
    # series' coefficients come from a float table, not from fractions
    for step in ("figure 4", "optimize-joint --p-db", "ser --p-db", "outage --p-db",
                 "figure 2"):
        assert loaded[step] == [], step
    # validate's Taylor check reads the same float table
    assert not {"fractions", "decimal"} & set(loaded["validate --mc-samples"])
