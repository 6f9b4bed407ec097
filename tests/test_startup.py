"""Start-up cost: commands without Monte Carlo must not import numpy or scipy.

Runs in a fresh interpreter, since the rest of the suite has long since
loaded both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fdrelay

_SCRIPT = """
import json, os, sys
import fdrelay, fdrelay.cli
from fdrelay import analytic, estimate_outage

def state():
    return {name: name in sys.modules
            for name in ("numpy", "scipy", "scipy.integrate", "fdrelay.mc")}

out = {"import": state()}
for argv in (["figure", "4"], ["optimize-joint", "--p-db", "0:60:5"],
             ["ser", "--p-db", "0:60:5"], ["outage", "--p-db", "0:60:5"],
             ["figure", "2"], ["validate", "--mc-samples", "20000"]):
    assert fdrelay.cli.main(argv + ["--output", os.devnull]) in (0, 2), argv
    out[" ".join(argv[:2])] = state()
# bulk integration moves on to scipy's compiled QUADPACK
stats = fdrelay.link_stats(fdrelay.SystemConfig(100.0, 0.1, 3.0),
                           fdrelay.Allocation(0.5, 0.5))
for k in range(analytic._COMPILED_AFTER):
    analytic.sinr_cdf_exact_numeric(1.0 + k / 100, stats)
out["bulk"] = state()
print(json.dumps(out))
"""


def test_closed_form_commands_load_neither_numpy_nor_scipy():
    env = dict(os.environ)
    src = str(Path(fdrelay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    states = json.loads(proc.stdout.splitlines()[-1])
    # the quadrature columns of `ser`, `outage` and `figure 2` run on the
    # pure-Python QUADPACK port
    for step in ("import", "figure 4", "optimize-joint --p-db", "ser --p-db",
                 "outage --p-db", "figure 2"):
        assert states[step] == {"numpy": False, "scipy": False, "scipy.integrate": False,
                                "fdrelay.mc": True}, step
    # validate's Monte Carlo checks need numpy and scipy.special, but its
    # quadrature still does not load scipy.integrate
    assert states["validate --mc-samples"]["numpy"]
    assert not states["validate --mc-samples"]["scipy.integrate"]
    assert states["bulk"]["scipy.integrate"]
