"""Memory bound of the Monte Carlo estimators: a worker's arrays are drawn and
evaluated in cache-sized blocks, so an estimate of 10**6 samples on 2 threads
adds little to the peak resident set of a process that has already run one
small estimate of each kind.

Runs in a fresh interpreter, since the peak resident set (ru_maxrss) is a
high-water mark of the whole process, which the rest of the suite has long
since raised.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdrelay

pytest.importorskip("resource")

# each pool task allocates its workspace once and runs every block in place
# in it: the outage and SER one block buffer (1 MB), the kernel's scratch for
# half a block (0.5 MB) and the edge weights, beside one 17 kB array of group
# means per estimate; the symbol level one block of uniforms (0.5 MB) and 7
# chain columns (0.4 MB). They raised the mark by 2.9-3.1 MB, all of it in the
# outage (cumulative: 3.8-4.3, 3.8-4.3 and 4.3-5.6 MB in this order with
# block-sized temporaries, 5-6, 7-8 and 7-8 MB with a 1.6 MB array of
# antithetic pair means per chunk); drawing and evaluating whole chunks
# raised it by 5, 23-29 and 96-124 MB
MAX_RISE_MB = 32.0

_SCRIPT = """
import json, resource, sys
import fdrelay as fd
from fdrelay import mc

def mark_mb():
    # ru_maxrss is in kB on Linux, in bytes on macOS
    scale = 2.0 ** 20 if sys.platform == "darwin" else 2.0 ** 10
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / scale

cfg = fd.SystemConfig(total_power=100.0, rsi_level=0.1, pathloss_exp=3.0)
stats = fd.link_stats(cfg, fd.Allocation(0.5, 0.5))
runs = {
    "estimate_outage": lambda n, w: fd.estimate_outage(stats, 1.0, n, 1, workers=w),
    "estimate_ser_semianalytic":
        lambda n, w: fd.estimate_ser_semianalytic(stats, cfg, n, 1, workers=w),
    "estimate_ser_symbol_level":
        lambda n, w: fd.estimate_ser_symbol_level(stats, cfg, n, 1, workers=w),
}
# the smallest estimate each accepts loads numpy, scipy.special and the
# kernels' code paths
for name, run in runs.items():
    run(mc._MIN_SYMBOLS if name == "estimate_ser_symbol_level" else mc._MIN_SAMPLES, 1)
base = mark_mb()
rise = {}
for name, run in runs.items():
    run(10**6, 2)
    rise[name] = mark_mb() - base
print(json.dumps(rise))
"""


@pytest.fixture(scope="module")
def rise_mb():
    env = dict(os.environ)
    src = str(Path(fdrelay.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["estimate_outage", "estimate_ser_semianalytic",
                                  "estimate_ser_symbol_level"])
def test_peak_rss_rise_is_bounded(rise_mb, name):
    # the mark is cumulative: each entry includes the estimators run before it
    assert rise_mb[name] < MAX_RISE_MB, rise_mb
