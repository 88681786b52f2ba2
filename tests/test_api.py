import json
import os
import subprocess
import sys
import types
from pathlib import Path

import ellipkurt

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_declares_the_public_namespace():
    # ellipkurt.__all__ is the supported API: no name twice, every name
    # resolves, and every public attribute of the package but its
    # submodules is declared.
    names = ellipkurt.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(ellipkurt, name)
    public = {name for name, value in vars(ellipkurt).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)


# Runs in a fresh interpreter: the package, its CLI, one estimate with every
# interval and one pooled AR(1) simulate with interval cells, then reports
# what was loaded (scipy, and the stdlib modules of a future-based thread
# pool), which OpenBLAS files are mapped (None without /proc/self/maps) and
# which library the package drove.
NO_SCIPY_SCRIPT = """
import contextlib, io, json, os, sys
import numpy as np
import ellipkurt, ellipkurt.cli
from ellipkurt import linalg
out = sys.argv[1]
rng = np.random.default_rng(5)
np.savetxt(out + "/x.csv", rng.standard_t(10, size=(40, 4)), delimiter=",")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        ellipkurt.cli.main(["estimate", "--input", out + "/x.csv", "--ci", "all"]),
        ellipkurt.cli.main(["simulate", "--family", "t", "--p", "8", "--reps", "2",
                            "--workers", "2", "--ci-method", "case1", "--ci-method", "case2",
                            "--out-dir", out]),
    ]
print(json.dumps({
    "codes": codes,
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
    "pool": sorted(m for m in ("concurrent.futures", "logging", "queue") if m in sys.modules),
    "reason": linalg.OPENBLAS.reason,
    "held": os.path.realpath(linalg.OPENBLAS.library.path),
    "mapped": sorted({line.split()[-1] for line in open("/proc/self/maps")
                      if "openblas" in line}) if os.path.exists("/proc/self/maps") else None,
}))
"""


def test_import_estimate_and_ar1_simulate_load_no_scipy(tmp_path):
    # scipy is imported only where a dense covariance is whitened or the
    # f2py fallback runs; start-up, estimate and the AR(1) cells need none
    # of it, nor scipy's OpenBLAS: the root and the thread hold both drive
    # numpy's.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["scipy"] == []
    assert report["pool"] == []
    assert report["reason"] is None
    assert Path(report["held"]).parent.name == "numpy.libs"
    if report["mapped"] is not None:
        assert report["held"] in report["mapped"]
        assert not [path for path in report["mapped"] if Path(path).parent.name == "scipy.libs"]
