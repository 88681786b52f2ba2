"""The benchmark's workloads, each a closed loop with one caller that drives
the public CLI (``ellipkurt.cli.main``) in-process.

* ``estimate-tall``: ``estimate --ci all`` on a fresh n=1000, p=100 data set
  per call: the analyst's path, and the large-n regime of the statistics.
* ``table1-desk``: ``simulate --preset table1-desk`` at a fixed reduced R:
  the estimation study (covariance set-up, sampling, baselines).
* ``table2-desk``: ``simulate --preset table2-desk`` at the same R: the
  coverage study (intervals and case-2 plug-in moments).

Every input derives from the run seed and the call index, so a seed names
the same inputs on every commit.
"""

from __future__ import annotations

import contextlib
import io
import time
import traceback
from pathlib import Path

import numpy as np

import checks


def _invoke(main, argv: list[str]) -> tuple[int, str, float]:
    """Run ``main(argv)`` with stdout captured; return (exit code, stdout,
    seconds). An exception escaping the CLI is returned as exit code -1."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception:
            rc = -1
            buf.write("\nraised " + traceback.format_exc(limit=3))
        seconds = time.perf_counter() - t0
    return rc, buf.getvalue(), seconds


class Workload:
    name = ""
    reps_per_call = 1
    warm_up = False  # make one untimed call before timing

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rep_failures = 0

    def prepare(self) -> None:
        """Build inputs shared by all calls (not timed as set-up)."""

    def call(self, k: int, main, extra_checks: bool = True) -> float:
        """Run call ``k`` through ``main``, check its output, and return the
        latency of the ``main`` call in seconds."""
        raise NotImplementedError

    def _record(self, attempted: int, failed: int, problems: list[str]) -> None:
        self.calls += 1
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def provenance(self) -> dict:
        return {}


class EstimateTall(Workload):
    name = "estimate-tall"
    N, P, DOF, RHO = 1000, 100, 9, 0.5
    POOL = 4000  # rows drawn once; each call takes a fresh subset of N
    INVARIANCE_EVERY = 10
    warm_up = True

    def prepare(self) -> None:
        # Multivariate t with AR(1) scale, from plain numpy so that changes to
        # the package's samplers cannot change the input.
        rng = np.random.default_rng([self.seed, 0])
        idx = np.arange(self.P)
        L = np.linalg.cholesky(self.RHO ** np.abs(np.subtract.outer(idx, idx)))
        Z = rng.standard_normal((self.POOL, self.P)) @ L.T
        w = rng.chisquare(self.DOF, self.POOL) / self.DOF
        self.pool = Z / np.sqrt(w)[:, None]
        self.rows = [",".join(map(repr, r)) for r in self.pool.tolist()]

    def _write(self, path: Path, lines) -> str:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def call(self, k: int, main, extra_checks: bool = True) -> float:
        rng = np.random.default_rng([self.seed, 1, k])
        pick = rng.choice(self.POOL, self.N, replace=False)
        path = self._write(self.out_dir / "data.csv", (self.rows[i] for i in pick))
        rc, out, seconds = _invoke(main, ["estimate", "--input", path, "--ci", "all"])
        problems, theta = checks.check_estimate(out, rc, self.N, self.P)
        if extra_checks and not problems and k % self.INVARIANCE_EVERY == 1:
            # Criterion-6 invariance: power-of-two scale and a random shift.
            X = self.pool[pick] * 2.0 ** int(rng.integers(-3, 4)) + rng.normal(size=self.P) * 50
            moved = self._write(self.out_dir / "moved.csv",
                                (",".join(map(repr, r)) for r in X.tolist()))
            rc2, out2, _ = _invoke(main, ["estimate", "--input", moved, "--ci", "all"])
            more, theta2 = checks.check_estimate(out2, rc2, self.N, self.P)
            problems += more or checks.check_invariance(theta, theta2)
        self._record(1, 1 if problems else 0, [f"call {k}: {p}" for p in problems])
        return seconds

    def provenance(self) -> dict:
        return {"n": self.N, "p": self.P, "dof": self.DOF, "rho": self.RHO,
                "pool_rows": self.POOL, "invariance_every": self.INVARIANCE_EVERY}


class DeskTable(Workload):
    preset = ""
    kind = ""
    REPS = 20

    def __init__(self, seed: int, out_dir: Path, reps: int | None = None):
        super().__init__(seed, out_dir)
        self.reps = reps or self.REPS
        self.reps_per_call = len(checks.FAMILIES) * len(checks.P_LIST) * self.reps

    def call(self, k: int, main, extra_checks: bool = True) -> float:
        call_seed = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        csv = self.out_dir / f"{self.kind}.csv"
        csv.unlink(missing_ok=True)
        rc, out, seconds = _invoke(main, [
            "simulate", "--preset", self.preset, "--reps", str(self.reps),
            "--seed", str(call_seed), "--out-dir", str(self.out_dir),
        ])
        text = csv.read_text(encoding="utf-8") if csv.exists() else ""
        rows, bad, problems, rep_failures = checks.check_table(text, self.kind, self.reps)
        if rc != 0:
            bad, problems = rows, problems + [f"exit code {rc}: {out[-300:]!r}"]
        self.rep_failures += rep_failures
        self._record(rows, bad, [f"call {k} (seed {call_seed}): {p}" for p in problems])
        return seconds

    def provenance(self) -> dict:
        return {"preset": self.preset, "reps": self.reps, "n": checks.N_OBS,
                "p_list": list(checks.P_LIST)}


class Table1Desk(DeskTable):
    name = "table1-desk"
    preset = "table1-desk"
    kind = "estimation"


class Table2Desk(DeskTable):
    name = "table2-desk"
    preset = "table2-desk"
    kind = "coverage"


WORKLOADS = {w.name: w for w in (EstimateTall, Table1Desk, Table2Desk)}
