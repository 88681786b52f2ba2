"""Output checks for the benchmark workloads.

They read what the ``ellipkurt`` CLI printed or wrote and return a list of
problems; an empty list means the output is correct. Expected values are
written out here, independently of the package, so a change to the program
cannot move its own yardstick.
"""

from __future__ import annotations

import math
import re

CSV_HEADER = "family,p,n,method,mean,sd,ecp,avg_width,reps_used,failures"
FAMILIES = ("normal", "kotz", "t", "laplace")
P_LIST = (100, 200, 400, 800, 1600)
N_OBS = 100
T_DOF = 9
FAMILY_CI = {"normal": "example1", "kotz": "kotz", "t": "t", "laplace": "laplace"}
CI_METHODS = ("example1", "kotz", "t", "laplace", "case1", "case2")
# On the t(9) data of estimate-tall only the t interval may be refused: its
# degrees-of-freedom plug-in falls at or below 8 when theta_hat is noisy.
# The other methods' scales are defined for any finite theta_hat > 1.
MAY_BE_UNAVAILABLE = ("t",)

# A mean of R replications may sit this many of its own standard errors from
# the true kurtosis before it is called wrong. Heavy-tailed families skew the
# self-normalized error: over 60 seeds at R=20 it reached -5.5 for the t
# family's theta_hat. Below MIN_BAND_REPS the standard error itself is too
# noisy and the band is not applied.
BAND_SE = 12.0
MIN_BAND_REPS = 10
INVARIANCE_RTOL = 1e-9

_CI_LINE = re.compile(r"^\[(\S+), (\S+)\]  sigma=(\S+)$")


def true_theta(family: str, p: int) -> float:
    """Population kurtosis of each radius family, from the closed forms."""
    if family == "normal":
        return 1.0
    if family == "kotz":
        return (p + 3) / (p + 1)
    if family == "t":
        return (T_DOF - 2) / (T_DOF - 4)
    if family == "laplace":
        return 2.0
    raise ValueError(family)


def _finite(text: str) -> float | None:
    try:
        x = float(text)
    except ValueError:
        return None
    return x if math.isfinite(x) else None


def check_estimate(stdout: str, rc: int, n: int, p: int) -> tuple[list[str], float | None]:
    """Check ``estimate --ci all`` output: the statistics and ``theta`` are
    finite, and each interval method prints a finite interval that contains
    ``theta``, or, for the methods in ``MAY_BE_UNAVAILABLE``, a typed
    ``unavailable`` line. Returns the problems and the parsed ``theta``."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    fields = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key in fields:
            problems.append(f"duplicate line for {key!r}")
        fields[key] = rest.strip()
    for key, want in (("n", n), ("p", p)):
        if fields.get(key) != str(want):
            problems.append(f"{key}: expected {want}, got {fields.get(key)!r}")
    for key in ("t1", "t2", "t3", "theta"):
        if _finite(fields.get(key, "")) is None:
            problems.append(f"{key} is not a finite number: {fields.get(key)!r}")
    theta = _finite(fields.get("theta", ""))
    for m in CI_METHODS:
        text = fields.get(m)
        if text is None:
            problems.append(f"no line for interval {m}")
        elif text.startswith("unavailable: "):
            if m not in MAY_BE_UNAVAILABLE:
                problems.append(f"interval {m} must not be unavailable: {text!r}")
        else:
            match = _CI_LINE.match(text)
            vals = [_finite(v) for v in match.groups()] if match else [None]
            if None in vals:
                problems.append(f"interval {m} is malformed or not finite: {text!r}")
            elif theta is not None and not vals[0] <= theta <= vals[1]:
                problems.append(f"interval {m} does not contain theta: {text!r}")
    return problems, theta


def check_invariance(theta: float | None, theta_moved: float | None) -> list[str]:
    """``theta`` must not change when the data are scaled and shifted."""
    if theta is None or theta_moved is None:
        return ["invariance: theta missing"]
    rel = abs(theta - theta_moved) / max(abs(theta), abs(theta_moved))
    if not rel <= INVARIANCE_RTOL:
        return [f"invariance: theta {theta!r} became {theta_moved!r} (rel {rel:.2e})"]
    return []


def expected_rows(kind: str) -> list[tuple[str, int, str]]:
    """(family, p, method) of every row a desk preset writes, in order."""
    rows = []
    for fam in FAMILIES:
        methods = (("theta_hat", "oracle", "wl_plugin") if kind == "estimation"
                   else (FAMILY_CI[fam], "case1", "case2"))
        for p in P_LIST:
            rows.extend((fam, p, m) for m in methods)
    return rows


def _check_row(row: dict, kind: str, reps: int) -> list[str]:
    fam, p, method = row["family"], int(row["p"]), row["method"]
    where = f"{fam}/p={p}/{method}"
    problems = []
    try:
        used, failed = int(row["reps_used"]), int(row["failures"])
    except ValueError:
        return [f"{where}: reps_used/failures not integers"]
    if row["n"] != str(N_OBS):
        problems.append(f"{where}: n={row['n']}")
    if used + failed != reps or used < 1:
        problems.append(f"{where}: reps_used {used} + failures {failed} != {reps}")
        return problems
    mean, sd = _finite(row["mean"]), _finite(row["sd"])
    if mean is None or sd is None or sd < 0:
        return problems + [f"{where}: mean/sd not finite: {row['mean']!r}, {row['sd']!r}"]
    if kind == "coverage":
        # Every scale but case2's is positive by construction; case2's
        # plug-in variance is clamped to zero when it comes out negative.
        ecp, width = _finite(row["ecp"]), _finite(row["avg_width"])
        width_ok = width is not None and (width > 0.0 or method == "case2" and width == 0.0)
        if ecp is None or not 0.0 <= ecp <= 1.0 or not width_ok:
            problems.append(f"{where}: ecp {row['ecp']!r} / avg_width {row['avg_width']!r} "
                            "out of range")
    # The band holds for the plain point estimates; a coverage row with
    # failures averages only the replications its interval accepted.
    banded = method in ("theta_hat", "oracle") if kind == "estimation" else failed == 0
    if banded and reps >= MIN_BAND_REPS:
        theta = true_theta(fam, p)
        half = BAND_SE * sd / math.sqrt(used)
        if not abs(mean - theta) <= half:
            problems.append(
                f"{where}: mean {mean} outside {theta:.6g} +- {half:.3g} (sd {sd}, R {used})"
            )
    return problems


def check_table(text: str, kind: str, reps: int) -> tuple[int, int, list[str], int]:
    """Check a preset's CSV. Returns (rows checked, rows failed, problems,
    sum of the ``failures`` column)."""
    want = expected_rows(kind)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return len(want), len(want), [f"header {lines[:1]!r} != {CSV_HEADER!r}"], 0
    keys = CSV_HEADER.split(",")
    rows = {}
    problems = []
    for line in lines[1:]:
        vals = line.split(",")
        if len(vals) != len(keys):
            problems.append(f"malformed row {line!r}")
            continue
        row = dict(zip(keys, vals))
        rows[(row["family"], row["p"], row["method"])] = row
    bad = 0
    rep_failures = 0
    for fam, p, method in want:
        row = rows.pop((fam, str(p), method), None)
        found = [f"{fam}/p={p}/{method}: missing"] if row is None else _check_row(row, kind, reps)
        if row is not None and row["failures"].isdigit():
            rep_failures += int(row["failures"])
        if found:
            bad += 1
            problems.extend(found)
    if rows:
        problems.append(f"unexpected rows {sorted(rows)}")
        bad += len(rows)
    return len(want) + len(rows), bad, problems, rep_failures
