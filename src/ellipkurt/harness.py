"""Deterministic simulation experiments.

Reproduces the estimation study (point-estimate means and SDs) and the
coverage study (empirical coverage probability and average interval width)
at configurable desk scale, writing CSV summaries. Both studies run on one
replication path (:func:`_replication`): replication r of a cell (config,
p) draws its sample once, builds one centered Gram summary and one
theta_hat, and hands them to every estimator and interval the config asks
for, so a config with both ``methods`` and ``ci_methods`` draws each
replication once and gives rows for both studies.

Reproducibility contract
------------------------
Replication r of a cell (family, p) draws from a generator seeded with
SeedSequence([master_seed, family_code, p, r]). Streams therefore do not
depend on execution order, adding replications leaves earlier ones
unchanged, and aggregation folds results in replication order with exact
(fsum) accumulation, so output CSVs are bit-identical no matter how many
worker threads run the replications.

Worker threads
--------------
A ``simulate`` call runs the replications of all of its experiments on one
pool of ``workers`` threads (:func:`run_experiments`); ``simulate``
defaults to the cores this process may use (:func:`usable_cores`). The
pool is that many plain threads, no more than there are replications, and
no future or queue per replication (:func:`_thread_map`): each thread
takes the next replication from one shared counter and stores its result
in that replication's slot, and the caller waits for the threads to end.
The first replication that raises stops the others from taking more, and
the caller re-raises its exception. The pool takes its tasks in
replication-major order: replication 0 of every cell (config, p), then
replication 1, and so on. Small-p replications are mostly
interpreter work, which holds the interpreter lock, while large-p
ones spend their time in the generator, in numpy's array loops and Gram
products, and in the AR(1) root's LAPACK solve, all of which release it
(the root calls numpy's OpenBLAS through ``ctypes``,
:data:`ellipkurt.linalg.OPENBLAS`; its numpy fallback, where that library
lacks the routine, holds the lock between columns). So threads that
run at the same moment mix the two kinds and both cores stay busy; a pool
per cell or per experiment would run the small-p cells alone. While the
pool runs, numpy's OpenBLAS, the one BLAS that a replication of an AR(1)
cell calls, is held at one thread (``OPENBLAS.one_thread``): at these
matrix sizes its own threads buy nothing and would compete with the
pool for the same cores. One worker is one such thread too: its own
malloc arena keeps the pages that the main thread's would give back and
fault in again for every replication.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import warnings
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .baselines import oracle_theta, wl_theta
from .errors import EllipkurtError, InvalidParameterError, SchemaError
from .inference import CiMethod, confidence_interval, plugin_moments_case2, z_quantile
from .linalg import AR1, OPENBLAS, _check_ar1, _is_int, centered_gram
from .models import FAMILY_LAWS, FAMILY_NAMES, EllipticalSpec, XiLaw, make_law, sample_data
from .ustat import theta_hat, ustats_fast

DEFAULT_SEED = 20240811

ESTIMATOR_NAMES = ("theta_hat", "oracle", "wl_plugin")
CI_NAMES = tuple(m.value for m in CiMethod)

FamilySpec = Union[str, Callable[[int], XiLaw]]


def _require_int(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer raises."""
    if not _is_int(value):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_tuple(name: str, value) -> tuple:
    """``value`` as a tuple; a value that is not iterable raises."""
    try:
        return tuple(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be a sequence, got {value!r}") from None


def check_seed(seed) -> int:
    """``seed`` as an int; a non-integer or a negative seed raises
    :class:`InvalidParameterError`."""
    seed = _require_int("seed", seed)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return seed


@dataclass
class ExperimentConfig:
    """Grid description for one family across several dimensions.

    ``family`` is a name in :data:`ellipkurt.models.FAMILY_NAMES` or a
    callable mapping a dimension p to a squared-radius law (used for
    custom laws in tests). ``n``, ``reps``, ``seed`` and every p must be
    integers.
    """

    family: FamilySpec
    p_list: tuple[int, ...]
    n: int = 100
    reps: int = 200
    alpha: float = 0.05
    seed: int = DEFAULT_SEED
    methods: tuple[str, ...] = ESTIMATOR_NAMES
    ci_methods: tuple[str, ...] = ()
    rho: float = 0.5

    def __post_init__(self):
        if not (isinstance(self.family, str) and self.family in FAMILY_NAMES
                or callable(self.family)):
            raise InvalidParameterError(
                f"family must be one of {FAMILY_NAMES} or a callable, got {self.family!r}"
            )
        for name in ("n", "reps"):
            _require_int(name, getattr(self, name))
        check_seed(self.seed)
        self.p_list = tuple(_require_int("p", p) for p in _as_tuple("p_list", self.p_list))
        self.methods = _as_tuple("methods", self.methods)
        self.ci_methods = _as_tuple("ci_methods", self.ci_methods)
        if not self.p_list:
            raise InvalidParameterError("p_list must be nonempty")
        if self.reps < 1:
            raise InvalidParameterError(f"reps must be >= 1, got {self.reps}")
        z_quantile(self.alpha)  # the intervals' own check: 0 < alpha < 1
        if self.n < 4:
            raise InvalidParameterError(f"n must be >= 4, got {self.n}")
        if not (self.methods or self.ci_methods):
            raise InvalidParameterError("methods and ci_methods are both empty: nothing to run")
        unknown = [m for m in self.methods if m not in ESTIMATOR_NAMES]
        if unknown:
            raise InvalidParameterError(
                f"unknown estimator methods {unknown}; expected subset of {ESTIMATOR_NAMES}"
            )
        unknown = [m for m in self.ci_methods if m not in CI_NAMES]
        if unknown:
            raise InvalidParameterError(
                f"unknown ci methods {unknown}; expected subset of {CI_NAMES}"
            )
        for p in self.p_list:
            _check_ar1(p, self.rho)

    @property
    def family_name(self) -> str:
        if isinstance(self.family, str):
            return self.family
        return getattr(self.family, "__name__", "custom")


@dataclass(frozen=True)
class SummaryRow:
    """One aggregated cell of an experiment.

    ``ecp`` and ``avg_width`` are None for estimation runs. ``mean`` and
    ``sd`` are None when every replication failed.
    """

    family: str
    p: int
    n: int
    method: str
    mean: float | None
    sd: float | None
    ecp: float | None
    avg_width: float | None
    reps_used: int
    failures: int


CSV_HEADER = "family,p,n,method,mean,sd,ecp,avg_width,reps_used,failures"


def _family_code(cfg: ExperimentConfig) -> int:
    # A shipped family's index keeps its substreams fixed; other names hash.
    name = cfg.family_name
    return FAMILY_NAMES.index(name) if name in FAMILY_NAMES else zlib.crc32(name.encode())


def replication_rng(seed: int, family_code: int, p: int, rep: int) -> np.random.Generator:
    """Independent generator for one replication, derived order-free from
    (master seed, family code, dimension, replication index), each a
    nonnegative integer. Any other part, a bool or a float among them,
    raises :class:`InvalidParameterError` rather than alias another
    integer's stream."""
    parts = (seed, family_code, p, rep)
    if not all(map(_is_int, parts)):
        raise InvalidParameterError(f"replication seed parts must be integers, got {parts!r}")
    try:
        ss = np.random.SeedSequence(entropy=[int(part) for part in parts])
    except ValueError as exc:
        raise InvalidParameterError(f"replication seed parts: {exc}") from exc
    return np.random.default_rng(ss)


def _mean_sd(values: list[float]) -> tuple[float | None, float | None]:
    """Mean and SD (divisor k - 1) with order-independent summation."""
    k = len(values)
    if k == 0:
        return None, None
    mean = math.fsum(values) / k
    if k == 1:
        warnings.warn(
            "aggregate over a single replication; SD reported as 0",
            RuntimeWarning,
            stacklevel=2,
        )
        return mean, 0.0
    sd = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (k - 1))
    return mean, sd


def usable_cores() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def check_workers(workers: int) -> None:
    """Raise :class:`InvalidParameterError` unless ``workers`` is an
    integer >= 1."""
    if _require_int("workers", workers) < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")


def _thread_map(threads: int, fn: Callable, items) -> list:
    """``list(map(fn, items))``, run by ``threads`` worker threads.

    Each worker takes the next index from one shared ``range`` iterator
    (``next`` on it is atomic under the interpreter lock) and stores its
    result at that index, so the results are in item order. The first
    exception from any worker makes every worker stop taking items, and
    the caller re-raises it once all of them have stopped. An interrupt
    of the wait stops them too, and is re-raised at once.
    """
    items = list(items)
    results = [None] * len(items)
    indices = iter(range(len(items)))
    errors: list[BaseException] = []

    def work() -> None:
        for i in indices:
            if errors:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                errors.append(exc)
                return

    pool = [threading.Thread(target=work, name=f"ellipkurt-replication-{k}")
            for k in range(threads)]
    for thread in pool:
        thread.start()
    try:
        for thread in pool:
            thread.join()
    except BaseException as exc:
        errors.append(exc)
        raise
    if errors:
        raise errors[0]
    return results


def _cell_spec(cfg: ExperimentConfig, p: int) -> EllipticalSpec:
    """The model of cell (family, p): zero location, AR(1) covariance with
    ``cfg.rho``, never formed as a matrix, and the family's radius law."""
    law = make_law(cfg.family, p) if isinstance(cfg.family, str) else cfg.family(p)
    return EllipticalSpec.create(np.zeros(p), AR1(p, cfg.rho), law)


@dataclass(frozen=True)
class _Cell:
    """One cell (config, p) of an experiment: ``run(rep)`` runs replication
    ``rep``, and ``summarize`` folds the results of replications
    0..reps-1, in that order, into the cell's estimation rows and coverage
    rows."""

    reps: int
    run: Callable[[int], dict]
    summarize: Callable[[list[dict]], tuple[list[SummaryRow], list[SummaryRow]]]


def _run_cells(cells: list[_Cell], workers: int) -> list:
    """The summaries of every cell, cells in order, from one
    :func:`_thread_map` over all of their replications in replication-major
    order, run under one OpenBLAS hold. Fresh threads per cell took fresh
    malloc arenas and made peak RSS vary by up to 4 MB from run to run."""
    check_workers(workers)
    order = [(i, rep) for rep in range(max((c.reps for c in cells), default=0))
             for i, cell in enumerate(cells) if rep < cell.reps]
    with OPENBLAS.one_thread():
        results = _thread_map(min(workers, len(order)),
                              lambda task: cells[task[0]].run(task[1]), order)
    per_cell: list[list[dict]] = [[] for _ in cells]
    for (i, _), result in zip(order, results):
        per_cell[i].append(result)
    return [cell.summarize(res) for cell, res in zip(cells, per_cell)]


def _or_none(fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, or None where it raises an
    :class:`EllipkurtError`: a failed replication step."""
    try:
        return fn(*args, **kwargs)
    except EllipkurtError:
        return None


def _replication(cfg: ExperimentConfig, p: int, spec: EllipticalSpec,
                 fam_code: int) -> Callable[[int], dict]:
    """Replication ``rep`` of cell (cfg, p) as a function of ``rep``.

    It draws the sample once and runs each statistic once: every estimator
    of ``cfg.methods`` and every interval of ``cfg.ci_methods`` reads the
    same sample, the same centered Gram summary and the same theta_hat.
    The result maps each estimator to its value and each interval to
    (theta_hat, lower, upper), with None for one that failed. A failed
    draw fails everything; a failed Gram summary fails all but the oracle,
    which reads the raw sample first; a failed theta_hat fails every
    interval; a failed case-2 plug-in fails only ``case2``.
    """
    need_gram = bool(cfg.ci_methods) or any(m != "oracle" for m in cfg.methods)
    need_theta = "theta_hat" in cfg.methods or bool(cfg.ci_methods)

    def run(rep: int) -> dict:
        rng = replication_rng(cfg.seed, fam_code, p, rep)
        out = dict.fromkeys((*cfg.methods, *cfg.ci_methods))  # None: failed
        X = _or_none(sample_data, spec, cfg.n, rng)
        if X is None:
            return out
        if "oracle" in cfg.methods:
            out["oracle"] = _or_none(oracle_theta, X, spec.mu, spec.sigma)
        # Nothing reads the raw sample after the summary, which centers it in place.
        cg = _or_none(centered_gram, X, overwrite_x=True) if need_gram else None
        if cg is None:
            return out
        est = _or_none(lambda: theta_hat(ustats_fast(cg))) if need_theta else None
        if "theta_hat" in cfg.methods and est is not None:
            out["theta_hat"] = est.theta_hat
        if "wl_plugin" in cfg.methods:
            out["wl_plugin"] = _or_none(wl_theta, cg)
        if est is None:
            return out
        plugin = _or_none(plugin_moments_case2, cg) if "case2" in cfg.ci_methods else None
        for m in cfg.ci_methods:
            ci = _or_none(confidence_interval, est, m, cfg.alpha, plugin=plugin)
            out[m] = None if ci is None else (est.theta_hat, ci.lower, ci.upper)
        return out

    return run


def _estimation_rows(cfg: ExperimentConfig, p: int, results: list[dict]) -> list[SummaryRow]:
    """Per estimator, mean and SD over the replications of cell p. Failed
    replications are counted and excluded."""
    rows = []
    for m in cfg.methods:
        values = [r[m] for r in results if r[m] is not None]
        mean, sd = _mean_sd(values)
        rows.append(
            SummaryRow(
                family=cfg.family_name,
                p=p,
                n=cfg.n,
                method=m,
                mean=mean,
                sd=sd,
                ecp=None,
                avg_width=None,
                reps_used=len(values),
                failures=cfg.reps - len(values),
            )
        )
    return rows


def _coverage_rows(cfg: ExperimentConfig, p: int, theta0: float,
                   results: list[dict]) -> list[SummaryRow]:
    """Per CI method, empirical coverage of the true kurtosis ``theta0`` and
    average interval width over the replications of cell p; the mean/sd
    columns aggregate the point estimate over the method's successful
    replications."""
    rows = []
    for m in cfg.ci_methods:
        oks = [r[m] for r in results if r[m] is not None]
        thetas = [v[0] for v in oks]
        covered = sum(1 for v in oks if v[1] <= theta0 <= v[2])
        widths = [v[2] - v[1] for v in oks]
        mean, sd = _mean_sd(thetas)
        rows.append(
            SummaryRow(
                family=cfg.family_name,
                p=p,
                n=cfg.n,
                method=str(CiMethod(m).value),
                mean=mean,
                sd=sd,
                ecp=covered / len(oks) if oks else None,
                avg_width=math.fsum(widths) / len(widths) if widths else None,
                reps_used=len(oks),
                failures=cfg.reps - len(oks),
            )
        )
    return rows


def _cells(cfg: ExperimentConfig) -> list[_Cell]:
    """One cell per dimension of ``cfg``; each folds its replications into
    the estimation rows and the coverage rows of that dimension."""
    fam_code = _family_code(cfg)
    cells = []
    for p in cfg.p_list:
        spec = _cell_spec(cfg, p)
        theta0 = spec.xi.theta() if cfg.ci_methods else None
        cells.append(_Cell(cfg.reps, _replication(cfg, p, spec, fam_code),
                           partial(_cell_rows, cfg, p, theta0)))
    return cells


def _cell_rows(cfg: ExperimentConfig, p: int, theta0: float | None,
               results: list[dict]) -> tuple[list[SummaryRow], list[SummaryRow]]:
    return _estimation_rows(cfg, p, results), _coverage_rows(cfg, p, theta0, results)


def run_experiments(
    configs: list[ExperimentConfig], workers: int = 1
) -> tuple[list[SummaryRow], list[SummaryRow]]:
    """The estimation rows of every config with ``methods`` and the
    coverage rows of every config with ``ci_methods``, each in config and
    then p order, from one pool of ``min(workers, replications)`` threads
    over all of their cells."""
    rows = _run_cells([cell for cfg in configs for cell in _cells(cfg)], workers)
    return [r for est, _ in rows for r in est], [r for _, cov in rows for r in cov]


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.6g}"


def summarize_to_csv(rows: list[SummaryRow], path) -> None:
    """Write summary rows with the fixed header; floats carry 6 significant
    digits, ints are verbatim, missing aggregates are empty fields."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    r.family,
                    str(r.p),
                    str(r.n),
                    r.method,
                    _fmt(r.mean),
                    _fmt(r.sd),
                    _fmt(r.ecp),
                    _fmt(r.avg_width),
                    str(r.reps_used),
                    str(r.failures),
                ]
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def load_config(source) -> ExperimentConfig:
    """Build a config from a JSON file (a ``str``, ``bytes`` or
    ``os.PathLike`` path, or an open file) or an already-parsed mapping.

    Keys mirror the ExperimentConfig field names; unknown keys are
    rejected so typos cannot silently fall back to defaults. A file that
    cannot be read, or is not UTF-8 JSON, raises :class:`SchemaError`.
    """
    if isinstance(source, (str, bytes, os.PathLike)) or hasattr(source, "read"):
        try:
            if hasattr(source, "read"):
                doc = json.load(source)
            else:
                with open(source, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except OSError as exc:
            raise SchemaError(f"{source}: cannot read config: {exc.strerror or exc}") from exc
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise SchemaError(f"{source}: not a JSON config: {exc}") from exc
    else:
        doc = source
    if not isinstance(doc, dict):
        raise SchemaError(f"config must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _CONFIG_FIELDS)
    if unknown:
        raise SchemaError(f"unknown config keys: {', '.join(unknown)}")
    if "family" not in doc or "p_list" not in doc:
        missing = [k for k in ("family", "p_list") if k not in doc]
        raise SchemaError(f"missing required config keys: {', '.join(missing)}")
    try:
        return ExperimentConfig(**doc)
    except (TypeError, InvalidParameterError) as exc:
        raise SchemaError(f"invalid config: {exc}") from exc


_DESK_P_LIST = (100, 200, 400, 800, 1600)


def preset_table1_desk(seed: int = DEFAULT_SEED, reps: int = 200) -> list[ExperimentConfig]:
    """Estimation study over all four families at the full dimension grid."""
    return [
        ExperimentConfig(family=fam, p_list=_DESK_P_LIST, n=100, reps=reps, seed=seed)
        for fam in FAMILY_NAMES
    ]


def preset_table2_desk(seed: int = DEFAULT_SEED, reps: int = 500) -> list[ExperimentConfig]:
    """Coverage study: family-specific interval plus both generic plug-ins."""
    return [
        ExperimentConfig(
            family=fam,
            p_list=_DESK_P_LIST,
            n=100,
            reps=reps,
            seed=seed,
            methods=(),
            ci_methods=(law.interval, "case1", "case2"),
        )
        for fam, law in FAMILY_LAWS.items()
    ]
