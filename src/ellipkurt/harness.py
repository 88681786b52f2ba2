"""Deterministic simulation experiments.

Reproduces the estimation study (point-estimate means and SDs) and the
coverage study (empirical coverage probability and average interval width)
at configurable desk scale, writing CSV summaries.

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
The replications of an experiment run on one pool of ``workers`` threads;
``simulate`` defaults to the cores this process may use
(:func:`usable_cores`). Sampling and the
Gram products spend their time in numpy and LAPACK calls that release the
interpreter lock, so replications overlap. While a pool runs, OpenBLAS is
held at one thread (:data:`ellipkurt.linalg.BLAS_LIMIT`): at these matrix
sizes its own threads buy nothing and would compete with the pool for the
same cores. A serial run leaves OpenBLAS as it is.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
import zlib
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .baselines import oracle_theta, wl_theta
from .errors import EllipkurtError, InvalidParameterError, SchemaError
from .inference import CiMethod, confidence_interval, plugin_moments_case2
from .linalg import AR1, BLAS_LIMIT, _check_ar1, centered_gram
from .models import EllipticalSpec, XiLaw, make_law, sample_data, true_theta
from .ustat import theta_hat, ustats_fast

__all__ = [
    "ExperimentConfig",
    "SummaryRow",
    "CSV_HEADER",
    "ESTIMATOR_NAMES",
    "replication_rng",
    "run_estimation_experiment",
    "run_coverage_experiment",
    "summarize_to_csv",
    "load_config",
    "preset_table1_desk",
    "preset_table2_desk",
]

DEFAULT_SEED = 20240811

ESTIMATOR_NAMES = ("theta_hat", "oracle", "wl_plugin")
_CI_NAMES = tuple(m.value for m in CiMethod)

# Fixed codes keep substreams stable across runs; unknown families hash.
_FAMILY_CODES = {"normal": 0, "kotz": 1, "t": 2, "laplace": 3}

FamilySpec = Union[str, Callable[[int], XiLaw]]


@dataclass
class ExperimentConfig:
    """Grid description for one family across several dimensions.

    ``family`` is a family name ("normal", "kotz", "t", "laplace") or a
    callable mapping a dimension p to a squared-radius law (used for
    custom laws in tests).
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
        self.p_list = tuple(int(p) for p in self.p_list)
        self.methods = tuple(self.methods)
        self.ci_methods = tuple(self.ci_methods)
        if not self.p_list:
            raise InvalidParameterError("p_list must be nonempty")
        if self.reps < 1:
            raise InvalidParameterError(f"reps must be >= 1, got {self.reps}")
        if not 0.0 < self.alpha < 1.0:
            raise InvalidParameterError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.n < 4:
            raise InvalidParameterError(f"n must be >= 4, got {self.n}")
        unknown = [m for m in self.methods if m not in ESTIMATOR_NAMES]
        if unknown:
            raise InvalidParameterError(
                f"unknown estimator methods {unknown}; expected subset of {ESTIMATOR_NAMES}"
            )
        unknown = [m for m in self.ci_methods if m not in _CI_NAMES]
        if unknown:
            raise InvalidParameterError(
                f"unknown ci methods {unknown}; expected subset of {_CI_NAMES}"
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
    name = cfg.family_name
    return _FAMILY_CODES.get(name, zlib.crc32(name.encode("utf-8")))


def _resolve_law(cfg: ExperimentConfig, p: int) -> XiLaw:
    if isinstance(cfg.family, str):
        return make_law(cfg.family, p)
    return cfg.family(p)


def replication_rng(seed: int, family_code: int, p: int, rep: int) -> np.random.Generator:
    """Independent generator for one replication, derived order-free from
    (master seed, family code, dimension, replication index)."""
    ss = np.random.SeedSequence(entropy=[int(seed), int(family_code), int(p), int(rep)])
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
            stacklevel=3,
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
    """Raise :class:`InvalidParameterError` unless ``workers >= 1``."""
    if workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")


@contextmanager
def _replication_map(workers: int) -> Iterator[Callable]:
    """A ``map`` that runs the replications of one experiment, results in
    index order.

    With more than one worker it is the map of one thread pool, run with
    OpenBLAS held at one thread; the pool's exit waits for every
    replication before the old thread count is restored. The pool serves
    every cell of the experiment: fresh threads per cell took fresh malloc
    arenas and made peak RSS vary by up to 4 MB from run to run.
    """
    check_workers(workers)
    if workers == 1:
        yield map
        return
    with BLAS_LIMIT.one_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        yield pool.map


def _cell_spec(cfg: ExperimentConfig, p: int) -> EllipticalSpec:
    """The model of cell (family, p): zero location, AR(1) covariance with
    ``cfg.rho``, never formed as a matrix, and the family's radius law."""
    return EllipticalSpec.create(np.zeros(p), AR1(p, cfg.rho), _resolve_law(cfg, p))


def _estimation_rep(cfg, p, spec, fam_code):
    def run(rep: int) -> dict[str, float | None]:
        rng = replication_rng(cfg.seed, fam_code, p, rep)
        out: dict[str, float | None] = {}
        try:
            X = sample_data(spec, cfg.n, rng)
        except EllipkurtError:
            return {m: None for m in cfg.methods}
        # The first statistic that reads the centered Gram summary builds it
        # from X and the next one reuses it; the oracle reads X itself, so it
        # still runs when the summary fails.
        cg = X
        for m in cfg.methods:
            try:
                if m == "oracle":
                    out[m] = oracle_theta(X, spec.mu, spec.sigma)
                    continue
                cg = centered_gram(cg)
                if m == "theta_hat":
                    out[m] = theta_hat(ustats_fast(cg)).theta_hat
                elif m == "wl_plugin":
                    out[m] = wl_theta(cg)
            except EllipkurtError:
                out[m] = None
        return out

    return run


def run_estimation_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[SummaryRow]:
    """Point-estimation study: per (p, estimator), mean and SD over
    replications. Failed replications are counted and excluded."""
    fam_code = _family_code(cfg)
    rows: list[SummaryRow] = []
    with _replication_map(workers) as run_map:
        for p in cfg.p_list:
            spec = _cell_spec(cfg, p)
            results = list(run_map(_estimation_rep(cfg, p, spec, fam_code), range(cfg.reps)))
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


def _coverage_rep(cfg, p, spec, fam_code):
    need_plugin = "case2" in cfg.ci_methods

    def run(rep: int) -> dict[str, tuple[float, float, float] | None]:
        """Per method: (theta_hat, lower, upper) or None on failure."""
        rng = replication_rng(cfg.seed, fam_code, p, rep)
        try:
            X = sample_data(spec, cfg.n, rng)
            cg = centered_gram(X)
            est = theta_hat(ustats_fast(cg))
        except EllipkurtError:
            return {m: None for m in cfg.ci_methods}
        plugin = None
        if need_plugin:
            try:
                plugin = plugin_moments_case2(cg)
            except EllipkurtError:
                plugin = None
        out = {}
        for m in cfg.ci_methods:
            try:
                ci = confidence_interval(est, m, cfg.alpha, plugin=plugin)
                out[m] = (est.theta_hat, ci.lower, ci.upper)
            except EllipkurtError:
                out[m] = None
        return out

    return run


def run_coverage_experiment(cfg: ExperimentConfig, workers: int = 1) -> list[SummaryRow]:
    """Coverage study: per (p, CI method), empirical coverage of the true
    kurtosis and average interval width; mean/sd columns aggregate the
    point estimate over the method's successful replications."""
    if not cfg.ci_methods:
        raise InvalidParameterError("coverage experiment needs nonempty ci_methods")
    fam_code = _family_code(cfg)
    rows: list[SummaryRow] = []
    with _replication_map(workers) as run_map:
        for p in cfg.p_list:
            spec = _cell_spec(cfg, p)
            theta0 = true_theta(spec.xi)
            results = list(run_map(_coverage_rep(cfg, p, spec, fam_code), range(cfg.reps)))
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
    """Build a config from a JSON file path or an already-parsed mapping.

    Keys mirror the ExperimentConfig field names; unknown keys are
    rejected so typos cannot silently fall back to defaults.
    """
    if isinstance(source, (str, bytes)) or hasattr(source, "read"):
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
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

# The family-specific interval used alongside the generic plug-ins.
_FAMILY_CI = {"normal": "example1", "kotz": "kotz", "t": "t", "laplace": "laplace"}


def preset_table1_desk(seed: int = DEFAULT_SEED, reps: int = 200) -> list[ExperimentConfig]:
    """Estimation study over all four families at the full dimension grid."""
    return [
        ExperimentConfig(family=fam, p_list=_DESK_P_LIST, n=100, reps=reps, seed=seed)
        for fam in ("normal", "kotz", "t", "laplace")
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
            ci_methods=(_FAMILY_CI[fam], "case1", "case2"),
        )
        for fam in ("normal", "kotz", "t", "laplace")
    ]
