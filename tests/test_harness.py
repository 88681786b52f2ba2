import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ellipkurt import (
    CSV_HEADER,
    FAMILY_NAMES,
    ExperimentConfig,
    InvalidParameterError,
    SchemaError,
    SummaryRow,
    XiLaw,
    load_config,
    preset_table1_desk,
    preset_table2_desk,
    replication_rng,
    run_experiments,
    summarize_to_csv,
)
from ellipkurt import harness, linalg
from ellipkurt.baselines import oracle_theta, wl_theta
from ellipkurt.errors import DegenerateDataError
from ellipkurt.harness import (
    _Cell,
    _cell_spec,
    _family_code,
    _replication,
    _run_cells,
    _thread_map,
)
from ellipkurt.inference import plugin_moments_case2
from ellipkurt.models import sample_data
from ellipkurt.ustat import ustats_fast


class ZeroRadius(XiLaw):
    """Family stub whose radius is identically zero."""

    def __init__(self, p):
        self.p = p

    family = "zero_stub"

    def sample_squared(self, rng, size=None):
        return np.zeros(size if size is not None else ())

    def theta(self):
        return 0.0


def zero_family(p):
    return ZeroRadius(p)


def small_config(**overrides):
    base = dict(
        family="normal",
        p_list=(10, 15),
        n=20,
        reps=6,
        seed=424242,
        methods=("theta_hat", "oracle", "wl_plugin"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(family="normal", p_list=())
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(family="normal", p_list=(10,), reps=0)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(family="normal", p_list=(10,), alpha=1.2)
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(family="normal", p_list=(10,), methods=("bogus",))
    with pytest.raises(InvalidParameterError):
        ExperimentConfig(family="normal", p_list=(10,), ci_methods=("bogus",))
    with pytest.raises(InvalidParameterError, match="rho"):
        ExperimentConfig(family="normal", p_list=(10,), rho=1.5)
    with pytest.raises(InvalidParameterError, match="both empty"):
        ExperimentConfig(family="normal", p_list=(10,), methods=())
    # Integers only (bools are not), and a shipped family name or a callable.
    for bad in (dict(n=20.5), dict(reps=True), dict(seed="abc"), dict(p_list=(10, 10.7))):
        with pytest.raises(InvalidParameterError, match="must be an integer"):
            ExperimentConfig(**{"family": "normal", "p_list": (10,), **bad})
    for family in (5, "cauchy"):
        with pytest.raises(InvalidParameterError, match="family must be one of"):
            ExperimentConfig(family=family, p_list=(10,))
    assert ExperimentConfig(family="normal", p_list=(np.int64(10),)).p_list == (10,)


def test_family_codes_are_fixed():
    # A shipped family's substream code is part of the seeding contract.
    codes = [_family_code(ExperimentConfig(family=f, p_list=(10,))) for f in FAMILY_NAMES]
    assert dict(zip(FAMILY_NAMES, codes)) == {"normal": 0, "kotz": 1, "t": 2, "laplace": 3}


def test_replication_rng_independent_of_order():
    a = replication_rng(7, 1, 100, 3).normal(size=4)
    b = replication_rng(7, 1, 100, 3).normal(size=4)
    c = replication_rng(7, 1, 100, 4).normal(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_estimation_rows_shape_and_counts():
    cfg = small_config()
    rows = run_experiments([cfg])[0]
    assert len(rows) == len(cfg.p_list) * len(cfg.methods)
    for r in rows:
        assert r.ecp is None and r.avg_width is None
        assert r.reps_used + r.failures == cfg.reps
        assert r.reps_used > 0
        assert r.sd is not None and r.sd >= 0.0


def test_estimation_deterministic_across_workers(tmp_path):
    cfg = small_config()
    rows1 = run_experiments([cfg], workers=1)[0]
    rows8 = run_experiments([cfg], workers=8)[0]
    f1, f8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    summarize_to_csv(rows1, f1)
    summarize_to_csv(rows8, f8)
    assert f1.read_bytes() == f8.read_bytes()


def test_replication_results_independent_of_total_reps():
    # Stream derivation depends only on (seed, family, p, rep); the same
    # replication index gives identical results under different rep counts.
    cfg5 = small_config(reps=5, methods=("theta_hat", "wl_plugin"), ci_methods=("case2",))
    cfg8 = small_config(reps=8, methods=("theta_hat", "wl_plugin"), ci_methods=("case2",))
    p = 10
    code = _family_code(cfg5)
    run5 = _replication(cfg5, p, _cell_spec(cfg5, p), code)
    run8 = _replication(cfg8, p, _cell_spec(cfg8, p), code)
    for rep in range(5):
        assert run5(rep) == run8(rep)


def test_coverage_rows():
    cfg = small_config(
        reps=8,
        methods=(),
        ci_methods=("example1", "laplace", "case1", "case2"),
    )
    rows = run_experiments([cfg])[1]
    assert len(rows) == len(cfg.p_list) * len(cfg.ci_methods)
    for r in rows:
        assert r.reps_used + r.failures == cfg.reps
        if r.reps_used:
            assert 0.0 <= r.ecp <= 1.0
            # ECP is an exact count ratio.
            count = r.ecp * r.reps_used
            assert count == pytest.approx(round(count), abs=1e-12)
            assert r.avg_width >= 0.0


def test_coverage_deterministic_across_workers(tmp_path):
    cfg = small_config(reps=8, methods=(), ci_methods=("example1", "case1"))
    f1, f8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    summarize_to_csv(run_experiments([cfg], workers=1)[1], f1)
    summarize_to_csv(run_experiments([cfg], workers=8)[1], f8)
    assert f1.read_bytes() == f8.read_bytes()


def test_zero_radius_family_all_failures():
    cfg = ExperimentConfig(
        family=zero_family,
        p_list=(5,),
        n=10,
        reps=4,
        seed=1,
        methods=(),
        ci_methods=("example1",),
    )
    rows = run_experiments([cfg])[1]
    assert len(rows) == 1
    r = rows[0]
    assert r.failures == 4 and r.reps_used == 0
    assert r.mean is None and r.sd is None and r.ecp is None and r.avg_width is None
    assert r.family == "zero_family"


def test_single_replication_flags_degenerate_sd():
    cfg = small_config(reps=1, methods=("theta_hat",))
    with pytest.warns(RuntimeWarning, match="single replication"):
        rows = run_experiments([cfg])[0]
    for r in rows:
        assert r.sd == 0.0


def test_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    summarize_to_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_csv_roundtrip_single_row(tmp_path):
    row = SummaryRow(
        family="normal", p=100, n=100, method="theta_hat",
        mean=1.000125, sd=0.005, ecp=None, avg_width=None,
        reps_used=200, failures=0,
    )
    path = tmp_path / "out.csv"
    summarize_to_csv([row], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "normal"
    assert fields[4] == "1.00012"  # 6 significant digits
    assert fields[6] == "" and fields[7] == ""
    assert fields[8] == "200" and fields[9] == "0"


def test_load_config_roundtrip(tmp_path):
    doc = {
        "family": "kotz",
        "p_list": [10, 20],
        "n": 30,
        "reps": 5,
        "alpha": 0.1,
        "seed": 99,
        "methods": ["theta_hat"],
        "ci_methods": ["kotz"],
        "rho": 0.4,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.family == "kotz"
    assert cfg.p_list == (10, 20)
    assert cfg.methods == ("theta_hat",)
    assert cfg.rho == 0.4


def test_load_config_accepts_any_path_like(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "kotz", "p_list": [10, 20], "reps": 5}))
    want = load_config(str(path))
    assert load_config(path) == want
    assert load_config(os.fsencode(path)) == want


def test_load_config_missing_path_is_a_schema_error(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(SchemaError, match="nope.json: cannot read config"):
        load_config(path)


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"family": "normal", "p_list": [10], "repz": 3}))
    with pytest.raises(SchemaError, match="repz"):
        load_config(str(path))


def test_load_config_requires_family_and_p_list():
    with pytest.raises(SchemaError, match="family"):
        load_config({"p_list": [10]})
    with pytest.raises(SchemaError, match="p_list"):
        load_config({"family": "normal"})


def test_presets():
    t1 = preset_table1_desk(seed=5)
    assert len(t1) == 4
    assert all(cfg.p_list == (100, 200, 400, 800, 1600) for cfg in t1)
    assert all(cfg.reps == 200 and cfg.seed == 5 for cfg in t1)
    t2 = preset_table2_desk(seed=5)
    assert len(t2) == 4
    assert all(cfg.reps == 500 for cfg in t2)
    for cfg in t2:
        assert "case1" in cfg.ci_methods and "case2" in cfg.ci_methods


def test_mean_aggregation_matches_fsum():
    cfg = small_config(reps=5, methods=("theta_hat",), p_list=(10,))
    rows = run_experiments([cfg])[0]
    code = _family_code(cfg)
    run = _replication(cfg, 10, _cell_spec(cfg, 10), code)
    values = [run(r)["theta_hat"] for r in range(5)]
    assert rows[0].mean == pytest.approx(math.fsum(values) / 5, abs=0.0)


@pytest.mark.parametrize("step, survivors", [
    ("sample_data", set()),
    ("centered_gram", {"oracle"}),
    ("theta_hat", {"oracle", "wl_plugin"}),
    ("wl_theta", {"oracle", "theta_hat", "example1", "case1", "case2"}),
    ("plugin_moments_case2", {"oracle", "theta_hat", "wl_plugin", "example1", "case1"}),
])
def test_a_failed_step_fails_only_what_reads_it(monkeypatch, step, survivors):
    # A failed draw fails everything; a failed Gram summary all but the
    # oracle, which reads the raw sample; a failed theta_hat every interval;
    # a failed wl_theta only wl_plugin; a failed case-2 plug-in only case2.
    def failing(*args, **kwargs):
        raise DegenerateDataError(f"{step} failed")

    cfg = small_config(reps=1, p_list=(10,), ci_methods=("example1", "case1", "case2"))
    run = _replication(cfg, 10, _cell_spec(cfg, 10), _family_code(cfg))
    monkeypatch.setattr(harness, step, failing)
    out = run(0)
    assert {m for m, v in out.items() if v is not None} == survivors
    assert set(out) == {*cfg.methods, *cfg.ci_methods}


def test_ar1_cells_use_no_dense_factorization(monkeypatch):
    # The AR(1) cells sample and whiten in closed form: no eigendecomposition,
    # no Cholesky factor, no triangular solve, no p x p matrix.
    def forbidden(*args, **kwargs):
        raise AssertionError("dense factorization called on an AR(1) cell")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    monkeypatch.setattr(linalg, "sqrt_psd", forbidden)
    # Dense.whiten's triangular solve.
    monkeypatch.setattr(linalg.OPENBLAS, "solve_triangular", forbidden)
    monkeypatch.setattr(linalg, "toeplitz_ar1", forbidden)
    # The AR(1) root is a triangular-banded solve, not a banded LU.
    monkeypatch.setattr(linalg, "solve_banded", forbidden, raising=False)
    cfg = small_config(reps=3)
    assert isinstance(_cell_spec(cfg, 10).sigma, linalg.AR1)
    # A forbidden call raises AssertionError, which no replication catches.
    assert all(r.reps_used > 0 for r in run_experiments([cfg])[0])
    cfg = small_config(reps=3, methods=(), ci_methods=("example1", "case1", "case2"))
    assert all(r.reps_used > 0 for r in run_experiments([cfg])[1])


def record_calls(monkeypatch, module, name):
    """A list that grows by one item per call to ``module.name``."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_gram_summary_per_replication(gram_builds, monkeypatch):
    # A replication draws one sample, builds one summary from it and
    # computes one theta_hat, which every statistic reads: the estimators,
    # the case-2 plug-ins and the intervals, in a config that asks for
    # estimators, intervals or both. Replications run rep-major.
    samples = record_calls(monkeypatch, harness, "sample_data")
    thetas = record_calls(monkeypatch, harness, "theta_hat")
    for cfg in (small_config(reps=3),
                small_config(reps=3, methods=(), ci_methods=("example1", "case1", "case2")),
                small_config(reps=3, ci_methods=("example1", "case1", "case2"))):
        for calls in (gram_builds, samples, thetas):
            calls.clear()
        run_experiments([cfg])
        assert gram_builds == [(cfg.n, p) for _ in range(cfg.reps) for p in cfg.p_list]
        assert len(samples) == len(thetas) == cfg.reps * len(cfg.p_list)


@pytest.mark.parametrize("workers", [1, 2])
def test_mixed_config_rows_are_those_of_its_halves(workers):
    # One replication serves both studies: a config with estimators and
    # intervals gives, bit for bit, the rows of its estimation-only and
    # coverage-only halves.
    ci = ("example1", "case1", "case2")
    mixed = run_experiments([small_config(ci_methods=ci)], workers=workers)
    est = run_experiments([small_config()], workers=workers)[0]
    cov = run_experiments([small_config(methods=(), ci_methods=ci)], workers=workers)[1]
    assert mixed == (est, cov)
    assert len(est) == 2 * 3 and len(cov) == 2 * 3


@pytest.mark.parametrize("cfg, bound", [
    (dict(), 2.1),
    (dict(methods=(), ci_methods=("t", "case1", "case2")), 1.5),
    (dict(ci_methods=("t", "case1", "case2")), 2.1),
], ids=["estimation", "coverage", "mixed"])
def test_replication_peak_memory(cfg, bound):
    # A replication at n=100, p=1600 holds one n x p array for the sample,
    # which is centered in place, plus, with the oracle, one n x (p - 1)
    # difference array. The peak is in units of one n x p float64 array; a
    # warm-up replication runs first.
    n, p = 100, 1600
    cfg = ExperimentConfig(family="t", p_list=(p,), n=n, reps=2, seed=11, **cfg)
    run = _replication(cfg, p, _cell_spec(cfg, p), _family_code(cfg))
    run(0)
    tracemalloc.start()
    try:
        out = run(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v is not None for v in out.values())
    assert peak <= bound * n * p * 8


def test_statistics_leave_their_data_as_they_are():
    # Only the harness, which owns its sample, lets the Gram summary center
    # in place; every entry point that is handed an array leaves it alone.
    cfg = small_config()
    spec = _cell_spec(cfg, 10)
    mu_before = spec.mu.copy()
    X = sample_data(spec, 20, np.random.default_rng(3)) + 1.5
    before = X.copy()
    calls = [
        lambda: linalg.centered_gram(X),
        lambda: ustats_fast(X),
        lambda: wl_theta(X),
        lambda: plugin_moments_case2(X),
        lambda: oracle_theta(X, np.full(10, 1.5), spec.sigma),
        lambda: oracle_theta(X, np.zeros(10), spec.sigma),
        lambda: oracle_theta(X, np.zeros(10), linalg.toeplitz_ar1(10, cfg.rho)),
    ]
    for call in calls:
        call()
        assert np.array_equal(X, before)
    assert np.array_equal(spec.mu, mu_before)


def test_one_call_runs_every_cell_rep_major(monkeypatch):
    # Replication 0 of every cell of every config, then replication 1, and so
    # on; a cell with fewer replications drops out. The rows are those of
    # running each experiment on its own.
    seen = []
    real = replication_rng

    def recording(seed, family_code, p, rep):
        seen.append((family_code, p, rep))
        return real(seed, family_code, p, rep)

    est = small_config(reps=3)
    cov = small_config(family="laplace", p_list=(10,), reps=2, methods=(),
                       ci_methods=("laplace", "case1"))
    alone = (run_experiments([est])[0], run_experiments([cov])[1])
    monkeypatch.setattr(harness, "replication_rng", recording)
    assert run_experiments([est, cov]) == alone
    normal, laplace = FAMILY_NAMES.index("normal"), FAMILY_NAMES.index("laplace")
    assert seen == [(normal, 10, 0), (normal, 15, 0), (laplace, 10, 0),
                    (normal, 10, 1), (normal, 15, 1), (laplace, 10, 1),
                    (normal, 10, 2), (normal, 15, 2)]


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(InvalidParameterError, match="workers must be >= 1"):
        run_experiments([small_config(reps=2)], workers=workers)


def test_pooled_replications_run_with_one_blas_thread():
    # Inside a replication numpy's OpenBLAS reads one thread, at one worker
    # as at two; after the pool, also one whose replication raised, its
    # own. A replication's exception reaches the caller, and no replication
    # starts after it: task 4 runs in the other worker until the failing
    # worker has ended, and then that worker takes no further task.
    lib = linalg.OPENBLAS.library
    if lib is None:
        pytest.skip(f"no bundled OpenBLAS: {linalg.OPENBLAS.reason}")
    saved = lib.get()
    started, failing = [], []
    three, four = threading.Event(), threading.Event()

    def count(rep):
        if raising:
            started.append(rep)
            if rep == 3:
                failing.append(threading.current_thread())
                three.set()
                four.wait(10)
                raise RuntimeError("replication failed")
            if rep == 4:
                four.set()
                three.wait(10)
                failing[0].join(10)
        return lib.get()

    try:
        lib.set(2)
        raising = False
        for workers in (1, 2):
            cells = [_Cell(6, count, list), _Cell(6, count, list)]
            assert _run_cells(cells, workers) == [[1] * 6, [1] * 6]
            assert lib.get() == 2
        raising = True
        with pytest.raises(RuntimeError, match="replication failed"):
            _run_cells([_Cell(12, count, list)], 2)
        assert sorted(started) == [0, 1, 2, 3, 4]
        assert not failing[0].is_alive()
        assert lib.get() == 2
    finally:
        lib.set(saved)


def test_thread_map_runs_each_task_once_in_order_under_contention():
    # More workers than cores and a thread switch every microsecond: every
    # task runs exactly once and its result lands in its own slot, so a
    # lost or doubled index, or a misplaced result, breaks the equalities.
    calls = [0] * 3000

    def task(i):
        calls[i] += 1
        return i * i

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        assert _thread_map(8, task, range(3000)) == [i * i for i in range(3000)]
    finally:
        sys.setswitchinterval(interval)
    assert calls == [1] * 3000
    assert [t for t in threading.enumerate() if t.name.startswith("ellipkurt-")] == []


def test_every_run_holds_blas_threads_once(fake_blas):
    # A run at one worker holds the limit as a pooled run does: once,
    # across all of its cells. The library is looked up once.
    cfgs = [small_config(reps=2), small_config(reps=2, methods=(), ci_methods=("case1",))]
    for workers in (1, 2):
        fake_blas.lib.sets.clear()
        run_experiments(cfgs, workers=workers)
        assert fake_blas.lib.sets == [1, 4]
    assert fake_blas.lookups == 1
