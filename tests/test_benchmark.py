"""Trial sweep harness: seeding, parallelism, and error isolation."""

import ctypes
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor

import pytest

from latentcause import InvalidConfig, RankDeficiency, run_benchmark, summarize
from latentcause.benchmark import _one_blas_thread


def strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


def test_row_count_and_columns():
    rows = run_benchmark("multitreatment", [400, 800], trials=3, seed=1,
                         workers=1)
    # 2 sizes x 3 trials x 2 components x 2 parameters
    assert len(rows) == 24
    for row in rows:
        assert row["scenario"] == "paper-7.2"
        assert row["parameter"] in ("gamma_norm", "prior")
        assert row["error"] == ""
        assert row["aligned_abs_error"] >= 0.0


def test_results_do_not_depend_on_worker_count():
    inline = run_benchmark("multitreatment", [500], trials=3, seed=7, workers=1)
    pooled = run_benchmark("multitreatment", [500], trials=3, seed=7, workers=3)
    assert strip_wall(inline) == strip_wall(pooled)


def test_results_are_seed_deterministic():
    a = run_benchmark("multitreatment", [500], trials=2, seed=9, workers=1)
    b = run_benchmark("multitreatment", [500], trials=2, seed=9, workers=1)
    assert strip_wall(a) == strip_wall(b)
    c = run_benchmark("multitreatment", [500], trials=2, seed=10, workers=1)
    assert strip_wall(a) != strip_wall(c)


def test_failed_trials_become_error_rows(monkeypatch):
    # every trial fails inside the fit and is reported rather than raised
    def deficient(*args, **kwargs):
        raise RankDeficiency("views carry fewer than K components")

    monkeypatch.setattr("latentcause.benchmark.fit_multitreatment", deficient)
    rows = run_benchmark("multitreatment", [300], trials=2, seed=0, workers=1)
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == "views carry fewer than K components"
        assert row["estimate"] == ""
    summaries = summarize(rows)
    assert summaries == []


def test_multiproxy_rows_track_slope_and_prior():
    rows = run_benchmark("multiproxy", [400], trials=1, seed=3, workers=1)
    assert len(rows) == 6
    assert {r["parameter"] for r in rows} == {"beta_a", "prior"}
    assert all(r["scenario"] == "paper-7.1" for r in rows)
    slopes = sorted(r["truth"] for r in rows if r["parameter"] == "beta_a")
    assert slopes == [-1.0, 2.5, 4.0]


def test_summarize_medians():
    rows = [
        {"n": 100, "parameter": "prior", "aligned_abs_error": e, "error": ""}
        for e in (0.1, 0.3, 0.2)
    ]
    rows.append({"n": 100, "error": "failed"})
    out = summarize(rows)
    assert len(out) == 1
    assert out[0]["median_abs_error"] == pytest.approx(0.2)
    assert out[0]["rows"] == 3
    assert out[0]["failed_trials"] == 1


def test_run_benchmark_validation():
    with pytest.raises(InvalidConfig):
        run_benchmark("nonsense", [100], trials=1)
    with pytest.raises(InvalidConfig):
        run_benchmark("multiproxy", [], trials=1)
    with pytest.raises(InvalidConfig):
        run_benchmark("multiproxy", [100], trials=0)
    with pytest.raises(InvalidConfig):
        run_benchmark("multiproxy", [0], trials=1)
    for ns in ([True], [2.5], ["x"]):
        with pytest.raises(InvalidConfig, match="sample sizes must be positive integers"):
            run_benchmark("multitreatment", ns, trials=1, workers=1)
    with pytest.raises(InvalidConfig, match="need at least one trial"):
        run_benchmark("multitreatment", [50], trials=True, workers=1)
    with pytest.raises(InvalidConfig, match="bandwidth"):
        run_benchmark("multiproxy", [50], trials=1, workers=1, bandwidth=None)
    for workers in ("two", 2.5, True):
        with pytest.raises(InvalidConfig, match="workers must be an integer"):
            run_benchmark("multitreatment", [50], trials=1, workers=workers)


def _openblas_thread_counts():
    """Thread count of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    counts = []
    for lib in map(ctypes.CDLL, paths):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
    return counts


def test_pool_workers_run_one_blas_thread():
    try:
        inline = _openblas_thread_counts()
    except OSError:
        pytest.skip("no process map to find OpenBLAS in")
    if not inline:
        pytest.skip("numpy and scipy do not use OpenBLAS here")
    with ProcessPoolExecutor(max_workers=1, initializer=_one_blas_thread) as pool:
        pooled = pool.submit(_openblas_thread_counts).result()
    assert pooled == [1] * len(inline)


_POOLED_KERNEL_FIT = """
import sys
from concurrent.futures import ProcessPoolExecutor

import latentcause as lc
from latentcause.benchmark import _one_blas_thread
from test_benchmark import _openblas_thread_counts


def kernel_fit_thread_counts():
    data, _ = lc.simulate_multiproxy(lc.three_cluster_gaussian(), 300, seed=1)
    lc.fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                     kernel=lc.KernelSpec(landmark_count=100), seed=0)
    return _openblas_thread_counts()


if __name__ == "__main__":
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy loaded"
    with ProcessPoolExecutor(max_workers=1, initializer=_one_blas_thread) as pool:
        print(pool.submit(kernel_fit_thread_counts).result())
"""


def test_pool_workers_cap_the_openblas_a_kernel_fit_loads(tmp_path):
    # a kernel fit in a pool worker runs every BLAS call on the one thread the
    # initializer set: it loads no OpenBLAS of its own after the initializer ran
    try:
        inline = _openblas_thread_counts()
    except OSError:
        pytest.skip("no process map to find OpenBLAS in")
    if not inline:
        pytest.skip("numpy and scipy do not use OpenBLAS here")
    script = tmp_path / "pooled_kernel_fit.py"
    script.write_text(_POOLED_KERNEL_FIT, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                         check=True, env=env)
    pooled = json.loads(out.stdout)
    assert pooled and pooled == [1] * len(pooled)
