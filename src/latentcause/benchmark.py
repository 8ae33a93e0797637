"""Seeded trial sweeps over the built-in designs, one CSV row per estimate.

Each trial simulates a fresh dataset, runs the full pipeline at the true K
that the design table in ``scenarios`` gives its mode, aligns the fitted
components to the generating truth, and reports per-component errors.
Trials are independent and seed-split up front. They run in a pool of
``workers`` processes, one per logical core unless the caller says
otherwise. A fit's linear algebra all runs in numpy, on one OpenBLAS,
which pool workers cap at one thread, so pooled rows can differ from
inline ones by BLAS rounding, which depends on the thread count (about
1e-12 relative).
"""

from __future__ import annotations

import ctypes
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .causal import fit_effects
from .dataio import REPORT_COLUMNS
from .errors import InvalidConfig, LatentCauseError, _integer
from .kernels import KernelSpec
from .mixture import _items, _seed_sequence, align_permutation, fit_multiview
from .multitreatment import fit_multitreatment
from .scenarios import _DESIGNS

_OPENBLAS_NAME = re.compile(r"lib(\w*?)openblas(64_)?", re.IGNORECASE)


def _one_blas_thread() -> None:
    """Pool initializer: each worker has a core, so cap every loaded OpenBLAS at one thread.

    A fit's BLAS calls all go through numpy. An OpenBLAS built with a symbol
    prefix or suffix carries them in its file name (lib<prefix>openblas<suffix>),
    and its thread setter has the same ones.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            name = _OPENBLAS_NAME.match(os.path.basename(path))
            if name is None:
                continue
            prefix, suffix = name.groups(default="")
            setter = getattr(ctypes.CDLL(path), f"{prefix}openblas_set_num_threads{suffix}", None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
    except OSError:
        pass


def _fit(mode: str, data: dict, k: int, kernel: KernelSpec, seed):
    """The mode's fit of one dataset: mixture then effects, or the treatment-only model."""
    if mode == "multiproxy":
        return fit_effects(data, fit_multiview(data["z1"], data["z2"], data["z3"], k,
                                               kernel=kernel, seed=seed))
    return fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"], k, seed=seed)


def _trial(payload) -> list[dict]:
    """One trial's rows: simulate, fit at the design's true K, align to the truth."""
    mode, n, trial, data_seed, fit_seed, kernel = payload
    name, builtin, simulate, k = _DESIGNS[mode]
    scenario = builtin()
    row = dict.fromkeys(REPORT_COLUMNS, "") | {"scenario": name, "n": n, "trial": trial,
                                               "seed": data_seed}
    start = time.perf_counter()
    try:
        data, _ = simulate(scenario, n, seed=data_seed)
        model = _fit(mode, data, k, kernel, fit_seed)
    except LatentCauseError as exc:
        return [row | {"error": str(exc)}]
    row["wall_ms"] = (time.perf_counter() - start) * 1000.0
    if mode == "multiproxy":
        perm = align_permutation(model.outcome.beta, scenario.beta)
        slope, estimate, truth = "beta_a", model.outcome.beta[perm, 1], scenario.beta[:, 1]
    else:
        perm = align_permutation(model.gamma, scenario.gamma)
        slope, estimate = "gamma_norm", [np.linalg.norm(g) for g in model.gamma[perm]]
        truth = np.linalg.norm(scenario.gamma, axis=1)
    estimates = np.column_stack([estimate, model.priors[perm]])
    truths = np.column_stack([truth, scenario.priors])
    return [row | {"component": u, "parameter": parameter, "estimate": float(e),
                   "truth": float(t), "aligned_abs_error": float(abs(e - t))}
            for u in range(k) for parameter, e, t in zip((slope, "prior"), estimates[u], truths[u])]


def run_benchmark(mode: str, ns, trials: int, seed=0, workers: int | None = None,
                  bandwidth: float = KernelSpec.bandwidth,
                  landmarks: int = KernelSpec.landmark_count) -> list[dict]:
    """All trial rows for one design over the given sample sizes.

    Trials are seeded from one root, so the output is a pure function of
    the arguments. Each row's ``scenario`` is the design's name (paper-7.1
    or paper-7.2). Failed trials become rows with the error column filled
    in; they never abort the sweep. ``workers=None`` uses every logical core.
    """
    if mode not in _DESIGNS:
        raise InvalidConfig(f"unknown benchmark mode {mode!r}")
    ns = [_integer(n, "sample sizes must be positive integers", 1) for n in _items(ns, "ns")]
    if not ns:
        raise InvalidConfig("need at least one sample size")
    trials = _integer(trials, "need at least one trial", 1)
    if workers is not None:
        workers = _integer(workers, "workers must be an integer or None")
    kernel = KernelSpec(bandwidth=bandwidth, landmark_count=landmarks)

    children = _seed_sequence(seed).spawn(len(ns) * trials)
    payloads = []
    for i, n in enumerate(ns):
        for trial in range(trials):
            state = children[i * trials + trial].generate_state(2)
            payloads.append((mode, n, trial, int(state[0]), int(state[1]), kernel))

    workers = workers if workers is not None else os.cpu_count() or 1
    if workers <= 1 or len(payloads) == 1:
        results = [_trial(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
            results = list(pool.map(_trial, payloads))
    return [row for rows in results for row in rows]


def summarize(rows) -> list[dict]:
    """Median aligned error per (n, parameter), error rows counted apart."""
    groups: dict = {}
    failures: dict = {}
    for row in rows:
        if row.get("error"):
            key = row["n"]
            failures[key] = failures.get(key, 0) + 1
            continue
        key = (row["n"], row["parameter"])
        groups.setdefault(key, []).append(float(row["aligned_abs_error"]))
    out = []
    for (n, parameter), errs in sorted(groups.items(), key=lambda kv: kv[0]):
        out.append({
            "n": n, "parameter": parameter,
            "median_abs_error": float(np.median(errs)),
            "p90_abs_error": float(np.quantile(errs, 0.9)),
            "rows": len(errs), "failed_trials": failures.get(n, 0),
        })
    return out
