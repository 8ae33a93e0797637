"""One benchmark process: set a workload up, then time or trace it.

run.py starts this file in a fresh interpreter for every role, so each
process measures its own import, set-up and peak memory:

    python3 perfbench/worker.py '{"workload": "treat-100k", "seed": 7,
        "seconds": 10, "role": "timed", "index": 0, "out_dir": "..."}'

Roles: "timed" runs the closed loop of front-door calls for ``seconds``
after set-up; "trace" runs half the time untraced and half with spans at
the module boundaries. sweep-small runs its sweeps
inline unless ``pooled`` is set. The last line of standard output is one
JSON object.
"""

import time

_START = time.perf_counter()

import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import latentcause as lc  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, check_fit, check_reload  # noqa: E402

# Reference datasets behind the gated accuracy metrics. They do not depend
# on --seed: at these sample sizes one dataset's error differs from the
# next by more than any bound a gate could use, so accuracy is scored on a
# fixed panel where a change to the estimator moves it exactly.
REFERENCE_SEED = 1000
SAVE_LOADS_PER_CALL = 3
MAX_ERRORS = 5


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Run:
    """Counts, samples and errors of one worker process."""

    def __init__(self, spec):
        self.workload = WORKLOADS[spec["workload"]]()
        self.seed = int(spec["seed"])
        self.seconds = float(spec["seconds"])
        self.index = int(spec["index"])
        self.out_dir = Path(spec["out_dir"])
        self.pooled = bool(spec.get("pooled", False))
        self.saves = 0
        self.first_outputs = None
        self.model_bytes = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def failure(self, exc):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """Simulate, then warm up on this process's share of the reference panel."""
        w = self.workload
        fitter = w.reference if w.kind == "sweep" else w
        first = REFERENCE_SEED + self.index * w.warmup
        panel = [(seed, fitter.data(seed)) for seed in range(first, first + w.warmup)]
        self.seed_data = None if w.kind == "sweep" else w.data(self.seed)
        fits = []
        for seed, data in panel:
            self.attempted += 1
            try:
                fits.append((seed, data, fitter.call(data)))
            except Exception as exc:  # every failure is counted, none aborts
                self.failure(exc)
        self.setup_s = time.perf_counter() - _START
        self.reference = []
        for seed, data, model in fits:
            try:
                weights = check_fit(fitter, model, data, None)
                self.reference.append({"seed": seed,
                                       **fitter.accuracy(model, data, weights)})
            except Exception as exc:
                self.failure(exc)
        self.ref_model = fits[-1][2] if fits else None

    # -- timed loop ---------------------------------------------------------

    def save_load(self, fitter, model, samples):
        """SAVE_LOADS_PER_CALL round trips of one model; every reload is checked.

        Each round trip writes a new file: rewriting one file in place makes
        the file system flush it, which costs more and varies more than the
        save itself.
        """
        for _ in range(SAVE_LOADS_PER_CALL):
            self.saves += 1
            path = self.out_dir / f"model-{os.getpid()}-{self.saves}.json"
            start = time.perf_counter()
            lc.save_model(path, model)
            loaded = lc.load_model(path)
            samples.append(time.perf_counter() - start)
            self.model_bytes = path.stat().st_size
            path.unlink()
            check_reload(fitter, model, loaded)

    def unit(self, out):
        """One closed-loop step: a front-door call, its check and save/load."""
        w = self.workload
        self.attempted += 1
        try:
            start = time.perf_counter()
            if w.kind == "sweep":
                rows = w.sweep(self.seed, workers=None if self.pooled else 1)
                out["fit_s"].append(time.perf_counter() - start)
                w.check_rows(rows)
                out["trial_ms"].append(w.trial_ms(rows))
                out.setdefault("seed_accuracy", w.row_accuracy(rows))
                self.save_load(w.reference, self.ref_model, out["save_load_s"])
            else:
                model = w.call(self.seed_data)
                out["fit_s"].append(time.perf_counter() - start)
                weights = check_fit(w, model, self.seed_data, self.first_outputs)
                if self.first_outputs is None:
                    self.first_outputs = w.outputs(model)
                    out["seed_accuracy"] = w.accuracy(model, self.seed_data, weights)
                self.save_load(w, model, out["save_load_s"])
        except Exception as exc:
            self.failure(exc)

    def loop(self, seconds, out, after_unit=None):
        deadline = time.perf_counter() + seconds
        while True:
            self.unit(out)
            if after_unit is not None:
                after_unit()
            if time.perf_counter() >= deadline:
                return

    def timed(self, seconds):
        out = {"fit_s": [], "save_load_s": [], "trial_ms": []}
        if tracing.installed_wrappers():
            raise RuntimeError("a tracing wrapper is installed before a timed run")
        self.loop(seconds, out)
        if tracing.installed_wrappers():
            raise RuntimeError("a tracing wrapper was installed during a timed run")
        out["model_bytes"] = self.model_bytes
        return out

    def traced(self, seconds):
        untraced = self.timed(seconds / 2.0)
        out = {"fit_s": [], "save_load_s": [], "trial_ms": []}
        units = []
        with tracing.Tracer(self.out_dir) as tracer:
            self.loop(seconds / 2.0, out,
                      after_unit=lambda: units.append(tracing.summarize(tracer.collect())))
        leftover = tracing.installed_wrappers()
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")
        return untraced, out, units


def main(spec):
    run = Run(spec)
    role = spec["role"]
    run.setup()
    result = {"setup_s": run.setup_s, "reference": run.reference}
    if role == "timed":
        result["timed"] = run.timed(run.seconds)
    elif role == "trace":
        result["timed"], result["traced"], result["units"] = run.traced(run.seconds)
    else:
        raise SystemExit(f"unknown role {role!r}")
    result.update(
        attempted=run.attempted, failed=run.failed, errors=run.errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        host=host(),
    )
    return result


if __name__ == "__main__":
    package = Path(lc.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise SystemExit(f"latentcause imported from {package}, not from {ROOT / 'src'}")
    print(json.dumps(main(json.loads(sys.argv[1]))))
