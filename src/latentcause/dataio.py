"""CSV datasets, JSON model artifacts, scenario configs, benchmark reports.

Datasets are UTF-8 CSV with 17-significant-digit decimals, which round-trips
float64 exactly. Models are schema-versioned JSON written with sorted keys
and a trailing newline, so saving the same model twice produces identical
bytes. Nothing binary: every artifact stays inspectable in a text editor.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .causal import CausalEstimate, FeatureMap, OutcomeModel, TreatmentModel
from .errors import InvalidConfig
from .kernels import KernelSpec
from .mixture import MixtureEstimate
from .multitreatment import MultiTreatmentModel
from .scenarios import MultiProxyScenario, MultiTreatmentScenario

SCHEMA_VERSION = 1
REPORT_COLUMNS = ("scenario", "n", "trial", "seed", "component", "parameter",
                  "estimate", "truth", "aligned_abs_error", "wall_ms", "error")

_MULTIPROXY_KEYS = ("z1", "z2", "z3", "a", "y")
_MULTITREATMENT_KEYS = ("a1", "a2", "a3", "y")


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def dataset_mode(data: dict) -> str:
    """Which column family a dataset dict belongs to."""
    if all(k in data for k in _MULTIPROXY_KEYS):
        return "multiproxy"
    if all(k in data for k in _MULTITREATMENT_KEYS):
        return "multitreatment"
    raise InvalidConfig(
        "dataset must carry z1/z2/z3/a/y or a1/a2/a3/y columns"
    )


def _multiproxy_header(d: int) -> list[str]:
    cols = [f"z{v}_{j}" for v in (1, 2, 3) for j in range(d)]
    return cols + ["a", "y"]


def write_dataset(path, data: dict, mode: str | None = None) -> None:
    """Write one dataset as CSV; the column layout encodes the mode."""
    mode = mode if mode is not None else dataset_mode(data)
    path = Path(path)
    if mode == "multiproxy":
        views = [np.asarray(data[k], dtype=float) for k in ("z1", "z2", "z3")]
        views = [v[:, None] if v.ndim == 1 else v for v in views]
        a = np.asarray(data["a"], dtype=float).ravel()
        y = np.asarray(data["y"], dtype=float).ravel()
        d = views[0].shape[1]
        header = _multiproxy_header(d)
        rows = (
            [_fmt(x) for v in views for x in v[i]] + [_fmt(a[i]), _fmt(y[i])]
            for i in range(a.shape[0])
        )
    elif mode == "multitreatment":
        treats = [np.asarray(data[k]).ravel() for k in ("a1", "a2", "a3")]
        y = np.asarray(data["y"], dtype=float).ravel()
        header = list(_MULTITREATMENT_KEYS)
        rows = (
            [str(int(treats[0][i])), str(int(treats[1][i])),
             str(int(treats[2][i])), _fmt(y[i])]
            for i in range(y.shape[0])
        )
    else:
        raise InvalidConfig(f"unknown dataset mode {mode!r}")
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_dataset(path) -> tuple[dict, str]:
    """Read a dataset CSV back; returns (data dict, mode)."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidConfig(f"{path} is empty, expected a CSV header") from None
        rows = list(reader)

    if header[:1] == ["a1"]:
        if header != list(_MULTITREATMENT_KEYS):
            raise InvalidConfig(f"unexpected treatment columns {header}")
        mode = "multitreatment"
    else:
        d, rest = 0, header
        while rest and rest[0] == f"z1_{d}":
            d += 1
            rest = header[d:]
        if d == 0 or header != _multiproxy_header(d):
            raise InvalidConfig(f"unexpected proxy columns {header}")
        mode = "multiproxy"

    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise InvalidConfig(
                f"row {i + 1} has {len(row)} fields, expected {width}"
            )
    try:
        values = np.array(
            [[float(x) for x in row] for row in rows], dtype=float
        ).reshape(len(rows), width)
    except ValueError as exc:
        raise InvalidConfig(f"non-numeric value in {path}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise InvalidConfig(f"{path} contains non-finite values")

    if mode == "multitreatment":
        treats = values[:, :3]
        if np.any(treats != np.round(treats)) or np.any(treats < 0):
            raise InvalidConfig("treatment levels must be nonnegative integers")
        data = {
            "a1": treats[:, 0].astype(int),
            "a2": treats[:, 1].astype(int),
            "a3": treats[:, 2].astype(int),
            "y": values[:, 3],
        }
    else:
        d = (width - 2) // 3
        data = {
            "z1": values[:, :d],
            "z2": values[:, d:2 * d],
            "z3": values[:, 2 * d:3 * d],
            "a": values[:, 3 * d],
            "y": values[:, 3 * d + 1],
        }
    return data, mode


# ---------------------------------------------------------------------------
# scenario configs and ground-truth sidecars
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario) -> dict:
    if isinstance(scenario, MultiProxyScenario):
        return {
            "mode": "multiproxy",
            "priors": scenario.priors.tolist(),
            "means": [m.tolist() for m in scenario.means],
            "proxy_sigma": scenario.proxy_sigma,
            "alpha": scenario.alpha.tolist(),
            "treatment_var": scenario.treatment_var.tolist(),
            "beta": scenario.beta.tolist(),
            "outcome_sigma": scenario.outcome_sigma,
        }
    if isinstance(scenario, MultiTreatmentScenario):
        return {
            "mode": "multitreatment",
            "priors": scenario.priors.tolist(),
            "emissions": [e.tolist() for e in scenario.emissions],
            "gamma": scenario.gamma.tolist(),
            "noise_sigma": scenario.noise_sigma,
        }
    raise InvalidConfig(f"not a scenario: {type(scenario).__name__}")


def scenario_from_dict(doc: dict):
    mode = doc.get("mode")
    try:
        if mode == "multiproxy":
            return MultiProxyScenario(
                priors=np.asarray(doc["priors"], dtype=float),
                means=tuple(np.asarray(m, dtype=float) for m in doc["means"]),
                proxy_sigma=float(doc["proxy_sigma"]),
                alpha=np.asarray(doc["alpha"], dtype=float),
                treatment_var=np.asarray(doc["treatment_var"], dtype=float),
                beta=np.asarray(doc["beta"], dtype=float),
                outcome_sigma=float(doc.get("outcome_sigma", 1.0)),
            )
        if mode == "multitreatment":
            return MultiTreatmentScenario(
                priors=np.asarray(doc["priors"], dtype=float),
                emissions=tuple(np.asarray(e, dtype=float) for e in doc["emissions"]),
                gamma=np.asarray(doc["gamma"], dtype=float),
                noise_sigma=float(doc.get("noise_sigma", 1.0)),
            )
    except KeyError as exc:
        raise InvalidConfig(f"scenario config is missing {exc}") from None
    raise InvalidConfig(f"scenario config needs a known mode, got {mode!r}")


def truth_path(dataset_path) -> Path:
    return Path(dataset_path).with_suffix(".truth.json")


def write_truth(path, scenario, labels, seed: int, n: int) -> None:
    """Ground-truth sidecar for one simulated dataset."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario_to_dict(scenario),
        "seed": int(seed),
        "n": int(n),
        "labels": [int(v) for v in np.asarray(labels).ravel()],
    }
    _dump_json(path, doc)


def read_truth(path) -> dict:
    doc = _load_json(path)
    doc["scenario"] = scenario_from_dict(doc.get("scenario", {}))
    doc["labels"] = np.asarray(doc.get("labels", []), dtype=int)
    return doc


# ---------------------------------------------------------------------------
# model artifacts
# ---------------------------------------------------------------------------

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, (str, bool)):
        return obj
    raise InvalidConfig(f"cannot serialize {type(obj).__name__} values")


def _feature_map_to_dict(fm: FeatureMap) -> dict:
    if fm.kind == "custom":
        raise InvalidConfig("custom feature maps cannot be saved to a model file")
    return {
        "kind": fm.kind,
        "output_dim": int(fm.output_dim),
        "include_constant": bool(fm.include_constant),
    }


def _feature_map_from_dict(doc: dict) -> FeatureMap:
    return FeatureMap(
        kind=doc["kind"],
        output_dim=int(doc["output_dim"]),
        include_constant=bool(doc.get("include_constant", True)),
    )


def _mixture_to_dict(est: MixtureEstimate) -> dict:
    doc = {
        "backend": est.backend,
        "priors": est.priors.tolist(),
        "priors_raw": est.priors_raw.tolist(),
        "lambdas": est.lambdas.tolist(),
        "density_floor": float(est.density_floor),
        "seed": est.seed,
        "diagnostics": _jsonable(est.diagnostics),
    }
    if est.backend == "kernel":
        doc["kernel"] = {
            "family": est.kernel.family,
            "bandwidth": est.kernel.bandwidth,
            "rule": est.kernel.rule,
            "power_c": est.kernel.power_c,
            "power_b": est.kernel.power_b,
            "landmark_count": est.kernel.landmark_count,
        }
        doc["anchors"] = [a.tolist() for a in est.anchors]
        doc["coefficients"] = [c.tolist() for c in est.coefficients]
    else:
        doc["emissions"] = [e.tolist() for e in est.emissions]
    return doc


def _mixture_from_dict(doc: dict) -> MixtureEstimate:
    backend = doc["backend"]
    common = dict(
        backend=backend,
        priors=np.asarray(doc["priors"], dtype=float),
        priors_raw=np.asarray(doc["priors_raw"], dtype=float),
        lambdas=np.asarray(doc["lambdas"], dtype=float),
        density_floor=float(doc["density_floor"]),
        seed=doc.get("seed"),
        diagnostics=doc.get("diagnostics", {}),
    )
    if backend == "kernel":
        kd = doc["kernel"]
        return MixtureEstimate(
            kernel=KernelSpec(
                family=kd["family"],
                bandwidth=kd["bandwidth"],
                rule=kd["rule"],
                power_c=kd["power_c"],
                power_b=kd["power_b"],
                landmark_count=int(kd["landmark_count"]),
            ),
            anchors=tuple(np.asarray(a, dtype=float) for a in doc["anchors"]),
            coefficients=tuple(np.asarray(c, dtype=float)
                               for c in doc["coefficients"]),
            **common,
        )
    return MixtureEstimate(
        emissions=tuple(np.asarray(e, dtype=float) for e in doc["emissions"]),
        **common,
    )


def model_to_dict(model) -> dict:
    """Schema-versioned plain-dict form of a fitted pipeline."""
    if isinstance(model, CausalEstimate):
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "multiproxy",
            "mixture": _mixture_to_dict(model.mixture),
            "treatment": {
                "alpha": model.treatment.alpha.tolist(),
                "sigma2": model.treatment.sigma2.tolist(),
                "family": model.treatment.family,
                "feature_map": _feature_map_to_dict(model.treatment.feature_map),
                "diagnostics": _jsonable(model.treatment.diagnostics),
            },
            "outcome": {
                "beta": model.outcome.beta.tolist(),
                "feature_map": _feature_map_to_dict(model.outcome.feature_map),
                "diagnostics": _jsonable(model.outcome.diagnostics),
            },
            "z_feature_means": model.z_feature_means.tolist(),
            "diagnostics": _jsonable(model.diagnostics),
        }
    if isinstance(model, MultiTreatmentModel):
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": "multitreatment",
            "mixture": _mixture_to_dict(model.mixture),
            "gamma": model.gamma.tolist(),
            "xi_map": _feature_map_to_dict(model.xi_map),
            "diagnostics": _jsonable(model.diagnostics),
        }
    raise InvalidConfig(f"not a saveable model: {type(model).__name__}")


def model_from_dict(doc: dict):
    """Rebuild a fitted pipeline from its plain-dict form."""
    try:
        version = doc["schema_version"]
        if version != SCHEMA_VERSION:
            raise InvalidConfig(f"unsupported model schema version {version!r}")
        mode = doc["mode"]
        if mode == "multiproxy":
            return CausalEstimate(
                mixture=_mixture_from_dict(doc["mixture"]),
                treatment=TreatmentModel(
                    alpha=np.asarray(doc["treatment"]["alpha"], dtype=float),
                    sigma2=np.asarray(doc["treatment"]["sigma2"], dtype=float),
                    family=doc["treatment"]["family"],
                    feature_map=_feature_map_from_dict(
                        doc["treatment"]["feature_map"]
                    ),
                    diagnostics=doc["treatment"].get("diagnostics", {}),
                ),
                outcome=OutcomeModel(
                    beta=np.asarray(doc["outcome"]["beta"], dtype=float),
                    feature_map=_feature_map_from_dict(
                        doc["outcome"]["feature_map"]
                    ),
                    diagnostics=doc["outcome"].get("diagnostics", {}),
                ),
                z_feature_means=np.asarray(doc["z_feature_means"], dtype=float),
                diagnostics=doc.get("diagnostics", {}),
            )
        if mode == "multitreatment":
            return MultiTreatmentModel(
                mixture=_mixture_from_dict(doc["mixture"]),
                gamma=np.asarray(doc["gamma"], dtype=float),
                xi_map=_feature_map_from_dict(doc["xi_map"]),
                diagnostics=doc.get("diagnostics", {}),
            )
        raise InvalidConfig(f"unknown model mode {mode!r}")
    except (KeyError, TypeError) as exc:
        raise InvalidConfig(f"malformed model document: {exc!r}") from None


def save_model(path, model) -> None:
    _dump_json(path, model_to_dict(model))


def load_model(path):
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path} does not hold a model document")
    return model_from_dict(doc)


def _dump_json(path, doc) -> None:
    text = json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"{path} is not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# benchmark reports
# ---------------------------------------------------------------------------

def write_report(path, rows) -> None:
    """Benchmark rows as CSV, one row per (trial, component, parameter)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in rows:
            out = []
            for col in REPORT_COLUMNS:
                val = row.get(col, "")
                if isinstance(val, (float, np.floating)):
                    val = _fmt(val)
                out.append(str(val))
            writer.writerow(out)


def read_report(path) -> list[dict]:
    """Benchmark CSV back as dicts with numeric fields parsed."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = dict(raw)
            for col in ("n", "trial", "seed", "component"):
                if row.get(col):
                    row[col] = int(row[col])
            for col in ("estimate", "truth", "aligned_abs_error", "wall_ms"):
                if row.get(col):
                    row[col] = float(row[col])
            rows.append(row)
    return rows
