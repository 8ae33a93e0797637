"""CSV datasets, JSON model artifacts, scenario configs, benchmark reports.

Datasets are UTF-8 CSV with 17-significant-digit decimals, which round-trips
float64 exactly; numpy's text I/O (``np.savetxt``, ``np.loadtxt``) writes and
parses their rows, so no field is held as a Python string. Models are
schema-versioned compact JSON: one line with sorted keys, no whitespace and
a trailing newline, so saving the same model twice produces identical
bytes. Nothing binary: every artifact stays inspectable in a text editor.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from itertools import filterfalse
from pathlib import Path

import numpy as np

from .causal import CausalEstimate, OutcomeModel, TreatmentModel
from .errors import DimensionMismatch, InvalidConfig, _floats
from .kernels import KernelSpec
from .mixture import MixtureEstimate
from .multitreatment import MultiTreatmentModel
from .scenarios import MultiProxyScenario, MultiTreatmentScenario

SCHEMA_VERSION = 4
REPORT_COLUMNS = ("scenario", "n", "trial", "seed", "component", "parameter",
                  "estimate", "truth", "aligned_abs_error", "wall_ms", "error")

_MULTIPROXY_KEYS = ("z1", "z2", "z3", "a", "y")
_MULTITREATMENT_KEYS = ("a1", "a2", "a3", "y")


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


def _check_levels(values: np.ndarray, n_levels: int, path) -> None:
    """The first ``n_levels`` columns of checked values are nonnegative integer levels."""
    levels = values[:, :n_levels]
    if np.any(levels < 0) or np.any(levels != np.round(levels)):
        raise InvalidConfig(f"{path}: treatment levels must be nonnegative integers")


def write_dataset(path, data: dict) -> None:
    """Write one dataset as CSV; the column layout encodes the mode.

    The columns are checked before the file is opened: one row count, finite
    values, and nonnegative integer treatment levels.
    """
    mode = dataset_mode(data)
    what = f"{path}: dataset values"
    if mode == "multiproxy":
        views = [_floats(data[k], what) for k in ("z1", "z2", "z3")]
        views = [v[:, None] if v.ndim == 1 else v for v in views]
        if any(v.ndim != 2 or v.shape != views[0].shape for v in views):
            raise DimensionMismatch(f"views must share one n x d shape, got "
                                    f"{[v.shape for v in views]}")
        header = _multiproxy_header(views[0].shape[1])
        columns = views + [_floats(data[k], what).reshape(-1, 1) for k in ("a", "y")]
    else:
        header = list(_MULTITREATMENT_KEYS)
        columns = [_floats(data[k], what).reshape(-1, 1) for k in header]
    if any(c.shape[0] != columns[0].shape[0] for c in columns):
        raise DimensionMismatch(f"columns disagree on the row count: "
                                f"{[c.shape[0] for c in columns]}")
    values = np.hstack(columns)
    n_levels = 3 if mode == "multitreatment" else 0
    _check_levels(values, n_levels, path)
    fmt = ["%d"] * n_levels + ["%.17g"] * (values.shape[1] - n_levels)
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, values, fmt=fmt, delimiter=",", header=",".join(header),
                   comments="")


def read_dataset(path) -> tuple[dict, str]:
    """Read a dataset CSV back; returns (data dict, mode)."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise InvalidConfig(f"{path} is empty, expected a CSV header")
            d = (len(header) - 2) // 3
            if header[:1] == ["a1"]:
                if header != list(_MULTITREATMENT_KEYS):
                    raise InvalidConfig(f"unexpected treatment columns {header}")
                mode = "multitreatment"
            elif d < 1 or header != _multiproxy_header(d):
                raise InvalidConfig(f"unexpected proxy columns {header}")
            else:
                mode = "multiproxy"
            with warnings.catch_warnings():
                # a header-only file is a valid 0-row dataset
                warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
                # lines of whitespace are skipped like empty ones
                values = np.loadtxt(filterfalse(str.isspace, fh), delimiter=",", ndmin=2,
                                    comments=None, quotechar='"')
    except (ValueError, csv.Error) as exc:
        raise InvalidConfig(f"{path} is not a numeric UTF-8 CSV file: {exc}") from None
    width = len(header)
    if values.size == 0:
        values = values.reshape(0, width)
    if values.shape[1] != width:
        raise InvalidConfig(f"{path}: rows have {values.shape[1]} fields, expected {width}")
    values = _floats(values, f"{path}: dataset values")
    _check_levels(values, 3 if mode == "multitreatment" else 0, path)

    if mode == "multitreatment":
        treats = values[:, :3]
        data = {
            "a1": treats[:, 0].astype(int),
            "a2": treats[:, 1].astype(int),
            "a3": treats[:, 2].astype(int),
            "y": values[:, 3],
        }
    else:
        data = {
            "z1": values[:, :d],
            "z2": values[:, d:2 * d],
            "z3": values[:, 2 * d:3 * d],
            "a": values[:, 3 * d],
            "y": values[:, 3 * d + 1],
        }
    return data, mode


# ---------------------------------------------------------------------------
# models, scenario configs and ground-truth sidecars
# ---------------------------------------------------------------------------
#
# A saved model or scenario holds its dataclass fields under their own names,
# nested dataclasses as objects, and leaves out fields that are None; each
# type's __post_init__ checks and coerces what a file gives it.

_MODELS = {"multiproxy": CausalEstimate, "multitreatment": MultiTreatmentModel}
_SCENARIOS = {"multiproxy": MultiProxyScenario,
              "multitreatment": MultiTreatmentScenario}
_NESTED = {"mixture": MixtureEstimate, "kernel": KernelSpec,
           "treatment": TreatmentModel, "outcome": OutcomeModel}


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.ndarray, np.generic)):     # numpy scalars become Python ones
        return _jsonable(obj.tolist())
    if obj is None or isinstance(obj, (str, int, float)):   # bool too: json writes true/false
        return obj
    raise InvalidConfig(f"cannot serialize {type(obj).__name__} values")


def _to_doc(obj):
    """A dataclass as {field: value}, nested ones as dicts, None fields left out."""
    if not dataclasses.is_dataclass(obj):
        return obj
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {name: _to_doc(v) for name, v in values if v is not None}


def _from_doc(cls, doc):
    """``cls(**doc)``, with the nested dataclass keys decoded first."""
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} needs a JSON object, got {type(doc).__name__}")
    if not isinstance(doc.get("diagnostics", {}), dict):
        raise TypeError(f"{cls.__name__} diagnostics must be a JSON object")
    return cls(**{k: _from_doc(_NESTED[k], v) if k in _NESTED else v
                  for k, v in doc.items()})


def _mode(table, obj, what) -> str:
    for mode, cls in table.items():
        if isinstance(obj, cls):
            return mode
    raise InvalidConfig(f"not {what}: {type(obj).__name__}")


def _object(doc, what) -> dict:
    """A shallow copy of a JSON object; any other JSON value is malformed."""
    if not isinstance(doc, dict):
        raise InvalidConfig(f"malformed {what} document: expected a JSON object, "
                            f"got {type(doc).__name__}")
    return dict(doc)


def _decode(table, fields: dict, what):
    """The class ``fields["mode"]`` names in ``table``, built from the other keys."""
    mode = fields.pop("mode", None)
    try:
        if mode not in table:
            raise ValueError(f"unknown mode {mode!r}")
        return _from_doc(table[mode], fields)
    except (TypeError, ValueError, InvalidConfig) as exc:
        raise InvalidConfig(f"malformed {what} document: {exc}") from None


def scenario_to_dict(scenario) -> dict:
    mode = _mode(_SCENARIOS, scenario, "a scenario")
    return _jsonable({"mode": mode, **_to_doc(scenario)})


def scenario_from_dict(doc: dict):
    return _decode(_SCENARIOS, _object(doc, "scenario"), "scenario")


def model_to_dict(model) -> dict:
    """Schema-versioned plain-dict form of a fitted pipeline."""
    mode = _mode(_MODELS, model, "a saveable model")
    return _jsonable({"schema_version": SCHEMA_VERSION, "mode": mode,
                      **_to_doc(model)})


def model_from_dict(doc: dict):
    """Rebuild a fitted pipeline from its plain-dict form."""
    fields = _object(doc, "model")
    version = fields.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise InvalidConfig(f"malformed model document: schema version {version!r} "
                            f"is not the supported version {SCHEMA_VERSION}")
    return _decode(_MODELS, fields, "model")


def save_model(path, model) -> None:
    _dump_json(path, model_to_dict(model))


def load_model(path):
    return model_from_dict(_load_json(path))


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


def _dump_json(path, doc) -> None:
    text = json.dumps(doc, sort_keys=True, allow_nan=False, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"{path} is not valid UTF-8 JSON: {exc}") from None


# ---------------------------------------------------------------------------
# benchmark reports
# ---------------------------------------------------------------------------

def write_report(path, rows) -> None:
    """Benchmark rows as CSV, one row per (trial, component, parameter)."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, REPORT_COLUMNS, restval="", extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows({col: format(val, ".17g") if isinstance(val, (float, np.floating))
                          else val for col, val in row.items()} for row in rows)
