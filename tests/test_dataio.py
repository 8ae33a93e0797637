"""File formats: dataset CSV, model JSON, truth sidecars, reports."""

import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from latentcause import (
    DimensionMismatch,
    InvalidConfig,
    KernelSpec,
    LatentCauseError,
    UnfittedModel,
    estimate_ate,
    fit_effects,
    fit_multitreatment,
    fit_multiview,
    load_model,
    model_from_dict,
    model_to_dict,
    mt_ate,
    read_dataset,
    save_model,
    scenario_from_dict,
    scenario_to_dict,
    three_cluster_gaussian,
    truth_path,
    two_state_discrete,
    write_dataset,
    write_report,
    write_truth,
)
from latentcause.causal import SIGMA_FLOOR


def test_multiproxy_dataset_round_trip_exact(tmp_path, proxy_case):
    _, data, _ = proxy_case
    path = tmp_path / "d.csv"
    write_dataset(path, data)
    back, mode = read_dataset(path)
    assert mode == "multiproxy"
    for key in ("z1", "z2", "z3", "a", "y"):
        assert np.array_equal(back[key], data[key])


def test_adversarial_floats_round_trip_exact(tmp_path):
    vals = np.array([1e-308, -1e300, 0.1, 1 / 3, np.pi, -0.0, 2.0 ** -52])
    n = vals.shape[0]
    data = {
        "z1": vals[:, None], "z2": vals[::-1].copy()[:, None],
        "z3": np.full((n, 1), 1e16 + 1.0),
        "a": vals * 7.0, "y": vals + 1.0,
    }
    path = tmp_path / "adv.csv"
    write_dataset(path, data)
    back, _ = read_dataset(path)
    for key in data:
        assert np.array_equal(back[key], data[key])


def test_multitreatment_dataset_round_trip(tmp_path, discrete_case):
    _, data, _ = discrete_case
    path = tmp_path / "mt.csv"
    write_dataset(path, data)
    back, mode = read_dataset(path)
    assert mode == "multitreatment"
    for key in ("a1", "a2", "a3"):
        assert np.array_equal(back[key], data[key])
        assert back[key].dtype.kind == "i"
    assert np.array_equal(back["y"], data["y"])


def test_empty_dataset_round_trip(tmp_path):
    data = {"z1": np.zeros((0, 2)), "z2": np.zeros((0, 2)),
            "z3": np.zeros((0, 2)), "a": np.zeros(0), "y": np.zeros(0)}
    path = tmp_path / "empty.csv"
    write_dataset(path, data)
    back, mode = read_dataset(path)
    assert mode == "multiproxy"
    assert back["z1"].shape == (0, 2)
    assert back["a"].shape == (0,)


def test_write_dataset_checks_columns_before_writing(tmp_path):
    views = {"z1": np.zeros((3, 1)), "z2": np.zeros((3, 1)), "z3": np.zeros((3, 1)),
             "a": np.zeros(3)}
    nan_view = {**views, "z1": np.array([[0.0], [np.nan], [0.0]]), "y": np.zeros(3)}
    cases = [
        ({**views, "y": np.zeros(2)}, DimensionMismatch),
        ({**views, "y": np.zeros(4)}, DimensionMismatch),
        ({**views, "z2": np.zeros((3, 2)), "y": np.zeros(3)}, DimensionMismatch),
        (nan_view, InvalidConfig),
        ({**views, "y": ["a", "b", "c"]}, InvalidConfig),
        ({"a1": np.array([2.7]), "a2": np.array([0]), "a3": np.array([1]),
          "y": np.zeros(1)}, InvalidConfig),
        ({"a1": np.array([-1]), "a2": np.array([0]), "a3": np.array([1]),
          "y": np.zeros(1)}, InvalidConfig),
    ]
    for i, (data, error) in enumerate(cases):
        path = tmp_path / f"bad{i}.csv"
        with pytest.raises(error):
            write_dataset(path, data)
        assert not path.exists()


def test_read_dataset_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("w1,w2\n1,2\n")
    with pytest.raises(InvalidConfig):
        read_dataset(bad_header)

    ragged = tmp_path / "r.csv"
    ragged.write_text("z1_0,z2_0,z3_0,a,y\n1,2,3,4,5\n1,2,3\n")
    with pytest.raises(InvalidConfig):
        read_dataset(ragged)

    words = tmp_path / "w.csv"
    words.write_text("z1_0,z2_0,z3_0,a,y\n1,2,three,4,5\n")
    with pytest.raises(InvalidConfig):
        read_dataset(words)

    negative = tmp_path / "n.csv"
    negative.write_text("a1,a2,a3,y\n1,-2,0,0.5\n")
    with pytest.raises(InvalidConfig):
        read_dataset(negative)


_HEADER = "z1_0,z2_0,z3_0,a,y\n"
_ROW = "1,2,3,4,5\n"


@pytest.mark.parametrize("text, n_rows", [
    pytest.param(_HEADER + _ROW + "\n", 1, id="trailing-blank-line"),
    pytest.param(_HEADER + _ROW + "\n" + _ROW, 2, id="blank-line-between-rows"),
    pytest.param(_HEADER + _ROW + " \n", 1, id="trailing-line-of-spaces"),
    pytest.param(_HEADER + _ROW + "  ", 1, id="unterminated-line-of-spaces"),
    pytest.param((_HEADER + _ROW + " \t\n" + _ROW).replace("\n", "\r\n"), 2,
                 id="crlf-whitespace-line-between-rows"),
    pytest.param(_HEADER + '"1",2,3,"4",5\n', 1, id="quoted-numbers"),
    pytest.param((_HEADER + _ROW + _ROW).replace("\n", "\r\n"), 2, id="crlf"),
    pytest.param(_HEADER, 0, id="header-only"),
    pytest.param(_HEADER + "#" + _ROW, None, id="hash-line"),
    pytest.param(_HEADER + "1_0,2,3,4,5\n", None, id="underscore-digits"),
    pytest.param(_HEADER + "1,2,3,4\n" * 2, None, id="every-row-one-short"),
    pytest.param(_HEADER + "1,2,\x003,4,5\n", None, id="nul-byte"),
    pytest.param("\ufeff" + _HEADER + _ROW, None, id="bom"),
])
def test_read_dataset_edge_cases(tmp_path, text, n_rows):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if n_rows is None:
            with pytest.raises(InvalidConfig):
                read_dataset(path)
            return
        data, mode = read_dataset(path)
    assert mode == "multiproxy"
    assert data["z1"].shape == (n_rows, 1)
    for key, value in zip(("z1", "z2", "z3", "a", "y"), range(1, 6)):
        assert np.all(data[key] == value), key


def _assert_compact_json(path):
    """The file is one line of JSON with sorted keys and no whitespace."""
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"


def test_model_round_trip_multiproxy(tmp_path, proxy_case):
    _, data, _ = proxy_case
    mixture = fit_multiview(data["z1"], data["z2"], data["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0), seed=0)
    model = fit_effects(data, mixture)
    path = tmp_path / "m.json"
    save_model(path, model)
    loaded = load_model(path)
    for a in (-1.0, 0.0, 2.5):
        assert abs(estimate_ate(loaded, a) - estimate_ate(model, a)) <= 1e-12
    again = tmp_path / "m2.json"
    save_model(again, loaded)
    assert path.read_bytes() == again.read_bytes()
    _assert_compact_json(path)

    # fields whose value is None are left out: a kernel mixture has no
    # emissions key, and an estimate without a seed has no seed key
    doc = json.loads(path.read_text())["mixture"]
    assert "emissions" not in doc and doc["seed"] == 0
    unseeded = dataclasses.replace(
        model, mixture=dataclasses.replace(model.mixture, seed=None))
    path = tmp_path / "unseeded.json"
    save_model(path, unseeded)
    assert "seed" not in json.loads(path.read_text())["mixture"]
    loaded = load_model(path)
    assert loaded.mixture.seed is None
    assert estimate_ate(loaded, 1.0) == estimate_ate(model, 1.0)
    save_model(again, loaded)
    assert path.read_bytes() == again.read_bytes()


def test_model_round_trip_multitreatment(tmp_path, discrete_case):
    _, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    path = tmp_path / "mt.json"
    save_model(path, model)
    mixture_keys = json.loads(path.read_text())["mixture"].keys()
    assert not {"kernel", "anchors", "coefficients"} & mixture_keys
    loaded = load_model(path)
    assert abs(mt_ate(loaded, (1, 1, 1)) - mt_ate(model, (1, 1, 1))) <= 1e-12
    again = tmp_path / "mt2.json"
    save_model(again, loaded)
    assert path.read_bytes() == again.read_bytes()
    _assert_compact_json(path)


def test_model_document_is_schema_versioned(discrete_case):
    _, data, _ = discrete_case
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    doc = model_to_dict(model)
    assert doc["schema_version"] == 4
    assert doc["mode"] == "multitreatment"
    round_tripped = model_from_dict(json.loads(json.dumps(doc)))
    assert np.array_equal(round_tripped.gamma, model.gamma)


def _small_proxy_model(proxy_case):
    _, data, _ = proxy_case
    part = {key: value[:600] for key, value in data.items()}
    mixture = fit_multiview(part["z1"], part["z2"], part["z3"], 3,
                            kernel=KernelSpec(bandwidth=1.0, landmark_count=100), seed=0)
    return fit_effects(part, mixture)


def _leaf_paths(doc, prefix=()):
    """Key paths to the scalar leaves of a JSON document, first list item only."""
    if isinstance(doc, dict):
        return [p for key, v in doc.items() for p in _leaf_paths(v, prefix + (key,))]
    if isinstance(doc, list):
        return _leaf_paths(doc[0], prefix + (0,)) if doc else []
    return [prefix]


def _replaced(doc, keys, value):
    """A deep copy of doc with the value at the key path ``keys`` replaced."""
    out = json.loads(json.dumps(doc))
    target = out
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return out


def test_schema_2_documents_drop_fixed_fields(proxy_case, discrete_case):
    _, data, _ = discrete_case
    docs = [model_to_dict(_small_proxy_model(proxy_case)),
            model_to_dict(fit_multitreatment(data["a1"], data["a2"], data["a3"],
                                             data["y"], 2, seed=0))]
    for doc in docs:
        keys = {key for path in _leaf_paths(doc) for key in path}
        assert keys.isdisjoint({"family", "density_floor", "priors_raw",
                                "include_constant", "feature_map", "xi_map",
                                "priors", "rule", "power_c", "power_b"})
        for old in (1, 2, 3):
            with pytest.raises(InvalidConfig, match=f"version {old} "):
                model_from_dict({**doc, "schema_version": old})


def test_malformed_model_documents_rejected(tmp_path, discrete_case, proxy_case):
    with pytest.raises(InvalidConfig):
        model_from_dict({"schema_version": 1})
    with pytest.raises(InvalidConfig):
        model_from_dict({"schema_version": 99, "mode": "multiproxy"})
    with pytest.raises(InvalidConfig):
        model_from_dict({"schema_version": 1, "mode": "bogus"})
    with pytest.raises(InvalidConfig):
        model_from_dict([1, 2])

    _, data, _ = discrete_case
    doc = model_to_dict(fit_multitreatment(data["a1"], data["a2"], data["a3"],
                                           data["y"], 2, seed=0))

    ems = doc["mixture"]["emissions"]
    cases = [
        (("mixture", "lambdas", 0), "half", InvalidConfig),
        (("mixture", "lambdas", 0), float("inf"), InvalidConfig),
        (("mixture", "lambdas", 1), -3.0, InvalidConfig),
        (("mixture", "lambdas", 0), 0, InvalidConfig),
        (("mixture", "seed"), "abc", InvalidConfig),
        (("mixture", "seed"), 1.5, InvalidConfig),
        (("mixture", "seed"), -1, InvalidConfig),
        (("mixture", "seed"), True, InvalidConfig),
        (("gamma", 0, 0), "x", InvalidConfig),
        (("gamma", 0, 0), "1.5", InvalidConfig),    # refused, not read as 1.5
        (("gamma",), [row[:3] for row in doc["gamma"]], DimensionMismatch),
        (("mixture", "bogus"), 1, InvalidConfig),              # unknown key
        (("mixture", "emissions", 0, 0), [0.5], InvalidConfig),  # ragged
        (("mixture", "emissions"), [[row[:1] for row in e] for e in ems],
         DimensionMismatch),                                   # S x 1 for K = 2
        (("mixture", "emissions"), ems[:2], DimensionMismatch),
        (("mixture", "emissions", 1, 0, 0), -0.1, InvalidConfig),
    ]
    kernel_doc = model_to_dict(_small_proxy_model(proxy_case))
    kernel_cases = [
        (("mixture", "kernel", "landmark_count"), 1e400, InvalidConfig),
        (("mixture", "kernel", "landmark_count"), 2.5, InvalidConfig),
        (("mixture", "kernel", "bandwidth"), 1e400, InvalidConfig),
        (("mixture", "kernel", "bandwidth"), "wide", InvalidConfig),
        (("mixture", "kernel", "bandwidth"), True, InvalidConfig),
        (("mixture", "coefficients", 1, 2, 0), float("nan"), InvalidConfig),
        (("mixture", "anchors", 0, 0, 0), 1e400, InvalidConfig),
        (("outcome", "beta"), [row[:-1] for row in kernel_doc["outcome"]["beta"]],
         DimensionMismatch),
        (("treatment", "alpha"), [row[:-1] for row in kernel_doc["treatment"]["alpha"]],
         DimensionMismatch),
        (("mixture", "diagnostics"), 5, InvalidConfig),
        (("diagnostics",), [1, 2], InvalidConfig),
    ]
    path = tmp_path / "bad.json"
    for base, keys, value, error in ([(doc, *c) for c in cases]
                                     + [(kernel_doc, *c) for c in kernel_cases]):
        bad = _replaced(base, keys, value)
        message = "malformed model document" if error is InvalidConfig else None
        with pytest.raises(error, match=message):
            model_from_dict(bad)
        path.write_text(json.dumps(bad))
        with pytest.raises(error, match=message):
            load_model(path)


@pytest.fixture(scope="module")
def saved_documents(proxy_case, discrete_case):
    _, data, _ = discrete_case
    return {"kernel": model_to_dict(_small_proxy_model(proxy_case)),
            "discrete": model_to_dict(fit_multitreatment(data["a1"], data["a2"], data["a3"],
                                                         data["y"], 2, seed=0))}


_DROP = object()

# the model constructors' refusals, reached through a saved document: (document,
# key path, replacement built from both documents or _DROP to delete the key,
# error, message)
MODEL_REFUSALS = {
    "alpha_1d": ("kernel", ("treatment", "alpha"), lambda d: d["kernel"]["treatment"]["alpha"][0],
                 DimensionMismatch, "alpha must be K x L"),
    "sigma2_short": ("kernel", ("treatment", "sigma2"),
                     lambda d: d["kernel"]["treatment"]["sigma2"][:-1],
                     DimensionMismatch, "one variance per component"),
    "beta_1d": ("kernel", ("outcome", "beta"), lambda d: d["kernel"]["outcome"]["beta"][0],
                DimensionMismatch, "beta must be K x M"),
    "z_feature_means_row_short": ("kernel", ("z_feature_means",),
                                  lambda d: d["kernel"]["z_feature_means"][:-1],
                                  DimensionMismatch, "one stored feature row per component"),
    "beta_k_minus_1_rows": ("kernel", ("outcome", "beta"),
                            lambda d: d["kernel"]["outcome"]["beta"][:-1],
                            DimensionMismatch, "disagree on component count"),
    "lambdas_empty": ("discrete", ("mixture", "lambdas"), lambda d: [],
                      DimensionMismatch, "lambdas must be a nonempty vector"),
    "variance_below_floor": ("kernel", ("treatment", "sigma2", 0), lambda d: SIGMA_FLOOR / 2,
                             InvalidConfig, "variances must be at least"),
    "kernel_mixture_in_multitreatment": ("discrete", ("mixture",),
                                         lambda d: d["kernel"]["mixture"],
                                         InvalidConfig, "pipeline is categorical"),
    "kernel_without_anchors": ("kernel", ("mixture", "anchors"), _DROP,
                               UnfittedModel, "needs kernel, anchors, coefficients"),
    "discrete_without_emissions": ("discrete", ("mixture", "emissions"), _DROP,
                                   UnfittedModel, "needs emission matrices"),
}


def _write_text(path, text):
    path.write_text(text)
    return path


# the file layer's own refusals: (call on the saved documents and a scratch
# directory, message)
FILE_REFUSALS = {
    "dataset_without_a_column_family": (
        lambda d, tmp: write_dataset(tmp / "x.csv", {"z1": np.zeros(3), "y": np.zeros(3)}),
        "dataset must carry z1/z2/z3/a/y or a1/a2/a3/y columns"),
    "two_treatment_header": (
        lambda d, tmp: read_dataset(_write_text(tmp / "a.csv", "a1,a2,y\n0,1,0.5\n")),
        "unexpected treatment columns"),
    "unserializable_diagnostics": (
        lambda d, tmp: model_to_dict(dataclasses.replace(model_from_dict(d["discrete"]),
                                                         diagnostics={"when": object()})),
        "cannot serialize object values"),
    "mixture_not_an_object": (
        lambda d, tmp: model_from_dict({**d["discrete"], "mixture": []}),
        "MixtureEstimate needs a JSON object, got list"),
    "save_a_mixture": (
        lambda d, tmp: save_model(tmp / "m.json", model_from_dict(d["discrete"]).mixture),
        "not a saveable model: MixtureEstimate"),
}


def test_boolean_diagnostics_round_trip_as_booleans(saved_documents):
    # True is an int and np.True_ a numpy scalar; both must come back as booleans
    model = model_from_dict(saved_documents["discrete"])
    mixture = dataclasses.replace(model.mixture, diagnostics={"python": True, "numpy": np.True_})
    doc = json.loads(json.dumps(model_to_dict(dataclasses.replace(model, mixture=mixture))))
    assert doc["mixture"]["diagnostics"] == {"python": True, "numpy": True}
    loaded = model_from_dict(doc).mixture.diagnostics
    assert [loaded[key] is True for key in ("python", "numpy")] == [True, True]


@pytest.mark.parametrize("case", list(FILE_REFUSALS))
def test_file_layer_refuses_what_it_cannot_read_or_write(saved_documents, tmp_path, case):
    call, message = FILE_REFUSALS[case]
    with pytest.raises(InvalidConfig, match=message):
        call(saved_documents, tmp_path)


@pytest.mark.parametrize("case", list(MODEL_REFUSALS))
def test_model_constructors_refuse_edited_documents(saved_documents, case):
    base, keys, value, error, message = MODEL_REFUSALS[case]
    doc = json.loads(json.dumps(saved_documents[base]))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value(saved_documents)
    with pytest.raises(error, match=message):
        model_from_dict(doc)


def test_one_dimensional_proxies_run_end_to_end(tmp_path, proxy_case):
    # views with d = 1 given as 1-d arrays fit, save and load as their n x 1 columns do
    _, data, _ = proxy_case
    flat = {key: v[:1500, 0] if v.ndim == 2 else v[:1500] for key, v in data.items()}
    columns = {key: v[:, None] if key[0] == "z" else v for key, v in flat.items()}
    kernel = KernelSpec(bandwidth=1.0, landmark_count=200)
    model, column_model = (
        fit_effects(d, fit_multiview(d["z1"], d["z2"], d["z3"], 3, kernel=kernel, seed=0))
        for d in (flat, columns))
    assert model.z_feature_means.shape == (3, 1)
    assert model_to_dict(model) == model_to_dict(column_model)
    path = tmp_path / "d1.json"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.z_feature_means.shape == (3, 1)
    for a in (-1.0, 0.0, 2.5):
        assert np.isfinite(estimate_ate(model, a))
        assert estimate_ate(loaded, a) == estimate_ate(model, a)


def test_every_file_failure_is_a_latentcause_error(tmp_path, proxy_case, discrete_case):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    _, data, _ = discrete_case
    docs = [model_to_dict(_small_proxy_model(proxy_case)),
            model_to_dict(fit_multitreatment(data["a1"], data["a2"], data["a3"],
                                             data["y"], 2, seed=0))]
    leaves = [(i, keys) for i, doc in enumerate(docs) for keys in _leaf_paths(doc)]
    path = tmp_path / "drawn"

    def loads_or_raises_typed(reader):
        try:
            reader(path)
        except LatentCauseError:
            pass

    starts = [b"", b"z1_0,z2_0,z3_0,a,y\n", b"a1,a2,a3,y\n1,0,",
              b'{"schema_version": 4, "mode": "multitreatment", ']

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(st.sampled_from(starts), st.binary(max_size=40))
    def arbitrary_bytes(start, tail):
        path.write_bytes(start + tail)
        for reader in (read_dataset, load_model):
            loads_or_raises_typed(reader)

    values = st.one_of(st.text(max_size=4), st.sampled_from([1e400, -1e400]),
                       st.lists(st.integers(-3, 3), max_size=2),
                       st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
                       st.none())

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.sampled_from(leaves), values)
    def one_leaf_replaced(leaf, value):
        i, keys = leaf
        path.write_text(json.dumps(_replaced(docs[i], keys, value)))
        loads_or_raises_typed(load_model)

    arbitrary_bytes()
    one_leaf_replaced()


def test_truth_sidecar_round_trip(tmp_path):
    scenario = three_cluster_gaussian()
    labels = np.array([0, 2, 1, 1])
    path = truth_path(tmp_path / "d.csv")
    assert path.name == "d.truth.json"
    write_truth(path, scenario, labels, seed=7, n=4)
    _assert_compact_json(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["seed"] == 7 and doc["n"] == 4
    assert doc["labels"] == [0, 2, 1, 1]
    assert np.array_equal(scenario_from_dict(doc["scenario"]).beta, scenario.beta)

    mt = two_state_discrete()
    restored_mt = scenario_from_dict(scenario_to_dict(mt))
    assert np.array_equal(restored_mt.gamma, mt.gamma)
    for v in range(3):
        assert np.array_equal(restored_mt.emissions[v], mt.emissions[v])

    config = scenario_to_dict(scenario)
    config["proxy_sigma"] = 2
    restored = scenario_from_dict(json.loads(json.dumps(config)))
    assert type(restored.proxy_sigma) is float and restored.proxy_sigma == 2.0
    rebuilt = dataclasses.replace(scenario, proxy_sigma=2)
    assert json.dumps(scenario_to_dict(rebuilt)["proxy_sigma"]) == "2.0"


def test_scenario_dict_rejects_unknown_mode():
    with pytest.raises(InvalidConfig):
        scenario_from_dict({"mode": "quantum"})


def test_report_round_trip(tmp_path):
    rows = [
        {"scenario": "s", "n": 10, "trial": 0, "seed": 1, "component": 0,
         "parameter": "prior", "estimate": 0.5, "truth": 0.4,
         "aligned_abs_error": 0.1, "wall_ms": 12.5, "error": ""},
        {"scenario": "s", "n": 10, "trial": 1, "seed": 2, "component": "",
         "parameter": "", "estimate": "", "truth": "",
         "aligned_abs_error": "", "wall_ms": "", "error": "boom"},
        {"scenario": "s", "n": 10, "estimate": 0.1},            # columns missing
        {"scenario": "s", "n": 10, "truth": np.float64(0.4), "extra": 1},
    ]
    path = tmp_path / "rep.csv"
    write_report(path, rows)
    with path.open(encoding="utf-8", newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 4
    assert back[0]["n"] == "10" and float(back[0]["estimate"]) == 0.5
    assert back[1]["error"] == "boom" and back[1]["estimate"] == ""
    # missing columns are written empty, extra keys are dropped, floats take .17g
    assert path.read_text(encoding="utf-8").splitlines()[3:] == [
        "s,10,,,,,0.10000000000000001,,,,",
        "s,10,,,,,,0.40000000000000002,,,",
    ]
