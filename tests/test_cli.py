"""Command line behavior: artifacts, determinism, and exit codes."""

import csv
import dataclasses
import json

import numpy as np
import pytest

from latentcause import (
    fit_multitreatment,
    load_model,
    mt_cate,
    save_model,
    scenario_to_dict,
    simulate_multitreatment,
    three_cluster_gaussian,
    two_state_discrete,
    write_dataset,
)
from latentcause.cli import main


@pytest.fixture(scope="module")
def proxy_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "d.csv"
    assert main(["simulate", "multiproxy", "--n", "800", "--seed", "7",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def proxy_model(tmp_path_factory, proxy_csv):
    path = tmp_path_factory.mktemp("cli-model") / "m.json"
    code = main(["fit", "--input", str(proxy_csv), "--k", "3",
                 "--bandwidth", "1.0", "--landmarks", "800", "--seed", "1",
                 "--out", str(path)])
    assert code == 0
    return path


def test_simulate_writes_dataset_and_truth(proxy_csv):
    assert proxy_csv.exists()
    sidecar = proxy_csv.with_suffix(".truth.json")
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text())
    assert doc["seed"] == 7 and doc["n"] == 800


def test_simulate_is_deterministic(tmp_path, proxy_csv):
    again = tmp_path / "again.csv"
    assert main(["simulate", "multiproxy", "--n", "800", "--seed", "7",
                 "--out", str(again)]) == 0
    assert again.read_bytes() == proxy_csv.read_bytes()


def test_simulate_zero_rows(tmp_path):
    out = tmp_path / "zero.csv"
    assert main(["simulate", "multiproxy", "--n", "0", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("z1_0,")


def test_simulate_accepts_scenario_config(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario_to_dict(two_state_discrete())))
    out = tmp_path / "mt.csv"
    assert main(["simulate", "multitreatment", "--n", "50",
                 "--scenario-config", str(config), "--out", str(out)]) == 0
    assert main(["simulate", "multiproxy", "--n", "50",
                 "--scenario-config", str(config),
                 "--out", str(tmp_path / "x.csv")]) == 2
    doc = scenario_to_dict(three_cluster_gaussian())
    doc["priors"][0] = float("nan")
    config.write_text(json.dumps(doc))
    assert main(["simulate", "multiproxy", "--n", "50",
                 "--scenario-config", str(config),
                 "--out", str(tmp_path / "nan.csv")]) == 2
    assert not (tmp_path / "nan.csv").exists()


def test_simulate_refuses_a_scenario_config_with_a_scalar_prior(tmp_path, capsys):
    doc = scenario_to_dict(three_cluster_gaussian())
    doc["priors"] = 1.0
    config = tmp_path / "scalar_prior.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "scalar.csv"
    assert main(["simulate", "multiproxy", "--n", "50",
                 "--scenario-config", str(config), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_fit_emits_diagnostics_and_is_deterministic(tmp_path, proxy_csv,
                                                    proxy_model, capsys):
    capsys.readouterr()
    refit = tmp_path / "refit.json"
    assert main(["fit", "--input", str(proxy_csv), "--k", "3",
                 "--bandwidth", "1.0", "--landmarks", "800", "--seed", "1",
                 "--out", str(refit)]) == 0
    captured = capsys.readouterr()
    diagnostics = json.loads(captured.err.strip().splitlines()[-1])
    assert diagnostics["mode"] == "multiproxy" and diagnostics["k"] == 3
    assert abs(sum(diagnostics["priors"]) - 1.0) <= 1e-10
    assert diagnostics["mixture"]["rank_margin"] >= 1.0
    assert len(diagnostics["mixture"]["landmark_rank"]) == 3
    assert all(0 < r <= 800 for r in diagnostics["mixture"]["landmark_rank"])
    assert refit.read_bytes() == proxy_model.read_bytes()


def test_estimate_ate_difference_matches_design_slope(proxy_model, capsys):
    capsys.readouterr()
    assert main(["estimate", "--model", str(proxy_model),
                 "ate", "--a", "0", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimand"] == "ate"
    slope = doc["value"][1] - doc["value"][0]
    assert abs(slope - 1.855) <= 0.35
    per = np.asarray(doc["per_component"])
    assert per.shape == (2, 3)


def test_estimate_cate_zero_coefficient_model(tmp_path, proxy_model, capsys):
    model = load_model(proxy_model)
    zeroed = dataclasses.replace(
        model, outcome=dataclasses.replace(model.outcome,
                                           beta=np.zeros_like(model.outcome.beta)))
    path = tmp_path / "zero.json"
    save_model(path, zeroed)
    capsys.readouterr()
    assert main(["estimate", "--model", str(path), "cate", "--u", "1",
                 "--a", "2.0", "--z", "1,1,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 0.0


def test_multiproxy_cate_needs_proxy_values(proxy_model, capsys):
    capsys.readouterr()
    assert main(["estimate", "--model", str(proxy_model), "cate",
                 "--u", "0", "--a", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: a multiproxy cate needs the proxy values (--z)" in out.err
    assert main(["estimate", "--model", str(proxy_model), "cate",
                 "--u", "0", "--a", "1", "2", "--z", "0,0,0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: cate takes a single treatment value, got 2" in out.err


def test_estimate_multitreatment_requires_three_values(tmp_path, capsys):
    data, _ = simulate_multitreatment(two_state_discrete(), 2000, seed=0)
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    path = tmp_path / "mt.json"
    save_model(path, model)
    capsys.readouterr()
    assert main(["estimate", "--model", str(path), "ate",
                 "--a", "1", "1", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"] - 1.9) <= 0.5
    assert main(["estimate", "--model", str(path), "ate", "--a", "1"]) == 2
    assert ("a multitreatment intervention takes exactly three treatment values, "
            "got 1") in capsys.readouterr().err
    assert main(["estimate", "--model", str(path), "cate", "--u", "0",
                 "--a", "1", "1", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == mt_cate(load_model(path), 0, (1, 1, 1))
    assert main(["estimate", "--model", str(path), "cate", "--u", "0",
                 "--a", "1", "1", "1", "--z", "0,0,0"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error: multitreatment models take no proxy values" in out.err


def test_estimate_rejects_non_finite_values(tmp_path, proxy_model, capsys):
    data, _ = simulate_multitreatment(two_state_discrete(), 1000, seed=0)
    mt = tmp_path / "mt.json"
    save_model(mt, fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                                      2, seed=0))
    capsys.readouterr()
    for model, args in ((proxy_model, ["ate", "--a", "nan"]),
                        (proxy_model, ["cate", "--u", "0", "--a", "1", "--z", "nan,0,0"]),
                        (mt, ["ate", "--a", "nan", "1", "1"])):
        assert main(["estimate", "--model", str(model)] + args) == 2, args
        out = capsys.readouterr()
        assert out.out == "", args
        assert "treatment and z values must be finite" in out.err, args


def test_estimate_rejects_malformed_model(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1}\n')
    assert main(["estimate", "--model", str(bad), "ate", "--a", "1"]) == 2
    err = capsys.readouterr().err
    assert "malformed model" in err

    data, _ = simulate_multitreatment(two_state_discrete(), 1000, seed=0)
    model = fit_multitreatment(data["a1"], data["a2"], data["a3"], data["y"],
                               2, seed=0)
    good = tmp_path / "good.json"
    save_model(good, model)
    gamma = json.loads(good.read_text())["gamma"]
    edits = [(("mixture", "lambdas", 0), "half", "malformed model"),
             (("gamma", 0, 0), "x", "malformed model"),
             (("mixture", "emissions", 0, 0), [0.5], "malformed model"),
             (("gamma",), [row[:3] for row in gamma], "gamma must be 2 x 4")]
    for keys, value, message in edits:
        doc = json.loads(good.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        bad.write_text(json.dumps(doc))
        assert main(["estimate", "--model", str(bad), "ate",
                     "--a", "1", "1", "1"]) == 2, keys
        assert message in capsys.readouterr().err, keys


def test_rank_selects_three_clusters(proxy_csv, tmp_path, capsys):
    capsys.readouterr()
    out = tmp_path / "scree.csv"
    assert main(["rank", "--input", str(proxy_csv), "--max-k", "8",
                 "--landmarks", "400", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "singular values:" in captured
    assert "selected rank: 3" in captured
    lines = out.read_text().splitlines()
    assert lines[0] == "index,singular_value" and len(lines) == 9


def test_rank_clips_oversized_max_k(tmp_path, capsys):
    out = tmp_path / "small.csv"
    assert main(["simulate", "multitreatment", "--n", "40",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["rank", "--input", str(out), "--max-k", "999"]) == 0
    captured = capsys.readouterr()
    assert "clipping" in captured.err
    assert "selected rank:" in captured.out
    # the gap needs two singular values; a smaller max-k is refused before
    # the input is read (a missing input would otherwise exit 1)
    spectrum = tmp_path / "scree.csv"
    for source in (out, tmp_path / "missing.csv"):
        assert main(["rank", "--input", str(source), "--max-k", "1",
                     "--out", str(spectrum)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "max-k must be at least 2" in captured.err
    # clipped to one sample, it fails the same way before printing
    one_row = tmp_path / "one.csv"
    one_row.write_text("a1,a2,a3,y\n1,0,1,0.5\n", encoding="utf-8")
    assert main(["rank", "--input", str(one_row), "--out", str(spectrum)]) == 2
    assert capsys.readouterr().out == ""
    assert not spectrum.exists()


def test_fit_reports_degenerate_spectrum(proxy_csv, tmp_path, capsys):
    capsys.readouterr()
    code = main(["fit", "--input", str(proxy_csv), "--k", "60",
                 "--landmarks", "100", "--out", str(tmp_path / "bad.json")])
    assert code == 2
    assert "degenerate spectrum at k=60" in capsys.readouterr().err


def test_negative_seed_exits_two_without_output(proxy_csv, tmp_path, capsys):
    out = tmp_path / "bad.csv"
    mt_csv = tmp_path / "mt.csv"
    write_dataset(mt_csv, simulate_multitreatment(two_state_discrete(), 200, seed=0)[0])
    commands = (
        ["simulate", "multiproxy", "--n", "10", "--out", str(out)],
        ["fit", "--input", str(proxy_csv), "--k", "3", "--out", str(tmp_path / "m.json")],
        ["rank", "--input", str(proxy_csv)],
        ["rank", "--input", str(mt_csv)],
        ["benchmark", "--scenario", "paper-7.2", "--ns", "300", "--trials", "1",
         "--workers", "1", "--out", str(tmp_path / "r.csv")],
    )
    capsys.readouterr()
    for command in commands:
        assert main(command + ["--seed", "-1"]) == 2, command
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a nonnegative integer, got -1\n", command
        assert captured.out == "", command
    assert list(tmp_path.iterdir()) == [mt_csv]


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["fit", "--input", "x.csv"]) == 1
    assert main(["benchmark", "--scenario", "paper-7.1", "--ns", "5,x",
                 "--trials", "1", "--out", str(tmp_path / "r.csv")]) == 1
    assert main(["benchmark", "--scenario", "mystery", "--ns", "5",
                 "--trials", "1", "--out", str(tmp_path / "r.csv")]) == 1
    capsys.readouterr()
    assert main(["benchmark", "--scenario", "paper-7.1", "--ns", "0,500",
                 "--trials", "1", "--out", str(tmp_path / "r.csv")]) == 1
    assert "sample sizes must be positive integers" in capsys.readouterr().err
    assert main(["estimate", "--model", str(tmp_path / "m.json"), "cate",
                 "--u", "0", "--a", "1", "--z", "0,x"]) == 1
    assert "expected a comma-separated number list, got '0,x'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_input_exits_one(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                 "--k", "3", "--out", str(tmp_path / "m.json")]) == 1
    capsys.readouterr()


def test_fit_takes_the_mode_from_the_dataset(tmp_path, capsys):
    data = tmp_path / "mt.csv"
    assert main(["simulate", "multitreatment", "--n", "2000", "--out", str(data)]) == 0
    capsys.readouterr()
    assert main(["fit", "--input", str(data), "--k", "2",
                 "--out", str(tmp_path / "mt.json")]) == 0
    diagnostics = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diagnostics["mode"] == "multitreatment"
    # the kernel options are checked for either mode
    assert main(["fit", "--input", str(data), "--k", "2", "--bandwidth", "0",
                 "--out", str(tmp_path / "bad.json")]) == 2
    assert "bandwidth must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "bad.json").exists()


def test_malformed_input_files_exit_two(tmp_path, capsys):
    truncated = tmp_path / "truncated.json"
    truncated.write_text("{")
    utf16 = tmp_path / "utf16.csv"
    utf16.write_bytes(b"\xff\xfe" + "z1_0,z2_0,z3_0,a,y\n".encode("utf-16-le"))
    out = str(tmp_path / "out")
    for bad in (truncated, utf16):
        assert main(["simulate", "multiproxy", "--n", "5", "--scenario-config",
                     str(bad), "--out", out + ".csv"]) == 2, bad
    assert main(["fit", "--input", str(utf16), "--k", "2", "--out", out + ".json"]) == 2
    assert main(["rank", "--input", str(utf16)]) == 2
    assert main(["estimate", "--model", str(utf16), "ate", "--a", "1"]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_benchmark_writes_report_and_summary(tmp_path, capsys):
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert main(["benchmark", "--scenario", "paper-7.2", "--ns", "400",
                 "--trials", "2", "--seed", "0", "--workers", "1",
                 "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "median abs error" in captured
    with out.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert all(r["scenario"] == "paper-7.2" for r in rows)
