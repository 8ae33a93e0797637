"""Tests of the benchmark's own arithmetic: spans, alignment, errors, TV.

    python3 -m pytest perfbench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from measures import (  # noqa: E402
    align, aligned_max_error, mean_tv, self_times, tail_percentile,
)
from tracing import Tracer, installed_wrappers, summarize  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name}


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("b", "root", 5.0, 6.0),
        span("a1", "a", 2.0, 3.0),
    ]
    own = self_times(spans)
    assert own["root"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["a"] == pytest.approx(3.0 - 1.0)
    assert own["a1"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(1.0)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Two workers run trials in parallel, one past the parent's end.
    spans = [
        span("sweep", None, 0.0, 10.0),
        span("w1", "sweep", 1.0, 6.0),
        span("w2", "sweep", 4.0, 8.0),
        span("w3", "sweep", 9.0, 12.0),
    ]
    assert self_times(spans)["sweep"] == pytest.approx(10.0 - 7.0 - 1.0)


def test_summarize_counts_only_spans_under_a_front_door():
    spans = [
        span("f", None, 0.0, 5.0, "mixture.fit_multiview"),
        span("g1", "f", 1.0, 2.0, "kernels.gram"),
        span("g2", "f", 3.0, 3.5, "kernels.gram"),
        span("stray", None, 6.0, 7.0, "kernels.gram"),
    ]
    spans[1]["facts"] = {"cells": 10}
    spans[2]["facts"] = {"cells": 5}
    out = summarize(spans)
    assert out["kernels.gram"]["calls"] == 2
    assert out["kernels.gram"]["total_ms"] == pytest.approx(1500.0)
    assert out["kernels.gram"]["facts"]["cells"] == 15
    assert out["mixture.fit_multiview"]["self_ms"] == pytest.approx(3500.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tracer_records_nesting_and_restores_every_name(tmp_path):
    import latentcause
    import latentcause.mixture as mixture

    original = mixture.gram
    with Tracer(tmp_path) as tracer:
        assert installed_wrappers()
        spec = latentcause.KernelSpec(bandwidth=1.0)
        latentcause.fit_multitreatment([0, 1, 2, 1] * 50, [1, 2, 0, 1] * 50,
                                       [2, 0, 1, 1] * 50, np.arange(200.0), k=2)
        mixture.gram(spec, np.zeros((2, 1)), np.zeros((3, 1)))
    assert installed_wrappers() == []
    assert mixture.gram is original
    spans = tracer.collect()
    names = {s["name"] for s in spans}
    assert {"multitreatment.fit_multitreatment", "mixture.fit_discrete_multiview",
            "mixture.posteriors", "causal._stacked_regression",
            "tensor_spectral.robust_power_method", "kernels.gram"} <= names
    front = next(s for s in spans if s["name"] == "multitreatment.fit_multitreatment")
    assert all(s["parent"] == front["id"] for s in spans
               if s["name"] == "mixture.fit_discrete_multiview")
    assert "kernels.gram" not in summarize(spans)


def test_align_finds_the_relabelling():
    truth = [[1.0, 2.5], [5.0, -1.0], [2.0, 4.0]]
    estimated = [truth[2], truth[0], truth[1]]
    assert align(estimated, truth) == [1, 2, 0]


def test_aligned_max_error_on_rows_and_scalars():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    est = np.array([[3.5, 4.0], [1.0, 1.75]])
    perm = align(est, truth)
    assert perm == [1, 0]
    assert aligned_max_error(est, truth, perm) == pytest.approx(0.5)
    assert aligned_max_error([0.7, 0.2], [0.25, 0.75], perm) == pytest.approx(0.05)


def test_mean_tv_on_hand_built_weights():
    oracle = np.array([[1.0, 0.0], [0.5, 0.5]])
    swapped = oracle[:, ::-1]
    assert mean_tv(swapped, oracle, [1, 0]) == 0.0
    est = np.array([[0.75, 0.25], [0.5, 0.5]])
    # Row TVs are 0.25 and 0; labels already agree.
    assert mean_tv(est, oracle, [0, 1]) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        mean_tv(est[:1], oracle, [0, 1])


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tail_percentile(list(range(10))) == (None, None)
    p, value = tail_percentile([float(i) for i in range(1, 101)])
    assert p == 90 and value == 90.0
    p, value = tail_percentile(list(range(1, 12)))
    assert p == 9 and value == 1
    assert 11 - math.ceil(p / 100 * 11) >= 10
