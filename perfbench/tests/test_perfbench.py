"""Tests of the benchmark itself: seeded inputs, tracer restore, self time, span coverage."""

import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import END, START, self_times, summarize  # noqa: E402

# the spans each workload must exercise at least once when traced
EXPECTED_SPANS = {
    "all": ["synthdata.generate_dataset", "synthdata.write_dataset", "synthdata.read_dataset",
            "network.forward", "network.PointCNUnit", "network.DiffPool",
            "network.SpatialCorrelationUnit", "network.DiffUnpool",
            "eightpoint.weighted_eightpoint_with_context", "eightpoint.symmetric_eig9",
            "epipolar.recover_pose", "epipolar.project_to_essential",
            "evalbench.evaluate_method", "autodiff.save_checkpoint",
            "evalbench.load_network"] + [f"autodiff.{op}" for op in layers.OPS],
    "train": ["training.run_training", "autodiff.backward", "autodiff.adam_step",
              "losses.total_loss", "losses.geometry_loss",
              "eightpoint.backward_from_context"]
             + [f"autodiff.{op}.backward" for op in layers.OPS],
    "eval": ["ransac.ransac_essential", "ransac.ransac_postprocess", "ransac.irls_refit",
             "eightpoint.symmetric_eig9_batched", "eightpoint.weighted_eightpoint",
             "epipolar.symmetric_epipolar_distances"],
}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(tmp_path, name):
    w = wl.WORKLOADS[name]
    for sub in "abc":
        (tmp_path / sub).mkdir()
    a = wl.setup(w, 3, str(tmp_path / "a"))
    b = wl.setup(w, 3, str(tmp_path / "b"))
    c = wl.setup(w, 4, str(tmp_path / "c"))
    assert a.digest == b.digest
    assert a.digest != c.digest
    for name_ in ("pairs.txt", "model.bin"):
        assert (tmp_path / "a" / name_).read_bytes() == (tmp_path / "b" / name_).read_bytes()


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_on_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("a", 9.0, 9.5, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 4.0 - 0.5, 3.0 - 1.0, 1.0, 4.0, 0.5]
    # projected onto {root, a1, b}: a1 counts as a child of root, a is dropped
    keep = {"root", "a1", "b"}.__contains__
    assert self_times(spans, keep) == [10.0 - 1.0 - 4.0, None, 1.0, 4.0, None]
    rows = summarize(spans)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["total_s"] == pytest.approx(3.5)
    assert rows["a"]["self_s"] == pytest.approx(2.5)
    assert sum(r["self_s"] for r in rows.values()) == pytest.approx(spans[0][END] - spans[0][START])


def _attribute_snapshot():
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in layers.sites(None, [])}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One traced round of each workload, with the attributes seen before and after."""
    before = _attribute_snapshot()
    out = {}
    for name, w in wl.WORKLOADS.items():
        workdir = str(tmp_path_factory.mktemp(name))
        metrics, attempted, failed, problems, spans = run.run_traced(
            replace(w, trace_rounds=1), 5, workdir)
        out[name] = (metrics, attempted, failed, problems, {s[0] for s in spans})
    return before, _attribute_snapshot(), out


def test_tracing_restores_every_wrapped_attribute(traced_runs):
    before, after, _ = traced_runs
    assert len(before) > 100
    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_expected_span_is_exercised(traced_runs, name):
    metrics, attempted, failed, problems, names = traced_runs[2][name]
    expected = EXPECTED_SPANS["all"] + EXPECTED_SPANS[wl.WORKLOADS[name].kind]
    assert [n for n in expected if n not in names] == []
    assert problems == []
    assert attempted > 0 and failed == 0
    assert set(run._declared_metrics("per_layer")) <= set(metrics)
