"""Memory of a training step: the forward keeps only what backward reads, backward consumes
its graph, no step's graph outlives it, and steady-state steps reuse the heap."""

import ctypes
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from twoview import autodiff as ad
from twoview import network, training
from twoview.config import TrainParams
from twoview.losses import LossConfig
from twoview.synthdata import SceneConfig, generate_dataset

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _graph_refs(loss):
    """Weak references to the backward closure of every op node under loss."""
    refs, stack, seen = [], [loss.node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward is None:
            continue
        seen.add(id(node))
        refs.append(weakref.ref(node.backward))
        stack.extend(node.parents)
    return refs


def test_backward_peak_is_the_forward_and_no_graph_outlives_its_step(monkeypatch):
    pairs = generate_dataset(SceneConfig(n=256, outlier_ratio=0.6, pixel_noise=1.0), 8,
                             base_seed=4100)
    graphs, peaks, made = [], [], []
    backward, forward, make = ad.backward, network.Network.forward, ad._make

    def recording_make(*args):
        # the data of every op output that joins a graph, whether or not a closure holds it
        t = make(*args)
        if t.node is not None:
            made.append(weakref.ref(t.data))
        return t

    def measured_backward(loss):
        graphs.append(_graph_refs(loss) + made)
        made.clear()
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peaks.append((live, tracemalloc.get_traced_memory()[1]))

    def checked_forward(self, *args, **kwargs):
        # validation and the next step's forward start with the last step's graph gone
        assert not any(ref() is not None for refs in graphs for ref in refs)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ad, "backward", measured_backward)
    monkeypatch.setattr(ad, "_make", recording_make)
    monkeypatch.setattr(network.Network, "forward", checked_forward)
    tracemalloc.start()
    try:
        net, rows, _ = training.run_training(
            pairs, network.desk_config(expected_points=256), LossConfig(kind="geometry", warmup=0),
            TrainParams(steps=3, batch_size=8, log_every=2, val_pairs=2), seed=0)
    finally:
        tracemalloc.stop()
    assert [r.step for r in rows] == [2, 3] and len(peaks) == 3
    assert all(np.isfinite(r.loss) for r in rows)
    for live, peak in peaks:
        assert peak <= 1.05 * live, f"backward peaked at {peak / live:.3f}x the live forward memory"
    assert not any(ref() is not None for refs in graphs for ref in refs)
    assert all(net.store[n].grad is not None for n in net.store.trainable_names())


def test_train_forward_frees_values_no_backward_reads(monkeypatch):
    """Unit outputs, residual sums and the pool logits die during the forward; what a backward
    reads, such as the head's input, stays."""
    pairs = generate_dataset(SceneConfig(n=256, outlier_ratio=0.6, pixel_noise=1.0), 4,
                             base_seed=4200)
    corr = np.stack([p.correspondences for p in pairs])
    net = network.Network(network.desk_config(expected_points=256), seed=1)
    stage = net.stage
    watched = {stage.before[0].unit1: "unit output", stage.before[0]: "residual sum",
               stage.pool.head: "pool logits", stage.after[-1]: "head input"}
    refs = {}

    def watching(call):
        def wrapper(self, *args, **kwargs):
            out = call(self, *args, **kwargs)
            if self in watched:
                refs[watched[self]] = weakref.ref(out.data)
            return out
        return wrapper

    for cls in (network.PointCNUnit, network.PointCNResBlock):
        monkeypatch.setattr(cls, "__call__", watching(cls.__call__))
    out = net.forward(corr, mode="train")
    assert sorted(refs) == ["head input", "pool logits", "residual sum", "unit output"]
    assert refs.pop("head input")() is not None  # the head's weight gradient reads it
    assert [what for what, ref in refs.items() if ref() is not None] == []
    ad.backward(ad.reduce_sum(out.logits * np.linspace(-1.0, 1.0, 256)))
    assert all(net.store[n].grad is not None for n in net.store.trainable_names())


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
def test_steady_state_train_steps_do_not_refault_the_heap():
    """Backward frees most of a step's memory; run_training keeps it mapped for the next forward
    instead of letting the allocator return it to the OS and fault it back in.

    scripts/step_memory.py counts the faults of desk steps at B=8, N=256 after its warm-up steps.
    They run in a fresh interpreter: glibc's default thresholds grow with what a process has
    freed, and earlier tests in this one can raise them far enough to hide the churn.
    """
    code = (f"import sys; sys.path.insert(0, {SCRIPTS!r}); import step_memory as s; "
            "from twoview.network import desk_config; "
            "print(s.steady_state(desk_config(expected_points=256), s.hard_pairs(8, 256))[0])")
    child = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                           text=True, env={"OPENBLAS_NUM_THREADS": "1", **os.environ})
    faults = float(child.stdout)
    assert faults < 200, f"median minor faults per step: {faults}"
