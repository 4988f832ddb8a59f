"""Memory of a training step: backward consumes its graph, and no step's graph outlives it."""

import tracemalloc
import weakref

import numpy as np

from twoview import autodiff as ad
from twoview import network, training
from twoview.config import TrainParams
from twoview.losses import LossConfig
from twoview.synthdata import SceneConfig, generate_dataset


def _graph_refs(loss):
    """Weak references to the data and backward closure of every op node under loss."""
    refs, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        refs += [weakref.ref(node.data), weakref.ref(node._backward)]
        stack.extend(node._parents)
    return refs


def test_backward_peak_is_the_forward_and_no_graph_outlives_its_step(monkeypatch):
    pairs = generate_dataset(SceneConfig(n=256, outlier_ratio=0.6, pixel_noise=1.0), 8,
                             base_seed=4100)
    graphs, peaks = [], []
    backward, forward = ad.backward, network.Network.forward

    def measured_backward(loss):
        graphs.append(_graph_refs(loss))
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        peaks.append((live, tracemalloc.get_traced_memory()[1]))

    def checked_forward(self, *args, **kwargs):
        # validation and the next step's forward start with the last step's graph gone
        assert not any(ref() is not None for refs in graphs for ref in refs)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(ad, "backward", measured_backward)
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
