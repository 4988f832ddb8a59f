#!/usr/bin/env python3
"""Traced memory of one training step: what the forward leaves live, and backward's peak.

Builds a network, draws one batch of hard-regime pairs (60% outliers) and
runs one step of `training._gradients` (forward, geometry loss from step 0,
backward) under tracemalloc. The parameters and the batch are allocated
before tracing starts, so the figures are the step's own memory:

- live after forward: traced memory when backward starts (forward plus loss);
- backward peak: the highest traced memory inside backward;
- live after backward: what is left when it returns (the parameters' .grad).

A second line times the steady state: the same batch trained through
`run_training` for 5 warm-up and 10 measured steps, with the process's
minor page faults and the wall time per step (forward, backward and Adam),
each the median over the measured steps. A step that faults in thousands
of pages is one whose heap was handed back to the OS after the last step.

Usage: python3 scripts/step_memory.py [--net desk|paper] [--batch 8] [--points 512]
"""

import argparse
import os
import resource
import sys
import time
import tracemalloc
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from twoview import autodiff as ad  # noqa: E402
from twoview import training  # noqa: E402
from twoview.config import TrainParams, load_run_config  # noqa: E402
from twoview.losses import LossConfig, LossCounters  # noqa: E402
from twoview.network import Network, NetworkConfig  # noqa: E402
from twoview.synthdata import SceneConfig, generate_dataset  # noqa: E402

MB = 1e6
PAPER_CONFIG = os.path.join(ROOT, "configs", "paper.cfg")
WARMUP, MEASURED = 5, 10


def hard_pairs(batch, points):
    """`batch` hard-regime pairs (60% outliers) of `points` correspondences."""
    return generate_dataset(SceneConfig(n=points, outlier_ratio=0.6, pixel_noise=1.0), batch,
                            base_seed=4100)


def step_memory(net_cfg, pairs):
    """(live after forward, backward peak, live after backward) in bytes for one step."""
    corr = np.stack([p.correspondences for p in pairs])
    labels = np.stack([p.labels for p in pairs])
    net = Network(net_cfg, seed=0)
    seen = []
    backward = ad.backward

    def measured_backward(loss):
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(loss)
        seen.append((live, tracemalloc.get_traced_memory()[1]))

    ad.backward = measured_backward
    tracemalloc.start()
    try:
        training._gradients(net, corr, labels, LossConfig(warmup=0), 0, LossCounters())
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        ad.backward = backward
    (live, peak), = seen
    return live, peak, after


def steady_state(net_cfg, pairs):
    """Median (minor faults, seconds) per step over MEASURED steps of run_training after WARMUP."""
    marks, gradients = [], training._gradients

    def marked(*args):
        marks.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.perf_counter()))
        return gradients(*args)

    training._gradients = marked
    try:
        training.run_training(pairs, net_cfg, LossConfig(warmup=0),
                              TrainParams(steps=WARMUP + MEASURED + 1, batch_size=len(pairs),
                                          log_every=10**6, val_pairs=1), seed=0)
    finally:
        training._gradients = gradients
    per_step = np.diff(np.array(marks[WARMUP:]), axis=0)
    return np.median(per_step[:, 0]), np.median(per_step[:, 1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--net", choices=("desk", "paper"), default="desk",
                        help="the desk-scale NetworkConfig() or the network of configs/paper.cfg")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--points", type=int, default=512)
    args = parser.parse_args(argv)
    base = NetworkConfig() if args.net == "desk" else load_run_config(PAPER_CONFIG).network
    net_cfg, pairs = replace(base, expected_points=args.points), hard_pairs(args.batch, args.points)
    live, peak, after = step_memory(net_cfg, pairs)
    print(f"{args.net} B={args.batch} N={args.points}: live after forward {live / MB:.1f} MB, "
          f"backward peak {peak / MB:.1f} MB, live after backward {after / MB:.1f} MB")
    faults, seconds = steady_state(net_cfg, pairs)
    print(f"{args.net} B={args.batch} N={args.points}: {faults:.0f} minor faults and "
          f"{seconds * 1e3:.1f} ms per step (median of {MEASURED} after {WARMUP} warm-up steps)")


if __name__ == "__main__":
    main()
