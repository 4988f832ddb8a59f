#!/usr/bin/env python3
"""Traced memory of one training step: what the forward leaves live, and backward's peak.

Builds a network, draws one batch of hard-regime pairs (60% outliers) and
runs one step of `training._gradients` (forward, geometry loss from step 0,
backward) under tracemalloc. The parameters and the batch are allocated
before tracing starts, so the figures are the step's own memory:

- live after forward: traced memory when backward starts (forward plus loss);
- backward peak: the highest traced memory inside backward;
- live after backward: what is left when it returns (the parameters' .grad).

Usage: python3 scripts/step_memory.py [--net desk|paper] [--batch 8] [--points 512]
"""

import argparse
import os
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from twoview import autodiff as ad  # noqa: E402
from twoview import training  # noqa: E402
from twoview.losses import LossConfig, LossCounters  # noqa: E402
from twoview.network import Network, NetworkConfig, desk_config  # noqa: E402
from twoview.synthdata import SceneConfig, generate_dataset  # noqa: E402

MB = 1e6


def step_memory(net_cfg, batch, points):
    """(live after forward, backward peak, live after backward) in bytes for one step."""
    pairs = generate_dataset(SceneConfig(n=points, outlier_ratio=0.6, pixel_noise=1.0), batch,
                             base_seed=4100)
    corr = np.stack([p.correspondences for p in pairs])
    labels = np.stack([p.labels for p in pairs])
    egts = np.stack([p.essential for p in pairs])
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
        training._gradients(net, corr, labels, egts, LossConfig(kind="geometry", warmup=0), 0,
                            LossCounters())
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        ad.backward = backward
    (live, peak), = seen
    return live, peak, after


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--net", choices=("desk", "paper"), default="desk",
                        help="desk_config() or the paper-sized NetworkConfig()")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--points", type=int, default=512)
    args = parser.parse_args(argv)
    make = desk_config if args.net == "desk" else NetworkConfig
    live, peak, after = step_memory(make(expected_points=args.points), args.batch, args.points)
    print(f"{args.net} B={args.batch} N={args.points}: live after forward {live / MB:.1f} MB, "
          f"backward peak {peak / MB:.1f} MB, live after backward {after / MB:.1f} MB")


if __name__ == "__main__":
    main()
