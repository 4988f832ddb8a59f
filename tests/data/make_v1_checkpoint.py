"""Write the format-1 checkpoint fixture that test_network.py loads.

It is a checkpoint of the last network layout that stored the perceptron
biases a normalisation cancels and the unpool head's copy of the pool
head's batch-norm buffers. It was made at commit 264630f, in a clone of the
repository, from its root:

    PYTHONPATH=src python tests/data/make_v1_checkpoint.py tests/data

It writes:
- legacy_v1.bin and legacy_v1.bin.netconfig: tiny_config() of
  tests/test_network.py after 4 train steps with the geometry loss, with
  the cancelled biases then set to random values of scale 0.3, so that
  loading has to fold or drop them;
- legacy_v1.json: the eval logits that commit gave for the checkpoint on
  one fixed pair, and for freshly built desk networks of each ablation
  variant on another.
"""

import json
import os
import sys

import numpy as np

from twoview import autodiff as ad
from twoview.autodiff import save_checkpoint
from twoview.config import TrainParams, write_network_config
from twoview.losses import LossConfig
from twoview.network import Network, desk_config
from twoview.synthdata import SceneConfig, generate_dataset, generate_pair
from twoview.training import run_training

# tiny_config() of tests/test_network.py
TINY = desk_config(channels=8, clusters=4, blocks_before_pool=1, blocks_after_unpool=1,
                   level2_blocks=1, expected_points=16)
TINY_PAIR = SceneConfig(n=16, outlier_ratio=0.25, pixel_noise=0.5, seed=70)
DESK_PAIR = SceneConfig(n=512, outlier_ratio=0.4, pixel_noise=0.5, seed=71)
DESK_SEED = 3
# the ablation variants of scripts/run_acceptance_protocol.py, plus the plain unpool
VARIANTS = {
    "pointcn": {"use_pool": False},
    "pool": {"level2_kind": "pointcn"},
    "full": {},
    "plain": {"unpool_variant": "plain"},
    "iter": {"iterative": True, "blocks_before_pool": 1, "blocks_after_unpool": 1,
             "level2_blocks": 1},
}
CANCELLED = (".unit1.perc.bias", ".half1.perc.bias", ".unpool.head.perc.bias")


def eval_logits(net, scene):
    with ad.no_grad():
        return net.forward(generate_pair(scene).correspondences[None], mode="eval").logits.data[0]


def main(out_dir):
    pairs = generate_dataset(SceneConfig(n=16, outlier_ratio=0.25, pixel_noise=0.5), 6,
                             base_seed=60)
    params = TrainParams(steps=4, batch_size=2, lr=1e-2, log_every=4, val_pairs=2)
    net, _, _ = run_training(pairs, TINY, LossConfig(kind="geometry", warmup=0), params, seed=5)
    rng = np.random.default_rng(8)
    for name in net.store.names():
        if name.endswith(CANCELLED):
            net.store[name].data[...] = rng.normal(0.0, 0.3, net.store[name].shape)
    path = os.path.join(out_dir, "legacy_v1.bin")
    save_checkpoint(net.store, path)
    write_network_config(TINY, path + ".netconfig")
    record = {
        "tiny_pair_seed": TINY_PAIR.seed,
        "tiny_logits": eval_logits(net, TINY_PAIR).tolist(),
        "desk_pair_seed": DESK_PAIR.seed,
        "desk_seed": DESK_SEED,
        "desk_logits": {name: eval_logits(Network(desk_config(**over), seed=DESK_SEED),
                                          DESK_PAIR).tolist()
                        for name, over in VARIANTS.items()},
    }
    with open(os.path.join(out_dir, "legacy_v1.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1])
