"""The benchmark's workloads: set-up from a seed, a closed measured loop, output checks.

Each workload runs in one process, one call after another (a closed loop
with a single client). Inputs come only from the seed, through synthdata,
and pass through the dataset file format and, for the network, through a
checkpoint file, the way a real run receives them.
"""

import hashlib
import os
import statistics
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from twoview import autodiff, config, epipolar, evalbench, losses, network, ransac, synthdata, training

from layers import essential_problem

METHODS = ("ransac", "net", "net+ransac")
HARD = synthdata.SceneConfig(n=512, outlier_ratio=0.6, pixel_noise=1.0)
EASY = synthdata.SceneConfig(n=512, outlier_ratio=0.4, pixel_noise=0.5)
SETUP_REPEATS = 11
# One fixed model: how many points an untrained network keeps (4% to 99%
# across init seeds) would otherwise swing net+ransac by 4x between seeds.
NET_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "train" | "eval"
    scene: synthdata.SceneConfig
    pairs: int               # scenes generated in set-up
    heldout: int             # of those, the last `heldout` are evaluated
    trace_rounds: int        # fixed work of a traced run
    steps_per_round: int = 4
    batch_size: int = 8

    def params(self):
        out = {"kind": self.kind, "scene": asdict(self.scene), "pairs": self.pairs,
               "heldout": self.heldout, "network": asdict(network.desk_config()),
               "trace_rounds": self.trace_rounds}
        if self.kind == "train":
            out.update(steps_per_round=self.steps_per_round, batch_size=self.batch_size,
                       loss=asdict(LOSS))
        else:
            out.update(methods=list(METHODS), ransac=asdict(ransac.RansacConfig()))
        return out


LOSS = losses.LossConfig(kind="geometry", warmup=0)

WORKLOADS = {
    w.name: w for w in (
        Workload("train-hard", "train", HARD, pairs=40, heldout=8, trace_rounds=3),
        Workload("eval-hard", "eval", HARD, pairs=32, heldout=32, trace_rounds=4),
        Workload("eval-easy", "eval", EASY, pairs=128, heldout=128, trace_rounds=8),
    )
}


class CheckFailed(AssertionError):
    """A program output differs from what it must be."""


@dataclass
class Inputs:
    train: list
    heldout: list
    net: network.Network
    checkpoint: str
    digest: str              # sha256 of the dataset and checkpoint bytes


def _scene_seed(seed):
    return seed * 10_000


def _same_pair(a, b):
    return (a.config == b.config and a.seed == b.seed
            and all(np.asarray(getattr(a, f)).tobytes() == np.asarray(getattr(b, f)).tobytes()
                    for f in ("correspondences", "rotation", "translation", "essential", "labels")))


def _logits(net, pair):
    with autodiff.no_grad():
        return net.forward(pair.correspondences[None], mode="eval").logits.data


def setup(w: Workload, seed, workdir):
    """Generate the scenes, round-trip them through a dataset file, build and reload the network."""
    pairs = synthdata.generate_dataset(w.scene, w.pairs, base_seed=_scene_seed(seed))
    dataset = os.path.join(workdir, "pairs.txt")
    synthdata.write_dataset(pairs, dataset)
    loaded = synthdata.read_dataset(dataset)
    if len(loaded) != len(pairs) or not all(map(_same_pair, pairs, loaded)):
        raise CheckFailed("dataset read back differs from the generated scenes")

    built = network.Network(network.desk_config(), seed=NET_SEED)
    checkpoint = os.path.join(workdir, "model.bin")
    autodiff.save_checkpoint(built.store, checkpoint)
    config.write_network_config(built.config, checkpoint + ".netconfig")
    net = evalbench.load_network(checkpoint)
    heldout = loaded[len(loaded) - w.heldout:]
    if not np.array_equal(_logits(built, heldout[0]), _logits(net, heldout[0])):
        raise CheckFailed("logits of the reloaded checkpoint differ from the saved network")

    digest = hashlib.sha256()
    for path in (dataset, checkpoint, checkpoint + ".netconfig"):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return Inputs(loaded[:len(loaded) - w.heldout], heldout, net, checkpoint, digest.hexdigest())


class Tally:
    """Work done, time taken and failures, per measured path."""

    def __init__(self):
        self.items, self.seconds, self.failed = {}, {}, {}
        self.outcomes = {}    # (method, pair index) -> (rotation error, translation error)
        self.problems = []    # failed output checks

    def add(self, path, items, seconds, failed=0):
        for totals, value in ((self.items, items), (self.seconds, seconds), (self.failed, failed)):
            totals[path] = totals.get(path, 0) + value

    def rate(self, *paths):
        """Items per second of the time spent in these paths."""
        return sum(self.items[p] for p in paths) / sum(self.seconds[p] for p in paths)

    def failed_frac(self, *paths):
        return sum(self.failed[p] for p in paths) / sum(self.items[p] for p in paths)

    def counts(self):
        """(items attempted, items failed) over every path."""
        return sum(self.items.values()), sum(self.failed.values())


def _train_round(w, inputs, seed, r, tally):
    params = config.TrainParams(steps=w.steps_per_round, batch_size=w.batch_size,
                                log_every=w.steps_per_round, val_pairs=1)
    samples = w.steps_per_round * w.batch_size
    t0 = time.perf_counter()
    try:
        net, rows, counters = training.run_training(
            inputs.train, network.desk_config(), LOSS, params, seed=seed * 1000 + r,
            resume=inputs.checkpoint)
    except training.TrainingDiverged as err:
        tally.add("train", samples, time.perf_counter() - t0,
                  failed=(w.steps_per_round - err.step) * w.batch_size)
        tally.problems.append(f"round {r}: {err}")
        return
    tally.add("train", samples, time.perf_counter() - t0, failed=counters.skipped_samples)
    if not np.isfinite(rows[-1].loss):
        tally.problems.append(f"round {r}: training loss {rows[-1].loss!r}")
    _eval_pairs(inputs.heldout, range(len(inputs.heldout)), "net", net, seed, tally)


def _eval_pairs(pairs, indices, method, net, seed, tally):
    t0 = time.perf_counter()
    result = evalbench.evaluate_method([pairs[i] for i in indices], method, net=net,
                                       seed=seed + indices[0])
    seconds = time.perf_counter() - t0
    tally.add(method, len(indices), seconds, failed=sum(o.failed for o in result.outcomes))
    for i, o in zip(indices, result.outcomes):
        tally.outcomes.setdefault((method, i), (o.rotation_error_deg, o.translation_error_deg))


def run_round(w, inputs, seed, r, tally):
    """One closed-loop round: a short training run, or one held-out pair through every method."""
    if w.kind == "train":
        _train_round(w, inputs, seed, r, tally)
        return
    i = r % len(inputs.heldout)
    for method in METHODS:
        _eval_pairs(inputs.heldout, range(i, i + 1), method, inputs.net, seed, tally)


def measure(w, inputs, seed, rounds):
    """Exactly `rounds` rounds."""
    tally = Tally()
    for r in range(rounds):
        run_round(w, inputs, seed, r, tally)
    return tally


def measure_for(w, seed, seconds, workdir, setups=SETUP_REPEATS):
    """Rounds for `seconds`, with `setups` timed set-ups spread evenly over them.

    The host's speed drifts over seconds, so set-ups timed back to back
    would all see the same drift; spread out, their median is steadier.
    Returns (inputs, tally, median set-up seconds). Every set-up must give
    the same bytes.
    """
    times, digests = [], set()

    def timed_setup():
        t0 = time.perf_counter()
        inputs = setup(w, seed, workdir)
        times.append(time.perf_counter() - t0)
        digests.add(inputs.digest)
        return inputs

    inputs = timed_setup()
    measure(w, inputs, seed, rounds=1)                     # warm-up, not counted
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while (elapsed := time.perf_counter() - start) < seconds:
        if len(times) < setups and elapsed >= len(times) * seconds / setups:
            timed_setup()
        run_round(w, inputs, seed, r, tally)
        r += 1
    if len(digests) != 1:
        raise CheckFailed("the same seed produced different inputs across set-ups")
    return inputs, tally, statistics.median(times)


def _verify_pair(w, inputs, seed, tally):
    """Recompute the first held-out pair through the public solvers and check every essential."""
    pair = inputs.heldout[0]
    C = pair.correspondences
    problems = []
    net = inputs.net
    if w.kind == "train":
        net, _, _ = training.run_training(
            inputs.train, network.desk_config(), LOSS,
            config.TrainParams(steps=1, batch_size=w.batch_size, log_every=1, val_pairs=1),
            seed=seed, resume=inputs.checkpoint)
    with autodiff.no_grad():
        out = net.forward(C[None], mode="eval")
    candidates = {}
    if out.essentials[0] is not None:
        if abs(np.linalg.norm(out.essentials[0].data) - 1.0) > 1e-9:
            problems.append("weighted eight-point output is not unit norm")
        candidates["net"] = epipolar.project_to_essential(out.essentials[0].data)
    if w.kind == "eval":
        cfg = replace(ransac.RansacConfig(), seed=seed)
        candidates["ransac"] = ransac.ransac_essential(C, cfg).essential
        candidates["net+ransac"] = ransac.ransac_postprocess(C, out.weights.data[0], cfg).essential
    for method, E in candidates.items():
        problem = essential_problem(E)
        if problem:
            problems.append(f"{method}: {problem}")
        recorded = tally.outcomes.get((method, 0))
        if recorded is None or w.kind == "train":
            continue
        try:
            weights = (out.weights.data[0] if method == "net" else
                       (epipolar.symmetric_epipolar_distances(E, C) < cfg.threshold).astype(float))
            est = epipolar.recover_pose(E, C, weights)
            errors = epipolar.pose_angular_errors(est, pair.pose())
        except epipolar.NoValidCandidate:
            errors = (np.inf, np.inf)
        if tuple(errors) != recorded:
            problems.append(f"{method}: recomputed pose errors {errors} != evaluated {recorded}")
    return problems


def check_outputs(w, inputs, seed, tally):
    """Every output problem found in the measured rounds and in a recomputation of pair 0."""
    return tally.problems + _verify_pair(w, inputs, seed, tally)


def end_to_end(w, tally, setup_s, peak_rss_mb):
    """Values of the metrics in BENCHMARK.json, and the longer table printed before them."""
    if w.kind == "train":
        main = tally.rate("train")
        table = {
            "train.samples_per_s": (main, "1/s"),
            "train.failed_frac": (tally.failed_frac("train"), "frac"),
            "eval.net.pairs_per_s": (tally.rate("net"), "1/s"),
        }
    else:
        main = tally.rate(*METHODS)
        table = {f"eval.{m.replace('+', '_')}.pairs_per_s": (tally.rate(m), "1/s") for m in METHODS}
        errors = [e for (m, _), e in sorted(tally.outcomes.items()) if m == "ransac"]
        table["eval.ransac.map5"] = (evalbench.pose_map(errors, 5), "%")
        table["eval.ransac.map5_pairs"] = (len(errors), "count")
        table["eval.failed_frac"] = (tally.failed_frac(*METHODS), "frac")
    table["setup_s"] = (setup_s, "s")
    table["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics = {"setup_s": setup_s, "items_per_s": main, "net_pairs_per_s": tally.rate("net"),
               "peak_rss_mb": peak_rss_mb}
    return metrics, table
