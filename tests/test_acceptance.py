"""Acceptance suite.

Criteria 1-4, 7 and 8 run directly (seconds each). Criteria 5 and 6
evaluate trained models: they consume the artifacts produced by
scripts/run_acceptance_protocol.py (several CPU-hours for the full
3-seed, 4-variant training sweep). When the cache is absent the slow
criteria are skipped with instructions. A reproducibility check
re-evaluates one cached model from scratch so the cached numbers stay
tied to the checkpoints on disk.
"""

import json
import os
import time

import numpy as np
import pytest

from twoview import autodiff as ad
from twoview import eightpoint as e8
from twoview import epipolar as ep
from twoview.evalbench import (
    aggregate,
    classification_prf,
    evaluate_method,
    load_network,
    pose_map,
)
from twoview.gradcheck import run_gradcheck
from twoview.network import Network, desk_config
from twoview.ransac import RansacConfig, ransac_essential
from twoview.synthdata import SceneConfig, generate_pair, read_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CACHE = os.path.join(ROOT, "acceptance_cache")
SEEDS = ("0", "1", "2")
# criterion 5 ships the paper-direction best desk model: the two-stage
# iterative network; criterion 6's ablation chain is the single-stage family
CRITERION5_VARIANT = "iter"


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_weighted_eightpoint_exactness():
    started = time.time()
    worst = 0.0
    for seed in range(100):
        pair = generate_pair(SceneConfig(n=512, outlier_ratio=0.0, pixel_noise=0.0,
                                         seed=31_000 + seed))
        E = e8.weighted_eightpoint(pair.correspondences, np.ones(512))
        err = min(np.linalg.norm(E - pair.essential), np.linalg.norm(E + pair.essential))
        worst = max(worst, err)
    elapsed = time.time() - started
    report("1", worst < 1e-6 and elapsed < 10.0,
           f"100 noise-free pairs, worst min||E_hat +/- E_gt||_F = {worst:.2e}, "
           f"{elapsed:.1f}s (< 10s)")


def test_criterion_2_differentiability_suite():
    started = time.time()
    rows, ok = run_gradcheck(seed=0)
    elapsed = time.time() - started
    worst = max(err for _, err, _ in rows)
    names = {name for name, _, _ in rows}
    assert any("eigendecomposition" in n for n in names)
    report("2", ok and elapsed < 60.0,
           f"{len(rows)} gradient checks, worst rel err {worst:.2e} (< 1e-4), "
           f"{elapsed:.1f}s (< 60s)")


class TestCriterion3Permutation:
    """Criterion 3: what each unpool variant promises under input permutation.

    Pooling is invariant for both variants. The order-aware unpool learns its
    assignment from the pre-pool features, so the full forward pass is
    permutation-equivariant. The plain unpool learns its assignment from the
    clusters alone, so that assignment ignores the input order and the logits
    lose their alignment with it.
    """

    def scenes(self, count=5, n=512):
        return [generate_pair(SceneConfig(n=n, outlier_ratio=0.4, pixel_noise=1.0,
                                          seed=32_000 + s)) for s in range(count)]

    def test_diff_pool_invariance(self):
        net = Network(desk_config(), seed=3)
        worst = 0.0
        rng = np.random.default_rng(0)
        for pair in self.scenes():
            x = pair.correspondences[None]
            base = _cluster_features(net, x)
            for _ in range(4):
                perm = rng.permutation(x.shape[1])
                worst = max(worst, float(np.abs(_cluster_features(net, x[:, perm]) - base).max()))
        report("3 (pool invariance)", worst < 1e-9, f"worst cluster deviation {worst:.2e} (< 1e-9)")

    def test_forward_equivariance_order_aware(self):
        net = Network(desk_config(), seed=3)
        worst = self._equivariance_violation(net)
        report("3 (order-aware equivariance)", worst < 1e-6,
               f"worst logit deviation {worst:.2e} (< 1e-6)")

    def test_forward_equivariance_plain_unpool(self):
        net = Network(desk_config(unpool_variant="plain"), seed=3)
        deviations = self._permutation_deviations(net)
        assign_worst = max(dev for _, dev in deviations)
        logit_least = min(dev for dev, _ in deviations)
        report("3 (plain-unpool order loss)", assign_worst < 1e-9 and logit_least > 1e-3,
               f"worst unpool assignment deviation {assign_worst:.2e} (< 1e-9), "
               f"smallest logit deviation {logit_least:.2e} (> 1e-3) "
               f"over {len(deviations)} permutations")

    def test_row_alignment_only_order_aware(self):
        from twoview.autodiff import ParameterStore, Tensor
        from twoview.network import DiffUnpool

        rng = np.random.default_rng(5)
        x_pre = rng.normal(size=(1, 64, 32))
        clusters = rng.normal(size=(1, 128, 32))
        aligned = {}
        for variant in ("order_aware", "plain"):
            cfg = desk_config(unpool_variant=variant, expected_points=64)
            up = DiffUnpool(ParameterStore(), "up", 32, 128, cfg, np.random.default_rng(6))
            out = up(Tensor(x_pre), Tensor(clusters), "eval")[0].data
            deviations = []
            for seed in range(20):
                perm = np.random.default_rng(seed).permutation(64)
                out_p = up(Tensor(x_pre[:, perm]), Tensor(clusters), "eval")[0].data
                deviations.append(np.abs(out_p - out[:, perm]).max())
            aligned[variant] = max(deviations)
        report("3 (row alignment)",
               aligned["order_aware"] < 1e-9 and aligned["plain"] > 1e-3,
               f"order-aware deviation {aligned['order_aware']:.2e} (< 1e-9), "
               f"plain deviation {aligned['plain']:.2e} (misaligned as expected)")

    def _equivariance_violation(self, net):
        return max(logit_dev for logit_dev, _ in self._permutation_deviations(net))

    def _permutation_deviations(self, net):
        """(logit, unpool assignment) deviation for each of 5 scenes x 4 permutations.

        The logit deviation compares the permuted run against the permuted
        baseline (equivariance); the assignment deviation compares it against
        the unpermuted baseline (invariance).
        """
        deviations = []
        rng = np.random.default_rng(1)
        for pair in self.scenes():
            x = pair.correspondences[None]
            with ad.no_grad():
                base = net.forward(x, mode="eval")
            for _ in range(4):
                perm = rng.permutation(x.shape[1])
                with ad.no_grad():
                    out = net.forward(x[:, perm], mode="eval")
                logit_dev = float(np.abs(out.logits.data[0] - base.logits.data[0][perm]).max())
                assign_dev = float(np.abs(out.unpool_assign.data - base.unpool_assign.data).max())
                deviations.append((logit_dev, assign_dev))
        return deviations


def _cluster_features(net, x):
    """Post-pool cluster features for the invariance probe (eval mode)."""
    with ad.no_grad():
        h = net.stage.embed(ad.Tensor(np.ascontiguousarray(x)))
        for block in net.stage.before:
            h = block(h, "eval")
        clusters, _ = net.stage.pool(h, "eval")
    return clusters.data


def test_criterion_4_ransac_baseline():
    failures = 0
    worst = 0.0
    for seed in range(50):
        pair = generate_pair(SceneConfig(n=512, outlier_ratio=0.5, pixel_noise=0.0,
                                         seed=33_000 + seed))
        res = ransac_essential(pair.correspondences, RansacConfig(seed=seed))
        est = ep.recover_pose(res.essential, pair.correspondences, res.mask.astype(float))
        rot, trans = ep.pose_angular_errors(est, pair.pose())
        worst = max(worst, rot, trans)
        if rot >= 1.0 or trans >= 1.0:
            failures += 1
    # determinism under a fixed seed
    pair = generate_pair(SceneConfig(n=512, outlier_ratio=0.5, pixel_noise=0.0, seed=33_000))
    r1 = ransac_essential(pair.correspondences, RansacConfig(seed=0))
    r2 = ransac_essential(pair.correspondences, RansacConfig(seed=0))
    deterministic = np.array_equal(r1.essential, r2.essential) and np.array_equal(r1.mask, r2.mask)
    report("4", failures <= 2 and deterministic,
           f"50 pairs at 50% outliers: {50 - failures}/50 within 1 deg (need >= 47.5), "
           f"worst {worst:.2f} deg, deterministic={deterministic}")


# ---------------------------------------------------------------------------
# criteria 5 and 6: trained-model benchmarks from the protocol cache


def _summary():
    path = os.path.join(CACHE, "summary.json")
    if not os.path.exists(path):
        pytest.skip("acceptance_cache/summary.json missing; run "
                    "scripts/run_acceptance_protocol.py (several CPU-hours)")
    with open(path, "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    for variant in ("pointcn", "pool", "full", CRITERION5_VARIANT):
        for seed in SEEDS:
            ckpt = os.path.join(CACHE, f"model_{variant}_s{seed}.bin")
            if not os.path.exists(ckpt):
                pytest.skip(f"cached checkpoint missing: {ckpt}")
    return summary


def test_criterion_5_learning_beats_ransac():
    summary = _summary()
    ransac_map5 = summary["ransac_map5"]
    model = summary[CRITERION5_VARIANT]
    net_scores = [model[s]["net_map5"] for s in SEEDS]
    post_scores = [model[s]["net_ransac_map5"] for s in SEEDS]
    ok_net = all(score > ransac_map5 for score in net_scores)
    ok_post = all(score >= ransac_map5 for score in post_scores)
    report("5", ok_net and ok_post,
           f"net mAP5 per seed {net_scores} vs RANSAC {ransac_map5:.2f} (all must exceed); "
           f"net+RANSAC {post_scores} (all >= RANSAC)")


def test_criterion_6_ablation_ordering():
    summary = _summary()
    med = {v: float(np.median([summary[v][s]["net_map5"] for s in SEEDS]))
           for v in ("pointcn", "pool", "full")}
    ok = (med["pointcn"] <= med["pool"] + 1.0
          and med["pool"] <= med["full"] + 1.0
          and med["full"] > med["pointcn"])
    report("6", ok,
           f"median mAP5: pointcn {med['pointcn']:.2f} <= pool {med['pool']:.2f} (+1) "
           f"<= full {med['full']:.2f} (+1), full strictly > pointcn")


def test_criterion_5_6_cache_reproducible():
    """Re-evaluate one cached model from scratch; must match the stored numbers."""
    summary = _summary()
    heldout = read_dataset(os.path.join(CACHE, "heldout.txt"))
    net = load_network(os.path.join(CACHE, f"model_full_s0.bin"))
    rep = aggregate(evaluate_method(heldout, "net", net=net, seed=77), heldout)
    stored = summary["full"]["0"]
    ok = (abs(rep.map5 - stored["net_map5"]) < 1e-6
          and abs(rep.precision - stored["net_precision"]) < 1e-6)
    report("5/6 (cache integrity)", ok,
           f"re-evaluated full_s0: mAP5 {rep.map5:.4f} vs cached {stored['net_map5']:.4f}")


def test_iterative_refinement_direction():
    """Two-stage refinement at least matches the single-stage model (median seed)."""
    summary = _summary()
    if "iter" not in summary:
        pytest.skip("iterative variant not in protocol cache")
    med_iter = float(np.median([summary["iter"][s]["net_map5"] for s in SEEDS]))
    med_full = float(np.median([summary["full"][s]["net_map5"] for s in SEEDS]))
    assert med_iter >= med_full, (med_iter, med_full)


def test_training_smoke_loss_decreases():
    """Early training loss drops on the desk protocol, every seed (from cached logs)."""
    _summary()
    for seed in SEEDS:
        log = os.path.join(CACHE, f"model_full_s{seed}.bin.trainlog.csv")
        rows = [line.split(",") for line in open(log).read().splitlines()[1:]]
        by_step = {int(r[0]): float(r[1]) for r in rows}
        early = min(by_step)
        late = max(s for s in by_step if s <= 500)
        assert by_step[late] < by_step[early], (seed, by_step[early], by_step[late])


# ---------------------------------------------------------------------------
# criteria 7 and 8


def test_criterion_7_metric_self_consistency():
    hand = pose_map([(3.0, 0.0), (7.0, 0.0)], 5), pose_map([(3.0, 0.0), (7.0, 0.0)], 10)
    exact = hand == (50.0, 75.0)

    rng = np.random.default_rng(9)
    harmonic_ok = True
    for _ in range(50):
        mask = rng.uniform(size=40) < rng.uniform(0.2, 0.8)
        labels = rng.uniform(size=40) < rng.uniform(0.2, 0.8)
        p, r, f, _ = classification_prf(mask, labels)
        if p + r > 0 and abs(f - 2 * p * r / (p + r)) >= 1e-9:
            harmonic_ok = False

    monotone_ok = True
    for trial in range(20):
        errors = [(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(30)]
        a5, a10, a20 = pose_map(errors, 5), pose_map(errors, 10), pose_map(errors, 20)
        if not a5 <= a10 <= a20:
            monotone_ok = False

    report("7", exact and harmonic_ok and monotone_ok,
           f"hand example {hand} == (50, 75); F = 2PR/(P+R) within 1e-9; mAP monotone")


def test_criterion_8_determinism_and_round_trips(tmp_path):
    from twoview.cli import main

    cfg = tmp_path / "c.cfg"
    cfg.write_text("scene.n = 64\nnet.channels = 8\nnet.clusters = 4\n"
                   "net.blocks_before_pool = 1\nnet.blocks_after_unpool = 1\n"
                   "net.level2_blocks = 1\nnet.expected_points = 64\n"
                   "loss.warmup = 2\ntrain.batch_size = 2\ntrain.val_pairs = 2\n"
                   "train.log_every = 5\n")

    # dataset write/read is bit-exact and seed-deterministic
    d1, d2 = tmp_path / "d1.txt", tmp_path / "d2.txt"
    assert main(["gen", "--seed", "21", "--config", str(cfg), "--out", str(d1), "--pairs", "5"]) == 0
    assert main(["gen", "--seed", "21", "--config", str(cfg), "--out", str(d2), "--pairs", "5"]) == 0
    dataset_ok = d1.read_bytes() == d2.read_bytes()
    pairs = read_dataset(d1)
    round_trip_ok = all(np.array_equal(p.correspondences, q.correspondences)
                        for p, q in zip(pairs, read_dataset(d2)))

    # checkpoint save/load round-trips bit-exactly
    c1, c2 = tmp_path / "m1.bin", tmp_path / "m2.bin"
    assert main(["train", "--seed", "3", "--config", str(cfg), "--dataset", str(d1),
                 "--out", str(c1), "--steps", "8"]) == 0
    assert main(["train", "--seed", "3", "--config", str(cfg), "--dataset", str(d1),
                 "--out", str(c2), "--steps", "8"]) == 0
    ckpt_ok = c1.read_bytes() == c2.read_bytes()

    # identical seeds reproduce identical metrics.csv
    m1, m2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    for out in (m1, m2):
        assert main(["compare", "--seed", "5", "--config", str(cfg), "--dataset", str(d1),
                     "--methods", "net+ransac", "--checkpoint", str(c1),
                     "--out", str(out)]) == 0
    metrics_ok = m1.read_bytes() == m2.read_bytes()

    report("8", dataset_ok and round_trip_ok and ckpt_ok and metrics_ok,
           f"dataset bytes {dataset_ok}, round trip {round_trip_ok}, "
           f"checkpoint bytes {ckpt_ok}, metrics bytes {metrics_ok}")
