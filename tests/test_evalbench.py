import os
from dataclasses import replace

import numpy as np
import pytest

from twoview import autodiff as ad
from twoview import evalbench
from twoview.autodiff import ShapeMismatch, save_checkpoint
from twoview.config import write_network_config
from twoview.eightpoint import SolverBreakdown
from twoview.epipolar import NoValidCandidate, RankDeficient
from twoview.evalbench import (
    EmptyEvaluation,
    MissingCheckpoint,
    aggregate,
    classification_prf,
    compare_methods,
    evaluate_method,
    export_cluster_responses,
    load_network,
    pose_map,
    write_metrics_csv,
    write_responses_csv,
)
from twoview.network import Network, desk_config
from twoview.ransac import InsufficientCorrespondences, NoModelFound, RansacConfig
from twoview.synthdata import SceneConfig, generate_dataset, generate_pair


def easy_pairs(count=6, n=64, seed=0):
    return generate_dataset(SceneConfig(n=n, outlier_ratio=0.0, pixel_noise=0.0, seed=0),
                            count, base_seed=seed)


def tiny_net(seed=4, n=64):
    cfg = desk_config(channels=8, clusters=4, blocks_before_pool=1,
                      blocks_after_unpool=1, level2_blocks=1, expected_points=n)
    return Network(cfg, seed=seed)


class TestPoseMap:
    def test_all_perfect(self):
        assert pose_map([(0.0, 0.0)] * 4, 5) == 100.0

    def test_all_bad(self):
        assert pose_map([(90.0, 90.0)] * 4, 20) == 0.0

    def test_hand_example(self):
        errors = [(3.0, 0.0), (7.0, 0.0)]
        assert pose_map(errors, 5) == 50.0
        assert pose_map(errors, 10) == 75.0

    def test_worst_of_rotation_translation(self):
        assert pose_map([(1.0, 30.0)], 5) == 0.0

    def test_failures_count_as_infinite(self):
        assert pose_map([(np.inf, np.inf), (0.0, 0.0)], 5) == 50.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        errors = [(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(50)]
        assert pose_map(errors, 5) <= pose_map(errors, 10) <= pose_map(errors, 20)

    def test_empty_rejected(self):
        with pytest.raises(EmptyEvaluation):
            pose_map([], 5)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            pose_map([(0.0, 0.0)], 7)


class TestClassificationPRF:
    def test_perfect(self):
        p, r, f, flagged = classification_prf([1, 1, 0], [1, 1, 0])
        assert (p, r, f) == (100.0, 100.0, 100.0) and not flagged

    def test_empty_prediction_flagged(self):
        p, r, f, flagged = classification_prf([0, 0, 0], [1, 1, 0])
        assert (p, r, f) == (0.0, 0.0, 0.0) and flagged

    def test_half(self):
        # TP=2, FP=2, FN=2
        p, r, f, _ = classification_prf([1, 1, 1, 1, 0, 0], [1, 1, 0, 0, 1, 1])
        assert (p, r, f) == (50.0, 50.0, 50.0)

    def test_harmonic_mean_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mask = rng.uniform(size=30) < 0.5
            labels = rng.uniform(size=30) < 0.5
            p, r, f, _ = classification_prf(mask, labels)
            if p + r > 0:
                assert abs(f - 2 * p * r / (p + r)) < 1e-9

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        mask = rng.uniform(size=30) < 0.5
        labels = rng.uniform(size=30) < 0.5
        perm = rng.permutation(30)
        assert classification_prf(mask, labels) == classification_prf(mask[perm], labels[perm])

    def test_aggregate_micro_averages_over_pairs(self):
        # tp = 2, fp = 2, fn = 1 summed over both pairs (per-pair precisions are 50 and 50,
        # recalls 50 and 100)
        masks = [np.array([1, 0, 1, 0]), np.array([1, 1])]
        pairs = [replace(easy_pairs(count=1)[0], labels=np.array(labels))
                 for labels in ([1, 1, 0, 0], [1, 0])]
        result = evalbench.MethodResult(
            "net", [evalbench.PairOutcome(1.0, 1.0, False, m.astype(bool)) for m in masks])
        report = aggregate(result, pairs)
        assert (report.precision, report.recall) == (50.0, pytest.approx(200.0 / 3))
        assert report.fscore == pytest.approx(2 * 50.0 * (200.0 / 3) / (50.0 + 200.0 / 3))


class TestCompareMethods:
    def test_easy_regime_all_methods_near_perfect(self):
        # noise-free, outlier-free: even an untrained net weights a subset of
        # exact inliers, so every method solves the pose essentially exactly
        pairs = easy_pairs()
        net = tiny_net()
        reports = compare_methods(pairs, ["ransac", "net", "net+ransac"],
                                  RansacConfig(), net, seed=0)
        for report in reports:
            assert report.map5 > 99.0 and report.failures == 0, report

    def test_ransac_precision_equals_mask_inlier_ratio(self):
        pairs = generate_dataset(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=0),
                                 4, base_seed=40)
        result = evaluate_method(pairs, "ransac", RansacConfig(), seed=0)
        tp = fp = 0
        for outcome, pair in zip(result.outcomes, pairs):
            tp += int(np.count_nonzero(outcome.predicted_mask & pair.labels.astype(bool)))
            fp += int(np.count_nonzero(outcome.predicted_mask & ~pair.labels.astype(bool)))
        report = aggregate(result, pairs)
        assert report.precision == pytest.approx(100.0 * tp / (tp + fp))

    def test_row_order_and_determinism(self):
        pairs = easy_pairs(count=3)
        net = tiny_net()
        methods = ["net", "ransac"]
        r1 = compare_methods(pairs, methods, RansacConfig(), net, seed=1)
        r2 = compare_methods(pairs, methods, RansacConfig(), net, seed=1)
        assert [r.method for r in r1] == methods
        assert [(r.map5, r.precision, r.recall) for r in r1] == \
               [(r.map5, r.precision, r.recall) for r in r2]

    def test_missing_checkpoint(self):
        with pytest.raises(MissingCheckpoint):
            compare_methods(easy_pairs(count=2), ["net"], RansacConfig(), None, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(EmptyEvaluation):
            compare_methods([], ["ransac"], RansacConfig(), None, seed=0)
        with pytest.raises(EmptyEvaluation):
            aggregate(evalbench.MethodResult("ransac", []), [])

    def test_map_monotonicity_on_reports(self):
        pairs = generate_dataset(SceneConfig(n=64, outlier_ratio=0.5, pixel_noise=1.5, seed=0),
                                 6, base_seed=60)
        report = aggregate(evaluate_method(pairs, "ransac", RansacConfig(), seed=0), pairs)
        assert report.map5 <= report.map10 <= report.map20


def hard_pairs(count, n=512, seed=300):
    return generate_dataset(SceneConfig(n=n, outlier_ratio=0.6, pixel_noise=1.0), count,
                            base_seed=seed)


def outcome_bytes(outcomes):
    """The outcomes' pose errors, failure flags and masks, as bytes."""
    return [(np.array([o.rotation_error_deg, o.translation_error_deg]).tobytes(), o.failed,
             np.asarray(o.predicted_mask).tobytes()) for o in outcomes]


def one_pair_forwards(net, pairs):
    """(logits, weights, essential or None) of each pair from a forward of that pair alone."""
    outputs = []
    with ad.no_grad():
        for pair in pairs:
            out = net.forward(pair.correspondences[None], mode="eval")
            e = out.essentials[0]
            outputs.append((out.logits.data[0], out.weights.data[0],
                            None if e is None else e.data))
    return outputs


def assert_bit_identical(outputs, reference):
    assert len(outputs) == len(reference)
    for (z, w, e), (z1, w1, e1) in zip(outputs, reference):
        assert z.tobytes() == z1.tobytes() and w.tobytes() == w1.tobytes()
        assert (e is None) == (e1 is None)
        assert e is None or e.tobytes() == e1.tobytes()


@pytest.fixture
def forward_calls(monkeypatch):
    """The (B, N) of every `Network.forward` input from here on."""
    calls = []
    forward = Network.forward

    def counted(self, corr, *args, **kwargs):
        calls.append(corr.shape[:2])
        return forward(self, corr, *args, **kwargs)

    monkeypatch.setattr(Network, "forward", counted)
    return calls


VARIANTS = {
    "pointcn": desk_config(use_pool=False),
    "pool": desk_config(level2_kind="pointcn"),
    "full": desk_config(),
    "plain": desk_config(unpool_variant="plain"),   # built for N = 512
    "iter": desk_config(iterative=True),
}


class TestBatchedNetworkOutputs:
    """Evaluation runs the network on same-N chunks; each pair's outputs equal a one-pair forward."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_chunks_equal_one_pair_forwards(self, variant):
        pairs = hard_pairs(11)
        net = Network(VARIANTS[variant], seed=0)
        reference = one_pair_forwards(net, pairs)
        assert any(e is not None for _, _, e in reference)
        for count in (1, 3, 8, 11):             # 11 pairs at N = 512 are chunks of 4, 4 and 3
            assert_bit_identical(evalbench._network_outputs(net, pairs[:count]),
                                 reference[:count])
            expected = [evalbench._network_pair_outcome(pair, *out)
                        for pair, out in zip(pairs[:count], reference)]
            result = evaluate_method(pairs[:count], "net", net=net)
            assert outcome_bytes(result.outcomes) == outcome_bytes(expected)

    @pytest.mark.parametrize("variant", ["pointcn", "full", "iter"])
    def test_mixed_point_counts_keep_pair_order(self, variant, monkeypatch, forward_calls):
        sizes = [512, 256, 256, 512, 256, 512, 512, 256, 256, 256, 512]
        pairs = [hard_pairs(1, n=n, seed=400 + i)[0] for i, n in enumerate(sizes)]
        net = Network(VARIANTS[variant], seed=0)
        reference = one_pair_forwards(net, pairs)
        forward_calls.clear()
        assert_bit_identical(evalbench._network_outputs(net, pairs), reference)
        assert forward_calls == [(4, 512), (1, 512), (6, 256)]
        forward_calls.clear()
        monkeypatch.setattr(evalbench, "_FORWARD_ROWS", 1024)  # 2 pairs at 512, 4 at 256
        assert_bit_identical(evalbench._network_outputs(net, pairs), reference)
        assert forward_calls == [(2, 512), (2, 512), (1, 512), (4, 256), (2, 256)]

    def test_plain_unpool_at_another_point_count_still_raises(self):
        pairs = hard_pairs(2) + hard_pairs(2, n=256)
        net = Network(VARIANTS["plain"], seed=0)
        with pytest.raises(ShapeMismatch, match="plain unpool is built for N=512, got N=256"):
            evaluate_method(pairs, "net", net=net)

    def test_compare_runs_one_forward_per_chunk_for_both_learned_methods(self, forward_calls):
        pairs = hard_pairs(9)
        net = Network(desk_config(), seed=0)
        cfg = RansacConfig(max_iterations=200)
        separate = [aggregate(evaluate_method(pairs, m, cfg, net, seed=3), pairs)
                    for m in ("net", "net+ransac")]
        reference = one_pair_forwards(net, pairs)
        expected = [replace(cfg, seed=3 + i) for i in range(len(pairs))]
        expected = [evalbench._ransac_pair_outcome(p, c, weights=w)
                    for p, c, (_, w, _) in zip(pairs, expected, reference)]
        forward_calls.clear()
        reports = compare_methods(pairs, ["net", "net+ransac"], cfg, net, seed=3)
        assert forward_calls == [(4, 512), (4, 512), (1, 512)]
        assert reports == separate
        forward_calls.clear()
        result = evaluate_method(pairs, "net+ransac", cfg, net, seed=3)
        assert forward_calls == [(4, 512), (4, 512), (1, 512)]
        assert outcome_bytes(result.outcomes) == outcome_bytes(expected)

    def test_ransac_alone_runs_no_forward(self, forward_calls):
        compare_methods(easy_pairs(count=2), ["ransac"], RansacConfig(), tiny_net(), seed=0)
        assert forward_calls == []

    @pytest.mark.parametrize("method", ["net", "ransac", "net+ransac"])
    def test_one_overflowing_pair_fails_alone(self, method):
        # pair 3 scaled by 1e80 overflows its Gram matrices (the network's solve or
        # RANSAC's hypothesis solve): that pair fails, and the other seven, three of
        # them forwarded in its chunk, score as they do without it
        pairs = hard_pairs(8)
        net = Network(desk_config(), seed=0)
        cfg = RansacConfig(max_iterations=300)
        clean = evaluate_method(pairs, method, cfg, net=net).outcomes
        scaled = list(pairs)
        scaled[3] = replace(pairs[3], correspondences=pairs[3].correspondences * 1e80)
        outcomes = evaluate_method(scaled, method, cfg, net=net).outcomes
        assert outcomes[3].failed and not clean[3].failed
        assert outcome_bytes(outcomes[:3] + outcomes[4:]) == outcome_bytes(clean[:3] + clean[4:])


class TestRansacPairOutcome:
    @pytest.mark.parametrize("error", [InsufficientCorrespondences, NoModelFound,
                                       NoValidCandidate, RankDeficient, SolverBreakdown])
    def test_expected_failures_count_as_failed(self, monkeypatch, error):
        def fail(C, cfg):
            raise error("by design")

        monkeypatch.setattr(evalbench, "ransac_essential", fail)
        pairs = easy_pairs(count=2)
        result = evaluate_method(pairs, "ransac", RansacConfig(), seed=0)
        for outcome, pair in zip(result.outcomes, pairs):
            assert outcome.failed
            assert not outcome.predicted_mask.any()
            assert len(outcome.predicted_mask) == len(pair.correspondences)

    @pytest.mark.parametrize("method", ["ransac", "net", "net+ransac"])
    def test_no_valid_pose_fails_and_keeps_the_mask(self, monkeypatch, method):
        # every method scores its pose in one step; a pose that cannot be recovered is an
        # infinite error, and the method's inlier prediction still counts for P/R/F
        def no_pose(E, C, w):
            raise NoValidCandidate("by design")

        pairs, net = easy_pairs(count=2), tiny_net()
        recovered = evaluate_method(pairs, method, RansacConfig(), net, seed=0)
        monkeypatch.setattr(evalbench, "recover_pose", no_pose)
        result = evaluate_method(pairs, method, RansacConfig(), net, seed=0)
        for outcome, before in zip(result.outcomes, recovered.outcomes):
            assert not before.failed and before.predicted_mask.any()
            assert outcome.failed
            assert outcome.rotation_error_deg == outcome.translation_error_deg == np.inf
            assert np.array_equal(outcome.predicted_mask, before.predicted_mask)

    def test_programming_error_propagates(self, monkeypatch):
        def broken(C, cfg):
            raise TypeError("a bug, not a pose failure")

        monkeypatch.setattr(evalbench, "ransac_essential", broken)
        with pytest.raises(TypeError, match="a bug"):
            evaluate_method(easy_pairs(count=2), "ransac", RansacConfig(), seed=0)

    def test_per_pair_config_keeps_every_field(self, monkeypatch):
        seen = []
        real = evalbench.ransac_essential

        def spy(C, cfg):
            seen.append(cfg)
            return real(C, cfg)

        monkeypatch.setattr(evalbench, "ransac_essential", spy)
        base = RansacConfig(threshold=2e-4, max_iterations=300, confidence=0.99, seed=99)
        evaluate_method(easy_pairs(count=3), "ransac", base, seed=5)
        assert seen == [replace(base, seed=5 + i) for i in range(3)]


class TestLoadNetwork:
    def test_round_trip(self, tmp_path):
        net = tiny_net()
        ckpt = tmp_path / "model.bin"
        save_checkpoint(net.store, ckpt)
        write_network_config(net.config, str(ckpt) + ".netconfig")
        loaded = load_network(str(ckpt))
        for name in net.store.names():
            assert np.array_equal(net.store[name].data, loaded.store[name].data)
        assert loaded.config == net.config

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingCheckpoint):
            load_network(str(tmp_path / "nope.bin"))

    def test_missing_sidecar(self, tmp_path):
        net = tiny_net()
        ckpt = tmp_path / "model.bin"
        save_checkpoint(net.store, ckpt)
        with pytest.raises(MissingCheckpoint):
            load_network(str(ckpt))


class TestClusterResponses:
    def test_top1_gives_one_row_per_cluster(self):
        net = tiny_net()
        pair = easy_pairs(count=1)[0]
        rows = export_cluster_responses(net, pair, top_k=1)
        assert len(rows) == net.config.clusters
        assert [r[0] for r in rows] == list(range(net.config.clusters))

    def test_responses_non_increasing_within_cluster(self):
        net = tiny_net()
        pair = easy_pairs(count=1)[0]
        rows = export_cluster_responses(net, pair, top_k=5)
        by_cluster = {}
        for cluster, rank, row, value in rows:
            by_cluster.setdefault(cluster, []).append((rank, value))
        for entries in by_cluster.values():
            values = [v for _, v in sorted(entries)]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_permutation_consistency(self):
        net = tiny_net()
        pair = easy_pairs(count=1)[0]
        rows = export_cluster_responses(net, pair, top_k=3)
        perm = np.random.default_rng(3).permutation(len(pair.correspondences))
        permuted = type(pair)(pair.correspondences[perm], pair.rotation, pair.translation,
                              pair.essential, pair.labels[perm], pair.config, pair.seed)
        rows_p = export_cluster_responses(net, permuted, top_k=3)
        inverse = np.argsort(perm)
        mapped = {(c, k, int(inverse[r])): v for c, k, r, v in rows}
        for c, k, r, v in rows_p:
            assert (c, k, r) in mapped
            assert abs(mapped[(c, k, r)] - v) < 1e-9

    @pytest.mark.parametrize("overrides, reason", [
        ({"unpool_variant": "plain"}, "order-aware unpool"),
        ({"use_pool": False}, "pooling"),
    ], ids=["plain", "no-pool"])
    def test_plain_variant_rejected(self, overrides, reason):
        cfg = desk_config(channels=8, clusters=4, blocks_before_pool=1,
                          blocks_after_unpool=1, level2_blocks=1,
                          expected_points=64, **overrides)
        net = Network(cfg, seed=0)
        with pytest.raises(ValueError, match=f"^cluster responses require .*{reason}"):
            export_cluster_responses(net, easy_pairs(count=1)[0])


class TestCsvWriters:
    def test_metrics_csv(self, tmp_path):
        pairs = easy_pairs(count=2)
        reports = compare_methods(pairs, ["ransac"], RansacConfig(), None, seed=0)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(reports, path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == "method,mAP5,mAP10,mAP20,precision,recall,fscore,pairs,failures"
        assert lines[1].startswith("ransac,")
        assert "\r" not in text

    def test_responses_csv(self, tmp_path):
        net = tiny_net()
        rows = export_cluster_responses(net, easy_pairs(count=1)[0], top_k=2)
        path = tmp_path / "responses.csv"
        write_responses_csv(rows, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cluster,rank,row,value"
        assert len(lines) == 1 + len(rows)

    def test_failed_metrics_write_keeps_previous_file(self, tmp_path):
        reports = compare_methods(easy_pairs(count=2), ["ransac"], RansacConfig(), None, seed=0)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(reports, path)
        before = path.read_bytes()
        with pytest.raises(OSError):
            write_metrics_csv([replace(reports[0], method="net"),
                               replace(reports[0], fscore=DiskFull())], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["metrics.csv"]

    def test_failed_responses_write_keeps_previous_file(self, tmp_path):
        rows = export_cluster_responses(tiny_net(), easy_pairs(count=1)[0], top_k=2)
        path = tmp_path / "responses.csv"
        write_responses_csv(rows, path)
        before = path.read_bytes()
        with pytest.raises(OSError):
            write_responses_csv([(9, 9, 9, 0.5), (0, 1, 2, DiskFull())], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["responses.csv"]


class DiskFull:
    """A value whose formatting fails, as a write that runs out of disk midway would."""

    def __format__(self, spec):
        raise OSError("disk full")
