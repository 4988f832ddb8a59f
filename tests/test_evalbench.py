from dataclasses import replace

import numpy as np
import pytest

from twoview import evalbench
from twoview.autodiff import save_checkpoint
from twoview.config import write_network_config
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


class TestCompareMethods:
    def test_easy_regime_all_methods_near_perfect(self):
        # noise-free, outlier-free: even an untrained net weights a subset of
        # exact inliers, so every method solves the pose essentially exactly
        pairs = easy_pairs()
        net = tiny_net()
        reports = compare_methods(pairs, ["ransac", "net", "net+ransac"],
                                  RansacConfig(), {"net": net}, seed=0)
        for report in reports:
            assert report.map5 > 99.0, report

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
        r1 = compare_methods(pairs, methods, RansacConfig(), {"net": net}, seed=1)
        r2 = compare_methods(pairs, methods, RansacConfig(), {"net": net}, seed=1)
        assert [r.method for r in r1] == methods
        assert [(r.map5, r.precision, r.recall) for r in r1] == \
               [(r.map5, r.precision, r.recall) for r in r2]

    def test_missing_checkpoint(self):
        with pytest.raises(MissingCheckpoint):
            compare_methods(easy_pairs(count=2), ["net"], RansacConfig(), {}, seed=0)

    def test_empty_dataset(self):
        with pytest.raises(EmptyEvaluation):
            compare_methods([], ["ransac"], RansacConfig(), {}, seed=0)

    def test_map_monotonicity_on_reports(self):
        pairs = generate_dataset(SceneConfig(n=64, outlier_ratio=0.5, pixel_noise=1.5, seed=0),
                                 6, base_seed=60)
        report = aggregate(evaluate_method(pairs, "ransac", RansacConfig(), seed=0), pairs)
        assert report.map5 <= report.map10 <= report.map20


class TestRansacPairOutcome:
    @pytest.mark.parametrize("error", [InsufficientCorrespondences, NoModelFound,
                                       NoValidCandidate, RankDeficient])
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
        base = RansacConfig(threshold=2e-4, max_iterations=300, confidence=0.99,
                            sample_size=9, seed=99)
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

    def test_plain_variant_rejected(self):
        cfg = desk_config(channels=8, clusters=4, blocks_before_pool=1,
                          blocks_after_unpool=1, level2_blocks=1,
                          expected_points=64, unpool_variant="plain")
        net = Network(cfg, seed=0)
        with pytest.raises(ValueError):
            export_cluster_responses(net, easy_pairs(count=1)[0])


class TestCsvWriters:
    def test_metrics_csv(self, tmp_path):
        pairs = easy_pairs(count=2)
        reports = compare_methods(pairs, ["ransac"], RansacConfig(), {}, seed=0)
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
