import json

import numpy as np
import pytest

from twoview.epipolar import label_inliers, symmetric_epipolar_distances
from twoview.synthdata import (
    MalformedRecord,
    SceneConfig,
    ScenePair,
    generate_dataset,
    generate_pair,
    pair_to_line,
    random_pose,
    read_dataset,
    write_dataset,
)


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(n=7)
        with pytest.raises(ValueError):
            SceneConfig(outlier_ratio=1.0)
        with pytest.raises(ValueError):
            SceneConfig(depth_min=5, depth_max=4)


class TestRandomPose:
    def test_zero_rotation_gives_identity(self):
        cfg = SceneConfig(max_rotation_deg=0.0, seed=0)
        pose = random_pose(np.random.default_rng(0), cfg)
        assert np.array_equal(pose.rotation, np.eye(3))

    def test_unit_translation(self):
        cfg = SceneConfig(seed=0)
        for seed in range(10):
            pose = random_pose(np.random.default_rng(seed), cfg)
            assert abs(np.linalg.norm(pose.translation) - 1.0) < 1e-9

    def test_deterministic(self):
        cfg = SceneConfig(seed=0)
        a = random_pose(np.random.default_rng(42), cfg)
        b = random_pose(np.random.default_rng(42), cfg)
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)

    def test_rotation_bounded(self):
        cfg = SceneConfig(max_rotation_deg=10.0, seed=0)
        for seed in range(10):
            pose = random_pose(np.random.default_rng(seed), cfg)
            angle = np.degrees(np.arccos(np.clip((np.trace(pose.rotation) - 1) / 2, -1, 1)))
            assert angle <= 10.0 + 1e-9

    def test_retry_exhausted_when_views_cannot_overlap(self):
        from twoview.synthdata import RetryExhausted

        # a 0.7-degree field of view cannot keep a unit baseline in frame
        cfg = SceneConfig(focal=50000.0, seed=0)
        with pytest.raises(RetryExhausted):
            random_pose(np.random.default_rng(0), cfg)


class TestGeneratePair:
    def test_noise_free_all_inliers(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.0, pixel_noise=0.0, seed=1))
        assert pair.labels.all()
        d = symmetric_epipolar_distances(pair.essential, pair.correspondences)
        assert d.max() < 1e-10

    def test_label_mean_band_100_seeds(self):
        # 50% injected outliers; a few random ones land near the epipolar line
        means = [generate_pair(SceneConfig(n=128, outlier_ratio=0.5, pixel_noise=0.0,
                                           seed=s)).labels.mean()
                 for s in range(100)]
        assert 0.45 <= float(np.mean(means)) <= 0.55

    def test_labels_match_geometry_after_shuffle(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.4, pixel_noise=1.0, seed=2))
        assert np.array_equal(pair.labels, label_inliers(pair.essential, pair.correspondences))

    def test_deterministic(self):
        cfg = SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=3)
        a, b = generate_pair(cfg), generate_pair(cfg)
        assert np.array_equal(a.correspondences, b.correspondences)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.essential, b.essential)

    def test_pair_seeds_differ(self):
        pairs = generate_dataset(SceneConfig(n=32, seed=0), 3, base_seed=100)
        assert pairs[0].seed == 100 and pairs[2].seed == 102
        assert not np.array_equal(pairs[0].correspondences, pairs[1].correspondences)

    def test_essential_matches_pose(self):
        from twoview.epipolar import essential_from_pose

        pair = generate_pair(SceneConfig(n=32, seed=4))
        assert np.array_equal(pair.essential,
                              essential_from_pose(pair.rotation, pair.translation))


class TestDatasetRoundTrip:
    def test_bit_exact(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=32, outlier_ratio=0.3, pixel_noise=0.7, seed=0),
                                 10, base_seed=50)
        path = tmp_path / "data.txt"
        write_dataset(pairs, path)
        loaded = read_dataset(path)
        assert len(loaded) == 10
        for a, b in zip(pairs, loaded):
            assert np.array_equal(a.correspondences, b.correspondences)
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)
            assert np.array_equal(a.essential, b.essential)
            assert np.array_equal(a.labels, b.labels)
            assert a.config == b.config and a.seed == b.seed

    def test_file_byte_stable(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 3, base_seed=7)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_dataset(pairs, p1)
        write_dataset(pairs, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_record_rejected(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 1, base_seed=0)
        path = tmp_path / "data.txt"
        write_dataset(pairs, path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(MalformedRecord):
            read_dataset(path)

    def test_tampered_labels_rejected(self, tmp_path):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        line = pair_to_line(pair)
        flipped = 0 if pair.labels[0] else 1
        head, _, tail = line.partition('"labels":[')
        first, _, rest = tail.partition(",")
        bad = f'{head}"labels":[{flipped},{rest}'
        path = tmp_path / "data.txt"
        path.write_text(bad + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_dataset(path)
        assert "line 1" in str(exc.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_correspondence_rejected(self, tmp_path, value):
        pair = generate_pair(SceneConfig(n=16, outlier_ratio=0.4, pixel_noise=1.0, seed=5))
        row = int(np.flatnonzero(pair.labels == 0)[0])  # an outlier: its label stays 0
        record = json.loads(pair_to_line(pair))
        record["correspondences"][4 * row:4 * row + 4] = [value] * 4
        path = tmp_path / "data.txt"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(MalformedRecord) as exc:
            read_dataset(path)
        assert "line 1" in str(exc.value) and "non-finite" in str(exc.value)

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert read_dataset(path) == []

    def test_blank_lines_ignored(self, tmp_path):
        pairs = generate_dataset(SceneConfig(n=16, seed=0), 2, base_seed=0)
        path = tmp_path / "data.txt"
        path.write_text(pair_to_line(pairs[0]) + "\n\n" + pair_to_line(pairs[1]) + "\n")
        assert len(read_dataset(path)) == 2
