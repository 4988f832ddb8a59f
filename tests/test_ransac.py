import numpy as np
import pytest

from twoview.eightpoint import build_monomial_matrix
from twoview.epipolar import (
    _epipolar_terms,
    pose_angular_errors,
    recover_pose,
    symmetric_epipolar_distances,
)
from twoview.ransac import (
    InsufficientCorrespondences,
    RansacConfig,
    _distances_batch,
    ransac_essential,
    ransac_postprocess,
)
from twoview.synthdata import SceneConfig, generate_pair


def essential_error(E, E_gt):
    return min(np.linalg.norm(E - E_gt), np.linalg.norm(E + E_gt))


class TestRansacEssential:
    def test_noise_free_no_outliers(self):
        pair = generate_pair(SceneConfig(n=100, outlier_ratio=0.0, pixel_noise=0.0, seed=0))
        res = ransac_essential(pair.correspondences, RansacConfig(seed=0))
        assert res.mask.all()
        assert essential_error(res.essential, pair.essential) < 1e-6

    def test_half_outliers_recovers_pose_and_inliers(self):
        for seed in range(5):
            pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.5, pixel_noise=0.0,
                                             seed=10 + seed))
            res = ransac_essential(pair.correspondences, RansacConfig(seed=seed))
            est = recover_pose(res.essential, pair.correspondences, res.mask.astype(float))
            rot, trans = pose_angular_errors(est, pair.pose())
            assert rot < 1.0 and trans < 1.0
            exact = symmetric_epipolar_distances(pair.essential, pair.correspondences) < 1e-12
            assert np.all(res.mask[exact])  # every true inlier recovered

    def test_non_finite_correspondence_rejected(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=23))
        C = pair.correspondences.copy()
        C[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            ransac_essential(C, RansacConfig(seed=0))

    def test_too_few_correspondences(self):
        with pytest.raises(InsufficientCorrespondences):
            ransac_essential(np.zeros((7, 4)), RansacConfig(seed=0))

    def test_deterministic_under_seed(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.4, pixel_noise=0.5, seed=20))
        r1 = ransac_essential(pair.correspondences, RansacConfig(seed=3))
        r2 = ransac_essential(pair.correspondences, RansacConfig(seed=3))
        assert np.array_equal(r1.essential, r2.essential)
        assert np.array_equal(r1.mask, r2.mask)
        assert r1.iterations == r2.iterations

    def test_mask_matches_model_distances(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.4, pixel_noise=0.5, seed=21))
        cfg = RansacConfig(seed=4)
        res = ransac_essential(pair.correspondences, cfg)
        d = symmetric_epipolar_distances(res.essential, pair.correspondences)
        assert np.array_equal(res.mask, d < cfg.threshold)

    def test_early_exit_bounds_iterations(self):
        pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.1, pixel_noise=0.0, seed=22))
        res = ransac_essential(pair.correspondences, RansacConfig(seed=5))
        assert res.iterations < 100  # high inlier ratio exits almost immediately

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RansacConfig(threshold=0.0)
        with pytest.raises(ValueError):
            RansacConfig(max_iterations=0)


class TestBatchedHypotheses:
    def test_distances_match_scalar_path(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=40))
        E = pair.essential
        # epipoles: E e1 = 0 and E^T e2 = 0; a row sitting on both has a zero denominator
        e1 = np.linalg.svd(E)[2][-1]
        e2 = np.linalg.svd(E.T)[2][-1]
        e1, e2 = e1 / e1[2], e2 / e2[2]
        C = pair.correspondences.copy()
        C[0] = [e1[0], e1[1], e2[0], e2[1]]
        C[1] = [e1[0], e1[1], C[1, 2], C[1, 3]]  # on the first epipole only: finite
        rng = np.random.default_rng(41)
        models = np.stack([E, -2.0 * E, rng.normal(size=(3, 3)), np.zeros((3, 3)),
                           E.reshape(9)[::-1].reshape(3, 3)])
        p1, p2 = (np.column_stack([C[:, i], C[:, i + 1], np.ones(len(C))]) for i in (0, 2))
        batch = _distances_batch(models, build_monomial_matrix(C), p1, p2)
        assert batch.shape == (len(models), len(C))
        for k, model in enumerate(models):
            scalar = symmetric_epipolar_distances(model, C)
            assert np.array_equal(np.isinf(batch[k]), np.isinf(scalar))
            finite = np.isfinite(scalar)
            if not finite.any():
                continue
            # A point near its epipolar line has a residual made of rounding in
            # either evaluation order, so the error is relative to the size of
            # the terms p2^T E p1 sums, not to the distance itself.
            _, den = _epipolar_terms(model, C[finite])
            terms = np.einsum("na,ab,nb->n", np.abs(p2[finite]), np.abs(model), np.abs(p1[finite]))
            rel = (np.abs(np.sqrt(batch[k, finite]) - np.sqrt(scalar[finite]))
                   / (terms / np.sqrt(den) + np.sqrt(scalar[finite])))
            assert np.all(rel < 1e-12)
        assert np.isinf(batch[0, 0]) and np.isinf(batch[1, 0])
        assert np.isfinite(batch[0, 1])
        assert np.isinf(batch[3]).all()


class TestRansacPostprocess:
    def test_oracle_weights_do_not_hurt(self):
        for seed in range(3):
            pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.5, pixel_noise=1.0,
                                             seed=30 + seed))
            cfg = RansacConfig(seed=seed)
            plain = ransac_essential(pair.correspondences, cfg)
            post = ransac_postprocess(pair.correspondences, pair.labels.astype(float), cfg)
            err_plain = max(pose_angular_errors(
                recover_pose(plain.essential, pair.correspondences,
                             plain.mask.astype(float)), pair.pose()))
            err_post = max(pose_angular_errors(
                recover_pose(post.essential, pair.correspondences,
                             post.mask.astype(float)), pair.pose()))
            assert err_post <= err_plain + 0.5

    def test_all_zero_weights_falls_back(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=33))
        res = ransac_postprocess(pair.correspondences, np.zeros(64), RansacConfig(seed=0))
        assert res.fallback

    def test_all_positive_weights_equal_plain(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=34))
        cfg = RansacConfig(seed=1)
        plain = ransac_essential(pair.correspondences, cfg)
        post = ransac_postprocess(pair.correspondences, np.full(64, 0.5), cfg)
        assert not post.fallback
        assert np.array_equal(plain.essential, post.essential)
        assert np.array_equal(plain.mask, post.mask)

    def test_mask_reported_on_full_set(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.3, pixel_noise=0.5, seed=36))
        w = pair.labels.astype(float)
        cfg = RansacConfig(seed=3)
        res = ransac_postprocess(pair.correspondences, w, cfg)
        assert len(res.mask) == 64
        d = symmetric_epipolar_distances(res.essential, pair.correspondences)
        assert np.array_equal(res.mask, d < cfg.threshold)
