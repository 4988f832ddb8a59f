import numpy as np
import pytest

from twoview import epipolar as ep
from twoview.synthdata import SceneConfig, generate_pair

RT2 = 1.0 / np.sqrt(2.0)
E_Z = RT2 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, max_angle)
    K = ep.skew(axis)
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


class TestSkew:
    def test_z_axis(self):
        assert np.array_equal(ep.skew([0, 0, 1]),
                              np.array([[0, -1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))

    def test_zero(self):
        assert np.array_equal(ep.skew([0, 0, 0]), np.zeros((3, 3)))

    def test_general(self):
        assert np.array_equal(ep.skew([1, 2, 3]),
                              np.array([[0, -3, 2], [3, 0, -1], [-2, 1, 0]], dtype=float))

    def test_acts_as_cross_product(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            t, v = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(ep.skew(t) @ v, np.cross(t, v))
            S = ep.skew(t)
            assert np.allclose(S, -S.T)


class TestEssentialFromPose:
    def test_identity_z_translation(self):
        assert np.allclose(ep.essential_from_pose(np.eye(3), [0, 0, 1]), E_Z)

    def test_translation_scale_removed(self):
        assert np.allclose(ep.essential_from_pose(np.eye(3), [0, 0, 2]), E_Z)

    def test_unit_frobenius_and_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            E = ep.essential_from_pose(random_rotation(rng), rng.normal(size=3))
            assert abs(np.linalg.norm(E) - 1.0) < 1e-9
            assert np.linalg.svd(E, compute_uv=False)[2] < 1e-12

    def test_projected_points_satisfy_constraint(self):
        # oracle: the synthetic generator projects exact 3D points
        for seed in range(5):
            pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=seed))
            C = pair.correspondences
            p1 = np.column_stack([C[:, 0], C[:, 1], np.ones(len(C))])
            p2 = np.column_stack([C[:, 2], C[:, 3], np.ones(len(C))])
            residuals = np.einsum("ij,ij->i", p2, p1 @ pair.essential.T)
            assert np.abs(residuals).max() < 1e-10

    def test_zero_translation_rejected(self):
        with pytest.raises(ep.ZeroTranslation):
            ep.essential_from_pose(np.eye(3), [0, 0, 1e-13])


def distance(E, c):
    return ep.symmetric_epipolar_distances(E, np.asarray(c, dtype=float).reshape(1, 4))[0]


class TestSymmetricEpipolarDistance:
    def test_on_constraint(self):
        assert distance(E_Z, (1, 0, 2, 0)) == 0.0

    def test_hand_computed_value(self):
        d = distance(E_Z, (1, 0, 2, 0.1))
        assert abs(d - 0.01 / 5.01) < 1e-15

    def test_degenerate_epipoles(self):
        # both points at the epipoles of a pure-z-translation essential matrix
        assert distance(E_Z, (0, 0, 0, 0)) == np.inf

    def test_vectorized_degenerate_is_inf(self):
        d = ep.symmetric_epipolar_distances(E_Z, np.array([[0, 0, 0, 0], [1, 0, 2, 0]], float))
        assert np.isinf(d[0]) and d[1] == 0.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        E = ep.essential_from_pose(random_rotation(rng), rng.normal(size=3))
        for _ in range(20):
            c = rng.normal(size=4)
            scale = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
            d1 = distance(E, c)
            d2 = distance(scale * E, c)
            assert abs(d1 - d2) <= 1e-12 * max(d1, 1.0)


class TestCameraIntrinsics:
    def test_bad_focal_rejected(self):
        with pytest.raises(ValueError):
            ep.CameraIntrinsics(0, 500, 320, 240)


class TestLabelInliers:
    def test_zero_distance_is_inlier(self):
        labels = ep.label_inliers(E_Z, np.array([[1, 0, 2, 0]], float))
        assert labels.tolist() == [1]

    def test_above_threshold_is_outlier(self):
        labels = ep.label_inliers(E_Z, np.array([[1, 0, 2, 0.1]], float), threshold=1e-4)
        assert labels.tolist() == [0]

    def test_degenerate_rows_labeled_outlier(self):
        labels = ep.label_inliers(E_Z, np.array([[0, 0, 0, 0]], float))
        assert labels.tolist() == [0]

    def test_threshold_monotonicity(self):
        pair = generate_pair(SceneConfig(n=256, outlier_ratio=0.5, pixel_noise=1.0, seed=3))
        C, E = pair.correspondences, pair.essential
        previous = None
        for tau in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            labels = ep.label_inliers(E, C, tau)
            if previous is not None:
                assert np.all(previous <= labels)
            previous = labels


class TestProjectToEssential:
    def test_fixed_point(self):
        rng = np.random.default_rng(4)
        E = ep.essential_from_pose(random_rotation(rng), rng.normal(size=3))
        assert np.allclose(ep.project_to_essential(E), E, atol=1e-9)

    def test_diagonal_case(self):
        out = ep.project_to_essential(np.diag([3.0, 1.0, 0.5]))
        assert np.allclose(out, np.diag([RT2, RT2, 0.0]), atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            M = rng.normal(size=(3, 3))
            once = ep.project_to_essential(M)
            twice = ep.project_to_essential(once)
            assert np.allclose(once, twice, atol=1e-9)

    def test_local_minimality(self):
        # nearby essential matrices (from perturbed poses) are never closer
        rng = np.random.default_rng(6)
        M = rng.normal(size=(3, 3))
        Mn = M / np.linalg.norm(M)
        E_star = ep.project_to_essential(M)
        base = np.linalg.norm(Mn - E_star)
        pose = ep.decompose_essential(E_star)[0]
        for _ in range(200):
            dR = random_rotation(rng, max_angle=rng.uniform(1e-4, 0.3))
            dt = pose.translation + rng.normal(scale=0.1, size=3)
            E_p = ep.essential_from_pose(dR @ pose.rotation, dt / np.linalg.norm(dt))
            assert base <= min(np.linalg.norm(Mn - E_p), np.linalg.norm(Mn + E_p)) + 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(ep.RankDeficient):
            ep.project_to_essential(np.zeros((3, 3)))


class TestDecomposeEssential:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            R = random_rotation(rng)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            E = ep.essential_from_pose(R, t)
            best = min(
                max(np.radians(ep.rotation_angle_deg(c.rotation, R)),
                    np.radians(ep.translation_angle_deg(c.translation, t)))
                for c in ep.decompose_essential(E))
            assert best < 1e-6

    def test_sign_symmetry(self):
        rng = np.random.default_rng(8)
        E = ep.essential_from_pose(random_rotation(rng), rng.normal(size=3))
        a = ep.decompose_essential(E)
        b = ep.decompose_essential(-E)
        for ca in a:
            assert any(
                np.allclose(ca.rotation, cb.rotation, atol=1e-9)
                and np.allclose(ca.translation, cb.translation, atol=1e-9)
                for cb in b)

    def test_candidates_valid(self):
        rng = np.random.default_rng(9)
        E = ep.essential_from_pose(random_rotation(rng), rng.normal(size=3))
        candidates = ep.decompose_essential(E)
        assert len(candidates) == 4
        for c in candidates:
            assert abs(np.linalg.norm(c.translation) - 1.0) < 1e-9
            assert abs(np.linalg.det(c.rotation) - 1.0) < 1e-9


class TestRecoverPose:
    def test_noise_free_recovery(self):
        for seed in range(5):
            pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=seed))
            est = ep.recover_pose(pair.essential, pair.correspondences, np.ones(64))
            rot, trans = ep.pose_angular_errors(est, pair.pose())
            assert rot < 1e-6 and trans < 1e-6

    def test_outliers_with_zero_weight_ignored(self):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.5, pixel_noise=0.0, seed=11))
        est = ep.recover_pose(pair.essential, pair.correspondences, pair.labels.astype(float))
        rot, trans = ep.pose_angular_errors(est, pair.pose())
        assert rot < 1e-6 and trans < 1e-6

    def test_no_valid_candidate(self):
        # identical points under a pure-z translation: rays are parallel,
        # triangulation puts the point in front of no candidate
        with pytest.raises(ep.NoValidCandidate):
            ep.recover_pose(E_Z, np.array([[0.5, 0.5, 0.5, 0.5]]), np.ones(1))

    def test_zero_weights_rejected(self):
        with pytest.raises(ep.NoValidCandidate):
            ep.recover_pose(E_Z, np.array([[1, 0, 2, 0]], float), np.zeros(1))


class TestPoseAngularErrors:
    def test_identity(self):
        rng = np.random.default_rng(12)
        R = random_rotation(rng)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        pose = ep.Pose(R, t)
        assert ep.pose_angular_errors(pose, pose) == (0.0, 0.0)

    def test_five_degree_rotation(self):
        rng = np.random.default_rng(13)
        R = random_rotation(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        K = ep.skew(axis)
        d = np.radians(5.0)
        dR = np.eye(3) + np.sin(d) * K + (1 - np.cos(d)) * (K @ K)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        rot, _ = ep.pose_angular_errors(ep.Pose(dR @ R, t), ep.Pose(R, t))
        assert abs(rot - 5.0) < 1e-6

    def test_antipodal_translation_folds(self):
        rng = np.random.default_rng(14)
        R = random_rotation(rng)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        _, trans = ep.pose_angular_errors(ep.Pose(R, -t), ep.Pose(R, t))
        assert trans == 0.0


def test_full_pipeline_invariant_100_poses():
    # essential_from_pose -> decompose + recover on exact projections
    for seed in range(100):
        pair = generate_pair(SceneConfig(n=32, outlier_ratio=0.0, pixel_noise=0.0, seed=2000 + seed))
        est = ep.recover_pose(pair.essential, pair.correspondences, np.ones(32))
        rot, trans = ep.pose_angular_errors(est, pair.pose())
        assert rot < 1e-6 and trans < 1e-6
