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
        R, _, t = ep._decomposition(E_star)
        for _ in range(200):
            dR = random_rotation(rng, max_angle=rng.uniform(1e-4, 0.3))
            dt = t + rng.normal(scale=0.1, size=3)
            E_p = ep.essential_from_pose(dR @ R, dt / np.linalg.norm(dt))
            assert base <= min(np.linalg.norm(Mn - E_p), np.linalg.norm(Mn + E_p)) + 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(ep.RankDeficient):
            ep.project_to_essential(np.zeros((3, 3)))


class TestDecomposeEssential:
    """E's two rotations and unit translation (`_decomposition`), which give the four
    candidates (R1, t), (R1, -t), (R2, t), (R2, -t) of the cheirality vote."""

    def test_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            R = random_rotation(rng)
            t = rng.normal(size=3)
            t /= np.linalg.norm(t)
            R1, R2, t_c = ep._decomposition(ep.essential_from_pose(R, t))
            best = min(
                max(np.radians(ep.rotation_angle_deg(Rc, R)),
                    np.radians(ep.translation_angle_deg(tc, t)))
                for Rc in (R1, R2) for tc in (t_c, -t_c))
            assert best < 1e-6

    def test_sign_symmetry(self):
        """recover_pose(E) and recover_pose(-E) return the same pose on noise-free scenes."""
        for seed in range(10):
            pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=seed))
            a = ep.recover_pose(pair.essential, pair.correspondences, np.ones(64))
            b = ep.recover_pose(-pair.essential, pair.correspondences, np.ones(64))
            assert np.allclose(a.rotation, b.rotation, atol=1e-9)
            assert np.allclose(a.translation, b.translation, atol=1e-9)

    def test_candidates_valid(self):
        """recover_pose validates only the winner, so every candidate must pass Pose's check."""
        rng = np.random.default_rng(9)
        for _ in range(10):
            M = rng.normal(size=(3, 3))
            for E in (ep.essential_from_pose(random_rotation(rng), rng.normal(size=3)), M, -M):
                R1, R2, t = ep._decomposition(E)
                for R in (R1, R2):
                    for trans in (t, -t):
                        ep.Pose(R, trans)


def reference_candidates(E):
    """The four (R, t) candidates of E as validated poses: the vote's old first step."""
    E = np.asarray(E, dtype=np.float64).reshape(3, 3)
    U, s, Vt = np.linalg.svd(E)
    if s[0] < ep.RANK_EPS and s[1] < ep.RANK_EPS:
        raise ep.RankDeficient("two largest singular values both below 1e-12")
    if np.linalg.det(U) < 0:
        U = U.copy()
        U[:, 2] *= -1.0
    if np.linalg.det(Vt) < 0:
        Vt = Vt.copy()
        Vt[2, :] *= -1.0
    R1 = U @ ep._W @ Vt
    R2 = U @ ep._W.T @ Vt
    t = U[:, 2] / np.linalg.norm(U[:, 2])
    return [ep.Pose(R1, t), ep.Pose(R1, -t), ep.Pose(R2, t), ep.Pose(R2, -t)]


def reference_depths(pose, C):
    """Per-point depths (z1, z2) of one candidate by linear two-ray triangulation."""
    C = ep.as_correspondences(C)
    x1 = np.column_stack([C[:, 0], C[:, 1], np.ones(len(C))])
    x2 = np.column_stack([C[:, 2], C[:, 3], np.ones(len(C))])
    a = x1 @ pose.rotation.T
    b = x2
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    ab = np.einsum("ij,ij->i", a, b)
    at = a @ pose.translation
    bt = b @ pose.translation
    det = aa * bb - ab * ab
    safe = np.abs(det) > 1e-12
    z1 = np.zeros(len(C))
    z2 = np.zeros(len(C))
    z1[safe] = (-at[safe] * bb[safe] + ab[safe] * bt[safe]) / det[safe]
    z2[safe] = (ab[safe] * -at[safe] + aa[safe] * bt[safe]) / det[safe]
    z1[~safe] = -1.0
    z2[~safe] = -1.0
    return z1, z2


def reference_recover_pose(E, C, weights):
    """The four-candidate cheirality vote, one triangulation per candidate: the reference for
    recover_pose. Returns the winner and its index in the candidate order."""
    C = ep.as_correspondences(C)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(w) != len(C):
        raise ValueError(f"weights length {len(w)} != correspondence count {len(C)}")
    if not np.any(w > 0):
        raise ep.NoValidCandidate("no correspondence carries positive weight")
    best = None
    best_score = 0.0
    for index, pose in enumerate(reference_candidates(E)):
        z1, z2 = reference_depths(pose, C)
        score = float(np.sum(w * ((z1 > 0) & (z2 > 0))))
        if score > best_score:
            best_score = score
            best = (pose, index)
    if best is None:
        raise ep.NoValidCandidate("every candidate leaves all weighted points behind a camera")
    return best


def scene_cases(regime, count):
    """True, perturbed and negated E, each with label, uniform and random 0/1 weights."""
    outliers, noise = {"hard": (0.6, 1.0), "easy": (0.4, 0.5)}[regime]
    for seed in range(count):
        pair = generate_pair(SceneConfig(n=128, outlier_ratio=outliers, pixel_noise=noise,
                                         seed=70000 + seed))
        rng = np.random.default_rng(seed)
        C = pair.correspondences
        perturbed = pair.essential + rng.normal(scale=0.05, size=(3, 3))
        for E in (pair.essential, perturbed, -pair.essential):
            yield E, C, pair.labels.astype(float)
            yield E, C, np.ones(len(C))
            yield E, C, (rng.uniform(size=len(C)) < 0.5).astype(float)


def edge_cases(family, count):
    rng = np.random.default_rng({"random_matrix": 1, "eight_rows": 2, "identical_views": 3,
                                 "sparse_weights": 4}[family])
    for _ in range(count):
        if family == "random_matrix":  # not essential, on arbitrary rows
            n = int(rng.integers(1, 40))
            yield rng.normal(size=(3, 3)), rng.normal(size=(n, 4)), rng.uniform(size=n)
        elif family == "eight_rows":
            pair = generate_pair(SceneConfig(n=8, seed=int(rng.integers(1 << 30))))
            yield pair.essential, pair.correspondences, rng.uniform(size=8)
        elif family == "identical_views":  # x2 = x1: rays parallel wherever R fixes the row
            x = rng.normal(size=(int(rng.integers(1, 20)), 2))
            x[rng.uniform(size=len(x)) < 0.5] = 0.0
            R = np.eye(3) if rng.uniform() < 0.5 else random_rotation(rng, 0.1)
            t = [0.0, 0.0, 1.0] if rng.uniform() < 0.5 else rng.normal(size=3)
            yield ep.essential_from_pose(R, t), np.hstack([x, x]), np.ones(len(x))
        else:  # a few positive weights among zeros and negatives
            pair = generate_pair(SceneConfig(n=32, outlier_ratio=0.5,
                                             seed=int(rng.integers(1 << 30))))
            w = np.where(rng.uniform(size=32) < 0.1, rng.uniform(size=32), 0.0)
            w[rng.uniform(size=32) < 0.1] = -1.0
            yield pair.essential, pair.correspondences, w


def outcome(fn, E, C, w):
    try:
        pose = fn(E, C, w)
    except (ValueError, RuntimeError) as err:
        return type(err)
    return pose


# family -> (cases, the outcomes that must occur among them): 576 scene and 2000 edge cases
FAMILIES = {
    "hard": (lambda: scene_cases("hard", 32), {0, 1, 2, 3}),
    "easy": (lambda: scene_cases("easy", 32), {0, 1, 2, 3}),
    "random_matrix": (lambda: edge_cases("random_matrix", 500), {0, 1, 2, 3}),
    "eight_rows": (lambda: edge_cases("eight_rows", 500), {0, 1, 2, 3}),
    "identical_views": (lambda: edge_cases("identical_views", 500), {ep.NoValidCandidate}),
    "sparse_weights": (lambda: edge_cases("sparse_weights", 500), {ep.NoValidCandidate}),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_recover_pose_matches_four_candidate_vote(family):
    """recover_pose returns the reference's R and t bit for bit, or raises the same class."""
    cases, expected = FAMILIES[family]
    seen = set()
    for i, (E, C, w) in enumerate(cases()):
        ref = outcome(reference_recover_pose, E, C, w)
        got = outcome(ep.recover_pose, E, C, w)
        if isinstance(ref, type):
            assert got is ref, f"case {i}: expected {ref.__name__}, got {got!r}"
            seen.add(ref)
            continue
        pose, index = ref
        assert isinstance(got, ep.Pose), f"case {i}: raised {got.__name__}"
        assert np.array_equal(got.rotation, pose.rotation), f"case {i}"
        assert np.array_equal(got.translation, pose.translation), f"case {i}"
        seen.add(index)
    assert expected <= seen, seen


class TestRecoverPose:
    def test_noise_free_recovery(self):
        for seed in range(5):
            pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=seed))
            est = ep.recover_pose(pair.essential, pair.correspondences, np.ones(64))
            rot, trans = ep.pose_angular_errors(est, pair.pose())
            assert rot < 1e-6 and trans < 1e-6

    def test_negated_translation_wins(self):
        """A scene whose true translation is the decomposition's -t."""
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=2))
        _, _, t = ep._decomposition(pair.essential)
        est = ep.recover_pose(pair.essential, pair.correspondences, np.ones(64))
        assert np.array_equal(est.translation, -t)
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

    def test_all_rays_parallel(self):
        """Every row at the epipoles: both rotations fix the ray, so no row has a depth."""
        with pytest.raises(ep.NoValidCandidate):
            ep.recover_pose(E_Z, np.zeros((8, 4)), np.ones(8))

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
