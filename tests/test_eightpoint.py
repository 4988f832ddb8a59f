import numpy as np
import pytest

from twoview import eightpoint as e8
from twoview.synthdata import SceneConfig, generate_pair


def toy_scene(seed=7, n=24, outliers=0.3, noise=0.5):
    return generate_pair(SceneConfig(n=n, outlier_ratio=outliers, pixel_noise=noise, seed=seed))


class TestMonomialMatrix:
    def test_origin_row(self):
        X = e8.build_monomial_matrix(np.array([[0, 0, 0, 0]], float))
        assert X.tolist() == [[0, 0, 0, 0, 0, 0, 0, 0, 1]]

    def test_ones_row(self):
        X = e8.build_monomial_matrix(np.array([[1, 1, 1, 1]], float))
        assert X.tolist() == [[1] * 9]

    def test_arithmetic_row(self):
        X = e8.build_monomial_matrix(np.array([[2, 3, 5, 7]], float))
        assert X.tolist() == [[10, 14, 2, 15, 21, 3, 5, 7, 1]]


class TestWeightedGram:
    def test_zero_weights(self):
        X = np.ones((4, 9))
        assert np.array_equal(e8.weighted_gram(X, np.zeros(4)), np.zeros((9, 9)))

    def test_single_row_outer_product(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(1, 9))
        assert np.allclose(e8.weighted_gram(x, np.ones(1)), np.outer(x[0], x[0]))

    def test_linear_in_weights(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 9))
        w1, w2 = rng.uniform(size=6), rng.uniform(size=6)
        assert np.allclose(e8.weighted_gram(X, w1) + e8.weighted_gram(X, w2),
                           e8.weighted_gram(X, w1 + w2))

    def test_symmetric_psd(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 9))
        G = e8.weighted_gram(X, rng.uniform(size=12))
        assert np.array_equal(G, G.T)
        assert np.linalg.eigvalsh(G).min() > -1e-12

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            e8.weighted_gram(np.ones((4, 9)), np.array([1.0, -0.1, 1.0, 1.0]))


class TestSymmetricEig9:
    def test_identity(self):
        lam, V = e8.symmetric_eig9(np.eye(9))
        assert np.allclose(lam, np.ones(9))
        assert np.allclose(V.T @ V, np.eye(9), atol=1e-10)

    def test_diagonal(self):
        lam, V = e8.symmetric_eig9(np.diag(np.arange(1.0, 10.0)))
        assert np.allclose(lam, np.arange(1.0, 10.0))
        assert np.allclose(np.abs(V), np.eye(9), atol=1e-12)

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            A = rng.normal(size=(9, 9))
            G = A @ A.T
            lam, V = e8.symmetric_eig9(G)
            scale = np.linalg.norm(G)
            assert np.all(np.diff(lam) >= 0)
            assert np.allclose(V @ np.diag(lam) @ V.T, G, atol=1e-9 * scale)
            assert np.allclose(V.T @ V, np.eye(9), atol=1e-10)
            assert np.allclose(G @ V, V @ np.diag(lam), atol=1e-9 * scale)

    def test_not_symmetric_rejected(self):
        M = np.eye(9)
        M[0, 1] = 1e-6
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9(M)

    def test_batched_matches_scalar(self):
        # wrapper parity: the stacked and the single-matrix entry points agree
        rng = np.random.default_rng(4)
        Gs = np.stack([(lambda X: X.T @ X)(rng.normal(size=(8, 9))) for _ in range(20)])
        lam_b, V_b = e8.symmetric_eig9_batched(Gs)
        for k in range(20):
            lam_s, _ = e8.symmetric_eig9(Gs[k])
            scale = max(1.0, np.linalg.norm(Gs[k]))
            assert np.allclose(lam_b[k], lam_s, atol=1e-10 * scale)
            assert np.allclose(V_b[k] @ np.diag(lam_b[k]) @ V_b[k].T, Gs[k], atol=1e-9 * scale)

    def test_batched_one_asymmetric_matrix_rejected(self):
        rng = np.random.default_rng(9)
        Gs = np.stack([(lambda X: X.T @ X)(rng.normal(size=(8, 9))) for _ in range(5)])
        e8.symmetric_eig9_batched(Gs)
        Gs[3, 2, 7] += 1e-6 * max(1.0, np.abs(Gs[3]).max())
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9_batched(Gs)

    def test_asymmetry_tolerance_scales_with_magnitude(self):
        G = 1e6 * np.eye(9)
        G[0, 1] = 1e-6  # below 1e-10 * max|G|
        lam, _ = e8.symmetric_eig9(G)
        assert np.allclose(lam, 1e6)
        G[0, 1] = 1e-3  # above it
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9(G)

    def test_shape_rejected(self):
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9(np.eye(9)[:8])
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9(np.eye(9)[None])
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9_batched(np.eye(9))
        with pytest.raises(e8.NotSymmetric):
            e8.symmetric_eig9_batched(np.zeros((2, 9, 8)))


class TestWeightedEightpoint:
    def test_noise_free_recovery(self):
        for seed in range(10):
            pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=seed))
            E = e8.weighted_eightpoint(pair.correspondences, np.ones(64))
            err = min(np.linalg.norm(E - pair.essential), np.linalg.norm(E + pair.essential))
            assert err < 1e-6

    def test_outliers_suppressed_by_exact_mask(self):
        # ground-truth membership of the exact (noise-free) inliers; the weak
        # 1e-4 labels may admit a few near-line random outliers
        from twoview.epipolar import symmetric_epipolar_distances

        for seed in range(5):
            pair = generate_pair(SceneConfig(n=128, outlier_ratio=0.5, pixel_noise=0.0, seed=seed))
            exact = symmetric_epipolar_distances(pair.essential, pair.correspondences) < 1e-12
            assert exact.sum() >= 8
            E = e8.weighted_eightpoint(pair.correspondences, exact.astype(float))
            err = min(np.linalg.norm(E - pair.essential), np.linalg.norm(E + pair.essential))
            assert err < 1e-6

    def test_weight_scaling_invariance(self):
        pair = toy_scene()
        w = np.random.default_rng(5).uniform(0.1, 1.0, len(pair.correspondences))
        E1 = e8.weighted_eightpoint(pair.correspondences, w)
        E2 = e8.weighted_eightpoint(pair.correspondences, 2.0 * w)
        assert np.array_equal(E1, E2)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(6)
        pair = toy_scene()
        w = rng.uniform(0.1, 1.0, len(pair.correspondences))
        E1 = e8.weighted_eightpoint(pair.correspondences, w)
        for _ in range(5):
            perm = rng.permutation(len(w))
            E2 = e8.weighted_eightpoint(pair.correspondences[perm], w[perm])
            assert np.allclose(E1, E2, atol=1e-10)

    def test_unit_norm_and_sign_convention(self):
        pair = toy_scene()
        E = e8.weighted_eightpoint(pair.correspondences, np.ones(len(pair.correspondences)))
        assert abs(np.linalg.norm(E) - 1.0) < 1e-12
        flat = E.flatten(order="F")
        assert flat[np.argmax(np.abs(flat))] > 0

    def test_rayleigh_minimality(self):
        rng = np.random.default_rng(7)
        pair = toy_scene()
        w = rng.uniform(0.1, 1.0, len(pair.correspondences))
        X = e8.build_monomial_matrix(pair.correspondences)
        G = e8.weighted_gram(X, w)
        vec = e8.weighted_eightpoint(pair.correspondences, w).flatten(order="F")
        base = vec @ G @ vec
        for _ in range(1000):
            v = rng.normal(size=9)
            v /= np.linalg.norm(v)
            assert v @ G @ v >= base - 1e-12 * np.linalg.norm(G)

    def test_insufficient_support(self):
        pair = toy_scene(n=16)
        w = np.zeros(16)
        w[:7] = 1.0
        with pytest.raises(e8.InsufficientSupport):
            e8.weighted_eightpoint(pair.correspondences, w)

    def test_non_finite_input_rejected(self):
        pair = toy_scene()
        C, w = pair.correspondences.copy(), np.ones(len(pair.correspondences))
        w[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            e8.weighted_eightpoint(C, w)
        C[3, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            e8.weighted_eightpoint(C, np.ones(len(C)))

    def test_eigengap_collapse_on_rank_deficient_support(self):
        # 8 rows with a duplicate leave a 2-dimensional null space
        pair = toy_scene(n=8, outliers=0.0, noise=0.0)
        C = pair.correspondences.copy()
        C[7] = C[6]
        with pytest.raises(e8.EigengapCollapse):
            e8.weighted_eightpoint(C, np.ones(8))


class TestBackward:
    def test_zero_upstream(self):
        pair = toy_scene()
        w = np.ones(len(pair.correspondences))
        g = e8.weighted_eightpoint_backward(pair.correspondences, w, np.zeros((3, 3)))
        assert np.array_equal(g, np.zeros_like(w))

    def test_matches_finite_differences_20_instances(self):
        h = 1e-5
        for seed in range(20):
            rng = np.random.default_rng(400 + seed)
            pair = toy_scene(seed=300 + seed)
            C = pair.correspondences
            w = rng.uniform(0.2, 1.0, len(C))
            _, ctx = e8.weighted_eightpoint_with_context(C, w)
            assert ctx.eigengap > 1e-6
            upstream = rng.normal(size=(3, 3))
            analytic = e8.backward_from_context(ctx, upstream)
            numeric = np.zeros_like(w)
            for i in range(len(w)):
                wp = w.copy()
                wp[i] += h
                hi = np.sum(upstream * e8.weighted_eightpoint(C, wp))
                wp[i] -= 2 * h
                lo = np.sum(upstream * e8.weighted_eightpoint(C, wp))
                numeric[i] = (hi - lo) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_duplicated_rows_share_gradient(self):
        rng = np.random.default_rng(8)
        pair = toy_scene(n=24)
        C = pair.correspondences.copy()
        C[5] = C[4]
        w = rng.uniform(0.2, 1.0, 24)
        w[5] = w[4]
        g = e8.weighted_eightpoint_backward(C, w, rng.normal(size=(3, 3)))
        assert g[4] == g[5]

    def test_backward_requires_eigengap(self):
        pair = toy_scene(n=8, outliers=0.0, noise=0.0)
        C = pair.correspondences.copy()
        C[7] = C[6]
        with pytest.raises(e8.EigengapCollapse):
            e8.weighted_eightpoint_backward(C, np.ones(8), np.ones((3, 3)))
