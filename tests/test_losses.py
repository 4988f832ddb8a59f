import numpy as np
import pytest

from twoview import autodiff as ad
from twoview.autodiff import Tensor, gradient_error
from twoview.losses import (
    DegenerateLabels,
    LossConfig,
    LossCounters,
    NoInliers,
    classification_loss,
    essential_l2_loss,
    geometry_loss,
    total_loss,
)
from twoview.epipolar import symmetric_epipolar_distances
from twoview.synthdata import SceneConfig, generate_pair


def scene(seed=0, n=32, outliers=0.25, noise=0.5):
    return generate_pair(SceneConfig(n=n, outlier_ratio=outliers, pixel_noise=noise, seed=seed))


class TestClassificationLoss:
    def test_perfect_separation_drives_loss_to_zero(self):
        labels = np.array([[1, 1, 0, 0]])
        z = np.array([[40.0, 40.0, -40.0, -40.0]])
        assert float(classification_loss(Tensor(z), labels).data) < 1e-12

    def test_zero_logits_give_ln2(self):
        labels = np.array([[1, 0, 1, 0, 1, 0]])
        loss = classification_loss(Tensor(np.zeros((1, 6))), labels)
        assert abs(float(loss.data) - np.log(2.0)) < 1e-9

    def test_unbalanced_matches_plain_bce(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(1, 10))
        labels = (rng.uniform(size=(1, 10)) < 0.3).astype(int)
        labels[0, 0], labels[0, 1] = 1, 0
        loss = float(classification_loss(Tensor(z), labels, balanced=False).data)
        s = labels.astype(float)
        ref = np.mean(np.logaddexp(0, -z) * s + np.logaddexp(0, z) * (1 - s))
        assert abs(loss - ref) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        labels = (rng.uniform(size=(2, 12)) < 0.5).astype(int)
        labels[:, 0], labels[:, 1] = 1, 0
        assert gradient_error(lambda t: classification_loss(t, labels), rng.normal(size=(2, 12))) < 1e-4

    def test_degenerate_sample_skipped_and_counted(self):
        labels = np.array([[1, 1, 1], [1, 0, 1]])
        counters = LossCounters()
        loss = classification_loss(Tensor(np.zeros((2, 3))), labels, counters=counters)
        assert counters.skipped_samples == 1
        assert np.isfinite(float(loss.data))

    def test_all_degenerate_raises(self):
        with pytest.raises(DegenerateLabels):
            classification_loss(Tensor(np.zeros((1, 4))), np.ones((1, 4), dtype=int))

    def test_one_dimensional_logits_rejected(self):
        with pytest.raises(ValueError, match=r"\(B, N\)"):
            classification_loss(Tensor(np.zeros(4)), np.array([1, 0, 1, 0]))

    @pytest.mark.parametrize("balanced", [True, False])
    def test_matches_per_sample_loop_bit_for_bit(self, balanced):
        def loop_weights(labels):
            s = (labels > 0).astype(np.float64)
            B, N = s.shape
            n_pos, n_neg = s.sum(axis=1), (1.0 - s).sum(axis=1)
            valid = (n_pos > 0) & (n_neg > 0)
            nv = float(np.count_nonzero(valid))
            wpos, wneg = np.zeros_like(s), np.zeros_like(s)
            for b in np.flatnonzero(valid):
                if balanced:
                    wpos[b] = s[b] / (2.0 * n_pos[b] * nv)
                    wneg[b] = (1.0 - s[b]) / (2.0 * n_neg[b] * nv)
                else:
                    wpos[b] = s[b] / (N * nv)
                    wneg[b] = (1.0 - s[b]) / (N * nv)
            return wpos, wneg

        rng = np.random.default_rng(3)
        for _ in range(100):
            B, N = rng.integers(1, 6), rng.integers(2, 40)
            labels = (rng.uniform(size=(B, N)) < rng.uniform(0.0, 1.0, size=(B, 1))).astype(int)
            labels[0, :2] = (1, 0)  # one usable sample; the others may lack a class
            z0 = rng.normal(size=(B, N))
            z, z_ref = Tensor(z0.copy(), requires_grad=True), Tensor(z0.copy(), requires_grad=True)
            loss = classification_loss(z, labels, balanced=balanced)
            wpos, wneg = loop_weights(labels)
            ref = (ad.reduce_sum(ad.softplus(-z_ref) * wpos)
                   + ad.reduce_sum(ad.softplus(z_ref) * wneg))
            ad.backward(loss)
            ad.backward(ref)
            assert float(loss.data) == float(ref.data)
            assert np.array_equal(z.grad, z_ref.grad)


class TestEssentialL2Loss:
    def test_equal_is_zero(self):
        pair = scene()
        assert float(essential_l2_loss(Tensor(pair.essential), pair.essential).data) == 0.0

    def test_sign_flip_is_zero(self):
        pair = scene()
        assert float(essential_l2_loss(Tensor(-pair.essential), pair.essential).data) == 0.0

    def test_orthogonal_unit_matrices(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        b = np.zeros((3, 3))
        b[1, 1] = 1.0
        loss = float(essential_l2_loss(Tensor(a), b).data)
        assert abs(loss - np.sqrt(2.0)) < 1e-12

    def test_sign_symmetry_exact(self):
        rng = np.random.default_rng(2)
        e_hat = rng.normal(size=(3, 3))
        e_hat /= np.linalg.norm(e_hat)
        pair = scene(seed=3)
        e = pair.essential
        values = {float(essential_l2_loss(Tensor(s1 * e_hat), s2 * e).data)
                  for s1 in (1, -1) for s2 in (1, -1)}
        assert len(values) == 1

    def test_gradient(self):
        rng = np.random.default_rng(4)
        pair = scene(seed=5)
        probe = pair.essential + 0.3 * rng.normal(size=(3, 3))
        probe /= np.linalg.norm(probe)
        assert gradient_error(lambda t: essential_l2_loss(t, pair.essential), probe) < 1e-4


class TestGeometryLoss:
    def test_ground_truth_on_exact_inliers_is_zero(self):
        pair = scene(noise=0.0)
        inliers = pair.correspondences[pair.labels > 0]
        loss = float(geometry_loss(Tensor(pair.essential), inliers).data)
        assert loss < 1e-20

    def test_clamp_saturation(self):
        pair = scene(seed=6)
        inliers = pair.correspondences[pair.labels > 0]
        far = np.zeros((3, 3))
        far[2, 2] = 1.0  # distances blow up for generic points
        loss = float(geometry_loss(Tensor(far), inliers, clamp=0.1).data)
        assert loss == pytest.approx(0.1, abs=1e-15)

    def test_rows_at_the_epipoles_contribute_the_clamp(self):
        pair = scene(seed=12)
        E = pair.essential
        e1, e2 = np.linalg.svd(E)[2][2], np.linalg.svd(E.T)[2][2]   # E e1 = 0, E^T e2 = 0
        at_epipoles = np.r_[e1[:2] / e1[2], e2[:2] / e2[2]]
        rows = np.vstack([pair.correspondences[pair.labels > 0][:6], at_epipoles])
        dist = symmetric_epipolar_distances(E, rows)
        assert np.isinf(dist[-1]) and np.isfinite(dist[:-1]).all()
        loss = float(geometry_loss(Tensor(E), rows, clamp=0.1).data)
        assert loss == pytest.approx(np.minimum(dist, 0.1).mean(), rel=1e-12)

    def test_scale_invariance(self):
        pair = scene(seed=7)
        inliers = pair.correspondences[pair.labels > 0]
        e = pair.essential + 0.01 * np.random.default_rng(8).normal(size=(3, 3))
        l1 = float(geometry_loss(Tensor(e), inliers).data)
        l2 = float(geometry_loss(Tensor(3.7 * e), inliers).data)
        assert abs(l1 - l2) < 1e-12

    def test_no_inliers_rejected(self):
        with pytest.raises(NoInliers):
            geometry_loss(Tensor(np.eye(3)), np.zeros((0, 4)))

    def test_gradient_away_from_clamp(self):
        rng = np.random.default_rng(9)
        pair = scene(seed=10, noise=0.2)
        inliers = pair.correspondences[pair.labels > 0]
        probe = pair.essential + 1e-3 * rng.normal(size=(3, 3))
        probe /= np.linalg.norm(probe)
        assert gradient_error(lambda t: geometry_loss(t, inliers, clamp=0.1), probe) < 1e-4


class TestTotalLoss:
    def build(self, seed=11):
        pair = scene(seed=seed)
        corr = pair.correspondences[None]
        labels = pair.labels[None]
        egts = pair.essential[None]
        rng = np.random.default_rng(seed)
        z = Tensor(rng.normal(size=(1, len(pair.correspondences))), requires_grad=True)
        e_hat = Tensor(pair.essential + 0.1 * rng.normal(size=(3, 3)))
        e_hat = ad.mul(e_hat, 1.0 / np.linalg.norm(e_hat.data))
        return pair, corr, labels, egts, z, e_hat

    def test_warmup_is_pure_classification(self):
        pair, corr, labels, egts, z, e_hat = self.build()
        cfg = LossConfig(kind="l2", warmup=100)
        total = total_loss(z, labels, [e_hat], egts, corr, cfg, iteration=0)
        cls = classification_loss(z, labels)
        assert float(total.data) == float(cls.data)

    def test_after_warmup_adds_scaled_term(self):
        pair, corr, labels, egts, z, e_hat = self.build()
        cfg = LossConfig(kind="l2", warmup=100)
        total = total_loss(z, labels, [e_hat], egts, corr, cfg, iteration=100)
        cls = float(classification_loss(z, labels).data)
        ess = float(essential_l2_loss(e_hat, egts[0]).data)
        assert float(total.data) == pytest.approx(cls + 0.1 * ess, rel=1e-12)

    def test_alpha_zero_reduces_to_classification(self):
        pair, corr, labels, egts, z, e_hat = self.build()
        cfg = LossConfig(kind="l2", alpha=0.0, warmup=0)
        total = total_loss(z, labels, [e_hat], egts, corr, cfg, iteration=10_000)
        assert float(total.data) == float(classification_loss(z, labels).data)

    def test_failed_solves_skipped(self):
        pair, corr, labels, egts, z, _ = self.build()
        cfg = LossConfig(kind="l2", warmup=0)
        total = total_loss(z, labels, [None], egts, corr, cfg, iteration=5)
        assert float(total.data) == float(classification_loss(z, labels).data)

    def test_geometry_kind_default_alpha(self):
        assert LossConfig(kind="geometry").alpha == 0.5
        assert LossConfig(kind="l2").alpha == 0.1
        assert LossConfig().warmup == 500
