import numpy as np
import pytest

from twoview import autodiff as ad
from twoview.autodiff import Tensor, gradient_error
from twoview.losses import (
    DegenerateLabels,
    LossConfig,
    LossCounters,
    classification_loss,
    geometry_loss,
    total_loss,
)
from twoview.epipolar import EPIPOLE_DENOM_MIN, symmetric_epipolar_distances
from twoview.network import Network, desk_config
from twoview.synthdata import SceneConfig, generate_pair


def scene(seed=0, n=32, outliers=0.25, noise=0.5):
    return generate_pair(SceneConfig(n=n, outlier_ratio=outliers, pixel_noise=noise, seed=seed))


def epipole_row(E):
    """A correspondence at the two epipoles of E (E e1 = 0, E^T e2 = 0): its denominator vanishes."""
    e1, e2 = np.linalg.svd(E)[2][2], np.linalg.svd(E.T)[2][2]
    return np.r_[e1[:2] / e1[2], e2[:2] / e2[2]]


class TestClassificationLoss:
    def test_perfect_separation_drives_loss_to_zero(self):
        labels = np.array([[1, 1, 0, 0]])
        z = np.array([[40.0, 40.0, -40.0, -40.0]])
        assert float(classification_loss(Tensor(z), labels).data) < 1e-12

    def test_zero_logits_give_ln2(self):
        labels = np.array([[1, 0, 1, 0, 1, 0]])
        loss = classification_loss(Tensor(np.zeros((1, 6))), labels)
        assert abs(float(loss.data) - np.log(2.0)) < 1e-9

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

    def test_matches_per_sample_loop_bit_for_bit(self):
        def loop_weights(labels):
            s = (labels > 0).astype(np.float64)
            n_pos, n_neg = s.sum(axis=1), (1.0 - s).sum(axis=1)
            valid = (n_pos > 0) & (n_neg > 0)
            nv = float(np.count_nonzero(valid))
            wpos, wneg = np.zeros_like(s), np.zeros_like(s)
            for b in np.flatnonzero(valid):
                wpos[b] = s[b] / (2.0 * n_pos[b] * nv)
                wneg[b] = (1.0 - s[b]) / (2.0 * n_neg[b] * nv)
            return wpos, wneg

        rng = np.random.default_rng(3)
        for _ in range(100):
            B, N = rng.integers(1, 6), rng.integers(2, 40)
            labels = (rng.uniform(size=(B, N)) < rng.uniform(0.0, 1.0, size=(B, 1))).astype(int)
            labels[0, :2] = (1, 0)  # one usable sample; the others may lack a class
            z0 = rng.normal(size=(B, N))
            z, z_ref = Tensor(z0.copy(), requires_grad=True), Tensor(z0.copy(), requires_grad=True)
            loss = classification_loss(z, labels)
            wpos, wneg = loop_weights(labels)
            ref = (ad.reduce_sum(ad.softplus(-z_ref) * wpos)
                   + ad.reduce_sum(ad.softplus(z_ref) * wneg))
            ad.backward(loss)
            ad.backward(ref)
            assert float(loss.data) == float(ref.data)
            assert np.array_equal(z.grad, z_ref.grad)


def one_geometry(e_hat, rows, clamp=0.1):
    """geometry_loss of a one-sample batch (K = 1) whose rows are all inliers."""
    return geometry_loss(ad.reshape(e_hat, (1, 3, 3)), rows[None], np.ones((1, len(rows))), clamp)


class TestGeometryLoss:
    def test_ground_truth_on_exact_inliers_is_zero(self):
        pair = scene(noise=0.0)
        inliers = pair.correspondences[pair.labels > 0]
        loss = one_geometry(Tensor(pair.essential), inliers).data[0]
        assert loss < 1e-20

    def test_clamp_saturation(self):
        pair = scene(seed=6)
        inliers = pair.correspondences[pair.labels > 0]
        far = np.zeros((3, 3))
        far[2, 2] = 1.0  # distances blow up for generic points
        loss = one_geometry(Tensor(far), inliers, clamp=0.1).data[0]
        assert loss == pytest.approx(0.1, abs=1e-15)

    def test_rows_at_the_epipoles_contribute_the_clamp(self):
        pair = scene(seed=12)
        E = pair.essential
        rows = np.vstack([pair.correspondences[pair.labels > 0][:6], epipole_row(E)])
        dist = symmetric_epipolar_distances(E, rows)
        assert np.isinf(dist[-1]) and np.isfinite(dist[:-1]).all()
        loss = one_geometry(Tensor(E), rows, clamp=0.1).data[0]
        assert loss == pytest.approx(np.minimum(dist, 0.1).mean(), rel=1e-12)

    def test_scale_invariance(self):
        pair = scene(seed=7)
        inliers = pair.correspondences[pair.labels > 0]
        e = pair.essential + 0.01 * np.random.default_rng(8).normal(size=(3, 3))
        l1 = one_geometry(Tensor(e), inliers).data[0]
        l2 = one_geometry(Tensor(3.7 * e), inliers).data[0]
        assert abs(l1 - l2) < 1e-12

    def test_sample_without_inliers_gives_zero(self):
        pair = scene(seed=13)
        corr = np.stack([pair.correspondences] * 2)
        labels = np.stack([pair.labels, np.zeros_like(pair.labels)])  # the second has none
        e_hat = Tensor(np.stack([pair.essential] * 2) + 0.01, requires_grad=True)
        terms = geometry_loss(e_hat, corr, labels)
        ad.backward(ad.reduce_sum(terms))
        assert terms.data[1] == 0.0 and terms.data[0] > 0.0
        assert terms.data[0] == geometry_loss(Tensor(e_hat.data[:1]), corr[:1], labels[:1]).data[0]
        assert not np.any(e_hat.grad[1]) and np.any(e_hat.grad[0])

    def test_gradient_away_from_clamp(self):
        rng = np.random.default_rng(9)
        pair = scene(seed=10, noise=0.2)
        inliers = pair.correspondences[pair.labels > 0]
        probe = pair.essential + 1e-3 * rng.normal(size=(3, 3))
        probe /= np.linalg.norm(probe)
        assert gradient_error(lambda t: ad.reduce_sum(one_geometry(t, inliers, clamp=0.1)), probe) < 1e-4


class TestTotalLoss:
    def build(self, seed=11):
        pair = scene(seed=seed)
        corr = pair.correspondences[None]
        labels = pair.labels[None]
        rng = np.random.default_rng(seed)
        z = Tensor(rng.normal(size=(1, len(pair.correspondences))), requires_grad=True)
        e = pair.essential + 0.1 * rng.normal(size=(3, 3))
        e_hat = Tensor(e[None] * (1.0 / np.linalg.norm(e)))  # the (K, 3, 3) stack, K = 1
        return pair, corr, labels, z, e_hat

    def test_warmup_is_pure_classification(self):
        pair, corr, labels, z, e_hat = self.build()
        cfg = LossConfig(warmup=100)
        total = total_loss(z, labels, e_hat, [0], corr, cfg, iteration=0)
        cls = classification_loss(z, labels)
        assert float(total.data) == float(cls.data)

    def test_after_warmup_adds_scaled_term(self):
        pair, corr, labels, z, e_hat = self.build()
        cfg = LossConfig(warmup=100)
        total = total_loss(z, labels, e_hat, [0], corr, cfg, iteration=100)
        cls = float(classification_loss(z, labels).data)
        ess = geometry_loss(e_hat, corr, labels).data[0]
        assert ess > 0.0
        assert float(total.data) == pytest.approx(cls + 0.5 * ess, rel=1e-12)

    def test_alpha_zero_reduces_to_classification(self):
        pair, corr, labels, z, e_hat = self.build()
        cfg = LossConfig(alpha=0.0, warmup=0)
        total = total_loss(z, labels, e_hat, [0], corr, cfg, iteration=10_000)
        assert float(total.data) == float(classification_loss(z, labels).data)

    def test_failed_solves_skipped(self):
        pair, corr, labels, z, _ = self.build()
        cfg = LossConfig(warmup=0)
        total = total_loss(z, labels, None, [], corr, cfg, iteration=5)
        assert float(total.data) == float(classification_loss(z, labels).data)

    def test_geometry_mean_leaves_out_samples_without_inliers(self):
        pairs = [scene(seed=s) for s in (14, 15, 16)]
        corr = np.stack([p.correspondences for p in pairs])
        labels = np.stack([p.labels for p in pairs])
        labels[1] = 0  # sample 1 has no inlier
        egts = np.stack([p.essential for p in pairs])
        z = Tensor(np.random.default_rng(17).normal(size=labels.shape))
        e_hat = egts + 0.05 * np.random.default_rng(18).normal(size=(3, 3, 3))
        cfg = LossConfig(warmup=0)
        total = total_loss(z, labels, Tensor(e_hat), [0, 1, 2], corr, cfg, 0)
        others = total_loss(z, labels, Tensor(e_hat[[0, 2]]), [0, 2], corr, cfg, 0)
        assert float(total.data) == float(others.data)
        terms = geometry_loss(Tensor(e_hat[[0, 2]]), corr[[0, 2]], labels[[0, 2]]).data
        cls = float(classification_loss(z, labels).data)
        assert float(total.data) == pytest.approx(cls + 0.5 * terms.mean(), rel=1e-15)

    def test_geometry_kind_default_alpha(self):
        """The geometry term is the only essential term; alpha is a plain default."""
        assert (LossConfig().kind, LossConfig().alpha, LossConfig().warmup) == ("geometry", 0.5, 500)
        with pytest.raises(ValueError, match="unknown essential loss kind 'l2'"):
            LossConfig(kind="l2")

    @staticmethod
    def count_desk_step_nodes(monkeypatch):
        """Graph nodes of a desk step's forward and of its loss: B = 8 at N = 512 on 60% outliers."""
        pairs = [scene(seed=40 + b, n=512, outliers=0.6, noise=1.0) for b in range(8)]
        corr = np.stack([p.correspondences for p in pairs])
        labels = np.stack([p.labels for p in pairs])
        nodes, make = [], ad._make

        def counting_make(*args):
            t = make(*args)
            if t.node is not None:
                nodes.append(t.op)
            return t

        monkeypatch.setattr(ad, "_make", counting_make)
        out = Network(desk_config(), seed=0).forward(corr, mode="train")
        assert out.solved == list(range(8))
        forward = list(nodes)
        total_loss(out.logits, labels, out.essential, out.solved, corr, LossConfig(warmup=0), 0)
        return forward, nodes[len(forward):]

    def test_desk_step_loss_builds_at_most_35_nodes(self, monkeypatch):
        # one graph per sample built 177 nodes here, one stack of per-sample essentials 40
        _, loss = self.count_desk_step_nodes(monkeypatch)
        assert len(loss) <= 35, loss

    def test_desk_step_builds_at_most_87_nodes(self, monkeypatch):
        # a take_batch and a solve node per sample built 123 here, a context-norm node per unit 99
        forward, loss = self.count_desk_step_nodes(monkeypatch)
        assert forward.count("weighted_eightpoint") == 1
        assert len(forward) + len(loss) <= 87, forward + loss


def reference_geometry(e_hat, C, clamp):
    """The per-sample geometry_loss that the batched term replaced, on one sample's inlier rows."""
    n = len(C)
    p1 = np.column_stack([C[:, 0], C[:, 1], np.ones(n)])
    p2 = np.column_stack([C[:, 2], C[:, 3], np.ones(n)])
    ep1 = ad.matmul(ad.as_tensor(p1), ad.transpose_last2(e_hat))
    etp2 = ad.matmul(ad.as_tensor(p2), e_hat)
    residual = ad.reduce_sum(ep1 * p2, axis=1)
    num = residual * residual
    first_two = np.array([1.0, 1.0, 0.0])
    den = ad.reduce_sum(ep1 * ep1 * first_two, axis=1) + ad.reduce_sum(etp2 * etp2 * first_two, axis=1)
    degenerate = (den.data < EPIPOLE_DENOM_MIN).astype(np.float64)
    good = 1.0 - degenerate
    dist = ad.minimum_const(num / (den + degenerate), clamp) * good + degenerate * clamp
    return ad.reduce_sum(dist) * (1.0 / n)


def reference_total(z, labels, essentials, corr, cfg):
    """total_loss past warm-up as a loop that builds one essential term per sample."""
    terms = []
    for b, e_hat in enumerate(essentials):
        if e_hat is not None and np.any(labels[b] > 0):
            terms.append(reference_geometry(e_hat, corr[b][labels[b] > 0], cfg.clamp))
    ess = terms[0]
    for t in terms[1:]:
        ess = ess + t
    return classification_loss(z, labels) + (cfg.alpha / len(terms)) * ess


class TestBatchedTermAgainstPerSampleLoop:
    @staticmethod
    def batch():
        """B = 8 rank-2 unit estimates: sample 2 did not solve, sample 5 has no inlier, sample 3
        has an inlier row at its estimate's epipoles and sample 4 is sign-flipped."""
        rng = np.random.default_rng(23)
        pairs = [scene(seed=60 + b, n=64, outliers=0.5) for b in range(8)]
        corr = np.stack([p.correspondences for p in pairs])
        labels = np.stack([p.labels for p in pairs])
        e_gts = np.stack([p.essential for p in pairs])
        u, sv, vt = np.linalg.svd(e_gts + 0.3 * rng.normal(size=(8, 3, 3)))
        sv[:, 2] = 0.0
        e_hats = u @ (sv[:, :, None] * vt)
        e_hats /= np.linalg.norm(e_hats, axis=(1, 2), keepdims=True)
        e_hats[4] *= -1.0
        labels[5] = 0
        corr[3, 0], labels[3, 0] = epipole_row(e_hats[3]), 1
        z = rng.normal(size=labels.shape)
        return z, labels, e_hats, corr

    def test_matches_the_loop(self):
        z0, labels, e_hats, corr = self.batch()
        dist = [symmetric_epipolar_distances(e_hats[b], corr[b][labels[b] > 0]) for b in (0, 1, 3)]
        assert all((d > 0.1).any() and (d < 0.1).any() for d in dist)  # rows on both sides of the clamp
        assert np.isinf(dist[2][0]) and np.isfinite(dist[2][1:]).all()
        cfg = LossConfig(warmup=0)
        solved = [0, 1, 3, 4, 5, 6, 7]  # sample 2 did not solve
        z = Tensor(z0.copy(), requires_grad=True)
        stack = Tensor(e_hats[solved], requires_grad=True)
        loss = total_loss(z, labels, stack, solved, corr, cfg, 0)
        z_ref = Tensor(z0.copy(), requires_grad=True)
        essentials = [None if b == 2 else Tensor(e.copy(), requires_grad=True) for b, e in enumerate(e_hats)]
        ref = reference_total(z_ref, labels, essentials, corr, cfg)
        ad.backward(loss)
        ad.backward(ref)
        assert abs(float(loss.data) - float(ref.data)) <= 1e-15 * abs(float(ref.data))
        assert np.array_equal(z.grad, z_ref.grad)
        for k, b in enumerate(solved):
            if b == 5:  # no inlier: the loop leaves it out, the stack adds 0
                assert essentials[b].grad is None and not np.any(stack.grad[k])
            else:
                ref_grad = essentials[b].grad
                assert np.abs(stack.grad[k] - ref_grad).max() <= 1e-14 * np.abs(ref_grad).max()
