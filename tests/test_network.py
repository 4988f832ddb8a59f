import json
import os

import numpy as np
import pytest

from twoview import autodiff as ad
from twoview import network
from twoview.autodiff import ParameterStore, ShapeMismatch, Tensor
from twoview.config import load_run_config
from twoview.network import (
    BatchNorm,
    DiffPool,
    DiffUnpool,
    Network,
    NetworkConfig,
    OrderAwareBlock,
    PointCNResBlock,
    PointCNUnit,
    context_norm,
    desk_config,
    shared_perceptron,
    spatial_correlation,
)
from twoview.synthdata import SceneConfig, generate_dataset, generate_pair

B, N, M, D = 2, 16, 4, 8
PAPER_CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs",
                            "paper.cfg")


def tiny_config(**over):
    base = dict(channels=D, clusters=M, blocks_before_pool=1, blocks_after_unpool=1,
                level2_blocks=1, expected_points=N)
    base.update(over)
    return desk_config(**base)


def rand(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestSharedPerceptron:
    def test_identity(self):
        x = rand((B, N, D))
        out = shared_perceptron(Tensor(x), np.eye(D), np.zeros(D))
        assert np.allclose(out.data, x)

    def test_pointwise_permutation(self):
        x = rand((1, N, D), seed=1)
        W, b = rand((D, 5), 2), rand(5, 3)
        out = shared_perceptron(Tensor(x), W, b).data
        perm = np.random.default_rng(4).permutation(N)
        out_p = shared_perceptron(Tensor(x[:, perm]), W, b).data
        assert np.allclose(out_p, out[:, perm])

    def test_single_point_equals_matvec(self):
        x = rand((1, 1, D), seed=5)
        W, b = rand((D, 3), 6), rand(3, 7)
        out = shared_perceptron(Tensor(x), W, b).data
        assert np.allclose(out[0, 0], x[0, 0] @ W + b)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            shared_perceptron(Tensor(rand((B, N, D))), np.eye(D + 1), np.zeros(D + 1))


class TestContextNorm:
    def test_already_normalized_nearly_unchanged(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(1, 64, 4))
        x -= x.mean(axis=1, keepdims=True)
        x /= x.std(axis=1, keepdims=True)
        out = context_norm(Tensor(x)).data
        # eps=1e-5 inside the sqrt bounds the distortion at ~5e-6 relative
        assert np.abs(out - x).max() < 2e-5

    def test_constant_channel_zeroed(self):
        x = np.full((1, 10, 3), 7.0)
        assert np.allclose(context_norm(Tensor(x)).data, 0.0)

    def test_output_statistics(self):
        x = rand((3, 50, 6), seed=9)
        out = context_norm(Tensor(x)).data
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.var(axis=1) - 1.0).max() < 1e-4

    def test_needs_two_points(self):
        with pytest.raises(ShapeMismatch):
            context_norm(Tensor(rand((1, 1, 3))))


class TestBatchNorm:
    def test_eval_identity_with_fresh_stats(self):
        store = ParameterStore()
        bn = BatchNorm(store, "bn", D, eps=0.0)
        x = rand((B, N, D), seed=10)
        assert np.allclose(bn(Tensor(x), "eval").data, x)

    def test_train_statistics(self):
        store = ParameterStore()
        bn = BatchNorm(store, "bn", D)
        out = bn(Tensor(rand((B, N, D), seed=11)), "train").data
        assert np.abs(out.mean(axis=(0, 1))).max() < 1e-6

    def test_running_stats_update(self):
        store = ParameterStore()
        bn = BatchNorm(store, "bn", 2, momentum=0.9)
        x = np.zeros((1, 10, 2))
        x[..., 0] = 3.0
        bn(Tensor(x), "train")
        assert np.allclose(bn.running_mean.data, [0.3, 0.0])

    def test_shared_statistics_are_tracked_once(self):
        store = ParameterStore()
        owner = BatchNorm(store, "a", 2, momentum=0.9)
        reader = BatchNorm(store, "b", 2, momentum=0.9, shared=owner)
        x = np.zeros((1, 10, 2))
        x[..., 0] = 3.0
        owner(Tensor(x), "train")
        reader(Tensor(x), "train")
        assert np.allclose(owner.running_mean.data, [0.3, 0.0])
        assert reader.running_mean is owner.running_mean and reader.running_var is owner.running_var
        assert store.names() == ["a.gamma", "a.beta", "a.running_mean", "a.running_var",
                                 "b.gamma", "b.beta"]

    def test_batch_stats_permutation_invariant(self):
        store = ParameterStore()
        bn = BatchNorm(store, "bn", D)
        x = rand((1, N, D), seed=12)
        out = bn(Tensor(x), "train").data
        store2 = ParameterStore()
        bn2 = BatchNorm(store2, "bn", D)
        perm = np.random.default_rng(13).permutation(N)
        out_p = bn2(Tensor(x[:, perm]), "train").data
        assert np.allclose(out_p, out[:, perm], atol=1e-12)
        assert np.allclose(bn.running_mean.data, bn2.running_mean.data)


class TestPointCNBlock:
    def test_zero_weights_identity(self):
        store = ParameterStore()
        block = PointCNResBlock(store, "blk", D, np.random.default_rng(0))
        for unit in (block.unit1, block.unit2):
            unit.perceptron.weight.data[...] = 0.0
        block.unit2.perceptron.bias.data[...] = 0.0  # unit1 has none
        x = rand((B, N, D), seed=14)
        assert np.allclose(block(Tensor(x), "train").data, x)

    def test_permutation_equivariance(self):
        store = ParameterStore()
        block = PointCNResBlock(store, "blk", D, np.random.default_rng(1))
        x = rand((1, N, D), seed=15)
        out = block(Tensor(x), "eval").data
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(N)
            out_p = block(Tensor(x[:, perm]), "eval").data
            assert np.abs(out_p - out[:, perm]).max() < 1e-9

    def test_shape_preserved(self):
        store = ParameterStore()
        block = PointCNResBlock(store, "blk", D, np.random.default_rng(2))
        assert block(Tensor(rand((B, N, D))), "train").shape == (B, N, D)


def reference_unit(unit, x, mode, normed=None):
    """The unit with one graph node per step: CN -> BN -> ReLU -> perceptron.

    It runs its own context norm on x, even where the network shares one.
    """
    h = unit.bn(context_norm(x), mode)
    return shared_perceptron(ad.relu(h), unit.perceptron.weight, unit.perceptron.bias)


def gradient_gap(store_a, store_b, extra=()):
    """Largest gradient difference over all parameters, relative to the largest entry."""
    pairs = [(store_a[n].grad, store_b[n].grad) for n in store_a.trainable_names()]
    pairs += list(extra)
    pairs = [(a, b) for a, b in pairs if a is not None or b is not None]
    assert all(a is not None and b is not None for a, b in pairs)
    largest = max(np.abs(b).max() for _, b in pairs)
    assert largest > 0
    return max(np.abs(a - b).max() for a, b in pairs) / largest


def running_gap(store_a, store_b):
    return max(np.abs(store_a[n].data - store_b[n].data).max()
               for n in store_a.names() if ".running_" in n)


class TestFusedUnit:
    """The one-node unit, CN -> BN -> ReLU -> perceptron, against the unfused ops it replaces.

    Gradients are compared over all parameters at once, relative to the
    largest entry.
    """

    def make_unit(self):
        store = ParameterStore()
        unit = PointCNUnit(store, "unit", D, 5, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        unit.bn.gamma.data[...] = rng.normal(1.0, 0.3, D)
        unit.bn.beta.data[...] = rng.normal(0.0, 0.3, D)
        unit.bn.running_mean.data[...] = rng.normal(0.0, 0.3, D)
        unit.bn.running_var.data[...] = rng.uniform(0.5, 2.0, D)
        unit.perceptron.bias.data[...] = rng.normal(size=5)
        return store, unit

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_unit_matches_reference(self, mode):
        x0, proj = rand((B, N, D), seed=40), rand((B, N, 5), seed=41)
        results = []
        for call in (PointCNUnit.__call__, reference_unit):
            store, unit = self.make_unit()
            x = Tensor(x0, requires_grad=True)
            out = call(unit, x, mode)
            ad.backward(ad.reduce_sum(out * proj))
            results.append((store, out.data, x.grad))
        (fused, out_f, gx_f), (ref, out_r, gx_r) = results
        assert np.abs(out_f - out_r).max() <= 1e-12 * np.abs(out_r).max()
        assert gradient_gap(fused, ref, [(gx_f, gx_r)]) <= 1e-12
        assert running_gap(fused, ref) <= 1e-12

    def test_no_graph_under_no_grad(self):
        _, unit = self.make_unit()
        with ad.no_grad():
            out = unit(Tensor(rand((B, N, D), seed=42)), "eval")
        assert out.node is None

    def test_shape_mismatch(self):
        _, unit = self.make_unit()
        with pytest.raises(ShapeMismatch):
            unit(Tensor(rand((B, N, D + 1))), "train")

    @pytest.mark.parametrize("mode, seed, solved", [
        pytest.param("train", 8, 2, id="train"),
        pytest.param("eval", 8, 0, id="eval"),
        pytest.param("eval", 9, 2, id="eval-through-solve"),
    ])
    def test_network_step_matches_reference(self, monkeypatch, mode, seed, solved):
        """The 1e-12 gradient gate holds through the solve only where it is well conditioned.

        Its backward scales rounding differences by about 1/eigengap, so the
        test pins how many samples reach the solve (each with at least 8
        weights above 1e-8) and that each has a gap of at least 1e-4. In eval
        mode the seed-8 network gives no sample 8 positive weights; the
        seed-9 one gates a gradient through the solver of both samples.
        """
        from twoview import eightpoint
        from twoview.losses import LossConfig, total_loss

        pairs = [generate_pair(SceneConfig(n=N, outlier_ratio=0.25, pixel_noise=0.5, seed=s))
                 for s in (50, 51)]
        corr = np.stack([p.correspondences for p in pairs])
        labels = np.stack([p.labels for p in pairs])
        gaps = []
        solve = eightpoint.weighted_eightpoint_with_context

        def recording_solve(C, w):
            e, ctx = solve(C, w)
            gaps.append(ctx.eigengap)
            return e, ctx

        monkeypatch.setattr(eightpoint, "weighted_eightpoint_with_context", recording_solve)
        results = []
        for call in (PointCNUnit.__call__, reference_unit):
            monkeypatch.setattr(PointCNUnit, "__call__", call)
            net = Network(tiny_config(), seed=seed)
            rng = np.random.default_rng(9)
            for name in net.store.names():
                if name == "net.l1b.0.unit1.bn.running_mean":
                    # draws for the unpool head's retired buffers, so that every other buffer
                    # keeps the value it always had here
                    rng.normal(0.0, 0.3, D), rng.uniform(0.5, 2.0, D)
                if name.endswith(".running_mean"):
                    net.store[name].data[...] = rng.normal(0.0, 0.3, net.store[name].shape)
                elif name.endswith(".running_var"):
                    net.store[name].data[...] = rng.uniform(0.5, 2.0, net.store[name].shape)
            out = net.forward(corr, mode=mode)
            loss = total_loss(out.logits, labels, out.essential, out.solved, corr,
                              LossConfig(kind="geometry", warmup=0), 0)
            ad.backward(loss)
            results.append((net.store, out.logits.data))
        (fused, z_f), (ref, z_r) = results
        assert len(gaps) == 2 * solved  # samples solved, by each path
        assert min(gaps, default=np.inf) >= 1e-4
        assert np.abs(z_f - z_r).max() <= 1e-12 * np.abs(z_r).max()
        assert gradient_gap(fused, ref) <= 1e-12
        assert running_gap(fused, ref) <= 1e-12

    def test_checkpoint_from_unfused_units_loads(self, monkeypatch, tmp_path):
        from twoview.autodiff import adam_step, save_checkpoint
        from twoview.config import write_network_config
        from twoview.evalbench import load_network
        from twoview.losses import LossConfig, total_loss

        pair = generate_pair(SceneConfig(n=N, outlier_ratio=0.25, pixel_noise=0.5, seed=52))
        corr = pair.correspondences[None]
        fused_call = PointCNUnit.__call__
        monkeypatch.setattr(PointCNUnit, "__call__", reference_unit)
        cfg = tiny_config()
        net = Network(cfg, seed=10)
        for _ in range(3):
            out = net.forward(corr, mode="train")
            loss = total_loss(out.logits, pair.labels[None], out.essential, out.solved, corr,
                              LossConfig(kind="geometry", warmup=0), 0)
            net.store.zero_grad()
            ad.backward(loss)
            adam_step(net.store, lr=1e-2)
        path = tmp_path / "unfused.bin"
        save_checkpoint(net.store, path)
        write_network_config(cfg, str(path) + ".netconfig")
        with ad.no_grad():
            z_ref = net.forward(corr, mode="eval").logits.data
        monkeypatch.setattr(PointCNUnit, "__call__", fused_call)

        loaded = load_network(str(path))
        assert {n for n in loaded.store.names() if n.startswith("net.l1a.0.unit1.")} == {
            "net.l1a.0.unit1.bn.gamma", "net.l1a.0.unit1.bn.beta",
            "net.l1a.0.unit1.bn.running_mean", "net.l1a.0.unit1.bn.running_var",
            "net.l1a.0.unit1.perc.weight"}
        with ad.no_grad():
            z = loaded.forward(corr, mode="eval").logits.data
        assert np.abs(z - z_ref).max() <= 1e-12 * max(1.0, np.abs(z_ref).max())


def old_softmax(a, axis):
    """Softmax as it was before the in-place rewrite: three temporaries each way."""
    a = ad.as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return [out * (g - dot)]

    return ad.custom((a,), out, bwd, op="softmax")


def old_normalize(a, axes, eps=1e-5):
    """normalize as it was before the in-place rewrite, temporaries and all."""
    a = ad.as_tensor(a)
    axes = axes if isinstance(axes, tuple) else (axes,)
    inv_n = 1.0 / np.prod([a.shape[i] for i in axes])
    mu = np.expand_dims(ad._sum_axes(a.data, axes) * inv_n, axes)
    centered = a.data - mu
    var = np.expand_dims(ad._dot_axes(centered, centered, axes) * inv_n, axes)
    inv = 1.0 / np.sqrt(var + eps)
    out = centered * inv

    def bwd(g):
        gm = np.expand_dims(ad._sum_axes(g, axes) * inv_n, axes)
        gy = np.expand_dims(ad._dot_axes(g, out, axes) * inv_n, axes)
        return [inv * (g - gm - out * gy)]

    return ad.custom((a,), out, bwd, op="normalize")


def old_spatial_correlation(F, weight, bias):
    """Spatial correlation through two transposes of the (B, M, D) features."""
    out = ad.matmul(ad.transpose_last2(F), weight) + bias
    return ad.transpose_last2(out)


def old_pool(self, x, mode, normed=None):
    """DiffPool with its own two-node context norm and the (B, M, N) transpose of the assignment."""
    assign = ad.softmax(self.head(x, mode, network.context_norm(x)), axis=2)
    return ad.matmul(ad.transpose_last2(assign), x), assign


LEAN_UNPOOL = DiffUnpool.__call__


def old_unpool(self, x_pre, clusters, mode, normed=None):
    """DiffUnpool with its own two-node context norm."""
    return LEAN_UNPOOL(self, x_pre, clusters, mode, network.context_norm(x_pre))


class TestLeanStep:
    """One desk-network train step against the ops the leaner step replaced.

    The reference runs the old softmax and normalize, a two-node context
    norm per pool and unpool head, DiffPool through the transposed assignment and the
    two-transpose spatial correlation.
    """

    def step(self, mode, batch=4, n=256):
        from twoview.losses import LossConfig, total_loss

        pairs = [generate_pair(SceneConfig(n=n, outlier_ratio=0.6, pixel_noise=1.0, seed=s))
                 for s in range(60, 60 + batch)]
        corr = np.stack([p.correspondences for p in pairs])
        net = Network(desk_config(), seed=12)
        out = net.forward(corr, mode=mode)
        loss = total_loss(out.logits, np.stack([p.labels for p in pairs]), out.essential, out.solved,
                          corr, LossConfig(kind="geometry", warmup=0), 0)
        ad.backward(loss)
        return net.store, out, float(loss.data)

    def reference(self, monkeypatch):
        monkeypatch.setattr(ad, "softmax", old_softmax)
        monkeypatch.setattr(ad, "normalize", old_normalize)
        monkeypatch.setattr(network, "spatial_correlation", old_spatial_correlation)
        monkeypatch.setattr(DiffPool, "__call__", old_pool)
        monkeypatch.setattr(DiffUnpool, "__call__", old_unpool)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_step_matches_old_ops(self, monkeypatch, mode):
        lean, out, loss = self.step(mode)
        self.reference(monkeypatch)
        ref, out_ref, loss_ref = self.step(mode)
        z, z_ref = out.logits.data, out_ref.logits.data
        assert np.abs(z - z_ref).max() <= 1e-12 * np.abs(z_ref).max()
        assert abs(loss - loss_ref) <= 1e-12 * abs(loss_ref)
        assert gradient_gap(lean, ref) <= 1e-12
        assert running_gap(lean, ref) <= 1e-12
        # both heads see the same statistics as before, bit for bit; the unpool head reads the
        # pool head's pair
        heads = [n for n in lean.names() if ".pool.head.bn.running" in n or ".unpool.head.bn.running" in n]
        assert len(heads) == 2
        for name in heads:
            assert np.array_equal(lean[name].data, ref[name].data)
        assert np.array_equal(out.pool_assign.data, out_ref.pool_assign.data)

    def test_in_place_ops_keep_their_bits(self):
        x = rand((3, 40, 7), seed=90)
        g = rand((3, 40, 7), seed=91)
        for axis in (0, 1, 2):
            new, old = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            out_new, out_old = ad.softmax(new, axis), old_softmax(old, axis)
            assert np.array_equal(out_new.data, out_old.data)
            ad.backward(ad.reduce_sum(out_new * g))
            ad.backward(ad.reduce_sum(out_old * g))
            assert np.abs(new.grad - old.grad).max() <= 1e-15 * np.abs(old.grad).max()
        for axes in ((1,), (0, 1)):
            new, old = Tensor(x, requires_grad=True), Tensor(x, requires_grad=True)
            out_new, out_old = ad.normalize(new, axes), old_normalize(old, axes)
            ad.backward(ad.reduce_sum(out_new * g))
            ad.backward(ad.reduce_sum(out_old * g))
            assert np.array_equal(out_new.data, out_old.data)
            assert np.array_equal(new.grad, old.grad)

    def test_one_context_norm_feeds_both_heads(self, monkeypatch):
        calls = []
        counted = network.context_norm

        def context_norm(F, eps=1e-5):
            calls.append(F.shape)
            return counted(F, eps)

        monkeypatch.setattr(network, "context_norm", context_norm)
        Network(tiny_config(), seed=3).forward(rand((B, N, 4), seed=92), mode="train")
        # every other unit folds its context norm into its own node
        assert calls == [(B, N, D)]


def old_relu_linear_backward(g, r, w_data, nw, nbias):
    """The unit ops' weight, bias and input gradients from the ReLU output r that the forward kept."""
    g2 = g.reshape(-1, g.shape[-1])
    if nw is not None:
        g_w = r[0].T @ g[0]
        for r_b, g_b in zip(r[1:], g[1:]):
            g_w += r_b.T @ g_b
        nw.accum(g_w, owned=True)
    if nbias is not None:
        nbias.accum(np.ones(g2.shape[0]) @ g2, owned=True)
    ga = (g2 @ w_data.T).reshape(r.shape)
    return np.multiply(ga, r > 0.0, out=ga)


def old_relu_linear(a, weight, bias, op, bound=np.inf):
    if not bound < 1e300:
        ad._check_finite(a, op, "pre-activation")
    r = np.maximum(a, 0.0, out=a)
    out = np.matmul(r, weight.data)
    if bias is not None:
        out += bias.data
    return r, out


def old_bn_relu_linear(h, gamma, beta, weight, bias, running=None, bn_eps=1e-5):
    """bn_relu_linear as it was when its closure kept the ReLU output."""
    h, gamma, beta, weight, bias = (t if t is None else ad.as_tensor(t) for t in (h, gamma, beta, weight, bias))
    ad._check_unit_shapes("bn_relu_linear", h, gamma, beta, weight, bias)
    if running is None:
        inv_n = 1.0 / (h.shape[0] * h.shape[1])
        mean = np.einsum("bnd->d", h.data) * inv_n
        var = np.einsum("bnd,bnd->d", h.data, h.data) * inv_n - mean * mean
    else:
        mean, var = np.array(running[0], dtype=np.float64), running[1]
    inv = 1.0 / np.sqrt(var + bn_eps)
    s = inv * gamma.data
    a = h.data * s
    a += beta.data - mean * s
    r, out = old_relu_linear(a, weight, bias, "bn_relu_linear")
    nh, ngamma, nbeta, nw = h.node, gamma.node, beta.node, weight.node
    nbias = None if bias is None else bias.node
    h_data, w_data = h.data, weight.data

    def bwd(g):
        ga = old_relu_linear_backward(g, r, w_data, nw, nbias)
        g_beta = np.einsum("bnd->d", ga)
        g_gamma = inv * (np.einsum("bnd,bnd->d", ga, h_data) - mean * g_beta)
        if nbeta is not None:
            nbeta.accum(g_beta, owned=True)
        if ngamma is not None:
            ngamma.accum(g_gamma, owned=True)
        if nh is not None:
            ga *= s
            if running is None:
                c = s * inv * g_gamma * inv_n
                ga -= np.multiply(h_data, c, out=r)
                ga += mean * c - s * g_beta * inv_n
            nh.accum(ga, owned=True)

    moments = (mean, var) if running is None else None
    return ad._make(out, [t for t in (h, gamma, beta, weight, bias) if t is not None], "bn_relu_linear",
                    bwd), moments


def old_cn_bn_relu_linear(x, gamma, beta, weight, bias, running=None, bn_eps=1e-5, cn_eps=1e-5):
    """cn_bn_relu_linear as it was when its closure kept the ReLU output."""
    x, gamma, beta, weight, bias = (t if t is None else ad.as_tensor(t) for t in (x, gamma, beta, weight, bias))
    ad._check_unit_shapes("cn_bn_relu_linear", x, gamma, beta, weight, bias)
    b, n, d = x.shape
    xc = x.data - (np.ones(n) @ x.data)[:, None] * (1.0 / n)
    var = np.einsum("bnd,bnd->bd", xc, xc) * (1.0 / n)
    c = 1.0 / np.sqrt(var + cn_eps)
    if running is None:
        mean, bn_var = np.zeros(d), np.einsum("bd,bd->d", var, c * c) * (1.0 / b)
    else:
        mean, bn_var = np.array(running[0], dtype=np.float64), running[1]
    inv = 1.0 / np.sqrt(bn_var + bn_eps)
    s = inv * gamma.data
    shift = beta.data - mean * s
    a = np.einsum("bnd,bd->bnd", xc, c * s)
    a += shift
    bound = np.max(np.sqrt(var * n) * np.abs(c * s) + np.abs(shift))
    r, out = old_relu_linear(a, weight, bias, "cn_bn_relu_linear", bound)
    nx, ngamma, nbeta, nw = x.node, gamma.node, beta.node, weight.node
    nbias = None if bias is None else bias.node
    w_data = weight.data

    def bwd(g):
        ga = old_relu_linear_backward(g, r, w_data, nw, nbias)
        s1 = np.ones(n) @ ga
        s2 = np.einsum("bnd,bnd->bd", ga, xc)
        g_beta = s1.sum(axis=0)
        g_gamma = inv * (np.einsum("bd,bd->d", c, s2) - mean * g_beta)
        if nbeta is not None:
            nbeta.accum(g_beta, owned=True)
        if ngamma is not None:
            ngamma.accum(g_gamma, owned=True)
        if nx is not None:
            A = c * s
            k = s * inv * g_gamma * (1.0 / (b * n)) if running is None else 0.0
            c2 = c * c
            q = -c2 * (k * cn_eps * c2 + s * c * s2 * (1.0 / n))
            ga *= A[:, None]
            ga += np.einsum("bnd,bd->bnd", xc, q, out=r)
            ga -= (A * s1 * (1.0 / n))[:, None]
            nx.accum(ga, owned=True)

    moments = (mean, bn_var) if running is None else None
    return ad._make(out, [t for t in (x, gamma, beta, weight, bias) if t is not None], "cn_bn_relu_linear",
                    bwd), moments


def trained_desk_step(mode, batch=4, n=256):
    """TestLeanStep's desk step on a network whose batch norms have moved off their initial values.

    At initialization every shift beta - mean * s is 0; random gammas, betas and
    running statistics make the step read each term of the pre-activation.
    """
    from twoview.losses import LossConfig, total_loss

    pairs = [generate_pair(SceneConfig(n=n, outlier_ratio=0.6, pixel_noise=1.0, seed=s))
             for s in range(60, 60 + batch)]
    corr = np.stack([p.correspondences for p in pairs])
    net = Network(desk_config(), seed=12)
    rng = np.random.default_rng(13)
    for name in net.store.names():
        t = net.store[name].data
        if name.endswith((".gamma", ".running_var")):
            t[...] = rng.uniform(0.5, 2.0, t.shape)
        elif name.endswith((".beta", ".running_mean")):
            t[...] = rng.normal(0.0, 0.3, t.shape)
    out = net.forward(corr, mode=mode)
    loss = total_loss(out.logits, np.stack([p.labels for p in pairs]), out.essential, out.solved,
                      corr, LossConfig(kind="geometry", warmup=0), 0)
    ad.backward(loss)
    return net.store, out, float(loss.data)


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_rebuilt_relu_keeps_every_bit(monkeypatch, mode):
    """A desk step whose unit backwards rebuild their ReLU output, against the closures that kept it.

    The loss, the logits, every parameter gradient and every running statistic match bit for bit.
    """
    rebuilt, out, loss = trained_desk_step(mode)
    monkeypatch.setattr(ad, "bn_relu_linear", old_bn_relu_linear)
    monkeypatch.setattr(ad, "cn_bn_relu_linear", old_cn_bn_relu_linear)
    kept, out_kept, loss_kept = trained_desk_step(mode)
    assert out.solved == out_kept.solved and len(out.solved) > 0  # the step reaches the solver
    assert loss == loss_kept
    assert np.array_equal(out.logits.data, out_kept.logits.data)
    for name in kept.names():
        assert np.array_equal(rebuilt[name].data, kept[name].data), name
        if name in kept.trainable_names():
            assert kept[name].grad is not None
            assert np.array_equal(rebuilt[name].grad, kept[name].grad), name
            # the sign of a zero too
            assert np.array_equal(np.signbit(rebuilt[name].grad), np.signbit(kept[name].grad)), name


class TestDiffPool:
    def test_single_cluster_sums_nodes(self):
        store = ParameterStore()
        pool = DiffPool(store, "pool", D, 1, np.random.default_rng(0))
        x = rand((1, N, D), seed=16)
        clusters, assign = pool(Tensor(x), "eval")
        assert np.allclose(assign.data, 1.0)  # softmax over one logit
        assert np.allclose(clusters.data[0, 0], x[0].sum(axis=0))

    def test_uniform_logits_average_nodes(self):
        store = ParameterStore()
        pool = DiffPool(store, "pool", D, M, np.random.default_rng(1))
        pool.head.perceptron.weight.data[...] = 0.0
        pool.head.perceptron.bias.data[...] = 0.0
        x = rand((1, N, D), seed=17)
        clusters, _ = pool(Tensor(x), "eval")
        expected = np.repeat((N / M) * x[0].mean(axis=0, keepdims=True), M, axis=0)
        assert np.allclose(clusters.data[0], expected)

    def test_permutation_invariance(self):
        store = ParameterStore()
        pool = DiffPool(store, "pool", D, M, np.random.default_rng(2))
        x = rand((1, 64, D), seed=18)
        clusters, _ = pool(Tensor(x), "eval")
        for seed in range(5):
            perm = np.random.default_rng(100 + seed).permutation(64)
            clusters_p, _ = pool(Tensor(x[:, perm]), "eval")
            assert np.abs(clusters_p.data - clusters.data).max() < 1e-9

    def test_row_softmax_normalization(self):
        store = ParameterStore()
        pool = DiffPool(store, "pool", D, M, np.random.default_rng(3))
        _, assign = pool(Tensor(rand((B, N, D), seed=19)), "eval")
        assert np.allclose(assign.data.sum(axis=2), 1.0, atol=1e-9)


class TestDiffUnpool:
    def test_single_cluster_uniform(self):
        cfg = tiny_config(clusters=1)
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, 1, cfg, np.random.default_rng(0))
        up.head.perceptron.weight.data[...] = 0.0  # the order-aware head has no bias
        x_pre = rand((1, N, D), seed=20)
        clusters = rand((1, 1, D), seed=21)
        out, assign = up(Tensor(x_pre), Tensor(clusters), "eval")
        assert np.allclose(assign.data, 1.0 / N)
        assert np.allclose(out.data, clusters[0, 0] / N)

    def test_column_softmax_normalization(self):
        cfg = tiny_config()
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, M, cfg, np.random.default_rng(1))
        _, assign = up(Tensor(rand((B, N, D), 22)), Tensor(rand((B, M, D), 23)), "eval")
        assert np.allclose(assign.data.sum(axis=1), 1.0, atol=1e-9)

    def test_order_aware_row_alignment(self):
        # permuting the level-1 features permutes the output rows identically
        cfg = tiny_config()
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, M, cfg, np.random.default_rng(2))
        x_pre = rand((1, N, D), seed=24)
        clusters = rand((1, M, D), seed=25)
        out, _ = up(Tensor(x_pre), Tensor(clusters), "eval")
        for seed in range(5):
            perm = np.random.default_rng(200 + seed).permutation(N)
            out_p, _ = up(Tensor(x_pre[:, perm]), Tensor(clusters), "eval")
            assert np.abs(out_p.data - out.data[:, perm]).max() < 1e-9

    def test_plain_variant_ignores_input_order(self):
        cfg = tiny_config(unpool_variant="plain")
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, M, cfg, np.random.default_rng(3))
        x_pre = rand((1, N, D), seed=26)
        clusters = rand((1, M, D), seed=27)
        out, _ = up(Tensor(x_pre), Tensor(clusters), "eval")
        perm = np.random.default_rng(4).permutation(N)
        out_p, _ = up(Tensor(x_pre[:, perm]), Tensor(clusters), "eval")
        # output is a function of the clusters alone: identical, not permuted
        assert np.allclose(out_p.data, out.data)

    def test_zero_clusters_zero_output(self):
        cfg = tiny_config()
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, M, cfg, np.random.default_rng(5))
        out, _ = up(Tensor(rand((1, N, D), 28)), Tensor(np.zeros((1, M, D))), "eval")
        assert np.allclose(out.data, 0.0)

    def test_plain_variant_needs_expected_points(self):
        cfg = tiny_config(unpool_variant="plain", expected_points=N)
        store = ParameterStore()
        up = DiffUnpool(store, "up", D, M, cfg, np.random.default_rng(6))
        with pytest.raises(ShapeMismatch):
            up(Tensor(rand((1, N + 2, D), 29)), Tensor(rand((1, M, D), 30)), "eval")


class TestSpatialCorrelation:
    def test_identity(self):
        x = rand((B, M, D), seed=31)
        out = spatial_correlation(Tensor(x), np.eye(M), np.zeros(M))
        assert np.allclose(out.data, x)

    def test_not_permutation_equivariant(self):
        rng = np.random.default_rng(32)
        W, b = rng.normal(size=(M, M)), rng.normal(size=M)
        x = rand((1, M, D), seed=33)
        out = spatial_correlation(Tensor(x), W, b).data
        perm = np.array([1, 0, 3, 2])
        out_p = spatial_correlation(Tensor(x[:, perm]), W, b).data
        assert np.abs(out_p - out[:, perm]).max() > 1e-3

    def test_row_stochastic_fixed_point_on_constant_input(self):
        rng = np.random.default_rng(34)
        W = rng.uniform(0.1, 1.0, size=(M, M))
        W /= W.sum(axis=0, keepdims=True)  # columns sum to 1: preserves constants
        x = np.tile(rand((1, 1, D), 35), (1, M, 1))
        out = spatial_correlation(Tensor(x), W, np.zeros(M)).data
        assert np.allclose(out, x)

    def test_wrong_spatial_dim(self):
        with pytest.raises(ShapeMismatch):
            spatial_correlation(Tensor(rand((B, M + 1, D))), np.eye(M), np.zeros(M))


class TestOrderAwareBlock:
    def test_zero_weights_identity(self):
        store = ParameterStore()
        block = OrderAwareBlock(store, "oa", M, D, np.random.default_rng(0))
        for unit in (block.half1, block.half2):
            unit.perceptron.weight.data[...] = 0.0
        block.half2.perceptron.bias.data[...] = 0.0  # half1 has none
        block.mix.weight.data[...] = 0.0
        block.mix.bias.data[...] = 0.0
        x = rand((B, M, D), seed=36)
        assert np.allclose(block(Tensor(x), "train").data, x)

    def test_shape_preserved(self):
        store = ParameterStore()
        block = OrderAwareBlock(store, "oa", M, D, np.random.default_rng(1))
        assert block(Tensor(rand((B, M, D))), "train").shape == (B, M, D)


class TestNetworkForward:
    def scene(self, seed=0, n=N):
        return generate_pair(SceneConfig(n=n, outlier_ratio=0.25, pixel_noise=0.5, seed=seed))

    def test_weights_range_and_zeroing(self):
        net = Network(tiny_config(), seed=0)
        pair = self.scene()
        out = net.forward(pair.correspondences[None], mode="eval")
        w = out.weights.data
        z = out.logits.data
        assert np.all(w >= 0) and np.all(w < 1)
        assert np.all(w[z <= 0] == 0)

    def test_permutation_equivariance_and_identical_essential(self):
        pair = self.scene(n=64)
        net = Network(desk_config(channels=D, clusters=M, blocks_before_pool=1,
                                  blocks_after_unpool=1, level2_blocks=1), seed=4)
        with ad.no_grad():
            out = net.forward(pair.correspondences[None], mode="eval")
        assert out.failures[0] is None
        rng = np.random.default_rng(7)
        for _ in range(3):
            perm = rng.permutation(64)
            with ad.no_grad():
                out_p = net.forward(pair.correspondences[None, perm], mode="eval")
            assert np.abs(out_p.logits.data[0] - out.logits.data[0][perm]).max() < 1e-6
            assert np.abs(out_p.essentials[0].data - out.essentials[0].data).max() < 1e-9

    def test_untrained_net_valid_unit_norm_essential(self):
        pair = generate_pair(SceneConfig(n=64, outlier_ratio=0.0, pixel_noise=0.0, seed=3))
        net = Network(tiny_config(expected_points=64), seed=2)
        out = net.forward(pair.correspondences[None], mode="eval")
        assert out.failures[0] is None
        assert abs(np.linalg.norm(out.essentials[0].data) - 1.0) < 1e-9

    def test_pointcn_only_variant(self):
        net = Network(tiny_config(use_pool=False), seed=3)
        pair = self.scene()
        out = net.forward(pair.correspondences[None], mode="eval")
        assert out.pool_assign is None
        assert out.logits.shape == (1, N)

    def test_batch_forward_shapes(self):
        net = Network(tiny_config(), seed=4)
        pairs = [self.scene(seed=s) for s in range(3)]
        corr = np.stack([p.correspondences for p in pairs])
        out = net.forward(corr, mode="train")
        assert out.logits.shape == (3, N)
        assert len(out.essentials) == 3

    def test_too_few_points_rejected(self):
        net = Network(tiny_config(), seed=5)
        with pytest.raises(ShapeMismatch):
            net.forward(np.zeros((1, 7, 4)))

    def test_all_zero_weights_reports_failure(self):
        net = Network(tiny_config(), seed=6)
        net.stage.head.weight.data[...] = 0.0
        net.stage.head.bias.data[...] = -5.0  # z < 0 everywhere -> w = 0
        pair = self.scene()
        out = net.forward(pair.correspondences[None], mode="eval")
        assert out.failures[0] == "InsufficientSupport"
        assert out.essentials[0] is None

    def test_overflowing_sample_reports_solver_breakdown(self):
        # a sample scaled by 1e80 overflows its Gram matrix; the other samples still solve
        net = Network(tiny_config(), seed=4)
        corr = np.stack([self.scene(seed=s).correspondences for s in range(3)])
        with ad.no_grad():
            clean = net.forward(corr, mode="eval")
            corr[1] *= 1e80
            out = net.forward(corr, mode="eval")
        assert out.failures == [None, "SolverBreakdown", None]
        assert out.essentials[1] is None
        for b in (0, 2):
            assert np.array_equal(out.essentials[b].data, clean.essentials[b].data)

    def test_solve_node_backward_is_each_samples_backward(self):
        """One node for the batch: each solved row's weight gradient is that sample's
        backward_from_context bit for bit; a failed sample's row is exact zeros."""
        from twoview import eightpoint
        from twoview.network import _solve_batch

        corr = np.stack([self.scene(seed=s).correspondences for s in range(3)])
        rng = np.random.default_rng(19)
        w0 = rng.uniform(0.2, 1.0, size=(3, N))
        w0[1] = 0.0  # no support: sample 1 fails
        w = Tensor(w0, requires_grad=True)
        essential, solved, failures = _solve_batch(corr, w)
        assert solved == [0, 2] and failures == [None, "InsufficientSupport", None]
        assert essential.op == "weighted_eightpoint" and essential.node.parents == (w.node,)
        upstream = rng.normal(size=(2, 3, 3))
        ad.backward(ad.reduce_sum(essential * upstream))
        for k, b in enumerate(solved):
            e, ctx = eightpoint.weighted_eightpoint_with_context(corr[b], w0[b])
            assert np.array_equal(essential.data[k], e)
            assert np.array_equal(w.grad[b], eightpoint.backward_from_context(ctx, upstream[k]))
        assert np.array_equal(w.grad[1], np.zeros(N))

    def test_batch_without_a_solve_leaves_the_classification_loss(self):
        from twoview.losses import LossConfig, classification_loss, total_loss

        net = Network(tiny_config(), seed=6)
        net.stage.head.weight.data[...] = 0.0
        net.stage.head.bias.data[...] = -5.0  # w = 0 everywhere: no sample solves
        pairs = [self.scene(seed=s) for s in range(2)]
        corr = np.stack([p.correspondences for p in pairs])
        labels = np.stack([p.labels for p in pairs])
        out = net.forward(corr, mode="train")
        assert out.essential is None and out.solved == []
        assert out.failures == ["InsufficientSupport"] * 2 and out.essentials == [None, None]
        loss = total_loss(out.logits, labels, out.essential, out.solved, corr, LossConfig(warmup=0), 0)
        assert float(loss.data) == float(classification_loss(out.logits, labels).data)


class TestIterative:
    def make(self):
        return Network(tiny_config(iterative=True), seed=7)

    def test_stage2_shapes_match_stage1(self):
        net = self.make()
        pair = generate_pair(SceneConfig(n=N, outlier_ratio=0.25, pixel_noise=0.5, seed=8))
        out = net.forward(pair.correspondences[None], mode="eval")
        assert out.stage1 is not None
        assert out.logits.shape == out.stage1.logits.shape

    def test_stage2_loss_does_not_reach_stage1(self):
        from twoview.losses import LossConfig, total_loss

        net = self.make()
        pair = generate_pair(SceneConfig(n=N, outlier_ratio=0.25, pixel_noise=0.5, seed=9))
        corr = pair.correspondences[None]
        out = net.forward(corr, mode="train")
        loss = total_loss(out.logits, pair.labels[None], out.essential, out.solved, corr,
                          LossConfig(warmup=0), iteration=10)
        net.store.zero_grad()
        ad.backward(loss)
        for name in net.store.trainable_names():
            grad = net.store[name].grad
            if name.startswith("s1."):
                assert grad is None or not np.any(grad), name
            if name.startswith("s2.head."):
                assert grad is not None and np.any(grad), name


class TestConfig:
    def test_paper_defaults(self):
        cfg = load_run_config(PAPER_CONFIG).network
        assert cfg.channels == 128 and cfg.clusters == 500
        assert cfg.blocks_before_pool + cfg.blocks_after_unpool == 12
        assert cfg.level2_blocks == 6

    def test_desk_defaults(self):
        cfg = NetworkConfig()
        assert cfg == desk_config()
        assert cfg.channels == 32 and cfg.clusters == 128
        assert cfg.blocks_before_pool == cfg.blocks_after_unpool == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            desk_config(unpool_variant="bogus")
        with pytest.raises(ValueError):
            desk_config(channels=0)


DESK_LOGITS = os.path.join(os.path.dirname(__file__), "data", "desk_logits.json")
# the ablation variants of scripts/run_acceptance_protocol.py, plus the plain unpool
VARIANTS = {
    "pointcn": {"use_pool": False},
    "pool": {"level2_kind": "pointcn"},
    "full": {},
    "plain": {"unpool_variant": "plain"},
    "iter": {"iterative": True, "blocks_before_pool": 1, "blocks_after_unpool": 1,
             "level2_blocks": 1},
}


def desk_record():
    """Eval logits of freshly built desk networks of each variant on one pair, as commit 264630f
    gave them, before the network dropped the state that cannot change an output."""
    with open(DESK_LOGITS, encoding="utf-8") as fh:
        return json.load(fh)


def eval_logits(net, scene):
    with ad.no_grad():
        return net.forward(generate_pair(scene).correspondences[None], mode="eval").logits.data[0]


class TestRetiredState:
    """Every stored tensor can change an output, and fresh networks keep their logits."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_every_parameter_gets_a_gradient(self, variant):
        from twoview.config import TrainParams
        from twoview.losses import LossConfig
        from twoview.training import run_training

        pairs = generate_dataset(SceneConfig(n=512, outlier_ratio=0.6, pixel_noise=1.0), 8,
                                 base_seed=80)
        params = TrainParams(steps=1, batch_size=8, log_every=1, val_pairs=1)
        net, _, _ = run_training(pairs, desk_config(**VARIANTS[variant]),
                                 LossConfig(kind="geometry", warmup=0), params, seed=4)
        largest = {name: 0.0 if net.store[name].grad is None else np.abs(net.store[name].grad).max()
                   for name in net.store.trainable_names()}
        top = max(largest.values())
        assert [name for name, g in largest.items() if not g > 1e-12 * top] == []

    def test_desk_store_size(self, tmp_path):
        from twoview.autodiff import read_checkpoint_arrays, save_checkpoint

        store = Network(desk_config(), seed=0).store
        trainable = set(store.trainable_names())
        assert len(store.names()) == 93
        assert sum(store[n].data.size for n in trainable) == 57121
        assert sum(store[n].data.size for n in store.names() if n not in trainable) == 960
        save_checkpoint(store, tmp_path / "full.bin")
        assert len(read_checkpoint_arrays(tmp_path / "full.bin")) == 220

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_fresh_desk_network_keeps_its_logits(self, variant):
        record = desk_record()
        net = Network(desk_config(**VARIANTS[variant]), seed=record["desk_seed"])
        z = eval_logits(net, SceneConfig(n=512, outlier_ratio=0.4, pixel_noise=0.5,
                                         seed=record["desk_pair_seed"]))
        z_old = np.array(record["desk_logits"][variant])
        assert np.abs(z - z_old).max() <= 1e-12 * np.abs(z_old).max()
