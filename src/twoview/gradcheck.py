"""Finite-difference verification suite for every differentiable component.

Each case is a probe point and a scalar function of it, and its error is
`autodiff.gradient_error`: the largest relative error of the analytic
gradient against Richardson-extrapolated central differences, without the
components probed at a kink. The CLI `gradcheck` command prints one row
per case and fails if any exceeds the 1e-4 budget or writes into its probe.
"""

import math

import numpy as np

from . import autodiff as ad
from . import eightpoint
from .autodiff import ParameterStore
from .losses import LossConfig, classification_loss, geometry_loss, total_loss
from .network import (
    BatchNorm,
    DiffPool,
    DiffUnpool,
    Network,
    OrderAwareBlock,
    PointCNResBlock,
    PointCNUnit,
    SpatialCorrelationUnit,
    _Stage,
    _solve_batch,
    context_norm,
    desk_config,
    shared_perceptron,
    spatial_correlation,
)
from .synthdata import SceneConfig, generate_pair

TOLERANCE = 1e-4
TOY_NETWORK = dict(channels=8, clusters=4, blocks_before_pool=1, blocks_after_unpool=1,
                   level2_blocks=1, expected_points=16)


def _away_from(rng, shape, avoid, margin):
    x = rng.normal(size=shape)
    x = np.where(np.abs(x - avoid) < margin, x + np.sign(x - avoid + 1e-12) * margin, x)
    return x


def _op_cases(rng):
    """(name, probe point, scalar function) for every engine op."""
    c34 = rng.normal(size=(3, 4))
    c4 = rng.normal(size=4)
    p34 = rng.normal(size=(3, 4))
    cases = []

    def case(name, x, fn):
        cases.append((name, x, fn))

    case("add", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.add(t, c34) * p34))
    case("add(broadcast)", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.add(t, c4) * p34))
    case("sub", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.sub(t, c34) * p34))
    case("mul", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.mul(t, c34) * p34))
    den = np.sign(c34) * (np.abs(c34) + 0.5)
    case("div", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.div(t, den) * p34))
    case("div(by x)", _away_from(rng, (3, 4), 0.0, 0.3), lambda t: ad.reduce_sum(ad.div(c34, t) * p34))
    case("neg", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.neg(t) * p34))
    case("relu", _away_from(rng, (3, 4), 0.0, 0.1), lambda t: ad.reduce_sum(ad.relu(t) * p34))
    case("tanh", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.tanh(t) * p34))
    case("softplus", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.softplus(t) * p34))
    rng.uniform(0.5, 2.0, size=(3, 4))  # the probe of the retired sqrt row, kept for its draws
    case("minimum_const", _away_from(rng, (3, 4), 0.5, 0.1),
         lambda t: ad.reduce_sum(ad.minimum_const(t, 0.5) * p34))
    m42 = rng.normal(size=(4, 2))
    p32 = rng.normal(size=(3, 2))
    case("matmul(lhs)", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.matmul(t, m42) * p32))
    case("matmul(rhs)", rng.normal(size=(4, 2)), lambda t: ad.reduce_sum(ad.matmul(c34, t) * p32))
    p232 = rng.normal(size=(2, 3, 2))
    case("matmul(batched)", rng.normal(size=(2, 3, 4)),
         lambda t: ad.reduce_sum(ad.matmul(t, m42) * p232))
    m242, c234 = rng.normal(size=(2, 4, 2)), rng.normal(size=(2, 3, 4))
    case("matmul(batch @ batch, lhs)", rng.normal(size=(2, 3, 4)),
         lambda t: ad.reduce_sum(ad.matmul(t, m242) * p232))
    case("matmul(batch @ batch, rhs)", rng.normal(size=(2, 4, 2)),
         lambda t: ad.reduce_sum(ad.matmul(c234, t) * p232))
    case("matmul(matrix @ batch)", rng.normal(size=(2, 4, 2)),
         lambda t: ad.reduce_sum(ad.matmul(c34, t) * p232))
    p43 = rng.normal(size=(4, 3))
    case("transpose_last2", rng.normal(size=(3, 4)),
         lambda t: ad.reduce_sum(ad.transpose_last2(t) * p43))
    p12 = rng.normal(size=(12,))
    case("reshape", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.reshape(t, (12,)) * p12))
    p38 = rng.normal(size=(3, 8))
    case("concat", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.concat([t, c34], axis=1) * p38))
    p4 = rng.normal(size=(4,))
    rng.normal(size=(3, 4))  # the probe of a retired row: every later row keeps its draws
    case("reduce_sum(all)", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(t))
    case("reduce_sum(axis)", rng.normal(size=(3, 4)),
         lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=0) * p4))
    p134 = rng.normal(size=(1, 3, 4))
    case("reduce_sum(keepdims)", rng.normal(size=(2, 3, 4)),
         lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=(0,), keepdims=True) * p134))
    case("softmax(last)", rng.normal(size=(3, 4)), lambda t: ad.reduce_sum(ad.softmax(t, axis=1) * p34))
    p234 = rng.normal(size=(2, 3, 4))
    case("softmax(mid)", rng.normal(size=(2, 3, 4)),
         lambda t: ad.reduce_sum(ad.softmax(t, axis=1) * p234))
    p253a = rng.normal(size=(2, 5, 3))
    case("normalize(points)", rng.normal(size=(2, 5, 3)),
         lambda t: ad.reduce_sum(ad.normalize(t, axes=(1,)) * p253a))
    p253b = rng.normal(size=(2, 5, 3))
    case("normalize(batch)", rng.normal(size=(2, 5, 3)),
         lambda t: ad.reduce_sum(ad.normalize(t, axes=(0, 1)) * p253b))
    gamma3, beta3 = rng.normal(1.0, 0.2, 3), rng.normal(0.0, 0.2, 3)
    w32, b2 = rng.normal(size=(3, 2)), rng.normal(size=2)
    p252 = rng.normal(size=(2, 5, 2))
    mean3, inv3 = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)
    running3 = mean3, 1.0 / inv3**2 - 1e-5  # the variance whose 1/sqrt(var + eps) is inv3

    def bn_relu_linear(t, running):
        # batch statistics follow the probe; an offset input keeps their mean away from 0
        out, _ = ad.bn_relu_linear(t, gamma3, beta3, w32, b2, running)
        return ad.reduce_sum(out * p252)

    case("bn_relu_linear(batch stats)", rng.normal(0.7, 1.0, size=(2, 5, 3)),
         lambda t: bn_relu_linear(t, None))
    case("bn_relu_linear(fixed stats)", rng.normal(0.7, 1.0, size=(2, 5, 3)),
         lambda t: bn_relu_linear(t, running3))
    # probed at an existing draw, so later cases see the same random stream
    case("softmax(last, 3-D)", c234, lambda t: ad.reduce_sum(ad.softmax(t, axis=2) * p234))
    return cases


def _toy_scene(seed=3, n=24, noise=0.5, outliers=0.25):
    return generate_pair(SceneConfig(n=n, outlier_ratio=outliers, pixel_noise=noise, seed=seed))


def _block_cases(rng):
    """Input- and parameter-probes through each network block at toy sizes."""
    cfg = desk_config(**TOY_NETWORK)
    B, N, M, D = 2, 16, 4, 8
    cases = []

    w85 = rng.normal(size=(8, 5))
    b5 = rng.normal(size=5)
    x_bnd = rng.normal(size=(B, N, D))
    p_bn5 = rng.normal(size=(B, N, 5))
    cases.append(("shared_perceptron(input)", x_bnd,
                  lambda t: ad.reduce_sum(shared_perceptron(t, w85, b5) * p_bn5)))
    cases.append(("shared_perceptron(weight)", w85,
                  lambda t: ad.reduce_sum(shared_perceptron(x_bnd, t, b5) * p_bn5)))
    cases.append(("shared_perceptron(bias)", b5,
                  lambda t: ad.reduce_sum(shared_perceptron(x_bnd, w85, t) * p_bn5)))

    p_bnd = rng.normal(size=(B, N, D))
    cases.append(("context_norm", rng.normal(size=(B, N, D)),
                  lambda t: ad.reduce_sum(context_norm(t) * p_bnd)))

    for mode in ("train", "eval"):
        x = rng.normal(size=(B, N, D))
        bn = BatchNorm(ParameterStore(), "bn", D)
        bn.gamma.data[...] = rng.normal(1.0, 0.2, D)
        bn.beta.data[...] = rng.normal(0.0, 0.2, D)
        cases.append((f"batch_norm({mode})", x,
                      lambda t, bn=bn, mode=mode: ad.reduce_sum(bn(t, mode) * p_bnd)))

    def layer_case(name, layer, shape):
        proj = rng.normal(size=shape)
        cases.append((name, rng.normal(size=shape),
                      lambda t: ad.reduce_sum(layer(t, "train") * proj)))

    layer_case("pointcn_resnet_block",
               PointCNResBlock(ParameterStore(), "blk", D, np.random.default_rng(0)), (B, N, D))

    # the unit's one node, CN -> BN -> ReLU -> perceptron, probed through each of its inputs
    for mode in ("train", "eval"):
        unit = PointCNUnit(ParameterStore(), "unit", D, 5, np.random.default_rng(6))
        unit.bn.gamma.data[...] = rng.normal(1.0, 0.2, D)
        unit.bn.beta.data[...] = rng.normal(0.0, 0.2, D)
        unit.bn.running_mean.data[...] = rng.normal(0.0, 0.3, D)
        unit.bn.running_var.data[...] = rng.uniform(0.5, 2.0, D)
        unit.perceptron.bias.data[...] = rng.normal(size=5)
        x_unit = rng.normal(size=(B, N, D))
        cases.append((f"pointcn_unit({mode}, input)", x_unit,
                      lambda t, unit=unit, mode=mode: ad.reduce_sum(unit(t, mode) * p_bn5)))
        for owner, attr in ((unit.bn, "gamma"), (unit.bn, "beta"),
                            (unit.perceptron, "weight"), (unit.perceptron, "bias")):
            cases.append((f"pointcn_unit({mode}, {attr})", getattr(owner, attr).data.copy(),
                          _probe_attr(owner, attr, lambda unit=unit, x=x_unit, mode=mode:
                                      ad.reduce_sum(unit(x, mode) * p_bn5))))

    pool = DiffPool(ParameterStore(), "pool", D, M, np.random.default_rng(1))
    p_bmd = rng.normal(size=(B, M, D))
    cases.append(("diff_pool", rng.normal(size=(B, N, D)),
                  lambda t: ad.reduce_sum(pool(t, "train")[0] * p_bmd)))

    unpool_oa = DiffUnpool(ParameterStore(), "up", D, M, cfg, np.random.default_rng(2))
    clusters_const = rng.normal(size=(B, M, D))
    x_pre_const = rng.normal(size=(B, N, D))
    cases.append(("diff_unpool(order_aware, nodes)", rng.normal(size=(B, N, D)),
                  lambda t: ad.reduce_sum(unpool_oa(t, ad.as_tensor(clusters_const), "train")[0] * p_bnd)))
    cases.append(("diff_unpool(order_aware, clusters)", rng.normal(size=(B, M, D)),
                  lambda t: ad.reduce_sum(unpool_oa(ad.as_tensor(x_pre_const), t, "train")[0] * p_bnd)))

    unpool_plain = DiffUnpool(ParameterStore(), "upp", D, M,
                              desk_config(**TOY_NETWORK, unpool_variant="plain"), np.random.default_rng(3))
    cases.append(("diff_unpool(plain)", rng.normal(size=(B, M, D)),
                  lambda t: ad.reduce_sum(unpool_plain(ad.as_tensor(x_pre_const), t, "train")[0] * p_bnd)))

    wmm = rng.normal(size=(M, M))
    bm = rng.normal(size=M)
    p_bmd2 = rng.normal(size=(B, M, D))
    cases.append(("spatial_correlation(input)", rng.normal(size=(B, M, D)),
                  lambda t: ad.reduce_sum(spatial_correlation(t, wmm, bm) * p_bmd2)))
    cases.append(("spatial_correlation(weight)", wmm,
                  lambda t: ad.reduce_sum(spatial_correlation(clusters_const, t, bm) * p_bmd2)))
    cases.append(("spatial_correlation(bias)", bm,
                  lambda t: ad.reduce_sum(spatial_correlation(clusters_const, wmm, t) * p_bmd2)))

    layer_case("spatial_correlation_unit",
               SpatialCorrelationUnit(ParameterStore(), "sc", M, D, np.random.default_rng(4)), (B, M, D))
    layer_case("order_aware_block",
               OrderAwareBlock(ParameterStore(), "oa", M, D, np.random.default_rng(5)), (B, M, D))

    # pool and unpool heads reading one shared context norm of the level-1 features;
    # its own generator keeps the stream of the cases after it unchanged
    stage_rng = np.random.default_rng(7)
    stage = _Stage(ParameterStore(), "stage", cfg, 4, stage_rng)
    p_bn = stage_rng.normal(size=(B, N))
    cases.append(("stage(shared context norm)", stage_rng.normal(size=(B, N, 4)),
                  lambda t: ad.reduce_sum(stage(t, "train")[0] * p_bn)))
    return cases


def _probe_attr(owner, attr, scalar):
    """Scalar function of a probe tensor: scalar() with the probe standing in for owner.attr."""
    def fn(t):
        saved = getattr(owner, attr)
        setattr(owner, attr, t)
        try:
            return scalar()
        finally:
            setattr(owner, attr, saved)

    return fn


def _loss_cases(rng):
    cases = []
    z0 = rng.normal(size=(2, 16))
    labels = (rng.uniform(size=(2, 16)) < 0.5).astype(np.int64)
    labels[:, 0] = 1
    labels[:, 1] = 0
    cases.append(("classification_loss(balanced)", z0, lambda t: classification_loss(t, labels)))

    pair = _toy_scene(seed=11)
    rng.normal(size=(3, 3))  # the probe offset of the retired essential_l2_loss row
    e_near = pair.essential + 1e-3 * rng.normal(size=(3, 3))
    e_near /= np.linalg.norm(e_near)
    cases.append(("geometry_loss", e_near[None], lambda t: ad.reduce_sum(
        geometry_loss(t, pair.correspondences[None], pair.labels[None], clamp=0.1))))
    return cases


def _full_network_cases():
    """Whole-graph probe: a parameter gradient through the solver and the loss."""
    pair = _toy_scene(seed=21, n=16, noise=0.2, outliers=0.25)
    corr = pair.correspondences[None]
    labels = pair.labels[None]
    loss_cfg = LossConfig(warmup=0)
    # train mode normalises with batch statistics, so the probe needs no running state
    net = Network(desk_config(**TOY_NETWORK), seed=9)

    def loss():
        out = net.forward(corr, mode="train")
        return total_loss(out.logits, labels, out.essential, out.solved, corr, loss_cfg, 0)

    head = net.stage.head
    return [("full_forward+geometry_loss(head weight)", head.weight.data.copy(),
             _probe_attr(head, "weight", loss))]


def _solver_cases(rng):
    """The eigendecomposition backward, probed through the weights of the network's solve."""
    C = _toy_scene(seed=int(rng.integers(2**31))).correspondences
    w = rng.uniform(0.2, 1.0, size=len(C))
    upstream = rng.normal(size=(3, 3))
    if eightpoint.weighted_eightpoint_with_context(C, w)[1].eigengap <= 1e-6:
        raise RuntimeError("toy scene eigengap too small for a reliable check")
    return [("weighted_eightpoint_backward(eigendecomposition)", w,
             lambda t: ad.reduce_sum(_solve_batch(C[None], ad.reshape(t, (1, -1)))[0] * upstream))]


def run_gradcheck(seed=0):
    """Run every case; returns (rows, all_passed) with rows of (name, err, passed).

    A case whose function writes into its probe fails with an infinite error.
    """
    rng = np.random.default_rng(seed)
    cases = (_op_cases(rng) + _block_cases(rng) + _loss_cases(rng) + _full_network_cases()
             + _solver_cases(rng))
    rows = []
    for name, x, fn in cases:
        try:
            err = ad.gradient_error(fn, x)
        except ad.ProbeModified:
            err = math.inf
        rows.append((name, err, err < TOLERANCE))
    return rows, all(passed for _, _, passed in rows)
