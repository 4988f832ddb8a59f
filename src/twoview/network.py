"""Permutation-equivariant inlier classification network.

The trunk alternates PointCN ResNet blocks with a soft-assignment pooling
stage: unordered correspondences are pooled into a fixed number of
clusters in a learned canonical order, processed by order-aware filtering
blocks that correlate clusters along the spatial dimension, and unpooled
back to per-correspondence features. The head emits logits z, weights
w = tanh(relu(z)), and a regressed essential matrix per sample through
the differentiable weighted eight-point solver.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import eightpoint
from .autodiff import ParameterStore, ShapeMismatch, Tensor
from .epipolar import symmetric_epipolar_distances


@dataclass(frozen=True)
class NetworkConfig:
    """Desk-scale field defaults, sized for CPU training; configs/paper.cfg is the paper's."""

    channels: int = 32
    clusters: int = 128
    blocks_before_pool: int = 2
    blocks_after_unpool: int = 2
    level2_blocks: int = 2
    unpool_variant: str = "order_aware"   # "order_aware" | "plain"
    level2_kind: str = "order_aware"      # "order_aware" | "pointcn"
    use_pool: bool = True                 # False: plain PointCN baseline
    iterative: bool = False
    expected_points: int = 512            # needed by the plain unpool head (D -> N)

    def __post_init__(self):
        if self.unpool_variant not in ("order_aware", "plain"):
            raise ValueError(f"unknown unpool_variant {self.unpool_variant!r}")
        if self.level2_kind not in ("order_aware", "pointcn"):
            raise ValueError(f"unknown level2_kind {self.level2_kind!r}")
        for key in ("channels", "clusters", "blocks_before_pool", "blocks_after_unpool",
                    "level2_blocks", "expected_points"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be positive")


def desk_config(**overrides):
    """The desk-scale NetworkConfig, with any field overridden."""
    return NetworkConfig(**overrides)


def _init_weight(rng, d_in, d_out):
    return rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))


def shared_perceptron(F, weight, bias=None):
    """Apply one linear map to every point independently: F @ W (+ b)."""
    F, weight = ad.as_tensor(F), ad.as_tensor(weight)
    if F.shape[-1] != weight.shape[0]:
        raise ShapeMismatch(f"shared_perceptron: {F.shape} @ {weight.shape}")
    out = ad.matmul(F, weight)
    return out if bias is None else out + bias


def context_norm(F, eps=1e-5):
    """Normalize each channel to zero mean / unit variance across the points of a sample."""
    F = ad.as_tensor(F)
    if F.data.ndim != 3:
        raise ShapeMismatch(f"context_norm: expected (B, N, D), got {F.shape}")
    if F.shape[1] < 2:
        raise ShapeMismatch("context_norm: need at least 2 points")
    return ad.normalize(F, axes=(1,), eps=eps)


def spatial_correlation(F, weight, bias):
    """Linear map along the cluster axis, shared across channels."""
    F, weight, bias = ad.as_tensor(F), ad.as_tensor(weight), ad.as_tensor(bias)
    if F.data.ndim != 3:
        raise ShapeMismatch(f"spatial_correlation: expected (B, M, D), got {F.shape}")
    if F.shape[1] != weight.shape[0]:
        raise ShapeMismatch(f"spatial_correlation: spatial dim {F.shape[1]} != weight size {weight.shape[0]}")
    # out[b, m', d] = sum_m W[m, m'] F[b, m, d] + b[m']: one product, weights shared along channels
    return ad.matmul(ad.transpose_last2(weight), F) + ad.reshape(bias, (weight.shape[1], 1))


class Perceptron:
    def __init__(self, store, name, d_in, d_out, rng, bias=True):
        self.weight = store.parameter(f"{name}.weight", _init_weight(rng, d_in, d_out))
        self.bias = store.parameter(f"{name}.bias", np.zeros(d_out)) if bias else None

    def __call__(self, x):
        return shared_perceptron(x, self.weight, self.bias)


class BatchNorm:
    """Per-channel normalization over (batch x points) with running statistics.

    With `shared`, it reads the running statistics of another batch norm of
    the same input and leaves their update to that one.
    """

    def __init__(self, store, name, channels, momentum=0.9, eps=1e-5, shared=None):
        self.gamma = store.parameter(f"{name}.gamma", np.ones(channels))
        self.beta = store.parameter(f"{name}.beta", np.zeros(channels))
        self.owns_stats = shared is None
        if self.owns_stats:
            self.running_mean = store.buffer(f"{name}.running_mean", np.zeros(channels))
            self.running_var = store.buffer(f"{name}.running_var", np.ones(channels))
        else:
            self.running_mean, self.running_var = shared.running_mean, shared.running_var
        self.momentum = momentum
        self.eps = eps

    def track(self, moments):
        """Fold a train batch's (mean, var) into the running statistics, if this one owns them."""
        if moments is not None and self.owns_stats:
            mean, var = moments
            self.running_mean.data[...] = self.momentum * self.running_mean.data + (1 - self.momentum) * mean
            self.running_var.data[...] = self.momentum * self.running_var.data + (1 - self.momentum) * var

    def __call__(self, x, mode):
        x = ad.as_tensor(x)
        if mode == "train":
            if x.shape[0] * x.shape[1] < 2:
                raise ShapeMismatch("batch_norm: train mode needs batch*points >= 2")
            self.track((x.data.mean(axis=(0, 1)), x.data.var(axis=(0, 1))))
            y = ad.normalize(x, axes=(0, 1), eps=self.eps)
        else:
            inv = 1.0 / np.sqrt(self.running_var.data + self.eps)
            y = (x - self.running_mean.data) * inv
        return y * self.gamma + self.beta


class PointCNUnit:
    """One PointCN unit: CN -> BN -> ReLU -> perceptron as one graph node.

    A unit given a context norm it shares with another unit runs the last
    three steps as one node on it.
    """

    def __init__(self, store, name, d_in, d_out, rng, bias=True, shared_bn=None):
        self.bn = BatchNorm(store, f"{name}.bn", d_in, shared=shared_bn)
        self.perceptron = Perceptron(store, f"{name}.perc", d_in, d_out, rng, bias)

    def __call__(self, x, mode, normed=None):
        """normed: context_norm(x), when other units read the same x."""
        bn, perc = self.bn, self.perceptron
        running = None if mode == "train" else (bn.running_mean.data, bn.running_var.data)
        op, inp = (ad.cn_bn_relu_linear, x) if normed is None else (ad.bn_relu_linear, normed)
        out, moments = op(inp, bn.gamma, bn.beta, perc.weight, perc.bias, running, bn.eps)
        bn.track(moments)
        return out


class PointCNResBlock:
    """Two PointCN units under an identity skip connection."""

    def __init__(self, store, name, d, rng):
        # no bias: unit2's context norm cancels it
        self.unit1 = PointCNUnit(store, f"{name}.unit1", d, d, rng, bias=False)
        self.unit2 = PointCNUnit(store, f"{name}.unit2", d, d, rng)

    def __call__(self, x, mode):
        return x + self.unit2(self.unit1(x, mode), mode)


class SpatialCorrelationUnit:
    """Residual cluster-mixing unit: x + SC(relu(BN(x)))."""

    def __init__(self, store, name, clusters, channels, rng):
        self.bn = BatchNorm(store, f"{name}.bn", channels)
        self.weight = store.parameter(f"{name}.weight", _init_weight(rng, clusters, clusters))
        self.bias = store.parameter(f"{name}.bias", np.zeros(clusters))

    def __call__(self, x, mode):
        h = ad.relu(self.bn(x, mode))
        return x + spatial_correlation(h, self.weight, self.bias)


class OrderAwareBlock:
    """PointCN half-block, cluster-mixing unit, PointCN half-block, overall skip.

    Only valid after pooling, where the cluster order is canonical.
    """

    def __init__(self, store, name, clusters, channels, rng):
        # no bias: the mixing unit's batch norm cancels it
        self.half1 = PointCNUnit(store, f"{name}.half1", channels, channels, rng, bias=False)
        self.mix = SpatialCorrelationUnit(store, f"{name}.mix", clusters, channels, rng)
        self.half2 = PointCNUnit(store, f"{name}.half2", channels, channels, rng)

    def __call__(self, x, mode):
        h = self.half1(x, mode)
        h = self.mix(h, mode)
        h = self.half2(h, mode)
        return x + h


class DiffPool:
    """Soft-assignment pooling of N nodes into a canonical set of clusters.

    Each node's assignment is a softmax over the clusters.
    """

    def __init__(self, store, name, channels, clusters, rng):
        self.head = PointCNUnit(store, f"{name}.head", channels, clusters, rng)

    def __call__(self, x, mode, normed=None):
        logits = self.head(x, mode, normed)             # (B, N, M)
        assign = ad.softmax(logits, axis=2)
        # (x^T S)^T: the transposes fall on the small (B, D, M) side
        clusters = ad.transpose_last2(ad.matmul(ad.transpose_last2(x), assign))  # (B, M, D)
        return clusters, assign


class DiffUnpool:
    """Upsample cluster features back to one feature per input node.

    The order-aware variant learns the assignment from the pre-pool
    features, so output rows stay aligned with the input ordering. The
    plain variant learns it from the cluster features alone and cannot
    recover the input order; it is kept for ablations. Each cluster's
    assignment is a softmax over the nodes, so the order-aware head has no
    per-cluster bias; it reads the running statistics of `pool`'s head.
    """

    def __init__(self, store, name, channels, clusters, cfg, rng, pool=None):
        self.cfg = cfg
        if cfg.unpool_variant == "order_aware":
            self.head = PointCNUnit(store, f"{name}.head", channels, clusters, rng, bias=False,
                                    shared_bn=pool.head.bn if pool is not None else None)
        else:
            self.head = PointCNUnit(store, f"{name}.head", channels, cfg.expected_points, rng)

    def __call__(self, x_pre, clusters, mode, normed=None):
        """normed: context_norm(x_pre), shared with the pool head."""
        if self.cfg.unpool_variant == "order_aware":
            logits = self.head(x_pre, mode, normed)     # (B, N, M)
        else:
            if x_pre.shape[1] != self.cfg.expected_points:
                raise ShapeMismatch(
                    f"plain unpool is built for N={self.cfg.expected_points}, got N={x_pre.shape[1]}")
            logits = ad.transpose_last2(self.head(clusters, mode))  # (B, N, M)
        assign = ad.softmax(logits, axis=1)
        return ad.matmul(assign, clusters), assign      # (B, N, D)


@dataclass
class PredictionOutput:
    logits: Tensor                    # (B, N)
    weights: Tensor                   # (B, N)
    essential: Tensor                 # (K, 3, 3) of the K samples that solved, or None
    solved: list                      # their K sample indices, ascending
    failures: list                    # per sample: error name or None
    pool_assign: Tensor = None        # (B, N, M) when pooling is enabled
    unpool_assign: Tensor = None      # (B, N, M)
    stage1: "PredictionOutput" = None

    @property
    def essentials(self):
        """Per sample: None, or its essential as a constant (3, 3) Tensor."""
        per_sample = [None] * len(self.failures)
        for k, b in enumerate(self.solved):
            per_sample[b] = Tensor(self.essential.data[k])
        return per_sample


class _Stage:
    def __init__(self, store, prefix, cfg: NetworkConfig, in_channels, rng):
        d, m = cfg.channels, cfg.clusters
        self.cfg = cfg
        self.embed = Perceptron(store, f"{prefix}.embed", in_channels, d, rng)
        self.before = [PointCNResBlock(store, f"{prefix}.l1a.{i}", d, rng)
                       for i in range(cfg.blocks_before_pool)]
        if cfg.use_pool:
            self.pool = DiffPool(store, f"{prefix}.pool", d, m, rng)
            if cfg.level2_kind == "order_aware":
                self.level2 = [OrderAwareBlock(store, f"{prefix}.l2.{i}", m, d, rng)
                               for i in range(cfg.level2_blocks)]
            else:
                self.level2 = [PointCNResBlock(store, f"{prefix}.l2.{i}", d, rng)
                               for i in range(cfg.level2_blocks)]
            self.unpool = DiffUnpool(store, f"{prefix}.unpool", d, m, cfg, rng, self.pool)
            self.fuse = Perceptron(store, f"{prefix}.fuse", 2 * d, d, rng)
        self.after = [PointCNResBlock(store, f"{prefix}.l1b.{i}", d, rng)
                      for i in range(cfg.blocks_after_unpool)]
        self.head = Perceptron(store, f"{prefix}.head", d, 1, rng)

    def __call__(self, inputs, mode):
        x = self.embed(inputs)
        for block in self.before:
            x = block(x, mode)
        pool_assign = unpool_assign = None
        if self.cfg.use_pool:
            # both heads read x: one context norm and one set of running statistics
            normed = context_norm(x)
            clusters, pool_assign = self.pool(x, mode, normed)
            for block in self.level2:
                clusters = block(clusters, mode)
            up, unpool_assign = self.unpool(x, clusters, mode, normed)
            x = self.fuse(ad.concat([up, x], axis=2))
        for block in self.after:
            x = block(x, mode)
        z = self.head(x)                                # (B, N, 1)
        z = ad.reshape(z, (inputs.shape[0], inputs.shape[1]))
        return z, pool_assign, unpool_assign


def _solve_batch(corr, weights):
    """Differentiable eight-point solve of every sample, as one graph node.

    Returns (essential, solved, failures): the (K, 3, 3) essentials of the K
    samples that solved (None if none did), their sample indices, and each
    sample's failure name or None.
    """
    essentials, contexts, solved, failures = [], [], [], []
    for b in range(corr.shape[0]):
        try:
            e, ctx = eightpoint.weighted_eightpoint_with_context(corr[b], weights.data[b])
        except (eightpoint.InsufficientSupport, eightpoint.EigengapCollapse,
                eightpoint.SolverBreakdown) as err:
            failures.append(type(err).__name__)
            continue
        essentials.append(e)
        contexts.append(ctx)
        solved.append(b)
        failures.append(None)
    if not solved:
        return None, solved, failures

    def backward(g):
        grad = np.zeros(weights.shape)
        for b, ctx, g_b in zip(solved, contexts, g):
            grad[b] = eightpoint.backward_from_context(ctx, g_b)
        return [grad]

    essential = ad.custom((weights,), np.stack(essentials), backward, op="weighted_eightpoint")
    return essential, solved, failures


class Network:
    """Full model: one stage, or an initialization + refinement pair."""

    def __init__(self, config: NetworkConfig, seed=0):
        self.config = config
        self.store = ParameterStore()
        rng = np.random.default_rng(seed)
        if config.iterative:
            self.stage1 = _Stage(self.store, "s1", config, 4, rng)
            self.stage2 = _Stage(self.store, "s2", config, 6, rng)
        else:
            self.stage = _Stage(self.store, "net", config, 4, rng)

    def load(self, path):
        """Restore a checkpoint into this network's store.

        Besides what `load_checkpoint` rejects, a negative running variance
        is a CorruptCheckpoint: no batch of features has one.
        """
        ad.load_checkpoint(self.store, path)
        for name in self.store.names():
            if name.endswith(".running_var") and np.any(self.store[name].data < 0.0):
                raise ad.CorruptCheckpoint(f"{path}: record {name!r} holds a negative variance")

    def forward(self, corr, mode="eval"):
        """Run the network on a (B, N, 4) correspondence batch.

        Every forward solves each sample's essential; whether the loss uses
        it (the warm-up schedule) is `losses.total_loss`'s to decide.
        """
        corr = np.ascontiguousarray(corr, dtype=np.float64)
        if corr.ndim != 3 or corr.shape[2] != 4:
            raise ShapeMismatch(f"expected correspondences of shape (B, N, 4), got {corr.shape}")
        if corr.shape[1] < 8:
            raise ShapeMismatch("need at least 8 correspondences per sample")
        if not self.config.iterative:
            return self._run_stage(self.stage, corr, Tensor(corr), mode)
        out1 = self._run_stage(self.stage1, corr, Tensor(corr), mode)
        extra = self._stage2_channels(corr, out1)
        out2 = self._run_stage(self.stage2, corr, Tensor(extra), mode)
        out2.stage1 = out1
        return out2

    def _run_stage(self, stage, corr, inputs, mode):
        z, pool_assign, unpool_assign = stage(inputs, mode)
        w = ad.tanh(ad.relu(z))
        essential, solved, failures = _solve_batch(corr, w)
        return PredictionOutput(z, w, essential, solved, failures, pool_assign, unpool_assign)

    def _stage2_channels(self, corr, out1):
        """Refinement input: correspondences plus detached residuals and weights."""
        residuals = np.zeros(corr.shape[:2])
        for k, b in enumerate(out1.solved):
            # residuals act as input features; cap them so degenerate rows stay finite
            residuals[b] = np.minimum(symmetric_epipolar_distances(out1.essential.data[k], corr[b]), 1.0)
        return np.concatenate([corr, residuals[..., None], out1.weights.data[..., None]], axis=2)
