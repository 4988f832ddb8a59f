"""Training objectives: weakly supervised classification plus an essential-matrix term."""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .epipolar import EPIPOLE_DENOM_MIN

# keeps the two image-plane components of an epipolar line (a, b, c): den sums a^2 + b^2
_FIRST_TWO = np.array([1.0, 1.0, 0.0])


class DegenerateLabels(ValueError):
    """Every sample in the batch is missing one of the two classes."""


@dataclass
class LossCounters:
    skipped_samples: int = 0


@dataclass
class LossConfig:
    kind: str = "geometry"      # the only essential term: the clamped epipolar distance
    alpha: float = 0.5          # weight of the essential term
    warmup: int = 500           # iterations with the essential term disabled
    clamp: float = 0.1          # geometry loss saturation

    def __post_init__(self):
        if self.kind != "geometry":
            raise ValueError(f"unknown essential loss kind {self.kind!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.warmup < 0:
            raise ValueError("warmup must be >= 0")
        if self.clamp <= 0:
            raise ValueError("clamp must be positive")


def classification_loss(z, labels, counters: LossCounters = None):
    """Class-balanced binary cross entropy on (B, N) logits, averaged over the batch.

    The positive and negative terms are averaged within their class first,
    so heavy outlier imbalance does not drown the inlier signal. Samples
    with an empty class are skipped (and counted); a batch with no usable
    sample raises DegenerateLabels.
    """
    z = ad.as_tensor(z)
    labels = np.asarray(labels)
    if z.data.ndim != 2 or labels.shape != z.shape:
        raise ValueError(f"expected (B, N) logits and labels of the same shape, "
                         f"got {z.shape} and {labels.shape}")
    s = (labels > 0).astype(np.float64)
    n_pos = s.sum(axis=1)
    n_neg = (1.0 - s).sum(axis=1)
    valid = (n_pos > 0) & (n_neg > 0)
    if counters is not None:
        counters.skipped_samples += int(np.count_nonzero(~valid))
    if not np.any(valid):
        raise DegenerateLabels("no sample has both classes present")
    nv = float(np.count_nonzero(valid))
    # per-element weights folding the class balance and batch mean into one sum;
    # a skipped sample divides by inf, which gives its row exact zeros
    wpos = s / np.where(valid, 2.0 * n_pos * nv, np.inf)[:, None]
    wneg = (1.0 - s) / np.where(valid, 2.0 * n_neg * nv, np.inf)[:, None]
    # softplus(-z) = -log(sigmoid(z)) for the positives, softplus(z) for the negatives
    loss = ad.reduce_sum(ad.softplus(-z) * wpos) + ad.reduce_sum(ad.softplus(z) * wneg)
    return loss


def geometry_loss(e_hat, corr, labels, clamp=0.1):
    """K per-sample means of the clamped symmetric epipolar distance of the ground-truth inliers.

    e_hat is (K, 3, 3), corr (K, N, 4) and labels (K, N). Each row is weighted by its inlier
    indicator over the sample's inlier count, so outliers add exact zeros and a sample without
    an inlier gives exactly 0. Rows whose denominator degenerates contribute the clamp value
    and no gradient.
    """
    C = np.asarray(corr, dtype=np.float64)
    inlier = (np.asarray(labels) > 0).astype(np.float64)
    n_in = np.maximum(inlier.sum(axis=1), 1.0)
    ones = np.ones(C.shape[:2] + (1,))
    p1 = np.concatenate([C[..., :2], ones], axis=2)
    p2 = np.concatenate([C[..., 2:], ones], axis=2)
    ep1 = ad.matmul(p1, ad.transpose_last2(e_hat))   # rows E @ p1_i
    etp2 = ad.matmul(p2, e_hat)                      # rows E^T @ p2_i
    residual = ad.reduce_sum(ep1 * p2, axis=2)
    num = residual * residual
    den = ad.reduce_sum(ep1 * ep1 * _FIRST_TWO, axis=2) \
        + ad.reduce_sum(etp2 * etp2 * _FIRST_TWO, axis=2)
    degenerate = (den.data < EPIPOLE_DENOM_MIN).astype(np.float64)
    good = 1.0 - degenerate
    # degenerate rows: constant clamp contribution, zero gradient
    dist = ad.minimum_const(num / (den + degenerate), clamp) * good + degenerate * clamp
    return ad.reduce_sum(dist * (inlier / n_in[:, None]), axis=1)


def total_loss(z, labels, essential, solved, corr, cfg: LossConfig, iteration,
               counters: LossCounters = None):
    """Classification loss plus the alpha-scheduled essential term.

    essential is the (K, 3, 3) stack of the samples whose solver pass
    succeeded, `solved` their indices, or None when no sample solved. The
    essential term switches on after `cfg.warmup` iterations and is the mean
    geometry loss over those samples that have an inlier. This is the one
    owner of that schedule: the network solves on every forward.
    """
    cls = classification_loss(z, labels, counters=counters)
    if iteration < cfg.warmup or cfg.alpha == 0.0 or essential is None:
        return cls
    labels = np.asarray(labels)[solved]
    terms = geometry_loss(essential, np.asarray(corr)[solved], labels, cfg.clamp)
    count = np.count_nonzero(np.any(labels > 0, axis=1))
    if count == 0:
        return cls
    return cls + (cfg.alpha / count) * ad.reduce_sum(terms)
