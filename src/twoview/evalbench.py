"""Metrics and benchmark orchestration.

Pose accuracy is summarized as mAP over 5-degree-spaced thresholds,
where each pair scores the maximum of its rotation and translation
angular error and failed pairs count as infinite error. Classification
precision/recall/F-score are micro-averaged: true/false positive counts
are summed over all pairs before the ratios are formed, so the reported
F always equals 2PR/(P+R).
"""

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import load_checkpoint
from .config import read_network_config
from .epipolar import (NoValidCandidate, RankDeficient, pose_angular_errors, project_to_essential,
                       recover_pose)
from .network import Network
from .ransac import (InsufficientCorrespondences, NoModelFound, RansacConfig, ransac_essential,
                     ransac_postprocess)

METRICS_HEADER = ["method", "mAP5", "mAP10", "mAP20", "precision", "recall", "fscore",
                  "pairs", "failures"]
RESPONSES_HEADER = ["cluster", "rank", "row", "value"]


class EmptyEvaluation(ValueError):
    """No pairs to evaluate."""


class MissingCheckpoint(FileNotFoundError):
    """A learned method was requested without a usable checkpoint."""


@dataclass
class PairOutcome:
    rotation_error_deg: float
    translation_error_deg: float
    failed: bool
    predicted_mask: np.ndarray


@dataclass
class MethodResult:
    method: str
    outcomes: list


@dataclass
class MetricsReport:
    method: str
    map5: float
    map10: float
    map20: float
    precision: float
    recall: float
    fscore: float
    pairs: int
    failures: int
    prf_flagged: bool = False


def pose_map(errors, max_threshold_deg):
    """Mean accuracy over thresholds 5, 10, ..., max; error = max(rot, trans)."""
    if max_threshold_deg not in (5, 10, 20):
        raise ValueError("max threshold must be one of 5, 10, 20")
    if len(errors) == 0:
        raise EmptyEvaluation("no pose errors to aggregate")
    worst = np.array([max(r, t) for r, t in errors])
    thresholds = np.arange(5, max_threshold_deg + 1, 5)
    return float(100.0 * np.mean([(worst < tau).mean() for tau in thresholds]))


def classification_prf(predicted_mask, labels):
    """Percent precision/recall/F for one pair; zero denominators flag and yield 0."""
    predicted = np.asarray(predicted_mask).astype(bool).reshape(-1)
    truth = np.asarray(labels).astype(bool).reshape(-1)
    if predicted.shape != truth.shape:
        raise ValueError(f"mask length {predicted.shape} != labels length {truth.shape}")
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted & ~truth))
    fn = int(np.count_nonzero(~predicted & truth))
    return _prf_from_counts(tp, fp, fn)


def _prf_from_counts(tp, fp, fn):
    flagged = (tp + fp == 0) or (tp + fn == 0)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f, flagged


def load_network(checkpoint_path, config_path=None):
    """Rebuild a network from a checkpoint and its sidecar config file."""
    if not os.path.exists(checkpoint_path):
        raise MissingCheckpoint(f"checkpoint not found: {checkpoint_path}")
    config_path = config_path or checkpoint_path + ".netconfig"
    if not os.path.exists(config_path):
        raise MissingCheckpoint(f"network config not found: {config_path}")
    net = Network(read_network_config(config_path), seed=0)
    load_checkpoint(net.store, checkpoint_path)
    return net


def _network_pair_outcome(net, pair):
    with ad.no_grad():
        out = net.forward(pair.correspondences[None], mode="eval")
    w = out.weights.data[0]
    mask = out.logits.data[0] > 0
    e = out.essentials[0]
    if e is None:
        return PairOutcome(np.inf, np.inf, True, mask)
    try:
        est = recover_pose(project_to_essential(e.data), pair.correspondences, w)
        rot, trans = pose_angular_errors(est, pair.pose())
    except NoValidCandidate:
        return PairOutcome(np.inf, np.inf, True, mask)
    return PairOutcome(rot, trans, False, mask)


def _ransac_pair_outcome(pair, cfg, weights=None):
    try:
        if weights is None:
            res = ransac_essential(pair.correspondences, cfg)
        else:
            res = ransac_postprocess(pair.correspondences, weights, cfg)
        scoring = res.mask.astype(np.float64)
        if not scoring.any():
            return PairOutcome(np.inf, np.inf, True, res.mask)
        est = recover_pose(res.essential, pair.correspondences, scoring)
        rot, trans = pose_angular_errors(est, pair.pose())
        return PairOutcome(rot, trans, False, res.mask)
    except (InsufficientCorrespondences, NoModelFound, NoValidCandidate, RankDeficient):
        n = len(pair.correspondences)
        return PairOutcome(np.inf, np.inf, True, np.zeros(n, dtype=bool))


def evaluate_method(pairs, method, ransac_cfg: RansacConfig = None, net: Network = None,
                    seed=0):
    """Per-pair outcomes for one method; RANSAC seeds derive from seed + index."""
    if len(pairs) == 0:
        raise EmptyEvaluation("empty dataset")
    ransac_cfg = ransac_cfg or RansacConfig()
    outcomes = []
    for i, pair in enumerate(pairs):
        cfg_i = replace(ransac_cfg, seed=seed + i)
        if method == "ransac":
            outcomes.append(_ransac_pair_outcome(pair, cfg_i))
        elif method in ("net", "pointcn"):
            outcomes.append(_network_pair_outcome(net, pair))
        elif method == "net+ransac":
            with ad.no_grad():
                out = net.forward(pair.correspondences[None], mode="eval")
            outcomes.append(_ransac_pair_outcome(pair, cfg_i, weights=out.weights.data[0]))
        else:
            raise ValueError(f"unknown method {method!r}")
    return MethodResult(method, outcomes)


def aggregate(result: MethodResult, pairs):
    """Micro-averaged MetricsReport for one method over a dataset."""
    errors = [(o.rotation_error_deg, o.translation_error_deg) for o in result.outcomes]
    tp = fp = fn = 0
    for outcome, pair in zip(result.outcomes, pairs):
        predicted = outcome.predicted_mask.astype(bool)
        truth = pair.labels.astype(bool)
        tp += int(np.count_nonzero(predicted & truth))
        fp += int(np.count_nonzero(predicted & ~truth))
        fn += int(np.count_nonzero(~predicted & truth))
    precision, recall, f, flagged = _prf_from_counts(tp, fp, fn)
    return MetricsReport(
        method=result.method,
        map5=pose_map(errors, 5),
        map10=pose_map(errors, 10),
        map20=pose_map(errors, 20),
        precision=precision,
        recall=recall,
        fscore=f,
        pairs=len(pairs),
        failures=sum(1 for o in result.outcomes if o.failed),
        prf_flagged=flagged,
    )


def compare_methods(pairs, methods, ransac_cfg=None, checkpoints=None, seed=0):
    """One MetricsReport per requested method, in the given order.

    checkpoints maps a learned method name to a checkpoint path or an
    already-loaded Network.
    """
    if len(pairs) == 0:
        raise EmptyEvaluation("empty dataset")
    checkpoints = checkpoints or {}
    reports = []
    for method in methods:
        net = None
        if method in ("net", "net+ransac", "pointcn"):
            source = checkpoints.get("pointcn" if method == "pointcn" else "net")
            if source is None:
                raise MissingCheckpoint(f"method {method!r} needs a checkpoint")
            net = source if isinstance(source, Network) else load_network(source)
        result = evaluate_method(pairs, method, ransac_cfg, net, seed)
        reports.append(aggregate(result, pairs))
    return reports


def write_metrics_csv(reports, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in reports:
            writer.writerow([r.method, f"{r.map5:.6f}", f"{r.map10:.6f}", f"{r.map20:.6f}",
                             f"{r.precision:.6f}", f"{r.recall:.6f}", f"{r.fscore:.6f}",
                             r.pairs, r.failures])


def export_cluster_responses(net: Network, pair, top_k=15):
    """Top-k responses per column of the unpool assignment, for plotting.

    Rows come back as (cluster index, rank starting at 1, correspondence
    row index, response value), strongest first within each cluster.
    """
    if net.config.unpool_variant != "order_aware":
        raise ValueError("cluster responses require the order-aware unpool variant")
    with ad.no_grad():
        out = net.forward(pair.correspondences[None], mode="eval")
    assign = out.unpool_assign.data[0]  # (N, M)
    rows = []
    for m in range(assign.shape[1]):
        column = assign[:, m]
        top = np.argsort(-column, kind="stable")[:top_k]
        for rank, row in enumerate(top, start=1):
            rows.append((m, rank, int(row), float(column[row])))
    return rows


def write_responses_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESPONSES_HEADER)
        for cluster, rank, row, value in rows:
            writer.writerow([cluster, rank, row, f"{value:.12g}"])
