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
from .config import read_network_config
from .eightpoint import SolverBreakdown
from .epipolar import (NoValidCandidate, RankDeficient, pose_angular_errors, project_to_essential,
                       recover_pose)
from .network import Network
from .ransac import (InsufficientCorrespondences, NoModelFound, RansacConfig, ransac_essential,
                     ransac_postprocess)

METHODS = ("ransac", "net", "net+ransac")
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
    """Percent precision/recall/F of a mask against its labels; zero denominators flag and yield 0.

    Concatenated masks and labels of many pairs give the micro average.
    """
    predicted = np.asarray(predicted_mask).astype(bool).reshape(-1)
    truth = np.asarray(labels).astype(bool).reshape(-1)
    if predicted.shape != truth.shape:
        raise ValueError(f"mask length {predicted.shape} != labels length {truth.shape}")
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted & ~truth))
    fn = int(np.count_nonzero(~predicted & truth))
    flagged = (tp + fp == 0) or (tp + fn == 0)
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f, flagged


def checkpoint_config(checkpoint_path):
    """The network config in a checkpoint's `.netconfig` sidecar; MissingCheckpoint names
    whichever of the two files is missing."""
    if not os.path.exists(checkpoint_path):
        raise MissingCheckpoint(f"checkpoint not found: {checkpoint_path}")
    config_path = checkpoint_path + ".netconfig"
    if not os.path.exists(config_path):
        raise MissingCheckpoint(f"network config not found: {config_path}")
    return read_network_config(config_path)


def load_network(checkpoint_path):
    """Rebuild a network from a checkpoint and its `.netconfig` sidecar."""
    net = Network(checkpoint_config(checkpoint_path), seed=0)
    ad.load_checkpoint(net.store, checkpoint_path)
    return net


def _scored(pair, essential, weights, mask):
    """Pose errors of the pose recovered from `essential`; no valid pose is a failure."""
    try:
        est = recover_pose(essential, pair.correspondences, weights)
    except NoValidCandidate:
        return PairOutcome(np.inf, np.inf, True, mask)
    return PairOutcome(*pose_angular_errors(est, pair.pose()), False, mask)


# Rows per eval forward: 4 pairs at N=512. Desk-network forwards of 32 hard pairs
# (2-core Xeon VM, one BLAS thread) ran about 20% faster at 4 pairs than at 1. At 8,
# each (B, N, clusters) array reaches 4 MiB, where numpy asks for huge pages, and
# under glibc's default malloc thresholds 8 ran no faster than 1.
_FORWARD_ROWS = 2048


def _network_outputs(net, pairs):
    """(logits, weights, essential or None) of each pair, from eval forwards of same-N chunks.

    Every layer acts within a sample in eval mode, so each pair's outputs
    are bit-identical to a forward of that pair alone.
    """
    by_n = {}
    for i, pair in enumerate(pairs):
        by_n.setdefault(len(pair.correspondences), []).append(i)
    outputs = [None] * len(pairs)
    with ad.no_grad():
        for n, indices in by_n.items():
            size = max(1, _FORWARD_ROWS // n)
            for start in range(0, len(indices), size):
                chunk = indices[start:start + size]
                out = net.forward(np.stack([pairs[i].correspondences for i in chunk]),
                                  mode="eval")
                for b, (i, e) in enumerate(zip(chunk, out.essentials)):
                    outputs[i] = (out.logits.data[b], out.weights.data[b],
                                  None if e is None else e.data)
    return outputs


def _network_pair_outcome(pair, logits, weights, essential):
    mask = logits > 0
    if essential is None:
        return PairOutcome(np.inf, np.inf, True, mask)
    return _scored(pair, project_to_essential(essential), weights, mask)


def _ransac_pair_outcome(pair, cfg, weights=None):
    try:
        res = (ransac_essential(pair.correspondences, cfg) if weights is None
               else ransac_postprocess(pair.correspondences, weights, cfg))
    except (InsufficientCorrespondences, NoModelFound, NoValidCandidate, RankDeficient,
            SolverBreakdown):
        return PairOutcome(np.inf, np.inf, True, np.zeros(len(pair.correspondences), bool))
    # an empty consensus set gives no weight to recover a pose with: a failure
    return _scored(pair, res.essential, res.mask.astype(np.float64), res.mask)


def _check_request(pairs, method, net):
    if len(pairs) == 0:
        raise EmptyEvaluation("empty dataset")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "ransac" and net is None:
        raise MissingCheckpoint(f"method {method!r} needs a network")


def _method_result(pairs, method, ransac_cfg, seed, outputs):
    """Outcomes of one method; `outputs` are the pairs' `_network_outputs` for a learned one."""
    ransac_cfg = ransac_cfg or RansacConfig()
    outcomes = []
    for i, pair in enumerate(pairs):
        cfg_i = replace(ransac_cfg, seed=seed + i)
        if method == "ransac":
            outcomes.append(_ransac_pair_outcome(pair, cfg_i))
        elif method == "net":
            outcomes.append(_network_pair_outcome(pair, *outputs[i]))
        else:
            outcomes.append(_ransac_pair_outcome(pair, cfg_i, weights=outputs[i][1]))
    return MethodResult(method, outcomes)


def evaluate_method(pairs, method, ransac_cfg: RansacConfig = None, net: Network = None,
                    seed=0):
    """Per-pair outcomes for one method; RANSAC seeds derive from seed + index."""
    _check_request(pairs, method, net)
    outputs = None if method == "ransac" else _network_outputs(net, pairs)
    return _method_result(pairs, method, ransac_cfg, seed, outputs)


def aggregate(result: MethodResult, pairs):
    """Micro-averaged MetricsReport for one method over a dataset."""
    errors = [(o.rotation_error_deg, o.translation_error_deg) for o in result.outcomes]
    # pose_map raises EmptyEvaluation for no outcomes, before np.concatenate would fail
    map5, map10, map20 = (pose_map(errors, t) for t in (5, 10, 20))
    precision, recall, f, _ = classification_prf(
        np.concatenate([o.predicted_mask.reshape(-1) for o in result.outcomes]),
        np.concatenate([p.labels.reshape(-1) for p in pairs]))
    return MetricsReport(
        method=result.method,
        map5=map5,
        map10=map10,
        map20=map20,
        precision=precision,
        recall=recall,
        fscore=f,
        pairs=len(pairs),
        failures=sum(1 for o in result.outcomes if o.failed),
    )


def compare_methods(pairs, methods, ransac_cfg=None, net=None, seed=0):
    """One MetricsReport per method, in the given order, as `evaluate_method` gives them.

    The learned methods share one network pass over the pairs.
    """
    reports, outputs = [], None
    for method in methods:
        _check_request(pairs, method, net)
        if method != "ransac" and outputs is None:
            outputs = _network_outputs(net, pairs)
        reports.append(aggregate(_method_result(pairs, method, ransac_cfg, seed, outputs), pairs))
    return reports


def write_metrics_csv(reports, path):
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        for r in reports:
            writer.writerow([r.method, f"{r.map5:.6f}", f"{r.map10:.6f}", f"{r.map20:.6f}",
                             f"{r.precision:.6f}", f"{r.recall:.6f}", f"{r.fscore:.6f}",
                             r.pairs, r.failures])

    ad.write_atomically(path, write, prefix=".metrics-", text=True)


def export_cluster_responses(net: Network, pair, top_k=15):
    """Top-k responses per column of the unpool assignment, for plotting.

    Rows come back as (cluster index, rank starting at 1, correspondence
    row index, response value), strongest first within each cluster.
    """
    if not net.config.use_pool:
        raise ValueError("cluster responses require a model with pooling (net.use_pool)")
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
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESPONSES_HEADER)
        for cluster, rank, row, value in rows:
            writer.writerow([cluster, rank, row, f"{value:.12g}"])

    ad.write_atomically(path, write, prefix=".responses-", text=True)
