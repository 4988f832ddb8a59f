"""RANSAC essential-matrix baseline with an eight-point inner solver.

The minimal solver is the unweighted eight-point algorithm on each
sampled octet (the classical five-point minimal solver is out of scope;
on noise-free inliers the eight-point solve is exact, which the
synthetic benchmarks rely on). Hypotheses are solved and scored in a
vectorized batch; since the sampling sequence is drawn up front from the
seed, results are independent of that scheduling and deterministic. The
best hypothesis is re-fit on its inliers with the weighted solver and
projected onto the essential manifold; the reported mask is always
recomputed from the returned model.
"""

from dataclasses import dataclass

import numpy as np

from .eightpoint import (
    EIGENGAP_REL_MIN,
    SUPPORT_WEIGHT_MIN,
    EigengapCollapse,
    build_monomial_matrix,
    symmetric_eig9_batched,
    weighted_eightpoint,
)
from .epipolar import (
    EPIPOLE_DENOM_MIN,
    as_correspondences,
    project_to_essential,
    symmetric_epipolar_distances,
)

_CHUNK = 256  # hypotheses solved per batch (keeps scratch arrays small)


class InsufficientCorrespondences(ValueError):
    """Fewer correspondences than the minimal sample size."""


class NoModelFound(RuntimeError):
    """Every sampled octet was degenerate."""


@dataclass(frozen=True)
class RansacConfig:
    threshold: float = 1e-4        # inlier threshold on symmetric epipolar distance
    max_iterations: int = 2000
    confidence: float = 0.999      # early-exit confidence
    sample_size: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass
class RansacResult:
    essential: np.ndarray   # (3, 3) projected essential matrix
    mask: np.ndarray        # (N,) bool, distance(E, c_i) < threshold
    iterations: int         # sampling iterations consumed
    fallback: bool = False  # post-processing fell back to the full set


def _score(E, C, threshold):
    d = symmetric_epipolar_distances(E, C)
    mask = d < threshold
    count = int(mask.sum())
    mean_dist = float(d[mask].mean()) if count else np.inf
    return mask, count, mean_dist


def _irls_refit(C, d0, threshold, rounds=3):
    """Re-fit on the consensus set with scale-adaptive robust weights.

    The first round is the plain binary-mask least-squares refit; later
    rounds down-weight members whose residual is large relative to the
    median consensus residual. On noise-free scenes this drives the
    handful of barely-under-threshold random outliers to zero weight,
    which a binary refit cannot do.
    """
    d = d0
    w = (d < threshold).astype(np.float64)
    E = None
    for _ in range(rounds):
        if np.count_nonzero(w > SUPPORT_WEIGHT_MIN) < 8:
            return E
        try:
            E = weighted_eightpoint(C, w)
        except EigengapCollapse:
            return None if E is None else E
        d = symmetric_epipolar_distances(E, C)
        mask = d < threshold
        if not mask.any():
            return E
        scale = max(float(np.median(d[mask])), 1e-18)
        w = np.where(mask, 1.0 / (1.0 + (d / (3.0 * scale)) ** 2), 0.0)
    return E


def _required_iterations(inlier_ratio, confidence, sample_size):
    if inlier_ratio <= 0.0:
        return np.inf
    if inlier_ratio >= 1.0:
        return 1.0
    p_good = inlier_ratio ** sample_size
    if p_good <= 1e-300:
        return np.inf
    return np.log(max(1.0 - confidence, 1e-300)) / np.log1p(-p_good)


def _solve_hypotheses(X_octets):
    """Batched minimal solves: models (K, 3, 3) and a validity mask."""
    G = X_octets.swapaxes(1, 2) @ X_octets
    lam, V = symmetric_eig9_batched(G)
    gaps = lam[:, 1] - lam[:, 0]
    norms = np.sqrt(np.einsum("kab,kab->k", G, G))
    valid = gaps >= EIGENGAP_REL_MIN * norms
    v = V[:, :, 0]
    # sign fix: largest-magnitude component positive (determinism only)
    peak = np.take_along_axis(v, np.argmax(np.abs(v), axis=1)[:, None], axis=1)[:, 0]
    v = v * np.where(peak < 0, -1.0, 1.0)[:, None]
    # column-major reshape of each 9-vector, as in the scalar solver
    models = v.reshape(-1, 3, 3).swapaxes(1, 2)
    return models, valid


def _distances_batch(models, X, p1, p2):
    """(K, N) symmetric epipolar distances; degenerate rows become +inf.

    X is the (N, 9) monomial matrix of the correspondences, p1 and p2
    their (N, 3) homogeneous points. The residual p2^T E p1 is the
    monomial row times vec(E) taken column-major, so it is one GEMM; the
    epipolar lines E p1 and E^T p2 are two more.
    """
    K = len(models)
    residual = models.swapaxes(1, 2).reshape(K, 9) @ X.T
    Ep1 = (models[:, :2, :].reshape(2 * K, 3) @ p1.T).reshape(K, 2, -1)
    Etp2 = (models.swapaxes(1, 2)[:, :2, :].reshape(2 * K, 3) @ p2.T).reshape(K, 2, -1)
    den = Ep1[:, 0] ** 2 + Ep1[:, 1] ** 2 + Etp2[:, 0] ** 2 + Etp2[:, 1] ** 2
    ok = den >= EPIPOLE_DENOM_MIN
    out = np.full(den.shape, np.inf)
    np.divide(residual ** 2, den, out=out, where=ok)
    return out


def ransac_essential(C, cfg: RansacConfig):
    """Best essential matrix by inlier count (ties by mean inlier distance)."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] != 4 or C.shape[0] < cfg.sample_size:
        raise InsufficientCorrespondences(
            f"need at least {cfg.sample_size} correspondences, got {C.shape}")
    C = as_correspondences(C)
    if not np.isfinite(C).all():
        # LAPACK fails a whole chunk of hypotheses on one non-finite octet
        raise ValueError("correspondences must be finite")
    N = len(C)
    rng = np.random.default_rng(cfg.seed)
    X = build_monomial_matrix(C)
    p1 = np.column_stack([C[:, 0], C[:, 1], np.ones(N)])
    p2 = np.column_stack([C[:, 2], C[:, 3], np.ones(N)])

    # hypothesis score: truncated (MSAC-style) loss; plain inlier counting is
    # systematically fooled here, see the note below
    best = None  # (msac, count, E)
    valid_hypotheses = 0
    iterations = 0
    done = False
    while iterations < cfg.max_iterations and not done:
        chunk = min(_CHUNK, cfg.max_iterations - iterations)
        octets = np.stack([rng.choice(N, size=cfg.sample_size, replace=False)
                           for _ in range(chunk)])
        models, valid = _solve_hypotheses(X[octets])
        dists = _distances_batch(models, X, p1, p2)
        counts = (dists < cfg.threshold).sum(axis=1)
        losses = np.minimum(dists, cfg.threshold).sum(axis=1)
        for j in range(chunk):
            iterations += 1
            if not valid[j]:
                # degenerate octet: rejected, not counted toward the early-exit bound
                continue
            valid_hypotheses += 1
            if best is None or losses[j] < best[0]:
                best = (losses[j], int(counts[j]), models[j])
            if best[1] >= cfg.sample_size:
                needed = _required_iterations(best[1] / N, cfg.confidence, cfg.sample_size)
                if valid_hypotheses >= needed:
                    done = True
                    break
    if best is None:
        raise NoModelFound(f"all {cfg.max_iterations} sampled octets were degenerate")

    E_final = project_to_essential(best[2])
    refit = _irls_refit(C, symmetric_epipolar_distances(best[2], C), cfg.threshold)
    if refit is not None:
        E_refit = project_to_essential(refit)
        # keep the refit unless it clearly worsened the truncated loss
        d_refit = symmetric_epipolar_distances(E_refit, C)
        d_hyp = symmetric_epipolar_distances(E_final, C)
        if np.minimum(d_refit, cfg.threshold).sum() <= np.minimum(d_hyp, cfg.threshold).sum():
            E_final = E_refit
    mask, _, _ = _score(E_final, C, cfg.threshold)
    return RansacResult(E_final, mask, iterations)


def ransac_postprocess(C, w, cfg: RansacConfig, cutoff=0.0, keep_top_k=None):
    """RANSAC restricted to correspondences the network kept (w > cutoff).

    With fewer than eight survivors the full set is used instead and the
    result is flagged. The returned mask is recomputed against the full
    input set.
    """
    C = as_correspondences(C)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if len(w) != len(C):
        raise ValueError(f"weight length {len(w)} != correspondence count {len(C)}")
    if keep_top_k is not None:
        keep = np.zeros(len(C), dtype=bool)
        keep[np.argsort(-w, kind="stable")[:keep_top_k]] = True
    else:
        keep = w > cutoff
    if int(keep.sum()) < cfg.sample_size:
        result = ransac_essential(C, cfg)
        return RansacResult(result.essential, result.mask, result.iterations, fallback=True)
    sub = ransac_essential(C[keep], cfg)
    mask, _, _ = _score(sub.essential, C, cfg.threshold)
    return RansacResult(sub.essential, mask, sub.iterations)
