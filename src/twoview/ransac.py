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

import math
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
SAMPLE_SIZE = 8  # correspondences per minimal sample (the eight-point solver)


class InsufficientCorrespondences(ValueError):
    """Fewer correspondences than the minimal sample size."""


class NoModelFound(RuntimeError):
    """Every sampled octet was degenerate."""


@dataclass(frozen=True)
class RansacConfig:
    threshold: float = 1e-4        # inlier threshold on symmetric epipolar distance
    max_iterations: int = 2000
    confidence: float = 0.999      # early-exit confidence
    seed: int = 0

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass
class RansacResult:
    essential: np.ndarray   # (3, 3) projected essential matrix
    mask: np.ndarray        # (N,) bool, distance(E, c_i) < threshold
    iterations: int         # sampling iterations consumed
    fallback: bool = False  # post-processing fell back to the full set


def _irls_refit(C, d0, threshold):
    """Re-fit on the consensus set with scale-adaptive robust weights.

    Three rounds: the first is the plain binary-mask least-squares refit,
    the other two down-weight members whose residual is large relative to
    the median consensus residual. On noise-free scenes this drives the
    handful of barely-under-threshold random outliers to zero weight,
    which a binary refit cannot do.
    """
    d = d0
    w = (d < threshold).astype(np.float64)
    E = None
    for _ in range(3):
        if np.count_nonzero(w > SUPPORT_WEIGHT_MIN) < 8:
            return E
        try:
            E = weighted_eightpoint(C, w)
        except EigengapCollapse:
            return E
        d = symmetric_epipolar_distances(E, C)
        mask = d < threshold
        if not mask.any():
            return E
        scale = max(float(np.median(d[mask])), 1e-18)
        w = np.where(mask, 1.0 / (1.0 + (d / (3.0 * scale)) ** 2), 0.0)
    return E


def _required_iterations(inlier_ratio, confidence):
    if inlier_ratio <= 0.0:
        return np.inf
    if inlier_ratio >= 1.0:
        return 1.0
    p_good = inlier_ratio ** SAMPLE_SIZE
    if p_good <= 1e-300:
        return np.inf
    return np.log(max(1.0 - confidence, 1e-300)) / np.log1p(-p_good)


def _scan_chunk(valid, losses, counts, best_loss, needed, seen, n, confidence):
    """The early-exit rule over one chunk of hypotheses, in order, without a loop per hypothesis.

    Hypothesis j replaces the best one when it is valid and its loss is
    strictly below every earlier loss; the run stops at the first valid
    hypothesis after which the valid count `seen` reaches the iterations
    the best one's inlier ratio needs. `needed` is that bound for the best
    hypothesis before the chunk. Returns (hypotheses used, valid ones
    among them, index of the new best or -1, its bound, whether to stop).
    """
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return len(valid), 0, -1, needed, False
    lv = losses[idx]
    before = np.minimum.accumulate(np.concatenate(([best_loss], lv[:-1])))
    changes = np.flatnonzero(lv < before)
    bounds = [needed] + [_required_iterations(int(counts[idx[k]]) / n, confidence)
                         if counts[idx[k]] >= SAMPLE_SIZE else np.inf for k in changes]
    # which best each position sees: 0 for the one before the chunk, i for changes[i - 1]
    owner = np.searchsorted(changes, np.arange(len(idx)), side="right")
    stops = np.flatnonzero(seen + np.arange(1, len(idx) + 1) >= np.take(bounds, owner))
    last = int(stops[0]) if len(stops) else len(idx) - 1
    k = owner[last]
    new_best = int(idx[changes[k - 1]]) if k > 0 else -1
    used = int(idx[last]) + 1 if len(stops) else len(valid)
    return used, last + 1, new_best, bounds[k], len(stops) > 0


def _draw_octets(rng, N, chunk):
    """(chunk, 8) octets, the same ones `chunk` calls of rng.choice(N, 8, replace=False) give.

    For a sample this small, Generator.choice without replacement runs
    Floyd's algorithm: for c = 0..7 it draws from [0, N-8+c] and takes
    N-8+c itself when the draw is already in the sample. It then shuffles
    (Fisher-Yates): for i = 7..1 it swaps entry i with a draw from [0, i].
    Each of those 15 bounded draws is the one `integers` makes for an
    int64 upper bound, in the same order, so one call makes them all and
    leaves the generator in the same state.
    """
    highs = np.concatenate((np.arange(N - SAMPLE_SIZE + 1, N + 1), np.arange(SAMPLE_SIZE, 1, -1)))
    draws = rng.integers(0, np.broadcast_to(highs, (chunk, len(highs))), dtype=np.int64)
    octets, swaps = draws[:, :SAMPLE_SIZE], draws[:, SAMPLE_SIZE:]
    for c in range(1, SAMPLE_SIZE):
        taken = (octets[:, :c] == octets[:, c:c + 1]).any(axis=1)
        octets[taken, c] = N - SAMPLE_SIZE + c
    rows = np.arange(chunk)
    for i, j in zip(range(SAMPLE_SIZE - 1, 0, -1), swaps.T):
        entry_j = octets[rows, j]
        octets[rows, j] = octets[:, i]
        octets[:, i] = entry_j
    return octets


def _solve_hypotheses(X_octets):
    """Batched minimal solves: models (K, 3, 3) and a validity mask.

    The eigensolver raises SolverBreakdown when a Gram matrix overflows
    or LAPACK fails on the stack: the pair cannot be solved.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the eigensolver rejects an overflow
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


def _scoring_workspace(chunk, N):
    """Scratch for _distances_batch, allocated once per RANSAC call and shared by its chunks.

    Three (chunk, N) float arrays (the distances, one line term, the
    denominator) and the mask. The four components of the lines E p1 and
    E^T p2 are built one at a time in the term array, squared and added
    into the denominator, so every pass reads contiguous rows and no
    array needs two rows per hypothesis. numpy asks the kernel for
    transparent huge pages for any array of 4 MiB or more, whose cost
    depends on the host's memory; at 256 rows and 512 correspondences
    each array here is 1 MiB.
    """
    return (*(np.empty((chunk, N)) for _ in range(3)), np.empty((chunk, N), dtype=bool))


def _distances_batch(models, X, p1, p2, work):
    """(K, N) symmetric epipolar distances; degenerate rows become +inf.

    X is the (N, 9) monomial matrix of the correspondences, p1 and p2
    their (N, 3) homogeneous points. The residual p2^T E p1 is the
    monomial row times vec(E) taken column-major, so it is one GEMM; each
    component of the epipolar lines E p1 and E^T p2 is one more. Every
    product and step writes into the first K rows of `work` (from
    _scoring_workspace), so the returned array is a view that the next
    call overwrites.
    """
    K = len(models)
    dists, term, den, ok = (a[:K] for a in work)
    np.matmul(models.swapaxes(1, 2).reshape(K, 9), X.T, out=dists)
    # a0**2 + a1**2 + b0**2 + b1**2, summed left to right, for the lines a = E p1, b = E^T p2
    for i, (rows, p) in enumerate(((models, p1), (models.swapaxes(1, 2), p2))):
        for c in range(2):
            out = term if i or c else den
            if K == 1:
                # numpy sends a one-row product through GEMV, which rounds differently
                # from GEMM: one hypothesis keeps the two-row product of its line
                out[0] = (rows[:, :2, :].reshape(2, 3) @ p.T)[c]
            else:
                # contiguous, so the product goes to GEMM whatever numpy does with strided operands
                np.matmul(np.ascontiguousarray(rows[:, c, :]), p.T, out=out)
            np.square(out, out=out)
            if out is term:
                np.add(den, term, out=den)
    np.greater_equal(den, EPIPOLE_DENOM_MIN, out=ok)
    np.square(dists, out=dists)
    np.divide(dists, den, out=dists, where=ok)
    np.copyto(dists, np.inf, where=np.logical_not(ok, out=ok))
    return dists


def _score_hypotheses(models, X, p1, p2, threshold, work):
    """Inlier counts and truncated (MSAC) losses of the models, scored inside `work`."""
    dists = _distances_batch(models, X, p1, p2, work)
    counts = np.less(dists, threshold, out=work[3][:len(models)]).sum(axis=1)
    return counts, np.minimum(dists, threshold, out=dists).sum(axis=1)


def ransac_essential(C, cfg: RansacConfig):
    """Best essential matrix by inlier count (ties by mean inlier distance)."""
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] != 4 or C.shape[0] < SAMPLE_SIZE:
        raise InsufficientCorrespondences(
            f"need at least {SAMPLE_SIZE} correspondences, got {C.shape}")
    C = as_correspondences(C)
    if not np.isfinite(C).all():
        # LAPACK fails a whole chunk of hypotheses on one non-finite octet
        raise ValueError("correspondences must be finite")
    N = len(C)
    rng = np.random.default_rng(cfg.seed)
    X = build_monomial_matrix(C)
    p1 = np.column_stack([C[:, 0], C[:, 1], np.ones(N)])
    p2 = np.column_stack([C[:, 2], C[:, 3], np.ones(N)])

    # hypothesis score: truncated (MSAC-style) loss. Plain inlier counting
    # is fooled here: a few random outliers always fall inside the inlier
    # band, so the largest consensus set is not the most accurate model.
    best = None  # (msac, count, E)
    needed = np.inf  # valid hypotheses the early-exit rule asks for, given best
    valid_hypotheses = 0
    iterations = 0
    done = False
    work = _scoring_workspace(min(_CHUNK, cfg.max_iterations), N)
    while iterations < cfg.max_iterations and not done:
        chunk = min(_CHUNK, cfg.max_iterations - iterations)
        if needed < np.inf:
            chunk = min(chunk, math.ceil(needed - valid_hypotheses))
        # the octet stream is one octet after another, whatever the chunk sizes
        models, valid = _solve_hypotheses(X[_draw_octets(rng, N, chunk)])
        counts, losses = _score_hypotheses(models, X, p1, p2, cfg.threshold, work)
        # degenerate octets are rejected and not counted toward the early-exit bound
        used, seen, j, needed, done = _scan_chunk(
            valid, losses, counts, np.inf if best is None else best[0], needed,
            valid_hypotheses, N, cfg.confidence)
        iterations += used
        valid_hypotheses += seen
        if j >= 0:
            best = (losses[j], int(counts[j]), models[j])
    if best is None:
        raise NoModelFound(f"all {cfg.max_iterations} sampled octets were degenerate")

    E_final = project_to_essential(best[2])
    d_final = symmetric_epipolar_distances(E_final, C)
    refit = _irls_refit(C, symmetric_epipolar_distances(best[2], C), cfg.threshold)
    if refit is not None:
        E_refit = project_to_essential(refit)
        # keep the refit unless it clearly worsened the truncated loss
        d_refit = symmetric_epipolar_distances(E_refit, C)
        if np.minimum(d_refit, cfg.threshold).sum() <= np.minimum(d_final, cfg.threshold).sum():
            E_final, d_final = E_refit, d_refit
    return RansacResult(E_final, d_final < cfg.threshold, iterations)


def ransac_postprocess(C, w, cfg: RansacConfig):
    """RANSAC restricted to correspondences the network kept (w > 0).

    The weights must be finite. With fewer than eight survivors the full
    set is used instead and the result is flagged. The returned mask is
    recomputed against the full input set.
    """
    C = as_correspondences(C)
    w = np.asarray(w, dtype=np.float64).reshape(-1)
    if len(w) != len(C):
        raise ValueError(f"weight length {len(w)} != correspondence count {len(C)}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    keep = w > 0.0
    if int(keep.sum()) < SAMPLE_SIZE:
        result = ransac_essential(C, cfg)
        return RansacResult(result.essential, result.mask, result.iterations, fallback=True)
    sub = ransac_essential(C[keep], cfg)
    mask = symmetric_epipolar_distances(sub.essential, C) < cfg.threshold
    return RansacResult(sub.essential, mask, sub.iterations)
