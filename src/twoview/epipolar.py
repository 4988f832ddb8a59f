"""Closed-form two-view geometry on intrinsics-normalized correspondences.

All functions operate on float64 numpy arrays. Correspondence sets are
(N, 4) arrays with rows (x1, y1, x2, y2) in normalized image coordinates.
"""

from dataclasses import dataclass

import numpy as np

INLIER_THRESHOLD = 1e-4
EPIPOLE_DENOM_MIN = 1e-15
RANK_EPS = 1e-12


class ZeroTranslation(ValueError):
    """Translation too small to define an essential matrix."""


class RankDeficient(ValueError):
    """Matrix has no usable pair of leading singular values."""


class NoValidCandidate(RuntimeError):
    """No decomposition candidate places any weighted point in front of both cameras."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


@dataclass(frozen=True)
class Pose:
    """Relative pose with scale-free unit translation."""

    rotation: np.ndarray  # (3, 3), proper orthogonal
    translation: np.ndarray  # (3,), unit norm

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)
        if np.max(np.abs(R.T @ R - np.eye(3))) > 1e-9 or abs(np.linalg.det(R) - 1.0) > 1e-9:
            raise ValueError("rotation is not proper orthogonal within 1e-9")
        if abs(np.linalg.norm(t) - 1.0) > 1e-9:
            raise ValueError("translation is not unit norm within 1e-9")


def as_correspondences(C, min_rows=1):
    C = np.ascontiguousarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[1] != 4:
        raise ValueError(f"correspondence set must be (N, 4), got {C.shape}")
    if C.shape[0] < min_rows:
        raise ValueError(f"need at least {min_rows} correspondences, got {C.shape[0]}")
    return C


def skew(t):
    """Cross-product matrix [t]x so that skew(t) @ v == cross(t, v)."""
    t = np.asarray(t, dtype=np.float64).reshape(3)
    return np.array([
        [0.0, -t[2], t[1]],
        [t[2], 0.0, -t[0]],
        [-t[1], t[0], 0.0],
    ])


def essential_from_pose(R, t):
    """Essential matrix [t]x R, scaled to unit Frobenius norm."""
    t = np.asarray(t, dtype=np.float64).reshape(3)
    if np.linalg.norm(t) < 1e-12:
        raise ZeroTranslation("translation norm below 1e-12")
    E = skew(t) @ np.asarray(R, dtype=np.float64)
    return E / np.linalg.norm(E)


def _epipolar_terms(E, C):
    """Residuals p2^T E p1 and the summed squared line gradients, vectorized."""
    C = as_correspondences(C)
    p1, p2 = np.ones((2, len(C), 3))
    p1[:, 0], p1[:, 1], p2[:, 0], p2[:, 1] = C.T
    Ep1 = p1 @ E.T      # row i = E @ p1_i
    Etp2 = p2 @ E       # row i = E^T @ p2_i
    residual = np.einsum("ij,ij->i", p2, Ep1)
    denom = Ep1[:, 0] ** 2 + Ep1[:, 1] ** 2 + Etp2[:, 0] ** 2 + Etp2[:, 1] ** 2
    return residual, denom


def symmetric_epipolar_distances(E, C):
    """Per-row symmetric epipolar distance; degenerate rows come back +inf."""
    residual, denom = _epipolar_terms(E, C)
    out = np.full(len(denom), np.inf)
    ok = denom >= EPIPOLE_DENOM_MIN
    out[ok] = residual[ok] ** 2 / denom[ok]
    return out


def label_inliers(E, C, threshold=INLIER_THRESHOLD):
    """Weak inlier labels: 1 where the symmetric epipolar distance beats the threshold.

    Rows with a degenerate (sub-1e-15) denominator are labeled 0.
    """
    d = symmetric_epipolar_distances(E, C)
    return (d < threshold).astype(np.int64)


def project_to_essential(M):
    """Nearest essential matrix (up to scale): singular values forced to (1, 1, 0)/sqrt(2)."""
    M = np.asarray(M, dtype=np.float64).reshape(3, 3)
    U, s, Vt = np.linalg.svd(M)
    if s[0] < RANK_EPS and s[1] < RANK_EPS:
        raise RankDeficient("two largest singular values both below 1e-12")
    c = 1.0 / np.sqrt(2.0)
    return U @ np.diag([c, c, 0.0]) @ Vt


_W = np.array([
    [0.0, -1.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])


def _decomposition(E):
    """The two proper rotations and the unit translation that E decomposes into."""
    E = np.asarray(E, dtype=np.float64).reshape(3, 3)
    U, s, Vt = np.linalg.svd(E)
    if s[0] < RANK_EPS and s[1] < RANK_EPS:
        raise RankDeficient("two largest singular values both below 1e-12")
    if np.linalg.det(U) < 0:
        U[:, 2] *= -1.0
    if np.linalg.det(Vt) < 0:
        Vt[2, :] *= -1.0
    return U @ _W @ Vt, U @ _W.T @ Vt, U[:, 2] / np.linalg.norm(U[:, 2])


def recover_pose(E, C, weights):
    """The candidate (R1, t), (R1, -t), (R2, t) or (R2, -t) of E with the largest weighted
    count of points in front of both cameras; of equal counts the earlier candidate wins.

    Each rotation is triangulated once: the depths under -t are exactly the negated depths
    under t, so one triangulation scores both signs. Parallel rays count for neither.
    """
    C = as_correspondences(C)
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if len(w) != len(C):
        raise ValueError(f"weights length {len(w)} != correspondence count {len(C)}")
    if not np.any(w > 0):
        raise NoValidCandidate("no correspondence carries positive weight")
    R1, R2, t = _decomposition(E)
    x1 = np.column_stack([C[:, 0], C[:, 1], np.ones(len(C))])
    b = np.column_stack([C[:, 2], C[:, 3], np.ones(len(C))])
    bb = np.einsum("ij,ij->i", b, b)
    bt = b @ t
    best = None
    best_score = 0.0
    for R in (R1, R2):
        a = x1 @ R.T  # row i = R @ x1_i
        # least squares for z1*a - z2*b = -t, per point (2x2 normal equations)
        aa = np.einsum("ij,ij->i", a, a)
        ab = np.einsum("ij,ij->i", a, b)
        at = a @ t
        det = aa * bb - ab * ab
        safe = np.abs(det) > 1e-12
        z1 = np.zeros(len(C))
        z2 = np.zeros(len(C))
        z1[safe] = (-at[safe] * bb[safe] + ab[safe] * bt[safe]) / det[safe]
        z2[safe] = (ab[safe] * -at[safe] + aa[safe] * bt[safe]) / det[safe]
        for trans, in_front in ((t, (z1 > 0) & (z2 > 0)), (-t, (z1 < 0) & (z2 < 0))):
            score = float(np.sum(w * in_front))
            if score > best_score:
                best_score = score
                best = (R, trans)
    if best is None:
        raise NoValidCandidate("every candidate leaves all weighted points behind a camera")
    return Pose(*best)


def rotation_angle_deg(Ra, Rb):
    """Angle of Ra^T Rb, i.e. arccos((trace - 1) / 2), in degrees.

    Small angles go through the equivalent 2*arcsin(||S - I||_F / (2*sqrt(2)))
    form, which stays accurate where arccos loses half the significant digits.
    """
    if np.array_equal(Ra, Rb):
        return 0.0
    S = Ra.T @ Rb
    cos = (np.trace(S) - 1.0) / 2.0
    if cos < 0.5:
        return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    half_chord = np.linalg.norm(S - np.eye(3)) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(np.clip(half_chord, 0.0, 1.0))))


def translation_angle_deg(ta, tb):
    """Angle between translation directions, folded over the sign ambiguity of E.

    Computed as atan2(|t_a x t_b|, |t_a . t_b|), the well-conditioned form of
    arccos(|cos|).
    """
    ta = np.asarray(ta, dtype=np.float64).reshape(3)
    tb = np.asarray(tb, dtype=np.float64).reshape(3)
    if np.array_equal(ta, tb) or np.array_equal(ta, -tb):
        return 0.0
    cross = np.linalg.norm(np.cross(ta, tb))
    dot = abs(float(ta @ tb))
    return float(np.degrees(np.arctan2(cross, dot)))


def pose_angular_errors(est: Pose, gt: Pose):
    """(rotation, translation) angular error in degrees; translation folds the sign."""
    return (
        rotation_angle_deg(est.rotation, gt.rotation),
        translation_angle_deg(est.translation, gt.translation),
    )
