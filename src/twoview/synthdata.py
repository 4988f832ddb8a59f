"""Synthetic two-view scenes with exact ground truth.

A virtual 640x480, f=500 pinhole camera observes random 3D points in a
depth band; the second view is a random small rotation plus a unit
baseline. Inlier matches get Gaussian pixel noise in both views; outlier
matches replace the second view with a uniform random image point.
Labels are derived from the geometry (symmetric epipolar distance under
the ground-truth essential matrix), not from the injection flag, so a
lucky random outlier that lands on the epipolar line counts as an inlier.
"""

import json
from dataclasses import dataclass, asdict, replace

import numpy as np

from .epipolar import (
    CameraIntrinsics,
    Pose,
    essential_from_pose,
    label_inliers,
    normalize_keypoints,
    skew,
)

VISIBILITY_FRACTION = 0.8
MAX_REDRAWS = 100


class RetryExhausted(RuntimeError):
    """Could not find a valid pose/scene within the redraw budget."""


class MalformedRecord(ValueError):
    """A dataset line failed to parse or validate."""

    def __init__(self, line_number, message):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(frozen=True)
class SceneConfig:
    n: int = 512
    outlier_ratio: float = 0.4
    pixel_noise: float = 0.5
    depth_min: float = 4.0
    depth_max: float = 10.0
    max_rotation_deg: float = 30.0
    image_width: int = 640
    image_height: int = 480
    focal: float = 500.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 8:
            raise ValueError("need at least 8 correspondences per pair")
        if not 0.0 <= self.outlier_ratio < 1.0:
            raise ValueError("outlier ratio must be in [0, 1)")
        if not 0 < self.depth_min < self.depth_max:
            raise ValueError("depth range must satisfy 0 < min < max")

    def intrinsics(self):
        return CameraIntrinsics(self.focal, self.focal,
                                self.image_width / 2.0, self.image_height / 2.0)


@dataclass
class ScenePair:
    correspondences: np.ndarray  # (N, 4) normalized coordinates
    rotation: np.ndarray         # (3, 3)
    translation: np.ndarray      # (3,), unit norm
    essential: np.ndarray        # (3, 3), unit Frobenius norm
    labels: np.ndarray           # (N,) weak inlier labels
    config: SceneConfig
    seed: int

    def pose(self):
        return Pose(self.rotation, self.translation)


def _axis_angle_rotation(axis, angle):
    K = skew(axis / np.linalg.norm(axis))
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _sample_frustum_points(rng, cfg: SceneConfig, count):
    """Random 3D points whose first-view projection is uniform in the image."""
    u = rng.uniform(0.0, cfg.image_width, count)
    v = rng.uniform(0.0, cfg.image_height, count)
    z = rng.uniform(cfg.depth_min, cfg.depth_max, count)
    K = cfg.intrinsics()
    xn = normalize_keypoints(np.column_stack([u, v]), K)
    pts = np.column_stack([xn[:, 0] * z, xn[:, 1] * z, z])
    return pts, np.column_stack([u, v])


def _project(points, R, t, cfg: SceneConfig):
    """Second-view pixels and a visibility mask (positive depth, inside the image)."""
    K = cfg.intrinsics()
    q = points @ R.T + t
    z = q[:, 2]
    safe = np.where(np.abs(z) > 1e-12, z, 1e-12)
    u = K.fx * q[:, 0] / safe + K.cx
    v = K.fy * q[:, 1] / safe + K.cy
    visible = (z > 0) & (u >= 0) & (u < cfg.image_width) & (v >= 0) & (v < cfg.image_height)
    return np.column_stack([u, v]), visible


def random_pose(rng, cfg: SceneConfig):
    """Random rotation (axis-angle, bounded) plus a unit-sphere translation.

    Redraws until at least 80% of a probe point set stays visible in the
    second view, so generated scenes keep enough shared field of view.
    """
    max_angle = np.radians(cfg.max_rotation_deg)
    for _ in range(MAX_REDRAWS):
        axis = rng.normal(size=3)
        while np.linalg.norm(axis) < 1e-9:
            axis = rng.normal(size=3)
        angle = rng.uniform(0.0, max_angle) if max_angle > 0 else 0.0
        R = _axis_angle_rotation(axis, angle) if max_angle > 0 else np.eye(3)
        t = rng.normal(size=3)
        while np.linalg.norm(t) < 1e-9:
            t = rng.normal(size=3)
        t = t / np.linalg.norm(t)
        probe, _ = _sample_frustum_points(rng, cfg, 64)
        _, visible = _project(probe, R, t, cfg)
        if visible.mean() >= VISIBILITY_FRACTION:
            return Pose(R, t)
    raise RetryExhausted(f"no pose with {VISIBILITY_FRACTION:.0%} shared visibility in {MAX_REDRAWS} draws")


def generate_pair(cfg: SceneConfig):
    """One synthetic scene: pose, correspondences, ground-truth E and labels."""
    rng = np.random.default_rng(cfg.seed)
    pose = random_pose(rng, cfg)
    K = cfg.intrinsics()
    n_outliers = int(round(cfg.n * cfg.outlier_ratio))
    n_inliers = cfg.n - n_outliers

    pix1 = np.zeros((0, 2))
    pix2 = np.zeros((0, 2))
    for _ in range(MAX_REDRAWS):
        if len(pix1) >= n_inliers:
            break
        pts, p1 = _sample_frustum_points(rng, cfg, 2 * n_inliers)
        p2, visible = _project(pts, pose.rotation, pose.translation, cfg)
        pix1 = np.vstack([pix1, p1[visible]])
        pix2 = np.vstack([pix2, p2[visible]])
    else:
        raise RetryExhausted("could not place enough mutually visible points")
    pix1 = pix1[:n_inliers]
    pix2 = pix2[:n_inliers]
    if cfg.pixel_noise > 0:
        pix1 = pix1 + rng.normal(0.0, cfg.pixel_noise, pix1.shape)
        pix2 = pix2 + rng.normal(0.0, cfg.pixel_noise, pix2.shape)

    _, out1 = _sample_frustum_points(rng, cfg, n_outliers)
    out2 = np.column_stack([
        rng.uniform(0.0, cfg.image_width, n_outliers),
        rng.uniform(0.0, cfg.image_height, n_outliers),
    ])

    first = np.vstack([pix1, out1])
    second = np.vstack([pix2, out2])
    corr = np.hstack([normalize_keypoints(first, K), normalize_keypoints(second, K)])
    corr = corr[rng.permutation(cfg.n)]

    e_gt = essential_from_pose(pose.rotation, pose.translation)
    labels = label_inliers(e_gt, corr)
    return ScenePair(corr, pose.rotation, pose.translation, e_gt, labels, cfg, cfg.seed)


def generate_dataset(cfg: SceneConfig, pairs, base_seed=None):
    """Independent pairs; pair i uses seed base_seed + i."""
    base = cfg.seed if base_seed is None else base_seed
    return [generate_pair(replace(cfg, seed=base + i)) for i in range(pairs)]


def _fmt(x):
    return format(float(x), ".17g")


def _fmt_array(arr):
    return "[" + ",".join(_fmt(v) for v in np.asarray(arr, dtype=np.float64).reshape(-1)) + "]"


def _config_json(cfg: SceneConfig):
    d = asdict(cfg)
    parts = []
    for key, value in d.items():
        if isinstance(value, float):
            parts.append(f'"{key}":{_fmt(value)}')
        else:
            parts.append(f'"{key}":{json.dumps(value)}')
    return "{" + ",".join(parts) + "}"


def pair_to_line(pair: ScenePair):
    labels = "[" + ",".join(str(int(v)) for v in pair.labels) + "]"
    return ("{"
            f'"n":{len(pair.correspondences)},'
            f'"seed":{pair.seed},'
            f'"config":{_config_json(pair.config)},'
            f'"correspondences":{_fmt_array(pair.correspondences)},'
            f'"e_gt":{_fmt_array(pair.essential)},'
            f'"r_gt":{_fmt_array(pair.rotation)},'
            f'"t_gt":{_fmt_array(pair.translation)},'
            f'"labels":{labels}'
            "}")


def pair_from_line(line, line_number):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise MalformedRecord(line_number, f"invalid record: {err}") from None
    try:
        n = int(obj["n"])
        cfg = SceneConfig(**obj["config"])
        corr = np.array(obj["correspondences"], dtype=np.float64).reshape(n, 4)
        e_gt = np.array(obj["e_gt"], dtype=np.float64).reshape(3, 3)
        r_gt = np.array(obj["r_gt"], dtype=np.float64).reshape(3, 3)
        t_gt = np.array(obj["t_gt"], dtype=np.float64).reshape(3)
        labels = np.array(obj["labels"], dtype=np.int64).reshape(n)
        seed = int(obj["seed"])
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedRecord(line_number, f"bad field: {err}") from None
    if not np.all(np.isfinite(corr)):
        raise MalformedRecord(line_number, "correspondences contain non-finite coordinates")
    recomputed = essential_from_pose(r_gt, t_gt)
    if np.max(np.abs(recomputed - e_gt)) > 1e-12:
        raise MalformedRecord(line_number, "stored e_gt does not match essential_from_pose(r_gt, t_gt)")
    if not np.array_equal(label_inliers(e_gt, corr), labels):
        raise MalformedRecord(line_number, "stored labels do not match recomputed inlier labels")
    return ScenePair(corr, r_gt, t_gt, e_gt, labels, cfg, seed)


def write_dataset(pairs, path):
    """One line per pair; reals carry 17 significant digits for exact round trips."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for pair in pairs:
            fh.write(pair_to_line(pair))
            fh.write("\n")


def read_dataset(path):
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            if line.strip() == "":
                continue
            pairs.append(pair_from_line(line, i))
    return pairs
