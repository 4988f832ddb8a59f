"""Synthetic two-view scenes with exact ground truth.

A virtual 640x480, f=500 pinhole camera observes random 3D points in a
depth band; the second view is a random small rotation plus a unit
baseline. Inlier matches get Gaussian pixel noise in both views; outlier
matches replace the second view with a uniform random image point.
Labels are derived from the geometry (symmetric epipolar distance under
the ground-truth essential matrix), not from the injection flag, so a
lucky random outlier that lands on the epipolar line counts as an inlier.

A seed and config give the same bytes in every version: the generator and
the record codec may change how many calls they make, never the random
draws, their order and sizes, the floating-point operations on each value
or the text written. tests/data/gen_*.txt pin this.
"""

import base64
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .autodiff import write_atomically
from .epipolar import (
    CameraIntrinsics,
    Pose,
    ZeroTranslation,
    essential_from_pose,
    label_inliers,
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
            raise ValueError("n must be >= 8 correspondences per pair")
        if not 0.0 <= self.outlier_ratio < 1.0:
            raise ValueError("outlier_ratio must be in [0, 1)")
        # each check is written so that a NaN fails it, as an infinity does
        if not 0.0 <= self.pixel_noise < math.inf:
            raise ValueError("pixel_noise must be >= 0 and finite")
        if not 0 < self.depth_min < self.depth_max < math.inf:
            raise ValueError("depth_min and depth_max must satisfy 0 < depth_min < depth_max < inf")
        if not 0.0 <= self.max_rotation_deg <= 180.0:
            raise ValueError("max_rotation_deg must be in [0, 180]")

    def intrinsics(self):
        return CameraIntrinsics(self.focal, self.focal,
                                self.image_width / 2.0, self.image_height / 2.0)


# field name -> type, in declaration order
_CONFIG_FIELDS = {f.name: f.type for f in fields(SceneConfig)}


@dataclass
class ScenePair:
    correspondences: np.ndarray  # (N, 4) normalized coordinates
    rotation: np.ndarray         # (3, 3)
    translation: np.ndarray      # (3,), unit norm
    essential: np.ndarray        # (3, 3), unit Frobenius norm
    labels: np.ndarray           # (N,) weak inlier labels
    config: SceneConfig
    seed: int

    @cached_property
    def _pose(self):
        return Pose(self.rotation, self.translation)

    def pose(self):
        """The validated Pose of rotation and translation, built once: on first use, or by
        the reader, which checks it anyway."""
        return self._pose


def _axis_angle_rotation(unit_axis, angle):
    K = skew(unit_axis)
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def _direction(rng):
    """A standard normal 3-vector, redrawn while its norm is below 1e-9, and that norm."""
    v = rng.normal(size=3)
    while (norm := np.linalg.norm(v)) < 1e-9:
        v = rng.normal(size=3)
    return v, norm


def _sample_frustum_points(rng, cfg: SceneConfig, K, count):
    """Random 3D points whose first-view pixels (u, v) are uniform in the image:
    (points, u, v)."""
    u = rng.uniform(0.0, cfg.image_width, count)
    v = rng.uniform(0.0, cfg.image_height, count)
    z = rng.uniform(cfg.depth_min, cfg.depth_max, count)
    points = np.empty((count, 3))
    np.multiply((u - K.cx) / K.fx, z, out=points[:, 0])
    np.multiply((v - K.cy) / K.fy, z, out=points[:, 1])
    points[:, 2] = z
    return points, u, v


def _project(points, R, t, cfg: SceneConfig, K):
    """Second-view pixels (u, v) and a visibility mask (positive depth, inside the image)."""
    q = points @ R.T + t
    z = q[:, 2]
    safe = np.where(np.abs(z) > 1e-12, z, 1e-12)
    u = K.fx * q[:, 0] / safe + K.cx
    v = K.fy * q[:, 1] / safe + K.cy
    visible = (z > 0) & (u >= 0) & (u < cfg.image_width) & (v >= 0) & (v < cfg.image_height)
    return u, v, visible


def _draw_pose(rng, cfg: SceneConfig, K):
    """Random rotation (axis-angle, bounded) plus a unit-sphere translation, as (R, t), unchecked.

    Redraws until at least 80% of a probe point set stays visible in the
    second view, so generated scenes keep enough shared field of view.
    """
    max_angle = np.radians(cfg.max_rotation_deg)
    for _ in range(MAX_REDRAWS):
        axis, axis_norm = _direction(rng)
        R = (_axis_angle_rotation(axis / axis_norm, rng.uniform(0.0, max_angle))
             if max_angle > 0 else np.eye(3))
        t, t_norm = _direction(rng)
        t = t / t_norm
        probe, _, _ = _sample_frustum_points(rng, cfg, K, 64)
        visible = _project(probe, R, t, cfg, K)[2]
        if np.count_nonzero(visible) / len(visible) >= VISIBILITY_FRACTION:
            return R, t
    raise RetryExhausted(f"pair seed {cfg.seed}: no pose with {VISIBILITY_FRACTION:.0%} shared "
                         f"visibility in {MAX_REDRAWS} draws")


def generate_pair(cfg: SceneConfig):
    """One synthetic scene: pose, correspondences, ground-truth E and labels."""
    rng = np.random.default_rng(cfg.seed)
    K = cfg.intrinsics()
    R, t = _draw_pose(rng, cfg, K)
    n_outliers = int(round(cfg.n * cfg.outlier_ratio))
    n_inliers = cfg.n - n_outliers

    # pixels u1, v1, u2, v2 as rows: the first n_inliers mutually visible points, then the outliers
    pix = np.empty((4, cfg.n))
    found = [np.empty((4, 0))]
    count = 0
    for _ in range(MAX_REDRAWS):
        if count >= n_inliers:
            break
        points, u1, v1 = _sample_frustum_points(rng, cfg, K, 2 * n_inliers)
        u2, v2, visible = _project(points, R, t, cfg, K)
        found.append(np.array([u1, v1, u2, v2]).compress(visible, axis=1))
        count += found[-1].shape[1]
    else:
        raise RetryExhausted(f"pair seed {cfg.seed}: could not place enough mutually visible "
                             "points")
    pix[:, :n_inliers] = np.concatenate(found, axis=1)[:, :n_inliers]
    if cfg.pixel_noise > 0:
        pix[:2, :n_inliers] += rng.normal(0.0, cfg.pixel_noise, (n_inliers, 2)).T
        pix[2:, :n_inliers] += rng.normal(0.0, cfg.pixel_noise, (n_inliers, 2)).T

    _, pix[0, n_inliers:], pix[1, n_inliers:] = _sample_frustum_points(rng, cfg, K, n_outliers)
    pix[2, n_inliers:] = rng.uniform(0.0, cfg.image_width, n_outliers)
    pix[3, n_inliers:] = rng.uniform(0.0, cfg.image_height, n_outliers)
    centre = np.array([[K.cx], [K.cy], [K.cx], [K.cy]])
    focal = np.array([[K.fx], [K.fy], [K.fx], [K.fy]])
    corr = np.take(((pix - centre) / focal).T, rng.permutation(cfg.n), axis=0)

    e_gt = essential_from_pose(R, t)
    return ScenePair(corr, R, t, e_gt, label_inliers(e_gt, corr), cfg, cfg.seed)


def generate_dataset(cfg: SceneConfig, pairs, base_seed=None):
    """Independent pairs; pair i uses seed base_seed + i."""
    base = cfg.seed if base_seed is None else base_seed
    return [generate_pair(replace(cfg, seed=base + i)) for i in range(pairs)]


# json.dumps's output for every part of a record but the correspondences and the labels
_encode = json.JSONEncoder(separators=(",", ":")).encode


def _label_text(labels):
    """The 0/1 labels as json.dumps writes their list, without the brackets."""
    if labels.dtype.kind not in "iu" or labels.ndim != 1 or np.any(labels >> 1):
        raise ValueError("labels must be a 1-D integer array of 0s and 1s")
    text = np.full(2 * len(labels), ord(","), dtype=np.uint8)
    text[::2] = labels
    text[::2] += ord("0")
    return text[:-1].tobytes().decode("ascii")


def pair_to_line(pair: ScenePair):
    """One JSON record; correspondences are base64 of their little-endian float64 bytes in
    row-major order, the other reals their shortest repr; both read back exactly. The
    record's config states the record's own n and seed."""
    n = len(pair.correspondences)
    config = {name: getattr(pair.config, name) for name in _CONFIG_FIELDS}
    config.update(n=n, seed=pair.seed)
    head = _encode({"n": n, "seed": pair.seed, "config": config})
    pose = _encode({"e_gt": pair.essential.reshape(-1).tolist(),
                    "r_gt": pair.rotation.reshape(-1).tolist(),
                    "t_gt": pair.translation.reshape(-1).tolist()})
    corr = base64.b64encode(pair.correspondences.astype("<f8").tobytes()).decode()
    return (f'{head[:-1]},"correspondences":"{corr}",{pose[1:-1]},'
            f'"labels":[{_label_text(pair.labels)}]}}')


def _json_int(value, name):
    if type(value) is not int:  # bool is a subclass of int, and 5.9 or "5" is no integer
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_reals(field, name):
    """float64 array of a JSON list of numbers; a bool or a string such as "0.1" is none."""
    if not (isinstance(field, list) and set(map(type, field)) <= {int, float}):
        raise ValueError(f"{name} must be a list of JSON numbers")
    return np.array(field, dtype=np.float64)


def _scene_config(obj):
    """The record's SceneConfig; an int field takes a JSON integer, a float field a finite number."""
    if not (isinstance(obj, dict) and obj.keys() <= _CONFIG_FIELDS.keys()):
        raise ValueError(f"config must be an object with keys from {sorted(_CONFIG_FIELDS)}")
    for key, value in obj.items():
        if _CONFIG_FIELDS[key] is int:
            _json_int(value, f"config.{key}")
        elif type(value) not in (int, float) or not np.isfinite(value):
            raise ValueError(f"config.{key} must be a finite JSON number, got {value!r}")
    return SceneConfig(**{k: float(v) if _CONFIG_FIELDS[k] is float else v for k, v in obj.items()})


def _correspondences(field, n):
    """(n, 4) float64 from a base64 string of n * 32 bytes."""
    if not isinstance(field, str):
        raise ValueError(f"correspondences must be a base64 string, got {type(field).__name__}")
    try:
        raw = base64.b64decode(field, validate=True)
    except ValueError as err:  # binascii.Error, or a character outside ASCII
        raise ValueError(f"correspondences are not base64: {err}") from None
    if len(raw) != 32 * n:
        raise ValueError(f"correspondences hold {len(raw)} bytes, expected 32 * n = {32 * n}")
    return np.frombuffer(raw, "<f8").reshape(n, 4).astype(np.float64)


def pair_from_line(line, line_number):
    """A validated ScenePair from one record as `pair_to_line` writes it."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise MalformedRecord(line_number, f"invalid record: {err}") from None
    try:
        n = _json_int(obj["n"], "n")
        if n < 8:  # the eight-point minimum, as SceneConfig requires
            raise ValueError(f"n must be at least 8, got {n}")
        cfg = _scene_config(obj["config"])
        corr = _correspondences(obj["correspondences"], n)
        e_gt = _json_reals(obj["e_gt"], "e_gt").reshape(3, 3)
        r_gt = _json_reals(obj["r_gt"], "r_gt").reshape(3, 3)
        t_gt = _json_reals(obj["t_gt"], "t_gt").reshape(3)
        labels = obj["labels"]
        if not (isinstance(labels, list) and set(map(type, labels)) <= {int} and set(labels) <= {0, 1}):
            raise ValueError("labels must be a list of JSON integers 0 or 1")
        labels = np.frombuffer(bytes(labels), np.uint8).astype(np.int64).reshape(n)
        seed = _json_int(obj["seed"], "seed")
        for key, value in (("n", n), ("seed", seed)):
            if key in obj["config"] and getattr(cfg, key) != value:
                raise ValueError(f"config.{key} is {getattr(cfg, key)}, "
                                 f"the record's {key} is {value}")
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise MalformedRecord(line_number, f"bad field: {err}") from None
    if not np.all(np.isfinite(corr)):
        raise MalformedRecord(line_number, "correspondences contain non-finite coordinates")
    with np.errstate(over="ignore", invalid="ignore"):  # a pose near the float range
        try:
            mismatch = np.max(np.abs(essential_from_pose(r_gt, t_gt) - e_gt))
        except ZeroTranslation as err:
            raise MalformedRecord(line_number, f"bad pose: {err}") from None
        if not mismatch <= 1e-12:  # a NaN or an infinity in the pose fails too
            raise MalformedRecord(line_number,
                                  "stored e_gt does not match essential_from_pose(r_gt, t_gt)")
        try:
            pose = Pose(r_gt, t_gt)  # e_gt is scale-free, so a scaled r_gt or t_gt matches it too
        except ValueError as err:
            raise MalformedRecord(line_number, f"bad pose: {err}") from None
    try:
        with np.errstate(over="raise", invalid="raise"):
            inliers = label_inliers(e_gt, corr)
    except FloatingPointError:
        raise MalformedRecord(line_number, "correspondence coordinates overflow") from None
    if not np.array_equal(inliers, labels):
        raise MalformedRecord(line_number, "stored labels do not match recomputed inlier labels")
    pair = ScenePair(corr, r_gt, t_gt, e_gt, labels, cfg, seed)
    pair._pose = pose  # already validated here, so pair.pose() does not check it again
    return pair


def write_dataset(pairs, path):
    """One line per pair, bit-exact on reading; written to a temp file and renamed into place,
    so a failed write leaves any earlier file as it was."""
    def write(fh):
        for pair in pairs:
            fh.write(f"{pair_to_line(pair)}\n".encode("ascii"))

    write_atomically(path, write, prefix=".dataset-")


def read_dataset(path):
    """The pairs of a dataset file; a line that is not UTF-8 text, or whose record fails
    `pair_from_line`, is a MalformedRecord naming the line."""
    pairs = []
    # an undecodable byte b reads as the lone surrogate U+DC00 + b, which UTF-8 cannot encode
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for i, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as err:
                    byte = ord(line[err.start]) - 0xDC00
                    raise MalformedRecord(i, f"byte 0x{byte:02x} is not UTF-8 text") from None
            if line.strip() == "":
                continue
            pairs.append(pair_from_line(line, i))
    return pairs
