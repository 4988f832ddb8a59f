"""Flat key=value configuration files.

One file may configure scene generation, the network, the losses,
training, and the RANSAC baseline; keys are namespaced with a section
prefix (scene., net., loss., train., ransac.). Unknown keys are an
error that names the key and line. The same format (with bare keys)
serializes a network configuration next to its checkpoint.
"""

from dataclasses import dataclass, fields

from .losses import LossConfig
from .network import NetworkConfig, desk_config, paper_config
from .ransac import RansacConfig
from .synthdata import SceneConfig


class ConfigError(ValueError):
    def __init__(self, message, line=None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass
class TrainParams:
    steps: int = 10000
    batch_size: int = 8
    lr: float = 1e-4
    log_every: int = 100
    val_pairs: int = 20

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


_SCENE_KEYS = {
    "scene.n": int,
    "scene.outlier_ratio": float,
    "scene.pixel_noise": float,
    "scene.depth_min": float,
    "scene.depth_max": float,
    "scene.max_rotation_deg": float,
    "scene.pairs": int,
}
# the NetworkConfig fields and their types; bn_momentum and eps are set
# only through the checkpoint sidecar, never from a run config
_NET_FIELDS = {f.name: f.type for f in fields(NetworkConfig)}
_NET_KEYS = {f"net.{name}": kind for name, kind in _NET_FIELDS.items()
             if name not in ("bn_momentum", "eps")}
# retired network options: sidecars written while they existed still carry
# them, always at the one value the network keeps
_RETIRED_NET_VALUES = {"block_order": "norm_first", "pool_softmax": "clusters",
                       "unpool_softmax": "nodes"}
_LOSS_KEYS = {
    "loss.kind": str,
    "loss.alpha": float,
    "loss.warmup": int,
    "loss.clamp": float,
    "loss.balanced": bool,
}
_TRAIN_KEYS = {
    "train.steps": int,
    "train.batch_size": int,
    "train.lr": float,
    "train.log_every": int,
    "train.val_pairs": int,
}
_RANSAC_KEYS = {
    "ransac.threshold": float,
    "ransac.max_iterations": int,
    "ransac.confidence": float,
}
KNOWN_KEYS = {"preset": str}
for table in (_SCENE_KEYS, _NET_KEYS, _LOSS_KEYS, _TRAIN_KEYS, _RANSAC_KEYS):
    KNOWN_KEYS.update(table)


def _parse_value(raw, kind, key, line):
    raw = raw.strip()
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"expected a boolean, got {raw!r}")
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}", line) from None


def parse_config_file(path):
    """Read a flat key=value file into {key: (typed value, line)}."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped == "" or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"expected key=value, got {stripped!r}", line_no)
            key, _, raw = stripped.partition("=")
            key = key.strip()
            raw = raw.split("#", 1)[0]  # allow trailing comments
            if key not in KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}", line_no)
            if key in out:
                raise ConfigError(f"duplicate key {key!r}", line_no)
            out[key] = (_parse_value(raw, KNOWN_KEYS[key], key, line_no), line_no)
    return out


@dataclass
class RunConfig:
    """Every section a command could need, resolved with preset defaults."""

    preset: str
    scene: SceneConfig
    pairs: int
    network: NetworkConfig
    loss: LossConfig
    train: TrainParams
    ransac: RansacConfig

    def echo(self):
        """Flat dict of the effective configuration (for manifests)."""
        out = {"preset": self.preset, "scene.pairs": self.pairs}
        for prefix, obj in (
            ("scene", self.scene),
            ("net", self.network),
            ("loss", self.loss),
            ("train", self.train),
            ("ransac", self.ransac),
        ):
            for f in fields(obj):
                if f.name == "seed":
                    continue
                out[f"{prefix}.{f.name}"] = getattr(obj, f.name)
        return out


def _section(parsed, table, prefix):
    values = {}
    for key in table:
        if key in parsed:
            values[key[len(prefix):]] = parsed[key][0]
    return values


def resolve_run_config(parsed=None):
    """Apply the preset then any explicit overrides from a parsed config map."""
    parsed = parsed or {}
    preset = parsed.get("preset", ("desk", 0))[0]
    if preset not in ("desk", "paper"):
        raise ConfigError(f"unknown preset {preset!r}", parsed.get("preset", (None, None))[1])

    scene_over = _section(parsed, _SCENE_KEYS, "scene.")
    pairs = scene_over.pop("pairs", 100)
    scene = SceneConfig(**scene_over)

    net_over = _section(parsed, _NET_KEYS, "net.")
    network = desk_config(**net_over) if preset == "desk" else paper_config(**net_over)

    loss_over = _section(parsed, _LOSS_KEYS, "loss.")
    if preset == "paper" and "warmup" not in loss_over:
        loss_over["warmup"] = 20000
    loss = LossConfig(**loss_over)

    train_over = _section(parsed, _TRAIN_KEYS, "train.")
    if preset == "paper":
        train_over.setdefault("steps", 500000)
        train_over.setdefault("batch_size", 32)
    train = TrainParams(**train_over)

    ransac_over = _section(parsed, _RANSAC_KEYS, "ransac.")
    ransac = RansacConfig(**ransac_over)
    return RunConfig(preset, scene, pairs, network, loss, train, ransac)


def load_run_config(path=None):
    return resolve_run_config(parse_config_file(path) if path else None)


def write_network_config(cfg: NetworkConfig, path):
    """Sidecar serialization of a network configuration (bare flat keys)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{f.name}={value}\n")


def read_network_config(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if stripped == "" or stripped.startswith("#"):
                continue
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key in _RETIRED_NET_VALUES:
                if raw.strip() != _RETIRED_NET_VALUES[key]:
                    raise ConfigError(f"retired network config key {key!r} only accepts "
                                      f"{_RETIRED_NET_VALUES[key]!r}, got {raw.strip()!r}", line_no)
                continue
            if key not in _NET_FIELDS:
                raise ConfigError(f"unknown network config key {key!r}", line_no)
            values[key] = _parse_value(raw, _NET_FIELDS[key], key, line_no)
    return NetworkConfig(**values).validate()
