"""Flat key=value configuration files.

One file may configure scene generation, the network, the losses,
training, and the RANSAC baseline; keys are namespaced with a section
prefix (scene., net., loss., train., ransac.) and are the fields of the
section dataclasses, whose field defaults are the run defaults (desk
scale) and which also check their ranges. Unknown or repeated
keys, lines without `=` and out-of-range values are an error that names
the key and line. The same format (with bare keys) serializes a network
configuration next to its checkpoint.
"""

import math
import re
from dataclasses import dataclass, fields

from .autodiff import write_atomically
from .losses import LossConfig
from .network import NetworkConfig
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
    val_pairs: int = 20    # the first pairs of the training set, scored for val_map5: not held out

    def __post_init__(self):
        for key in ("steps", "batch_size", "log_every", "val_pairs"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1")
        if not self.lr > 0:
            raise ValueError("lr must be positive")


# run-config key prefix -> (RunConfig attribute, section dataclass)
_SECTIONS = {"scene": ("scene", SceneConfig), "net": ("network", NetworkConfig),
             "loss": ("loss", LossConfig), "train": ("train", TrainParams),
             "ransac": ("ransac", RansacConfig)}
# section fields no run config sets: seeds come from --seed, and the
# virtual camera is fixed
_UNSET_FIELDS = {"seed", "image_width", "image_height", "focal"}
KNOWN_KEYS = {"scene.pairs": int}
KNOWN_KEYS.update({f"{prefix}.{f.name}": f.type for prefix, (_, cls) in _SECTIONS.items()
                   for f in fields(cls) if f.name not in _UNSET_FIELDS})


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
        value = kind(raw)
        if kind is float and not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {raw!r}")
        return value
    except ValueError as err:
        raise ConfigError(f"key {key!r}: {err}", line) from None


def parse_config_file(path, kinds=KNOWN_KEYS):
    """Read a flat key=value file into {key: (typed value, line)}; `kinds` maps key -> type."""
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
            if key not in kinds:
                raise ConfigError(f"unknown key {key!r}", line_no)
            if key in out:
                raise ConfigError(f"duplicate key {key!r}", line_no)
            out[key] = (_parse_value(raw, kinds[key], key, line_no), line_no)
    return out


def _build(cls, values, lines, prefix=""):
    """cls(**values); a failed range check becomes a ConfigError on the key it names.

    The section dataclasses name the offending field in each message; the
    first field named is reported, with its line when it came from a file.
    """
    try:
        return cls(**values)
    except ValueError as err:
        named = [(m.start(), f.name) for f in fields(cls)
                 if (m := re.search(rf"\b{f.name}\b", str(err)))]
        key = prefix + min(named)[1] if named else cls.__name__
        raise ConfigError(f"{key}: {err}", lines.get(key)) from None


@dataclass
class RunConfig:
    """Every section a command could need, resolved over the section defaults."""

    scene: SceneConfig
    pairs: int
    network: NetworkConfig
    loss: LossConfig
    train: TrainParams
    ransac: RansacConfig

    def echo(self):
        """Flat dict of the effective configuration (for manifests)."""
        out = {"scene.pairs": self.pairs}
        for prefix, (attr, _) in _SECTIONS.items():
            section = getattr(self, attr)
            for f in fields(section):
                if f.name != "seed":
                    out[f"{prefix}.{f.name}"] = getattr(section, f.name)
        return out


def resolve_run_config(parsed=None):
    """Build each section from its dataclass defaults and a parsed config map's overrides."""
    parsed = parsed or {}
    lines = {key: line for key, (_, line) in parsed.items()}
    sections = {}
    for prefix, (attr, cls) in _SECTIONS.items():
        values = {key[len(prefix) + 1:]: value for key, (value, _) in parsed.items()
                  if key.startswith(prefix + ".") and key != "scene.pairs"}
        sections[attr] = _build(cls, values, lines, prefix + ".")
    pairs = parsed.get("scene.pairs", (100, None))[0]
    if pairs < 1:
        raise ConfigError(f"scene.pairs: must be >= 1, got {pairs}", lines.get("scene.pairs"))
    return RunConfig(pairs=pairs, **sections)


def load_run_config(path=None):
    return resolve_run_config(parse_config_file(path) if path else None)


_SIDECAR_KEYS = {f.name: f.type for f in fields(NetworkConfig)}


def write_network_config(cfg: NetworkConfig, path):
    """Sidecar serialization of a network configuration (bare flat keys)."""
    def write(fh):
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write(f"{f.name}={value}\n")

    write_atomically(path, write, prefix=".netconfig-", text=True)


def read_network_config(path):
    parsed = parse_config_file(path, _SIDECAR_KEYS)
    return _build(NetworkConfig, {key: value for key, (value, _) in parsed.items()},
                  {key: line for key, (_, line) in parsed.items()})
