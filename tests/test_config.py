import os
import re

import pytest

from twoview.config import (
    KNOWN_KEYS,
    ConfigError,
    TrainParams,
    load_run_config,
    parse_config_file,
    read_network_config,
    resolve_run_config,
    write_network_config,
)
from twoview.network import NetworkConfig, desk_config

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


class TestParse:
    def test_basic_types(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\n\nscene.n = 64\nloss.alpha = 0.25\nnet.use_pool = false\n"
                     "net.unpool_variant = plain\n")
        parsed = parse_config_file(p)
        assert parsed["scene.n"][0] == 64
        assert parsed["loss.alpha"][0] == 0.25
        assert parsed["net.use_pool"][0] is False
        assert parsed["net.unpool_variant"][0] == "plain"

    def test_unknown_key_named_with_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.n = 64\nnot.a.key = 1\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(p)
        assert "not.a.key" in str(exc.value) and "line 2" in str(exc.value)

    def test_bad_value_diagnosed(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.n = pony\n")
        with pytest.raises(ConfigError) as exc:
            parse_config_file(p)
        assert "scene.n" in str(exc.value)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.n = 1\nscene.n = 2\n")
        with pytest.raises(ConfigError, match="line 2: .*scene.n"):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.n 64\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)


# the effective configuration of the section defaults, as echoed into manifests
DESK_ECHO = {
    "scene.n": 512, "scene.outlier_ratio": 0.4, "scene.pixel_noise": 0.5, "scene.depth_min": 4.0,
    "scene.depth_max": 10.0, "scene.max_rotation_deg": 30.0, "scene.image_width": 640,
    "scene.image_height": 480, "scene.focal": 500.0, "scene.pairs": 100,
    "net.channels": 32, "net.clusters": 128, "net.blocks_before_pool": 2,
    "net.blocks_after_unpool": 2, "net.level2_blocks": 2, "net.unpool_variant": "order_aware",
    "net.level2_kind": "order_aware", "net.use_pool": True, "net.iterative": False,
    "net.expected_points": 512,
    "loss.kind": "l2", "loss.alpha": 0.1, "loss.warmup": 500, "loss.clamp": 0.1,
    "train.steps": 10000, "train.batch_size": 8, "train.lr": 1e-4, "train.log_every": 100,
    "train.val_pairs": 20,
    "ransac.threshold": 1e-4, "ransac.max_iterations": 2000, "ransac.confidence": 0.999,
}
SHIPPED_ECHO = {
    None: DESK_ECHO,
    "desk.cfg": DESK_ECHO,
    "hard.cfg": {**DESK_ECHO, "scene.outlier_ratio": 0.6, "scene.pixel_noise": 1.0,
                 "loss.kind": "geometry", "loss.alpha": 0.5, "train.log_every": 200},
    "paper.cfg": {**DESK_ECHO, "scene.n": 2000, "net.channels": 128,
                  "net.clusters": 500, "net.blocks_before_pool": 6, "net.blocks_after_unpool": 6,
                  "net.level2_blocks": 6, "net.expected_points": 2000, "loss.kind": "geometry",
                  "loss.alpha": 0.5, "loss.warmup": 20000,
                  "train.steps": 500000, "train.batch_size": 32},
}


class TestDeskConfigFile:
    PATH = os.path.join(CONFIGS, "desk.cfg")

    def test_documents_every_known_key(self):
        """Set and commented-out `# key = value` lines together name exactly KNOWN_KEYS."""
        with open(self.PATH, encoding="utf-8") as fh:
            keys = [m.group(1) for m in (re.match(r"#?\s*([\w.]+)\s*=", line.strip()) for line in fh)
                    if m]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(KNOWN_KEYS)

    def test_loads_as_desk_preset(self):
        """desk.cfg states the section defaults."""
        run = load_run_config(self.PATH)
        assert run == load_run_config(None)
        assert run.network == NetworkConfig() == desk_config()

    @pytest.mark.parametrize("name", sorted(SHIPPED_ECHO, key=str))
    def test_shipped_configs_resolve_unchanged(self, name):
        """Each shipped config, and no config at all, resolves to the values it always had."""
        run = load_run_config(os.path.join(CONFIGS, name) if name else None)
        echo = run.echo()
        assert echo == SHIPPED_ECHO[name]
        assert all(type(echo[key]) is type(value) for key, value in SHIPPED_ECHO[name].items())


class TestResolve:
    def test_defaults_without_file(self):
        run = load_run_config(None)
        assert run.network == NetworkConfig() == desk_config()
        assert run.train.steps == 10000

    def test_paper_preset(self):
        """configs/paper.cfg states every value `preset = paper` used to set."""
        run = load_run_config(os.path.join(CONFIGS, "paper.cfg"))
        assert run.network == NetworkConfig(channels=128, clusters=500, blocks_before_pool=6,
                                            blocks_after_unpool=6, level2_blocks=6,
                                            expected_points=2000)
        assert (run.loss.warmup, run.train.steps, run.train.batch_size) == (20000, 500000, 32)

    def test_overrides_apply_over_preset(self, tmp_path):
        """Keys override the section defaults and leave the other fields at theirs."""
        p = tmp_path / "c.cfg"
        p.write_text("net.channels = 16\ntrain.steps = 50\nscene.pairs = 7\n")
        run = load_run_config(p)
        assert run.network == NetworkConfig(channels=16)
        assert run.train == TrainParams(steps=50)
        assert run.pairs == 7

    def test_unknown_preset(self, tmp_path):
        """`preset` is an unknown key, whatever its value."""
        p = tmp_path / "c.cfg"
        for value in ("desk", "paper", "galaxy"):
            p.write_text(f"scene.n = 64\npreset = {value}\n")
            with pytest.raises(ConfigError, match="line 2: unknown key 'preset'") as exc:
                load_run_config(p)
            assert exc.value.line == 2

    def test_loss_balanced_is_unknown(self, tmp_path):
        """The class-balanced loss is the only loss: `loss.balanced` is an unknown key."""
        p = tmp_path / "c.cfg"
        for value in ("true", "false"):
            p.write_text(f"scene.n = 64\nloss.balanced = {value}\n")
            with pytest.raises(ConfigError, match="line 2: unknown key 'loss.balanced'"):
                load_run_config(p)

    def test_echo_is_flat(self):
        echo = load_run_config(None).echo()
        assert echo["net.channels"] == 32
        assert all("." in k for k in echo)

    def test_train_params_validation(self):
        with pytest.raises(ValueError):
            TrainParams(steps=0)

    def test_range_error_names_key_and_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.steps = 5\ntrain.log_every = 0\n")
        with pytest.raises(ConfigError, match="line 2: train.log_every: ") as exc:
            load_run_config(p)
        assert exc.value.line == 2


class TestNetworkConfigSidecar:
    def test_round_trip(self, tmp_path):
        cfg = desk_config(unpool_variant="plain", iterative=True, expected_points=64)
        path = tmp_path / "model.netconfig"
        write_network_config(cfg, path)
        assert read_network_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "model.netconfig"
        path.write_text("channels=8\nwizardry=9\n")
        with pytest.raises(ConfigError):
            read_network_config(path)

    @pytest.mark.parametrize("text, line, key", [("channels=8\nclusters=4\nchannels=16\n", 3, "channels"),
                                                 ("channels=8\nclusters 4\n", 2, "clusters")],
                             ids=["repeated_key", "no_equals"])
    def test_malformed_line_named(self, tmp_path, text, line, key):
        """A repeated key or a line without `=` is rejected, as in a run config."""
        path = tmp_path / "model.netconfig"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"line {line}: .*{key}") as exc:
            read_network_config(path)
        assert exc.value.line == line


# a desk sidecar as written while block_order, pool_softmax, unpool_softmax,
# bn_momentum and eps existed
LEGACY_DESK_SIDECAR = """channels=32
clusters=128
blocks_before_pool=2
blocks_after_unpool=2
level2_blocks=2
unpool_variant=order_aware
level2_kind=order_aware
use_pool=true
iterative=false
block_order=norm_first
pool_softmax=clusters
unpool_softmax=nodes
expected_points=512
bn_momentum=0.9
eps=1e-05
"""
# each retired key at the one value it used to accept
RETIRED_SIDECAR = {"block_order": "norm_first", "pool_softmax": "clusters",
                   "unpool_softmax": "nodes", "bn_momentum": "0.9", "eps": "1e-05"}


class TestRetiredNetworkKeys:
    @pytest.mark.parametrize("key", sorted(RETIRED_SIDECAR))
    def test_other_value_rejected_with_key_and_line(self, tmp_path, key):
        """A retired key is an unknown key, also at the value it used to accept."""
        kept = f"{key}={RETIRED_SIDECAR[key]}"
        lines = [line for line in LEGACY_DESK_SIDECAR.splitlines()
                 if line == kept or line.partition("=")[0] not in RETIRED_SIDECAR]
        path = tmp_path / "model.netconfig"
        path.write_text("\n".join(lines) + "\n")
        line = lines.index(kept) + 1
        with pytest.raises(ConfigError, match=f"line {line}: unknown key '{key}'") as exc:
            read_network_config(path)
        assert exc.value.line == line

    def test_not_written(self, tmp_path):
        path = tmp_path / "model.netconfig"
        write_network_config(desk_config(), path)
        keys = [line.partition("=")[0] for line in path.read_text().splitlines()]
        assert not set(keys) & set(RETIRED_SIDECAR)

    def test_failed_write_keeps_previous_file(self, tmp_path):
        class DiskFull:
            def __format__(self, spec):
                raise OSError("disk full")

        path = tmp_path / "model.netconfig"
        write_network_config(desk_config(), path)
        before = path.read_bytes()
        broken = desk_config(channels=8)
        object.__setattr__(broken, "expected_points", DiskFull())  # a late field: fails midway
        with pytest.raises(OSError):
            write_network_config(broken, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.netconfig"]


class TestNetworkKeys:
    RUN_CONFIG_KEYS = {"channels", "clusters", "blocks_before_pool", "blocks_after_unpool",
                       "level2_blocks", "unpool_variant", "level2_kind", "use_pool", "iterative",
                       "expected_points"}

    def test_run_config_keys_unchanged(self):
        assert {k[len("net."):] for k in KNOWN_KEYS if k.startswith("net.")} == self.RUN_CONFIG_KEYS

    @pytest.mark.parametrize("key", ["bn_momentum", "eps"])
    def test_retired_keys_not_in_run_config(self, tmp_path, key):
        run_cfg = tmp_path / "c.cfg"
        run_cfg.write_text(f"net.{key} = 0.9\n")
        with pytest.raises(ConfigError, match=f"line 1: unknown key 'net.{key}'"):
            parse_config_file(run_cfg)

    def test_known_keys_and_types_unchanged(self):
        assert {key: kind.__name__ for key, kind in KNOWN_KEYS.items()} == {
            key: type(value).__name__ for key, value in DESK_ECHO.items()
            if key not in ("scene.image_width", "scene.image_height", "scene.focal")}
