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
from twoview.network import desk_config, paper_config


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
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("scene.n 64\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)


class TestDeskConfigFile:
    PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "configs", "desk.cfg")

    def test_documents_every_known_key(self):
        """Set and commented-out `# key = value` lines together name exactly KNOWN_KEYS."""
        with open(self.PATH, encoding="utf-8") as fh:
            keys = [m.group(1) for m in (re.match(r"#?\s*([\w.]+)\s*=", line.strip()) for line in fh)
                    if m]
        assert len(keys) == len(set(keys))
        assert set(keys) == set(KNOWN_KEYS)

    def test_loads_as_desk_preset(self):
        run = load_run_config(self.PATH)
        assert run.network == desk_config()


class TestResolve:
    def test_defaults_without_file(self):
        run = load_run_config(None)
        assert run.preset == "desk"
        assert run.network == desk_config()
        assert run.train.steps == 10000

    def test_paper_preset(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("preset = paper\n")
        run = load_run_config(p)
        assert run.network == paper_config()
        assert run.loss.warmup == 20000
        assert run.train.batch_size == 32

    def test_overrides_apply_over_preset(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("preset = desk\nnet.channels = 16\ntrain.steps = 50\nscene.pairs = 7\n")
        run = load_run_config(p)
        assert run.network.channels == 16
        assert run.train.steps == 50
        assert run.pairs == 7

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            resolve_run_config({"preset": ("galaxy", 1)})

    def test_echo_is_flat(self):
        echo = load_run_config(None).echo()
        assert echo["net.channels"] == 32
        assert all("." in k or k == "preset" for k in echo)

    def test_train_params_validation(self):
        with pytest.raises(ValueError):
            TrainParams(steps=0)


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


# a desk sidecar as written while block_order, pool_softmax and unpool_softmax existed
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
RETIRED_SIDECAR = {"block_order": ("norm_first", "perceptron_first"),
                   "pool_softmax": ("clusters", "nodes"),
                   "unpool_softmax": ("nodes", "clusters")}


class TestRetiredNetworkKeys:
    def test_legacy_sidecar_loads_as_desk(self, tmp_path):
        path = tmp_path / "model.netconfig"
        path.write_text(LEGACY_DESK_SIDECAR)
        assert read_network_config(path) == desk_config()

    @pytest.mark.parametrize("key", sorted(RETIRED_SIDECAR))
    def test_other_value_rejected_with_key_and_line(self, tmp_path, key):
        kept, other = RETIRED_SIDECAR[key]
        path = tmp_path / "model.netconfig"
        text = LEGACY_DESK_SIDECAR.replace(f"{key}={kept}\n", f"{key}={other}\n")
        assert text != LEGACY_DESK_SIDECAR
        path.write_text(text)
        line = text.splitlines().index(f"{key}={other}") + 1
        with pytest.raises(ConfigError, match=f"line {line}: .*{key}") as exc:
            read_network_config(path)
        assert exc.value.line == line

    def test_not_written(self, tmp_path):
        path = tmp_path / "model.netconfig"
        write_network_config(desk_config(), path)
        keys = [line.partition("=")[0] for line in path.read_text().splitlines()]
        assert not set(keys) & set(RETIRED_SIDECAR)


class TestNetworkKeys:
    RUN_CONFIG_KEYS = {"channels", "clusters", "blocks_before_pool", "blocks_after_unpool",
                       "level2_blocks", "unpool_variant", "level2_kind", "use_pool", "iterative",
                       "expected_points"}

    def test_run_config_keys_unchanged(self):
        assert {k[len("net."):] for k in KNOWN_KEYS if k.startswith("net.")} == self.RUN_CONFIG_KEYS

    @pytest.mark.parametrize("key", ["bn_momentum", "eps"])
    def test_sidecar_only_keys(self, tmp_path, key):
        run_cfg = tmp_path / "c.cfg"
        run_cfg.write_text(f"net.{key} = 0.5\n")
        with pytest.raises(ConfigError):
            parse_config_file(run_cfg)
        sidecar = tmp_path / "model.netconfig"
        sidecar.write_text(f"{key}=0.5\n")
        assert getattr(read_network_config(sidecar), key) == 0.5
