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


class TestNetworkKeys:
    RUN_CONFIG_KEYS = {"channels", "clusters", "blocks_before_pool", "blocks_after_unpool",
                       "level2_blocks", "unpool_variant", "level2_kind", "use_pool", "iterative",
                       "block_order", "pool_softmax", "unpool_softmax", "expected_points"}

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
