import json
import os
import resource
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from twoview.cli import main
from twoview.autodiff import read_checkpoint_arrays
from twoview.config import read_network_config
from twoview.synthdata import pair_to_line, read_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small dataset + trained checkpoint shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(
        "scene.n = 48\n"
        "scene.outlier_ratio = 0.25\n"
        "scene.pixel_noise = 0.5\n"
        "net.channels = 8\n"
        "net.clusters = 4\n"
        "net.blocks_before_pool = 1\n"
        "net.blocks_after_unpool = 1\n"
        "net.level2_blocks = 1\n"
        "net.expected_points = 48\n"
        "loss.warmup = 2\n"
        "train.batch_size = 4\n"
        "train.val_pairs = 2\n"
        "train.log_every = 5\n")
    data = root / "data.txt"
    code = main(["gen", "--seed", "11", "--config", str(cfg), "--out", str(data), "--pairs", "6"])
    assert code == 0
    ckpt = root / "model.bin"
    code = main(["train", "--seed", "1", "--config", str(cfg), "--dataset", str(data),
                 "--out", str(ckpt), "--steps", "10"])
    assert code == 0
    return {"root": root, "cfg": cfg, "data": data, "ckpt": ckpt}


class TestGen:
    def test_dataset_written_with_manifest(self, workspace):
        pairs = read_dataset(workspace["data"])
        assert len(pairs) == 6
        manifest = json.loads((workspace["root"] / "data.txt.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["seed"] == 11
        assert str(workspace["data"]) in manifest["outputs"]

    def test_same_seed_byte_identical(self, workspace, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (out1, out2):
            assert main(["gen", "--seed", "5", "--config", str(workspace["cfg"]),
                         "--out", str(out), "--pairs", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_identical_runs_record_identical_argv(self, workspace, tmp_path):
        argvs = []
        for _ in range(2):
            out = tmp_path / "a.txt"
            assert main(["gen", "--seed", "5", "--config", str(workspace["cfg"]),
                         "--out", str(out), "--pairs", "2"]) == 0
            argvs.append(json.loads((tmp_path / "a.txt.manifest.json").read_text())["argv"])
        assert argvs[0] == argvs[1]
        assert "fn" not in argvs[0] and argvs[0]["seed"] == 5

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("scene.bogus_key = 3\n")
        code = main(["gen", "--seed", "0", "--config", str(bad), "--out", str(tmp_path / "x.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "line 1" in err

    def test_scene_that_cannot_be_placed_exit_2(self, tmp_path, capsys):
        """No pose keeps 80% of a half-metre-deep scene in view: one error line naming the
        pair's seed, no output file."""
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("scene.max_rotation_deg = 180\nscene.depth_min = 0.5\n"
                       "scene.depth_max = 1.0\n")
        out = tmp_path / "x.txt"
        code = main(["gen", "--seed", "204", "--pairs", "1", "--config", str(cfg),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: pair seed 204: no pose with 80% shared visibility in 100 draws"]
        assert not out.exists()

    def test_scene_pairs_is_an_unknown_key(self, tmp_path, capsys):
        """The pair count is gen's --pairs, not a config key."""
        cfg = tmp_path / "pairs.cfg"
        cfg.write_text("scene.n = 16\nscene.pairs = 24\n")
        out = tmp_path / "x.txt"
        assert main(["gen", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: line 2: unknown key 'scene.pairs'"]
        assert not out.exists()

    def test_default_is_100_pairs(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("scene.n = 16\n")
        out = tmp_path / "x.txt"
        assert main(["gen", "--seed", "1", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(read_dataset(out)) == 100
        assert json.loads((tmp_path / "x.txt.manifest.json").read_text())["argv"]["pairs"] == 100

    def test_missing_seed_exits_2(self, workspace, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--config", str(workspace["cfg"]), "--out", str(tmp_path / "x.txt")])
        assert exc.value.code == 2


class TestTrain:
    def test_outputs_exist(self, workspace):
        ckpt = workspace["ckpt"]
        assert ckpt.exists()
        assert (workspace["root"] / "model.bin.netconfig").exists()
        log = (workspace["root"] / "model.bin.trainlog.csv").read_text().splitlines()
        assert log[0] == "step,loss,val_map5"
        assert len(log) >= 2  # header plus at least one row

    def test_step_counter_in_checkpoint(self, workspace):
        arrays = read_checkpoint_arrays(workspace["ckpt"])
        assert int(arrays["__step__"]) == 10

    def test_resume_continues_counter(self, workspace, tmp_path):
        out = tmp_path / "resumed.bin"
        code = main(["train", "--seed", "2", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--out", str(out),
                     "--steps", "5", "--resume", str(workspace["ckpt"])])
        assert code == 0
        assert int(read_checkpoint_arrays(out)["__step__"]) == 15

    def test_preset_line_exit_2(self, workspace, tmp_path, capsys):
        """There is no preset: the section defaults are the desk run, paper.cfg the full one."""
        cfg = tmp_path / "preset.cfg"
        cfg.write_text("scene.n = 48\npreset = paper\n")
        out = tmp_path / "out.bin"
        code = main(["train", "--seed", "0", "--config", str(cfg), "--dataset",
                     str(workspace["data"]), "--out", str(out), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: line 2: unknown key 'preset'"]
        assert not out.exists()

    def test_loss_kind_l2_exit_2(self, workspace, tmp_path, capsys):
        """The L2 essential loss is gone: a config that asks for it is bad input."""
        cfg = tmp_path / "l2.cfg"
        cfg.write_text("scene.n = 48\nloss.kind = l2\n")
        out = tmp_path / "out.bin"
        code = main(["train", "--seed", "0", "--config", str(cfg), "--dataset",
                     str(workspace["data"]), "--out", str(out), "--steps", "1"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: line 2: loss.kind: unknown essential loss kind 'l2'"]
        assert not out.exists()

    def test_resume_without_sidecar_exit_4(self, workspace, tmp_path, capsys):
        """As compare does, train --resume names the missing .netconfig sidecar."""
        import shutil

        ckpt = tmp_path / "bare.bin"
        shutil.copy(workspace["ckpt"], ckpt)
        code = main(["train", "--seed", "2", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--out", str(tmp_path / "out.bin"),
                     "--steps", "1", "--resume", str(ckpt)])
        assert code == 4
        assert f"error: network config not found: {ckpt}.netconfig" in capsys.readouterr().err.splitlines()

    def test_resume_echoes_the_checkpoint_network(self, workspace, tmp_path):
        """A resumed run under a config without net.* keys records the network it trained."""
        text = workspace["cfg"].read_text()
        iterative, plain = tmp_path / "iter.cfg", tmp_path / "plain.cfg"
        iterative.write_text(text + "net.iterative = true\n")
        plain.write_text("".join(line + "\n" for line in text.splitlines()
                                 if not line.startswith("net.")))
        base = ["train", "--seed", "2", "--dataset", str(workspace["data"]), "--steps", "2"]
        first, second = tmp_path / "m1.bin", tmp_path / "m2.bin"
        assert main(base + ["--config", str(iterative), "--out", str(first)]) == 0
        assert main(base + ["--config", str(plain), "--out", str(second),
                            "--resume", str(first)]) == 0
        trained = read_network_config(f"{first}.netconfig")
        assert trained.iterative and read_network_config(f"{second}.netconfig") == trained
        echo = json.loads((tmp_path / "m2.bin.manifest.json").read_text())["config"]
        assert {k[len("net."):]: v for k, v in echo.items() if k.startswith("net.")} == asdict(trained)

    def test_resume_with_another_net_value_exit_2(self, workspace, tmp_path, capsys):
        """A net.* key at a value the resumed checkpoint lacks names its line; no step runs."""
        lines = workspace["cfg"].read_text().splitlines()
        line = lines.index("net.channels = 8") + 1
        lines[line - 1] = "net.channels = 16"
        cfg = tmp_path / "wider.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.bin"
        code = main(["train", "--seed", "2", "--config", str(cfg), "--dataset", str(workspace["data"]),
                     "--out", str(out), "--steps", "1", "--resume", str(workspace["ckpt"])])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: line {line}: net.channels: 16 differs from the resumed checkpoint's 8"]
        assert not out.exists() and not (tmp_path / "out.bin.trainlog.csv").exists()

    def test_resume_matches_uninterrupted_run(self, workspace, tmp_path):
        """N steps then --resume for M more give the checkpoint and log rows of N + M steps."""
        base = ["train", "--seed", "2", "--config", str(workspace["cfg"]),
                "--dataset", str(workspace["data"])]
        whole, first, second = tmp_path / "whole.bin", tmp_path / "first.bin", tmp_path / "second.bin"
        assert main(base + ["--out", str(whole), "--steps", "12"]) == 0
        assert main(base + ["--out", str(first), "--steps", "7"]) == 0
        assert main(base + ["--out", str(second), "--steps", "5", "--resume", str(first)]) == 0
        assert second.read_bytes() == whole.read_bytes()

        def logged(*checkpoints):
            """Log rows at multiples of log_every; every run also logs its last step."""
            rows = []
            for ckpt in checkpoints:
                lines = ckpt.with_name(ckpt.name + ".trainlog.csv").read_text().splitlines()[1:]
                rows += [line for line in lines if int(line.split(",")[0]) % 5 == 0]
            return rows

        assert [row.split(",")[0] for row in logged(whole)] == ["5", "10"]
        assert logged(first, second) == logged(whole)


class TestEval:
    """One method evaluated by `compare --methods m`."""

    def test_ransac_method_needs_no_checkpoint(self, workspace, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "ransac",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("method,")
        assert lines[1].startswith("ransac,")

    def test_net_without_checkpoint_exit_4(self, workspace, tmp_path):
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "net",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 4

    def test_net_with_bad_checkpoint_path_exit_4(self, workspace, tmp_path):
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "net",
                     "--checkpoint", str(tmp_path / "missing.bin"),
                     "--out", str(tmp_path / "m.csv")])
        assert code == 4

    @pytest.mark.parametrize("cut", [30, 16])
    def test_truncated_checkpoint_exit_2(self, workspace, tmp_path, capsys, cut):
        import shutil

        ckpt = tmp_path / "cut.bin"
        ckpt.write_bytes(workspace["ckpt"].read_bytes()[:cut])
        shutil.copy(str(workspace["ckpt"]) + ".netconfig", str(ckpt) + ".netconfig")
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "net",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "cut.bin" in capsys.readouterr().err

    def test_retired_key_at_other_value_exit_2(self, workspace, tmp_path, capsys):
        import shutil

        ckpt = tmp_path / "legacy.bin"
        shutil.copy(workspace["ckpt"], ckpt)
        sidecar = workspace["ckpt"].with_name(workspace["ckpt"].name + ".netconfig").read_text()
        (tmp_path / "legacy.bin.netconfig").write_text(sidecar + "block_order=norm_first\n")
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "net",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"line {len(sidecar.splitlines()) + 1}: unknown key 'block_order'" in err

    def test_format_1_checkpoint_exit_2(self, workspace, tmp_path, capsys):
        """Format 1 (no checksum trailer) is no longer read; it is a corrupt checkpoint."""
        import shutil

        blob = workspace["ckpt"].read_bytes()
        ckpt = tmp_path / "v1.bin"
        ckpt.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:-4])
        shutil.copy(str(workspace["ckpt"]) + ".netconfig", str(ckpt) + ".netconfig")
        assert self.eval_net(workspace, tmp_path, ckpt) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "v1.bin: unsupported checkpoint version 1" in err

    def test_overflowing_record_exit_2(self, workspace, tmp_path, capsys):
        """A `gen` record scaled by 1e200 names its line instead of loading with every label 0."""
        pairs = read_dataset(workspace["data"])
        pairs[1] = replace(pairs[1], correspondences=pairs[1].correspondences * 1e200,
                           labels=np.zeros_like(pairs[1].labels))
        data = tmp_path / "scaled.txt"
        data.write_text("".join(pair_to_line(pair) + "\n" for pair in pairs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                         "--dataset", str(data), "--methods", "ransac",
                         "--out", str(tmp_path / "m.csv")])
        assert code == 2
        assert "error: line 2: correspondence coordinates overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("key, scale, words", [("t_gt", 0.0, "translation norm below 1e-12"),
                                                   ("r_gt", 2.0, "rotation is not proper"),
                                                   ("t_gt", 2.0, "translation is not unit norm")],
                             ids=["zero-t", "scaled-r", "scaled-t"])
    def test_bad_pose_record_exit_2(self, workspace, tmp_path, capsys, key, scale, words):
        """A pose that e_gt matches only up to scale names its line in one error line."""
        lines = workspace["data"].read_text().splitlines()
        record = json.loads(lines[2])
        record[key] = [scale * v for v in record[key]]
        lines[2] = json.dumps(record)
        data = tmp_path / "bad_pose.txt"
        data.write_text("\n".join(lines) + "\n")
        code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(data), "--methods", "ransac",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 3: bad pose: ") and words in err[0]

    @staticmethod
    def eval_net(workspace, tmp_path, ckpt):
        return main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "net",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "m.csv")])

    def test_flipped_byte_in_record_data_exit_2(self, workspace, tmp_path, capsys):
        import shutil

        blob = bytearray(workspace["ckpt"].read_bytes())
        first = read_checkpoint_arrays(workspace["ckpt"])
        name = next(iter(first))
        # header (16 bytes), name length, name, rank, dims, then the first record's data
        data = 16 + 4 + len(name) + 4 + 8 * first[name].ndim
        blob[data + 3] ^= 0x10
        ckpt = tmp_path / "flipped.bin"
        ckpt.write_bytes(bytes(blob))
        shutil.copy(str(workspace["ckpt"]) + ".netconfig", str(ckpt) + ".netconfig")
        assert self.eval_net(workspace, tmp_path, ckpt) == 2
        err = capsys.readouterr().err
        assert "flipped.bin" in err and "checksum" in err

    def test_checkpoint_of_another_network_exit_2(self, workspace, tmp_path, capsys):
        """A desk `full` checkpoint beside a PointCN sidecar names a record the sidecar lacks."""
        from twoview.autodiff import save_checkpoint
        from twoview.config import write_network_config
        from twoview.network import Network, desk_config

        ckpt = tmp_path / "full.bin"
        save_checkpoint(Network(desk_config(), seed=0).store, ckpt)
        write_network_config(desk_config(use_pool=False), str(ckpt) + ".netconfig")
        assert self.eval_net(workspace, tmp_path, ckpt) == 2
        err = capsys.readouterr().err
        assert "full.bin" in err and "'net.pool.head.bn.gamma'" in err

    def test_repeated_eval_identical_csv(self, workspace, tmp_path):
        outs = []
        for name in ("m1.csv", "m2.csv"):
            out = tmp_path / name
            code = main(["compare", "--seed", "3", "--config", str(workspace["cfg"]),
                         "--dataset", str(workspace["data"]), "--methods", "net",
                         "--checkpoint", str(workspace["ckpt"]), "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCompare:
    def test_multi_method_rows(self, workspace, tmp_path):
        out = tmp_path / "compare.csv"
        code = main(["compare", "--seed", "4", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]),
                     "--methods", "ransac,net,net+ransac",
                     "--checkpoint", str(workspace["ckpt"]), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["method", "ransac", "net", "net+ransac"]

    @staticmethod
    def assert_usage_error(workspace, tmp_path, capsys, methods):
        out = tmp_path / "c.csv"
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--seed", "4", "--config", str(workspace["cfg"]),
                  "--dataset", str(workspace["data"]), "--methods", methods,
                  "--checkpoint", str(workspace["ckpt"]), "--out", str(out)])
        assert exc.value.code == 2
        assert "--methods" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "c.csv.manifest.json").exists()

    def test_pointcn_is_a_usage_error(self, workspace, tmp_path, capsys):
        # the former alias of net is not a method; each variant's own checkpoint is `net`
        self.assert_usage_error(workspace, tmp_path, capsys, "pointcn")

    @pytest.mark.parametrize("methods", ["ransac,bogus", ",", ""])
    def test_unknown_or_empty_methods_are_a_usage_error(self, workspace, tmp_path, capsys,
                                                         methods):
        self.assert_usage_error(workspace, tmp_path, capsys, methods)

    def test_eval_is_not_a_command(self, workspace, tmp_path):
        """`compare --methods m` is the one evaluation command."""
        out = tmp_path / "m.csv"
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--seed", "3", "--dataset", str(workspace["data"]), "--method", "ransac",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_learned_method_without_checkpoint_exit_4(self, workspace, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["compare", "--seed", "4", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "ransac,net+ransac",
                     "--out", str(out)])
        assert code == 4
        assert not out.exists()

    def test_rows_equal_one_eval_per_method(self, workspace, tmp_path, capsys):
        """Each row of a several-method compare is the row of that method compared alone."""
        common = ["--seed", "4", "--config", str(workspace["cfg"]),
                  "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"])]
        methods = ["net+ransac", "ransac", "net"]
        assert main(["compare", *common, "--methods", ",".join(methods),
                     "--out", str(tmp_path / "c.csv")]) == 0
        compared = capsys.readouterr().out.splitlines()
        rows = (tmp_path / "c.csv").read_text().splitlines()
        for i, method in enumerate(methods):
            out = tmp_path / f"{i}.csv"
            assert main(["compare", *common, "--methods", method, "--out", str(out)]) == 0
            assert capsys.readouterr().out.splitlines() == [compared[i]]
            assert out.read_text().splitlines() == [rows[0], rows[1 + i]]
        for name in ("c.csv", "0.csv"):
            assert json.loads((tmp_path / f"{name}.manifest.json").read_text())["command"] == "compare"


class TestManifest:
    def test_records_steps_peak_memory_and_environment(self, workspace, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["compare", "--seed", "4", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--checkpoint", str(workspace["ckpt"]),
                     "--methods", "ransac,net", "--out", str(out)]) == 0
        for path in (workspace["data"], workspace["ckpt"], out):
            manifest = json.loads((path.parent / f"{path.name}.manifest.json").read_text())
            assert isinstance(manifest["peak_rss_mb"], float) and manifest["peak_rss_mb"] > 10
            env = manifest["environment"]
            assert set(env) == {"python", "numpy", "blas", "threads", "nproc", "git_sha"}
            assert env["numpy"] == np.__version__ and env["nproc"] == os.cpu_count()
            assert set(env["blas"]) == {"name", "version"}
            assert env["threads"] == {v: os.environ.get(v) for v in
                                      ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
            assert env["git_sha"] is None or len(env["git_sha"]) == 40
        train = json.loads((workspace["root"] / "model.bin.manifest.json").read_text())
        assert train["config"]["train.steps"] == 10  # --steps, not the config's count

    def test_records_the_process_minor_faults(self, workspace, tmp_path):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = tmp_path / "r.csv"
        assert main(["compare", "--seed", "4", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]), "--methods", "ransac",
                     "--out", str(out)]) == 0
        faults = json.loads((tmp_path / "r.csv.manifest.json").read_text())["minor_faults"]
        assert isinstance(faults, int)
        assert before <= faults <= resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class TestResponses:
    def test_export(self, workspace, tmp_path):
        out = tmp_path / "responses.csv"
        code = main(["responses", "--seed", "0", "--dataset", str(workspace["data"]),
                     "--pair", "0", "--checkpoint", str(workspace["ckpt"]),
                     "--top-k", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "cluster,rank,row,value"
        assert len(lines) == 1 + 3 * 4  # top_k rows per cluster

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_is_a_usage_error(self, workspace, tmp_path, capsys, top_k):
        out = tmp_path / "responses.csv"
        with pytest.raises(SystemExit) as exc:
            main(["responses", "--seed", "0", "--dataset", str(workspace["data"]),
                  "--checkpoint", str(workspace["ckpt"]), "--top-k", top_k, "--out", str(out)])
        assert exc.value.code == 2
        assert "--top-k" in capsys.readouterr().err
        assert not out.exists()

    def test_pair_out_of_range_exit_2(self, workspace, tmp_path):
        code = main(["responses", "--seed", "0", "--dataset", str(workspace["data"]),
                     "--pair", "99", "--checkpoint", str(workspace["ckpt"]),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2

    def test_model_without_pooling_exit_2(self, workspace, tmp_path, capsys):
        """A PointCN model has no unpool assignment to export: one error line, no traceback."""
        from twoview.autodiff import save_checkpoint
        from twoview.config import write_network_config
        from twoview.network import Network, desk_config

        cfg = desk_config(channels=8, blocks_before_pool=1, blocks_after_unpool=1, use_pool=False)
        ckpt = tmp_path / "pointcn.bin"
        save_checkpoint(Network(cfg, seed=0).store, ckpt)
        write_network_config(cfg, str(ckpt) + ".netconfig")
        out = tmp_path / "r.csv"
        code = main(["responses", "--seed", "0", "--dataset", str(workspace["data"]),
                     "--checkpoint", str(ckpt), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: cluster responses require a model with pooling (net.use_pool)"]
        assert not out.exists()


class TestBadConfigValues:
    @pytest.mark.parametrize("command, setting", [
        ("train", "train.log_every = 0"),
        ("train", "train.lr = -1"),
        ("train", "train.val_pairs = -1"),
        ("compare", "ransac.confidence = 2"),
        ("compare", "ransac.confidence = nan"),
        ("compare", "ransac.threshold = inf"),
        ("gen", "scene.pixel_noise = -1"),
        ("gen", "scene.pixel_noise = nan"),
        ("gen", "scene.pairs = 0"),     # not a key: the count is gen's --pairs
        ("gen", "scene.pairs = -3"),
        ("gen", "scene.max_rotation_deg = -400"),
        ("gen", "scene.max_rotation_deg = 180.5"),
        ("train", "loss.warmup = -5"),
    ])
    def test_rejected_with_key_and_line_exit_2(self, workspace, tmp_path, capsys, command, setting):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"scene.n = 48\n{setting}\n")
        out = tmp_path / "out"
        args = {"gen": [],
                "train": ["--dataset", str(workspace["data"]), "--steps", "2"],
                "compare": ["--dataset", str(workspace["data"]), "--methods", "ransac"]}[command]
        code = main([command, "--seed", "0", "--config", str(bad), "--out", str(out)] + args)
        assert code == 2
        err = capsys.readouterr().err
        assert setting.split(" =")[0] in err and "line 2" in err
        assert not out.exists()


    @pytest.mark.parametrize("pairs", ["0", "-2"])
    def test_gen_pairs_flag_below_one_is_a_usage_error(self, tmp_path, capsys, pairs):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1", "--out", str(out), "--pairs", pairs])
        assert exc.value.code == 2
        assert "--pairs" in capsys.readouterr().err
        assert not out.exists()


class TestTrainDivergence:
    @staticmethod
    def train_from_poisoned(workspace, tmp_path, value):
        # normalization layers absorb any finite weight scale, so the honest
        # way to hit the divergence path is a poisoned resume checkpoint
        import shutil

        from twoview.autodiff import save_checkpoint
        from twoview.config import read_network_config
        from twoview.network import Network

        poisoned = tmp_path / "poisoned.bin"
        cfg = read_network_config(str(workspace["ckpt"]) + ".netconfig")
        net = Network(cfg, seed=1)
        net.store["net.embed.weight"].data[0, 0] = value
        save_checkpoint(net.store, poisoned)
        shutil.copy(str(workspace["ckpt"]) + ".netconfig", str(poisoned) + ".netconfig")
        return main(["train", "--seed", "1", "--config", str(workspace["cfg"]),
                     "--dataset", str(workspace["data"]),
                     "--out", str(tmp_path / "boom.bin"), "--steps", "5",
                     "--resume", str(poisoned)])

    def test_nan_weights_exit_3_with_step_diagnostics(self, workspace, tmp_path, capsys):
        code = self.train_from_poisoned(workspace, tmp_path, np.nan)
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "step" in err

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_inf_weights_exit_3(self, workspace, tmp_path, capsys, value):
        with np.errstate(invalid="ignore"):
            code = self.train_from_poisoned(workspace, tmp_path, value)
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "non-finite" in err
        assert not (tmp_path / "boom.bin").exists()


class TestGradcheckCommand:
    def test_clean_build_exit_0(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "weighted_eightpoint_backward(eigendecomposition)" in out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_backward_exit_5(self, capsys, monkeypatch, gradcheck_rows):
        import twoview.autodiff as ad
        from twoview.gradcheck import _op_cases

        # the op rows alone; test_clean_build_exit_0 runs every row
        ops = {name for name, _, _ in _op_cases(np.random.default_rng(0))}
        gradcheck_rows(lambda name: name in ops)
        clean = ad.tanh

        def tanh(a):
            """tanh with its backward scaled by 1.05, which the checker must flag."""
            out = clean(a)
            if out._backward is not None:
                backward = out._backward
                out._backward = lambda g: backward(g * 1.05)
            return out

        monkeypatch.setattr(ad, "tanh", tanh)
        assert main(["gradcheck", "--seed", "0"]) == 5
        rows = capsys.readouterr().out.splitlines()
        assert any(row.split()[0] == "tanh" and row.split()[-1] == "FAIL" for row in rows)
