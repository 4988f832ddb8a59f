"""The acceptance-protocol driver at toy scale: a run, its restarts and a failed step."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "run_acceptance_protocol.py")


@pytest.fixture
def protocol(tmp_path):
    """A fresh copy of the driver writing to tmp_path, and the outputs of the steps it starts."""
    spec = importlib.util.spec_from_file_location("run_acceptance_protocol", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.CACHE = str(tmp_path)
    module.TRAIN_PAIRS, module.HELDOUT_PAIRS, module.SEEDS = 4, 2, (0,)
    module.VARIANTS = {"pointcn": ["net.use_pool = false"], "full": []}
    started = []
    run_cli = module.run_cli

    def recording(args, log):
        started.append(os.path.basename(args[args.index("--out") + 1]))
        run_cli(args, log)

    module.run_cli = recording
    return module, started


# summary.json fields that describe one invocation of the script, not the protocol's outputs
INVOCATION = ("invocation_wall_seconds", "invocation_steps_run")


def snapshot(directory):
    """Every file's bytes; summary.json as its JSON without the per-invocation fields."""
    files = {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}
    if "summary.json" in files:
        summary = json.loads(files["summary.json"])
        for key in INVOCATION:
            del summary[key]
        files["summary.json"] = summary
    return files


def test_restart_runs_only_the_steps_without_a_manifest(protocol, tmp_path):
    driver, started = protocol
    driver.main(["--steps", "2"])
    assert sorted(started) == sorted([
        "train.txt", "heldout.txt", "model_pointcn_s0.bin", "model_full_s0.bin",
        "metrics_ransac.csv", "metrics_pointcn_s0.csv", "metrics_full_s0.csv"])
    summary = (tmp_path / "summary.json").read_text()
    assert '"steps": 2' in summary and '"step_seconds_total"' in summary
    before = snapshot(tmp_path)

    started.clear()
    driver.main(["--steps", "2"])
    assert started == []
    assert snapshot(tmp_path) == before

    (tmp_path / "metrics_full_s0.csv.manifest.json").unlink()
    driver.main(["--steps", "2"])
    assert started == ["metrics_full_s0.csv"]
    assert (tmp_path / "metrics_full_s0.csv").read_bytes() == before["metrics_full_s0.csv"]


def test_restart_with_another_step_count_exits_before_any_step(protocol, tmp_path):
    driver, started = protocol
    driver.main(["--steps", "2"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"] == 2
    assert set(summary["step_peak_rss_mb"]) == set(summary["step_seconds"])
    assert all(mb > 0 for mb in summary["step_peak_rss_mb"].values())
    before = snapshot(tmp_path)

    started.clear()
    with pytest.raises(SystemExit) as stale:
        driver.main(["--steps", "3"])
    assert started == []
    assert snapshot(tmp_path) == before
    for model in ("model_pointcn_s0.bin", "model_full_s0.bin"):
        assert f"{model} (trained 2, --steps 3)" in str(stale.value)

    (tmp_path / "model_full_s0.bin.manifest.json").unlink()
    (tmp_path / "model_pointcn_s0.bin.manifest.json").unlink()
    driver.main(["--steps", "3"])
    assert sorted(started) == sorted(["model_pointcn_s0.bin", "model_full_s0.bin",
                                      "metrics_pointcn_s0.csv", "metrics_full_s0.csv"])
    assert json.loads((tmp_path / "summary.json").read_text())["steps"] == 3


def test_summary_records_each_steps_minor_faults(protocol, tmp_path):
    driver, _ = protocol
    driver.main(["--steps", "2"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    faults = summary["step_minor_faults"]
    assert set(faults) == set(summary["step_seconds"])
    assert all(isinstance(n, int) and n > 0 for n in faults.values())

    older = tmp_path / "metrics_ransac.csv.manifest.json"  # as written before the field existed
    manifest = json.loads(older.read_text())
    del manifest["minor_faults"]
    older.write_text(json.dumps(manifest))
    driver.main(["--steps", "2"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["step_minor_faults"] == {**faults, "metrics_ransac.csv": None}


def test_failed_step_stops_the_queue_and_names_its_log(protocol, tmp_path):
    driver, started = protocol
    driver.VARIANTS = {"bad": ["net.channels = 0"], "after": []}
    with pytest.raises(SystemExit) as failure:
        driver.main(["--steps", "2", "--jobs", "1"])
    log = tmp_path / "model_bad_s0.bin.console.log"
    assert "model_bad_s0.bin failed" in str(failure.value) and str(log) in str(failure.value)
    assert "net.channels" in log.read_text(encoding="utf-8")
    assert started == ["train.txt", "heldout.txt", "model_bad_s0.bin"]
    assert not os.path.exists(tmp_path / "model_bad_s0.bin.manifest.json")


def test_summary_records_the_invocations_wall_time_and_steps_run(protocol, tmp_path):
    driver, started = protocol
    driver.main(["--steps", "2"])
    first = json.loads((tmp_path / "summary.json").read_text())
    assert first["invocation_steps_run"] == len(started) == 7
    assert first["invocation_wall_seconds"] >= first["step_seconds_total"] / 2 > 0

    started.clear()
    driver.main(["--steps", "2"])
    restart = json.loads((tmp_path / "summary.json").read_text())
    assert started == [] and restart["invocation_steps_run"] == 0
    assert 0 < restart["invocation_wall_seconds"] < first["invocation_wall_seconds"]
    assert restart["step_seconds"] == first["step_seconds"]
