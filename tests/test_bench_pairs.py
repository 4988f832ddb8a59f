"""scripts/bench_pairs.py on canned perfbench results: no benchmark runs here."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))
import bench_pairs  # noqa: E402

METRICS = {"setup_s": "lower", "items_per_s": "higher"}


def canned(items, setup=0.1, correct=True, attempted=100, failed=0):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"items_per_s": {"value": items, "unit": "1/s"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def records(values, **kw):
    return [bench_pairs.run_record(1900 + i, canned(v, **kw), METRICS)
            for i, v in enumerate(values)]


def test_seed_ranges():
    assert bench_pairs.parse_seeds("1901-1903,1910") == [1901, 1902, 1903, 1910]
    assert bench_pairs.parse_seeds("7") == [7]


def test_metrics_and_run_length_come_from_the_benchmark_file():
    metrics, seconds = bench_pairs.benchmark_settings()
    assert metrics["items_per_s"] == "higher" and metrics["peak_rss_mb"] == "lower"
    assert len(metrics) == 4
    with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert seconds == json.load(fh)["run_seconds"]


def test_metric_summary_counts_wins_by_direction_and_ties_for_neither_side():
    parent, change = [10.0, 12.0, 11.0, 13.0, 9.0], [11.0, 12.0, 10.0, 14.0, 10.0]
    higher = bench_pairs.metric_section(parent, change, "higher")
    assert higher["change_wins"] == "3/5"  # the tie (12, 12) counts for neither side
    assert bench_pairs.metric_section(parent, change, "lower")["change_wins"] == "1/5"
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    assert higher["parent"] == {"runs": parent, "q1": q1, "median": median, "q3": q3}
    assert higher["change"]["median"] == 11.0
    assert higher["median_ratio"] == round(11.0 / 11.0, 4)


def test_workload_section_totals_and_correctness():
    recs = {"parent": records([10.0, 11.0], failed=1), "change": records([12.0, 13.0])}
    section = bench_pairs.workload_section([1900, 1901], ["parent", "change"], recs, METRICS)
    assert section["correct"]
    assert section["failed"] == {"parent": 2, "change": 0}
    assert section["attempted"] == {"parent": 200, "change": 200}
    assert section["metrics"]["items_per_s"]["change_wins"] == "2/2"
    assert section["metrics"]["setup_s"]["change_wins"] == "0/2"
    assert section["runs"]["change"][1] == {"seed": 1901, "correct": True, "attempted": 100,
                                            "failed": 0, "metrics": {"items_per_s": 13.0,
                                                                     "setup_s": 0.1}}
    recs["change"][1] = bench_pairs.run_record(1901, None, METRICS)
    section = bench_pairs.workload_section([1900, 1901], ["parent", "change"], recs, METRICS)
    assert not section["correct"] and "items_per_s" not in section["metrics"]


@pytest.mark.parametrize("change, met", [
    ([11.0] * 9 + [9.0], True),            # 9 of 10 ahead, well past the parent's IQR
    ([11.0] * 8 + [9.0] * 2, False),       # 8 of 10 ahead
    ([10.01] * 10, False),                 # always ahead, but inside the parent's IQR
])
def test_claim_needs_nine_of_ten_and_the_parent_iqr(change, met):
    parent = [9.8, 10.2] * 5
    section = {"metrics": {"items_per_s": bench_pairs.metric_section(parent, change, "higher")}}
    got = bench_pairs.claim(section, "eval-hard", "items_per_s")
    assert got["met"] is met and got["parent_iqr"] == 0.4


def test_main_alternates_sides_merges_runs_and_fails_on_an_incorrect_run(tmp_path,
                                                                            monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        assert seconds == bench_pairs.benchmark_settings()[1]
        calls.append((checkout, seed, trace))
        if (checkout, seed) == ("c", 7):
            return None  # a run that reported nothing
        if trace:
            return {"correct": True, "attempted": 1, "failed": 0,
                    "metrics": {"ransac.self_s": {"value": 1.0 if checkout == "p" else 0.8}}}
        return canned(10.0 if checkout == "p" else 11.0, correct=not (checkout == "c"
                                                                       and seed == 3))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"change": "kept"}))
    args = ["--parent", "p", "--change", "c", "--workload", "eval-hard", "--out", str(out)]
    assert bench_pairs.main(args + ["--seeds", "1-2", "--claim", "items_per_s",
                                    "--trace-seed", "9"]) == 0
    assert calls == [("p", 1, 0), ("c", 1, 0), ("c", 2, 0), ("p", 2, 0), ("p", 9, 1), ("c", 9, 1)]
    bench = json.loads(out.read_text())
    assert bench["change"] == "kept"
    assert bench["end_to_end"]["eval-hard"]["first"] == ["parent", "change"]
    assert bench["claim"]["change_wins"] == "2/2"
    assert bench["per_layer_traced"]["eval-hard"] == {"ransac.self_s": {"parent": 1.0,
                                                                        "change": 0.8}}
    # "p" and "c" are no git checkouts: their commits are null
    provenance = bench["end_to_end"]["eval-hard"]["provenance"]
    assert provenance["commits"] == {"parent": None, "change": None}
    assert isinstance(provenance["host"], str)
    assert {"python", "numpy", "blas", "threads", "nproc", "git_sha"} <= set(provenance["environment"])
    # a second invocation adds its pairs to the workload's, continuing the alternation, and
    # restates the claim over all of them; a seed already there is refused
    calls.clear()
    assert bench_pairs.main(args + ["--seeds", "4-5"]) == 0
    assert calls == [("p", 4, 0), ("c", 4, 0), ("c", 5, 0), ("p", 5, 0)]
    bench = json.loads(out.read_text())
    section = bench["end_to_end"]["eval-hard"]
    assert section["seeds"] == [1, 2, 4, 5]
    assert section["first"] == ["parent", "change", "parent", "change"]
    assert section["metrics"]["items_per_s"]["change_wins"] == "4/4"
    assert bench["claim"]["metric"] == "items_per_s" and bench["claim"]["change_wins"] == "4/4"
    with pytest.raises(SystemExit):
        bench_pairs.main(args + ["--seeds", "2-5"])
    with pytest.raises(SystemExit):  # a claim needs an end-to-end metric
        bench_pairs.main(args + ["--seeds", "6", "--claim", "items_per_second"])
    # another workload starts with the parent and leaves the claim alone
    calls.clear()
    assert bench_pairs.main(args + ["--seeds", "3", "--workload", "eval-easy"]) == 1
    assert calls == [("p", 3, 0), ("c", 3, 0)]
    bench = json.loads(out.read_text())
    assert set(bench["end_to_end"]) == {"eval-hard", "eval-easy"}
    assert not bench["end_to_end"]["eval-easy"]["correct"]
    assert bench["claim"]["workload"] == "eval-hard" and bench["claim"]["met"]
    # a claim on a workload where a run gave no value is not met
    assert bench_pairs.main(args + ["--seeds", "7", "--workload", "eval-easy",
                                    "--claim", "items_per_s"]) == 1
    assert json.loads(out.read_text())["claim"] == {"metric": "items_per_s",
                                                    "workload": "eval-easy", "met": False}


def test_main_prints_the_verdict_of_a_claim_on_its_workload(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, workload, seed, seconds, trace:
                        canned(10.0, setup=0.2 if checkout == "p" else 0.15 - seed / 1000))
    out = tmp_path / "BENCH.json"
    args = ["--parent", "p", "--change", "c", "--out", str(out)]
    assert bench_pairs.main(args + ["--workload", "eval-easy", "--seeds", "1-10",
                                    "--claim", "setup_s"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[-3:-1]] == ["eval-easy setup_s",
                                                               "eval-easy items_per_s"]
    assert lines[-1] == ("claim setup_s on eval-easy: met (change better in 10/10, "
                         "median 0.2 -> 0.1445, parent IQR 0.0)")
    # a run of another workload leaves the claim and prints no verdict
    assert bench_pairs.main(args + ["--workload", "eval-hard", "--seeds", "1"]) == 0
    assert "claim" not in capsys.readouterr().out


def test_verdict_of_a_claim_without_values():
    assert bench_pairs.verdict({"metric": "setup_s", "workload": "eval-easy", "met": False}) == (
        "claim setup_s on eval-easy: not met (a run gave no value)")


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_commit_is_the_checkouts_head_or_null(tmp_path):
    checkout, copy = tmp_path / "checkout", tmp_path / "copy"
    checkout.mkdir()
    copy.mkdir()
    git = ["git", "-C", str(checkout), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "x"], check=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], check=True, capture_output=True,
                          text=True).stdout.strip()
    assert bench_pairs.commit(str(checkout)) == head
    assert bench_pairs.commit(str(copy)) is None  # as a `git archive` copy
    (checkout / "sub").mkdir()
    assert bench_pairs.commit(str(checkout / "sub")) is None  # inside a checkout, not one
