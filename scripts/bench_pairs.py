#!/usr/bin/env python3
"""Alternated parent/change benchmark pairs, written as one workload section of a BENCH file.

Runs `perfbench/run.py` from two checkouts, the parent's and the change's,
once per seed each for BENCHMARK.json's `run_seconds`, alternating which
side runs first: a new workload starts with the parent, and added seeds
continue the alternation of the pairs already in the file. Each run is a
fresh process in its own checkout's directory, so each side builds what
it runs from its own sources. The
section keeps every run's end-to-end metrics and its correct, attempted
and failed values, and summarises each metric by the quartiles of each
side's runs, the pairs in which the change is better (ties count for
neither side) and the ratio of the medians. With --trace-seed, one traced
run per side (parent first) adds the per-layer metrics.

The section goes into --out under `end_to_end.<workload>` (and
`per_layer_traced.<workload>`); other keys of an existing file are kept,
so one file collects every workload, and the pairs of a workload already
in the file stay, so a second invocation with new seeds adds pairs to
the same summary. With --claim METRIC, the file's `claim` states
whether the change is better in at least 9 of 10 pairs of the workload
and its median beats the parent's by more than the parent's
interquartile range; later runs of the claimed workload recompute it, and
each run of that workload prints the verdict after the metric lines.
Each workload section also records its provenance: the commit of each
side's checkout (null for a directory that is not a git checkout, such
as a `git archive` copy), the host and `twoview.cli.environment()`.
The exit code is 1 if any run was incorrect or did not report a result.

Usage: python3 scripts/bench_pairs.py --parent DIR --change DIR --workload eval-hard
           --seeds 1901-1910 --out BENCH_19.json [--trace-seed 1931] [--claim items_per_s]
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from twoview.cli import environment  # noqa: E402

SIDES = ("parent", "change")
CLAIM_SHARE = 0.9  # share of pairs the change must win for a claimed gain


def benchmark_settings(benchmark_path=os.path.join(ROOT, "BENCHMARK.json")):
    """({end-to-end metric name: "higher" or "lower"}, seconds per run) from the benchmark."""
    with open(benchmark_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["better"] for m in bench["end_to_end"]}, bench["run_seconds"]


def parse_seeds(text):
    """"1901-1905" or "1901,1903" (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """The JSON result (last stdout line) of one perfbench run, or None if it gave none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"{checkout}: no result (exit {proc.returncode}): {proc.stderr.strip()[-500:]}",
              file=sys.stderr)
        return None


def commit(checkout):
    """HEAD of the git checkout rooted at `checkout`, or None when it is not one."""
    try:
        proc = subprocess.run(["git", "-C", checkout, "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git at all
        return None
    top, _, head = proc.stdout.strip().partition("\n")
    if proc.returncode != 0 or os.path.realpath(top) != os.path.realpath(checkout):
        return None  # not in a checkout, or a directory inside another one
    return head


def provenance(checkouts):
    """Which commits ran where: each side's commit, the host and the environment."""
    return {"commits": {side: commit(checkouts[side]) for side in SIDES},
            "host": platform.node(), "environment": environment()}


def run_record(seed, result, metrics):
    """One run as the section keeps it; a missing result counts as incorrect."""
    if result is None:
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    values = result["metrics"]
    return {"seed": seed, "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": {m: values[m]["value"] for m in metrics if m in values}}


def _summary(runs):
    q1, median, q3 = np.percentile(runs, [25, 50, 75])
    return {"runs": [round(v, 4) for v in runs], "q1": round(float(q1), 4),
            "median": round(float(median), 4), "q3": round(float(q3), 4)}


def metric_section(parent_runs, change_runs, better):
    """Quartiles of each side, the pairs the change wins and the ratio of the medians."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))
    parent, change = _summary(parent_runs), _summary(change_runs)
    return {"better": better, "parent": parent, "change": change,
            "change_wins": f"{wins}/{len(parent_runs)}",
            "median_ratio": round(float(np.median(change_runs) / np.median(parent_runs)), 4)}


def workload_section(seeds, first, records, metrics):
    """records: {side: [run_record per seed]}; metrics: {name: better}."""
    complete = all(r["correct"] for side in SIDES for r in records[side])
    section = {
        "seeds": list(seeds), "first": list(first), "correct": complete,
        "failed": {side: sum(r["failed"] for r in records[side]) for side in SIDES},
        "attempted": {side: sum(r["attempted"] for r in records[side]) for side in SIDES},
        "runs": records, "metrics": {},
    }
    for name, better in metrics.items():
        values = [[r["metrics"].get(name) for r in records[side]] for side in SIDES]
        if all(v is not None for side in values for v in side):
            section["metrics"][name] = metric_section(*values, better)
    return section


def claim(section, workload, metric):
    """Whether `metric` improved: better in 9 of 10 pairs, by more than the parent's IQR."""
    if metric not in section["metrics"]:  # a run gave no value for it
        return {"metric": metric, "workload": workload, "met": False}
    m = section["metrics"][metric]
    wins, pairs = (int(x) for x in m["change_wins"].split("/"))
    gain = m["change"]["median"] - m["parent"]["median"]
    if m["better"] == "lower":
        gain = -gain
    iqr = round(m["parent"]["q3"] - m["parent"]["q1"], 4)
    return {"metric": metric, "workload": workload, "parent_median": m["parent"]["median"],
            "parent_iqr": iqr, "change_median": m["change"]["median"],
            "change_wins": m["change_wins"], "median_ratio": m["median_ratio"],
            "met": wins >= CLAIM_SHARE * pairs and gain > iqr}


def verdict(c):
    """One line stating a claim's verdict and the figures it rests on."""
    head = f"claim {c['metric']} on {c['workload']}: {'met' if c['met'] else 'not met'}"
    if "change_wins" not in c:
        return f"{head} (a run gave no value)"
    return (f"{head} (change better in {c['change_wins']}, median {c['parent_median']} -> "
            f"{c['change_median']}, parent IQR {c['parent_iqr']})")


def traced_section(results):
    """{metric: {side: value}} from one traced run per side."""
    names = [n for n in results["parent"]["metrics"] if n in results["change"]["metrics"]]
    return {n: {side: round(results[side]["metrics"][n]["value"], 4) for side in SIDES}
            for n in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--claim", metavar="METRIC")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    metrics, seconds = benchmark_settings()
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim {args.claim} is not an end-to-end metric: {sorted(metrics)}")
    bench = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    # pairs already in the file stay: new seeds add to them
    seeds, firsts, records = [], [], {side: [] for side in SIDES}
    earlier = bench.get("end_to_end", {}).get(args.workload)
    if earlier:
        seeds, firsts, records = earlier["seeds"], earlier["first"], earlier["runs"]
    if set(seeds) & set(args.seeds):
        parser.error(f"{args.out} already has {args.workload} runs for seeds "
                     f"{sorted(set(seeds) & set(args.seeds))}")

    for seed in args.seeds:
        order = SIDES[::-1] if firsts and firsts[-1] == SIDES[0] else SIDES
        firsts.append(order[0])
        for side in order:
            result = run_once(checkouts[side], args.workload, seed, seconds, 0)
            records[side].append(run_record(seed, result, metrics))
            shown = {m: round(v, 4) for m, v in records[side][-1]["metrics"].items()}
            print(f"{args.workload} seed {seed} {side}: {shown}", flush=True)
    section = workload_section(seeds + args.seeds, firsts, records, metrics)
    section["provenance"] = provenance(checkouts)
    bench.setdefault("end_to_end", {})[args.workload] = section
    stated = bench.get("claim", {})
    if args.claim is not None or stated.get("workload") == args.workload:
        bench["claim"] = claim(section, args.workload, args.claim or stated["metric"])
    if args.trace_seed is not None:
        traced = {side: run_once(checkouts[side], args.workload, args.trace_seed, seconds, 1)
                  for side in SIDES}
        if all(traced.values()):
            bench.setdefault("per_layer_traced", {})[args.workload] = traced_section(traced)
        section["correct"] = section["correct"] and all(t and t["correct"]
                                                        for t in traced.values())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for name, m in section["metrics"].items():
        print(f"{args.workload} {name}: {m['parent']['median']} -> {m['change']['median']} "
              f"(change better in {m['change_wins']}, median ratio {m['median_ratio']})")
    if bench.get("claim", {}).get("workload") == args.workload:
        print(verdict(bench["claim"]))
    if not section["correct"]:
        print("error: a run was incorrect or gave no result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
