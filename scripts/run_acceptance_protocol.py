#!/usr/bin/env python3
"""Build the benchmark artifacts the slow acceptance tests consume.

Runs the full desk-scale protocol on the regime of configs/hard.cfg:
dataset generation, three architecture variants (plus the two-stage
refinement model) trained with three seeds each, and the evaluation sweep
against the RANSAC baseline. Every step is one CLI command, so manifests
and logs are produced as in normal use, and up to --jobs steps run at
once. Results land in acceptance_cache/ next to the repository root.

A step is done when its output's .manifest.json exists (the CLI writes it
last, atomically) and, for the steps that train or evaluate a network,
records --steps as train.steps, so a restarted run skips every finished
step. A restart whose --steps differs from the count a cached model was
trained with exits non-zero before any step starts, naming each such
model; nothing is retrained or overwritten. After a step fails no queued
step starts, the running ones finish, and the driver exits non-zero
naming the failed step and its log. summary.json also records this
invocation's wall time and how many steps it ran, as opposed to found done.

Usage: python3 scripts/run_acceptance_protocol.py [--jobs 2] [--steps N]
"""

import argparse
import csv
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from twoview.autodiff import write_atomically  # noqa: E402
from twoview.evalbench import METRICS_HEADER  # noqa: E402

CACHE = os.path.join(ROOT, "acceptance_cache")
REGIME = os.path.join(ROOT, "configs", "hard.cfg")
SEEDS = (0, 1, 2)

TRAIN_PAIRS = 2000
HELDOUT_PAIRS = 200
TRAIN_SEED = 10_000
HELDOUT_SEED = 900_000
EVAL_SEED = 77

VARIANTS = {
    "pointcn": ["net.use_pool = false"],
    "pool": ["net.level2_kind = pointcn"],
    "full": [],
    "iter": ["net.iterative = true",
             "net.blocks_before_pool = 1",
             "net.blocks_after_unpool = 1",
             "net.level2_blocks = 1"],
}


def in_cache(name):
    return os.path.join(CACHE, name)


def write_configs(steps):
    """One config per variant: the regime, the step count, then the variant's lines."""
    with open(REGIME, "r", encoding="utf-8") as fh:
        regime = fh.read().rstrip("\n")
    os.makedirs(CACHE, exist_ok=True)
    for variant, lines in VARIANTS.items():
        with open(in_cache(f"{variant}.cfg"), "w", encoding="utf-8") as fh:
            fh.write("\n".join([regime, f"train.steps = {steps}", *lines]) + "\n")


def run_cli(args, log):
    """One CLI command, single-threaded, with its output in `log`; raises if it fails."""
    env = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", **os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    with open(log, "w", encoding="utf-8") as out:
        subprocess.run([sys.executable, "-m", "twoview.cli", *args], check=True, env=env,
                       stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)


def step(command, out, *args, steps=None):
    """(output path, CLI arguments, train.steps its manifest must record or None) of one step."""
    return out, [command, "--out", out, *map(str, args)], steps


def protocol_steps(steps):
    """Generation, training and evaluation steps; each list needs the ones before it."""
    train, heldout = in_cache("train.txt"), in_cache("heldout.txt")
    runs = [(variant, seed) for variant in VARIANTS for seed in SEEDS]
    generation = [
        step("gen", train, "--seed", TRAIN_SEED, "--config", REGIME, "--pairs", TRAIN_PAIRS),
        step("gen", heldout, "--seed", HELDOUT_SEED, "--config", REGIME, "--pairs", HELDOUT_PAIRS),
    ]
    training = [step("train", in_cache(f"model_{v}_s{s}.bin"), "--seed", s,
                     "--config", in_cache(f"{v}.cfg"), "--dataset", train, steps=steps)
                for v, s in runs]
    evaluation = [step("eval", in_cache("metrics_ransac.csv"), "--seed", EVAL_SEED,
                       "--config", REGIME, "--dataset", heldout, "--method", "ransac")]
    evaluation += [step("compare", in_cache(f"metrics_{v}_s{s}.csv"), "--seed", EVAL_SEED,
                        "--config", in_cache(f"{v}.cfg"), "--dataset", heldout,
                        "--methods", "net,net+ransac",
                        "--checkpoint", in_cache(f"model_{v}_s{s}.bin"), steps=steps)
                   for v, s in runs]
    return generation, training, evaluation


def read_manifest(out):
    with open(out + ".manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def done(out, steps):
    """The step's manifest exists and, if `steps` is set, records it as train.steps."""
    if not os.path.exists(out + ".manifest.json"):
        return False
    return steps is None or read_manifest(out)["config"]["train.steps"] == steps


def check_cached_models(training):
    """Exit if a finished training step was trained for another step count."""
    stale = [f"{os.path.basename(out)} (trained {read_manifest(out)['config']['train.steps']}, "
             f"--steps {steps})" for out, _, steps in training
             if os.path.exists(out + ".manifest.json") and not done(out, steps)]
    if stale:
        raise SystemExit(f"[protocol] cached models trained for another step count: "
                         f"{', '.join(stale)}; delete them or rerun with their --steps")


def run_steps(steps, jobs):
    """Run every step whose manifest is missing, `jobs` at a time; exit on a failure.

    Returns how many steps it ran.
    """
    failed = threading.Event()

    def run(out, args):
        if failed.is_set():  # checked by the worker, so no queued step starts after a failure
            return
        print(f"[protocol] {os.path.basename(out)}", flush=True)
        try:
            run_cli(args, out + ".console.log")
        except BaseException:
            failed.set()
            raise

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {out: pool.submit(run, out, args) for out, args, count in steps
                   if not done(out, count)}
    for out, future in futures.items():
        if future.exception() is not None:
            raise SystemExit(f"[protocol] {os.path.basename(out)} failed: {future.exception()}; "
                             f"see {out}.console.log")
    return len(futures)


def read_metrics(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {row["method"]: {key: float(row[key]) for key in METRICS_HEADER[1:]}
                for row in csv.DictReader(fh)}


def step_seconds(manifest):
    """Wall seconds of a finished step, from the start and finish its manifest records."""
    started, finished = (datetime.fromisoformat(manifest[k]) for k in ("started", "finished"))
    return round((finished - started).total_seconds(), 3)


def write_summary(steps, outputs, wall_seconds, steps_run):
    """summary.json; the two `invocation_` fields describe this invocation alone."""
    summary = {"steps": steps, "seeds": list(SEEDS),
               "invocation_wall_seconds": round(wall_seconds, 6),
               "invocation_steps_run": steps_run,
               "ransac_map5": read_metrics(in_cache("metrics_ransac.csv"))["ransac"]["mAP5"]}
    for variant in VARIANTS:
        per_seed = {}
        for seed in SEEDS:
            rows = read_metrics(in_cache(f"metrics_{variant}_s{seed}.csv"))
            per_seed[str(seed)] = {
                "net_map5": rows["net"]["mAP5"],
                "net_ransac_map5": rows["net+ransac"]["mAP5"],
                "net_precision": rows["net"]["precision"],
                "net_recall": rows["net"]["recall"],
                "net_failures": rows["net"]["failures"],
            }
        summary[variant] = per_seed
    manifests = {os.path.basename(out): read_manifest(out) for out in outputs}
    summary["step_seconds"] = {name: step_seconds(m) for name, m in manifests.items()}
    summary["step_seconds_total"] = round(sum(summary["step_seconds"].values()), 3)
    # None for a step whose manifest predates the field
    summary["step_peak_rss_mb"] = {name: m.get("peak_rss_mb") for name, m in manifests.items()}
    summary["step_minor_faults"] = {name: m.get("minor_faults") for name, m in manifests.items()}
    text = json.dumps(summary, indent=2, sort_keys=True)
    write_atomically(in_cache("summary.json"), lambda fh: fh.write(text.encode("utf-8")),
                     prefix=".summary-")
    return text


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--steps", type=int, default=10_000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    phases = protocol_steps(args.steps)
    check_cached_models(phases[1])
    write_configs(args.steps)
    steps_run = sum(run_steps(steps, args.jobs) for steps in phases)
    print(write_summary(args.steps, [out for steps in phases for out, _, _ in steps],
                        time.perf_counter() - start, steps_run))
    print(f"[protocol] wrote {in_cache('summary.json')}")


if __name__ == "__main__":
    main()
