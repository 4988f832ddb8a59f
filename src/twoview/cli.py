"""Command-line interface: gen, train, compare, responses, gradcheck.

Every command requires an explicit --seed; determinism is part of the
contract. Exit codes: 0 success, 2 configuration/usage error, a corrupt
checkpoint or a scene `gen` cannot place, 3 training divergence (non-finite
loss), 4 missing checkpoint, 5 gradient check failure.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .autodiff import save_checkpoint, write_atomically
from .config import ConfigError, load_run_config, write_network_config
from .evalbench import (
    METHODS,
    MissingCheckpoint,
    checkpoint_config,
    compare_methods,
    export_cluster_responses,
    load_network,
    write_metrics_csv,
    write_responses_csv,
)
from .gradcheck import run_gradcheck
from .synthdata import MalformedRecord, RetryExhausted, generate_dataset, read_dataset, write_dataset
from .training import TrainingDiverged, run_training

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MISSING_CHECKPOINT = 4
EXIT_GRADCHECK = 5


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _git_sha():
    """HEAD of the git checkout this package runs from, or None outside one."""
    git = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            return next((line.split()[0] for line in fh if line.rstrip("\n").endswith(" " + ref)), None)
    except OSError:
        return None


def environment():
    """What a run's speed and memory depend on besides its inputs."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                    "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
    }


def write_manifest(out_path, command, args, config_echo, started, outputs):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    manifest = {
        "command": command,
        "argv": {k: v for k, v in args.items() if k != "fn"},  # fn: the handler, not an argument
        "config": {k: (v if not isinstance(v, float) else float(v)) for k, v in config_echo.items()},
        "seed": args.get("seed"),
        "started": started,
        "finished": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
        "outputs": {p: _sha256(p) for p in outputs if os.path.exists(p)},
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux: KiB
        "minor_faults": usage.ru_minflt,
        "environment": environment(),
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    write_atomically(out_path, lambda fh: fh.write(text.encode("utf-8")), prefix=".manifest-")


def _now():
    return datetime.now(timezone.utc).isoformat()


def cmd_gen(args):
    started = _now()
    run = load_run_config(args.config)
    scene = replace(run.scene, seed=args.seed)
    pairs = generate_dataset(scene, args.pairs, base_seed=args.seed)
    write_dataset(pairs, args.out)
    write_manifest(args.out + ".manifest.json", "gen", vars(args), run.echo(), started, [args.out])
    print(f"wrote {len(pairs)} pairs to {args.out}")
    return EXIT_OK


def cmd_train(args):
    started = _now()
    run = load_run_config(args.config, checkpoint_config(args.resume) if args.resume else None)
    pairs = read_dataset(args.dataset)
    params = run.train if args.steps is None else replace(run.train, steps=args.steps)

    log_path = args.out + ".trainlog.csv"
    with open(log_path, "w", encoding="utf-8", newline="") as log_fh:
        writer = csv.writer(log_fh, lineterminator="\n")
        writer.writerow(["step", "loss", "val_map5"])

        def log_cb(row):
            writer.writerow([row.step, f"{row.loss:.9g}", f"{row.val_map5:.6f}"])
            log_fh.flush()
            print(f"step {row.step}: loss {row.loss:.6f}, val mAP5 {row.val_map5:.2f}")

        net, rows, counters = run_training(pairs, run.network, run.loss, params,
                                           seed=args.seed, resume=args.resume, log_cb=log_cb)
    save_checkpoint(net.store, args.out)
    write_network_config(net.config, args.out + ".netconfig")
    echo = run.echo()
    echo["train.steps"] = params.steps
    if counters.skipped_samples:
        print(f"warning: {counters.skipped_samples} degenerate-label samples skipped")
    write_manifest(args.out + ".manifest.json", "train", vars(args), echo, started,
                   [args.out, args.out + ".netconfig", log_path])
    print(f"trained {params.steps} steps -> {args.out} (total steps {net.store.step})")
    return EXIT_OK


def cmd_compare(args):
    """`compare`: one metrics row per method."""
    started = _now()
    run = load_run_config(args.config)
    pairs = read_dataset(args.dataset)
    learned = [m for m in args.methods if m != "ransac"]
    net = None
    if learned:
        if not args.checkpoint:
            raise MissingCheckpoint(f"method {learned[0]!r} requires --checkpoint")
        net = load_network(args.checkpoint)
    ransac_cfg = replace(run.ransac, seed=args.seed)
    reports = compare_methods(pairs, args.methods, ransac_cfg, net, seed=args.seed)
    write_metrics_csv(reports, args.out)
    write_manifest(args.out + ".manifest.json", "compare", vars(args), run.echo(), started,
                   [args.out])
    for r in reports:
        print(f"{r.method}: mAP5 {r.map5:.2f} mAP10 {r.map10:.2f} mAP20 {r.map20:.2f} "
              f"P {r.precision:.2f} R {r.recall:.2f} F {r.fscore:.2f} "
              f"({r.pairs} pairs, {r.failures} failures)")
    return EXIT_OK


def cmd_responses(args):
    started = _now()
    pairs = read_dataset(args.dataset)
    if not 0 <= args.pair < len(pairs):
        raise ConfigError(f"--pair {args.pair} out of range for {len(pairs)} pairs")
    net = load_network(args.checkpoint)
    rows = export_cluster_responses(net, pairs[args.pair], top_k=args.top_k)
    write_responses_csv(rows, args.out)
    write_manifest(args.out + ".manifest.json", "responses", vars(args), {}, started, [args.out])
    print(f"wrote {len(rows)} responses to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args):
    rows, ok = run_gradcheck(seed=args.seed)
    width = max(len(name) for name, _, _ in rows)
    for name, err, passed in rows:
        print(f"{name:<{width}}  {err:12.3e}  {'PASS' if passed else 'FAIL'}")
    if not ok:
        failing = [name for name, _, passed in rows if not passed]
        print(f"gradcheck FAILED: {', '.join(failing)}")
        return EXIT_GRADCHECK
    print(f"gradcheck passed ({len(rows)} cases)")
    return EXIT_OK


def _positive_int(raw):
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _method_list(raw):
    methods = [m.strip() for m in raw.split(",") if m.strip()]
    if not methods or any(m not in METHODS for m in methods):
        raise argparse.ArgumentTypeError(
            f"expected a comma list from {','.join(METHODS)}, got {raw!r}")
    return methods


def build_parser():
    parser = argparse.ArgumentParser(prog="twoview",
                                     description="differentiable two-view geometry toolkit")

    def add_common(p, needs_config=True):
        p.add_argument("--seed", type=int, required=True, help="seed for all randomness")
        if needs_config:
            p.add_argument("--config", default=None, help="flat key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--pairs", type=_positive_int, default=100, help="number of pairs")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train a network")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("compare", help="evaluate one or more methods side by side")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--methods", required=True, type=_method_list,
                   help="comma list from ransac,net,net+ransac, one row each in this order")
    p.add_argument("--checkpoint", default=None, help="network for net and net+ransac")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("responses", help="export top-k unpool assignment responses")
    add_common(p, needs_config=False)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pair", type=int, default=0)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--top-k", type=_positive_int, default=15)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_responses)

    p = sub.add_parser("gradcheck", help="finite-difference check of every component")
    add_common(p, needs_config=False)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, MalformedRecord, RetryExhausted, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except TrainingDiverged as err:
        print(f"error: training diverged: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except MissingCheckpoint as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
