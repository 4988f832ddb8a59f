"""twoview benchmark: one workload, one seed, one process, single-threaded BLAS.

    python3 perfbench/run.py --workload eval-hard --seed 1 --seconds 20 --trace 0

With --trace 0 the end-to-end metrics are measured untraced. With
--trace 1 a fixed number of rounds runs four times, twice untraced and
twice with every twoview layer wrapped in spans; the per-layer metrics
and the tracing overhead come from those passes. Human-readable lines go
first; the last line of stdout is the JSON result. The exit code is 1 if
an output check failed and 2 if the program cannot be found or the
arguments are wrong.
"""

import os

# the thread count must be fixed before numpy loads BLAS
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
THREADS_BEFORE_NUMPY = {v: os.environ[v] for v in THREAD_VARS}

import argparse
import json
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's src/ and this directory first on the path; fail if twoview is elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "twoview", "__init__.py")):
        _fail(f"twoview sources not found under {src}")
    sys.path[:0] = [src, HERE]
    import twoview
    if os.path.dirname(os.path.dirname(os.path.abspath(twoview.__file__))) != src:
        _fail(f"imported twoview from {twoview.__file__}, not from {src}")


def _git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def environment(seed, workload):
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads_before_numpy": THREADS_BEFORE_NUMPY,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "seed": seed,
        "workload": workload.name,
        "params": workload.params(),
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(w, seed, seconds, workdir):
    import workloads as wl
    inputs, tally, setup_s = wl.measure_for(w, seed, seconds, workdir)
    problems = wl.check_outputs(w, inputs, seed, tally)
    metrics, table = wl.end_to_end(w, tally, setup_s, _peak_rss_mb())
    return metrics, table, *tally.counts(), problems


def run_traced(w, seed, workdir):
    """Set-up plus `trace_rounds` rounds, four times: untraced, traced, traced, untraced.

    The per-layer metrics come from the first traced pass. The overhead
    compares the mean of the two traced passes with the mean of the two
    untraced ones; that order cancels a steady drift in the host's speed.
    """
    import layers
    import workloads as wl
    from tracer import Tracer, restore

    inputs = wl.setup(w, seed, workdir)
    wl.measure(w, inputs, seed, rounds=1)                  # warm-up, not timed
    passes = []
    for traced in (False, True, True, False):
        tracer, problems = Tracer(), []
        undo = tracer.install(layers.sites(tracer, problems)) if traced else []
        try:
            t0 = time.perf_counter()
            inputs = wl.setup(w, seed, workdir)
            tally = wl.measure(w, inputs, seed, rounds=w.trace_rounds)
            seconds = time.perf_counter() - t0
        finally:
            restore(undo)
        passes.append((tracer, problems, inputs, tally, seconds))
    tracer, problems, inputs, tally, _ = passes[1]
    problems = problems + passes[2][1] + wl.check_outputs(w, inputs, seed, tally)
    untraced_s = (passes[0][4] + passes[3][4]) / 2
    traced_s = (passes[1][4] + passes[2][4]) / 2
    metrics = layers.per_layer_metrics(tracer.spans, tracer.counters)
    metrics.update({
        "trace.rounds": w.trace_rounds,
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
    })
    return metrics, *tally.counts(), problems, tracer.spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    _import_program()
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    env = environment(args.seed, w)
    print("env " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT_DIR)
    spans = None
    try:
        if args.trace:
            values, attempted, failed, problems, spans = run_traced(w, args.seed, workdir)
            table = {k: (v, declared.get(k, "")) for k, v in values.items()}
        else:
            values, table, attempted, failed, problems = run_untraced(
                w, args.seed, args.seconds, workdir)
    except wl.CheckFailed as err:
        problems, values, spans, table, attempted, failed = [str(err)], {}, None, {}, 1, 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in table.items():
        print(f"{w.name:10s} {name:36s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    missing = sorted(set(declared) - set(values))
    if values and missing:
        _fail(f"the run produced no value for {missing}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared.items() if name in values},
    }
    record = {"env": env, "result": result, "table": {k: v for k, (v, _) in table.items()},
              "problems": problems}
    if spans is not None:
        record["spans"] = spans
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0 if not problems else 1


def _declared_metrics(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


if __name__ == "__main__":
    sys.exit(main())
