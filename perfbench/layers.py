"""Which parts of twoview the traced run wraps, and the per-layer metrics it derives.

Every public function of every twoview module is wrapped at each module
that binds it, so copies made by `from ... import` are traced too; the
span is named after the defining module (`eightpoint.symmetric_eig9_batched`
whether ransac or eightpoint calls it). On top of that come the `__call__`
of the network's layer classes, `Network.forward`, and the RANSAC refit.
Autodiff ops also get their backward closure wrapped on the tensor they
return, so `<op>.backward` spans land under `autodiff.backward`.
"""

import importlib
import inspect
import pkgutil

import numpy as np

import twoview
from twoview import autodiff, network, ransac

from tracer import summarize

# called on every op input; a span there would cost more than it shows
SKIP = {"autodiff.as_tensor"}
# private helpers that are a layer of their own
EXTRA_FUNCTIONS = [(ransac, "_irls_refit")]
NETWORK_CLASSES = ["Perceptron", "BatchNorm", "PointCNUnit", "PointCNResBlock",
                   "SpatialCorrelationUnit", "OrderAwareBlock", "DiffPool", "DiffUnpool", "_Stage"]

# layers whose self time excludes nested layers of this set (and nothing else)
NETWORK_LAYERS = {"network.forward", "network.PointCNUnit", "network.DiffPool",
                  "network.SpatialCorrelationUnit", "network.DiffUnpool"}
OPS = ["normalize", "matmul", "softmax", "add", "mul", "relu", "tanh"]
SOLVES = ["eightpoint.weighted_eightpoint", "eightpoint.weighted_eightpoint_with_context"]

ESSENTIAL_TOL = 1e-9


def twoview_modules():
    return [importlib.import_module(f"twoview.{m.name}")
            for m in pkgutil.iter_modules(twoview.__path__)]


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def essential_problem(E):
    """None if E has rank 2 and unit Frobenius norm, else a description."""
    E = np.asarray(E, dtype=np.float64)
    s = np.linalg.svd(E, compute_uv=False)
    norm = float(np.sqrt(np.sum(s * s)))
    if abs(norm - 1.0) > ESSENTIAL_TOL:
        return f"Frobenius norm {norm!r} != 1"
    if s[2] > ESSENTIAL_TOL or s[1] <= ESSENTIAL_TOL:
        return f"singular values {s.tolist()} are not rank 2"
    return None


def _observers(tracer, problems):
    def check_essential(where, E):
        problem = essential_problem(E)
        if problem is not None:
            problems.append(f"{where}: {problem}")

    def ransac_result(args, kwargs, res):
        tracer.count("ransac.runs")
        tracer.count("ransac.iterations", res.iterations)
        check_essential("ransac_essential", res.essential)

    def postprocess_result(args, kwargs, res):
        tracer.count("ransac.postprocess_calls")
        tracer.count("ransac.fallbacks", int(res.fallback))
        check_essential("ransac_postprocess", res.essential)

    def eig_batched(args, kwargs, res):
        tracer.count("eightpoint.eig_batched_matrices", np.shape(args[0])[0])

    def projected(args, kwargs, E):
        check_essential("project_to_essential", E)

    def op(name):
        def trace_backward(args, kwargs, out):
            if isinstance(out, autodiff.Tensor) and out._backward is not None:
                out._backward = tracer.wrap(out._backward, name + ".backward")
        return trace_backward

    fixed = {
        "ransac.ransac_essential": ransac_result,
        "ransac.ransac_postprocess": postprocess_result,
        "eightpoint.symmetric_eig9_batched": eig_batched,
        "epipolar.project_to_essential": projected,
    }
    return lambda name: fixed.get(name) or (op(name) if name.startswith("autodiff.") else None)


def sites(tracer, problems):
    """(owner, attr, span name, observer) for everything the traced run wraps."""
    observer = _observers(tracer, problems)
    modules = twoview_modules()
    names = {}
    for mod in modules:
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                names[obj] = f"{_short(mod.__name__)}.{attr}"
    for mod, attr in EXTRA_FUNCTIONS:
        names[getattr(mod, attr)] = f"{_short(mod.__name__)}.{attr.lstrip('_')}"
    names = {fn: name for fn, name in names.items() if name not in SKIP}
    out = []
    for mod in modules:
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj in names:
                out.append((mod, attr, names[obj], observer(names[obj])))
    for cls_name in NETWORK_CLASSES:
        out.append((getattr(network, cls_name), "__call__", f"network.{cls_name}", None))
    out.append((network.Network, "forward", "network.forward", None))
    return out


def per_layer_metrics(spans, counters):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    full = summarize(spans)
    layer = summarize(spans, keep=NETWORK_LAYERS.__contains__)

    def total(*names):
        return sum(full[n]["total_s"] for n in names if n in full)

    def self_s(*names):
        return sum(full[n]["self_s"] for n in names if n in full)

    def calls(*names):
        return sum(full[n]["calls"] for n in names if n in full)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "synthdata.generate_s": total("synthdata.generate_dataset"),
        "synthdata.write_s": total("synthdata.write_dataset"),
        "synthdata.read_s": total("synthdata.read_dataset"),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.adam_s": total("autodiff.adam_step"),
        "autodiff.adam_calls": calls("autodiff.adam_step"),
    }
    for op in OPS:
        m[f"autodiff.op.{op}_s"] = self_s(f"autodiff.{op}", f"autodiff.{op}.backward")
        m[f"autodiff.op.{op}_calls"] = calls(f"autodiff.{op}")
    m["network.forward_s"] = total("network.forward")
    m["network.forward_calls"] = calls("network.forward")
    for metric, span in (("pointcn_unit", "PointCNUnit"), ("pool", "DiffPool"),
                         ("order_aware_mix", "SpatialCorrelationUnit"), ("unpool", "DiffUnpool")):
        row = layer.get(f"network.{span}")
        m[f"network.{metric}_s"] = row["self_s"] if row else 0.0
    m.update({
        "losses.total_s": total("losses.total_loss"),
        "losses.geometry_s": total("losses.geometry_loss"),
        "losses.geometry_calls": calls("losses.geometry_loss"),
        "eightpoint.solve_s": total(*SOLVES),
        "eightpoint.solve_calls": calls(*SOLVES),
        "eightpoint.solve_failures": sum(full[n]["errors"] for n in SOLVES if n in full),
        "eightpoint.backward_s": total("eightpoint.backward_from_context"),
        "eightpoint.eig_s": total("eightpoint.symmetric_eig9"),
        "eightpoint.eig_batched_s": total("eightpoint.symmetric_eig9_batched"),
        "eightpoint.eig_batched_matrices": counters.get("eightpoint.eig_batched_matrices", 0),
        "ransac.self_s": self_s("ransac.ransac_essential", "ransac.ransac_postprocess"),
        "ransac.refit_s": total("ransac.irls_refit"),
        "ransac.runs": counters.get("ransac.runs", 0),
        "ransac.iterations": counters.get("ransac.iterations", 0),
        "ransac.iterations_per_pair": ratio(counters.get("ransac.iterations", 0),
                                            counters.get("ransac.runs", 0)),
        "ransac.hypotheses_per_iteration": ratio(
            counters.get("eightpoint.eig_batched_matrices", 0),
            counters.get("ransac.iterations", 0)),
        "ransac.postprocess_calls": counters.get("ransac.postprocess_calls", 0),
        "ransac.fallback_frac": ratio(counters.get("ransac.fallbacks", 0),
                                      counters.get("ransac.postprocess_calls", 0)),
        "epipolar.distances_s": total("epipolar.symmetric_epipolar_distances"),
        "epipolar.recover_pose_s": total("epipolar.recover_pose"),
        "epipolar.project_s": total("epipolar.project_to_essential"),
        "evalbench.evaluate_s": self_s("evalbench.evaluate_method"),
        "evalbench.evaluate_calls": calls("evalbench.evaluate_method"),
        "training.run_s": self_s("training.run_training"),
        "training.run_calls": calls("training.run_training"),
    })
    return m

