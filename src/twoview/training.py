"""Training loop: batched forward, combined loss, Adam updates, progress log."""

import ctypes
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import adam_step
from .config import TrainParams
from .losses import LossConfig, LossCounters, total_loss
from .network import Network, NetworkConfig


class TrainingDiverged(RuntimeError):
    """Loss or an intermediate went non-finite during training."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass
class LogRow:
    step: int
    loss: float
    val_map5: float


def validation_map5(net: Network, pairs):
    """mAP5 of the `net` method over pairs; solver or cheirality failures count as misses.

    run_training passes the first `val_pairs` training pairs, which its
    batches also draw from, so its val_map5 is a training-set score, not a
    held-out one.
    """
    from .evalbench import evaluate_method, pose_map

    result = evaluate_method(pairs, "net", net=net)
    errors = [(o.rotation_error_deg, o.translation_error_deg) for o in result.outcomes]
    return pose_map(errors, 5)


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters, from glibc's malloc.h


def _keep_heap():
    """Keep the freed heap mapped across training steps, where glibc's mallopt exists.

    Backward frees most of a step's activations at once. Under glibc's
    dynamic thresholds the heap's free top then passes the trim threshold,
    so glibc hands it back to the OS and the next forward faults the same
    pages in again (about 4500 minor faults per desk step at B=8, N=512).
    This fixes both thresholds, which turns the dynamic ones off: arrays up
    to 32 MiB (glibc's own ceiling for its dynamic mmap threshold) come from
    the heap, and up to 256 MiB of free heap stays mapped. Both must be set:
    with only the trim threshold fixed, the mmap threshold would stay at
    128 KiB and every activation would get a fresh mmap each step.

    The setting is process-wide and stays in force after `run_training`
    returns. Without mallopt (a libc other than glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def _gradients(net, corr, labels, loss_cfg, iteration, counters):
    """Forward, loss and backward of one step into the parameters' .grad; returns the loss.

    Nothing of the step's graph outlives the call, so validation and the
    next forward run with only one step's memory in use.
    """
    out = net.forward(corr, mode="train")
    loss = total_loss(out.logits, labels, out.essential, out.solved, corr, loss_cfg, iteration,
                      counters)
    if out.stage1 is not None:
        loss = loss + total_loss(out.stage1.logits, labels, out.stage1.essential, out.stage1.solved,
                                 corr, loss_cfg, iteration, counters)
    del out  # its assignments then die with their softmax backward, not at the end of the step
    net.store.zero_grad()
    ad.backward(loss)
    return float(loss.data)


def run_training(pairs, net_cfg: NetworkConfig, loss_cfg: LossConfig, params: TrainParams,
                 seed, resume=None, log_cb=None):
    """Train a network on ScenePairs; returns (network, log rows, loss counters).

    All randomness (init, batch order) derives from `seed`. With `resume`
    the checkpoint is restored first and the step counter continues. Each
    batch is drawn from (seed, step) alone, so N steps followed by a resume
    for M more train exactly as N + M steps do.
    """
    if len(pairs) == 0:
        raise ValueError("empty training set")
    sizes = {p.correspondences.shape[0] for p in pairs}
    if len(sizes) != 1:
        raise ValueError(f"training requires a uniform correspondence count, got {sorted(sizes)}")

    _keep_heap()
    net = Network(net_cfg, seed=seed)
    if resume is not None:
        net.load(resume)

    corr_all = np.stack([p.correspondences for p in pairs])
    labels_all = np.stack([p.labels for p in pairs])
    val_slice = pairs[:min(params.val_pairs, len(pairs))]

    rows = []
    counters = LossCounters()
    n = len(pairs)
    for k in range(params.steps):
        iteration = net.store.step
        batch_rng = np.random.default_rng([seed, 1, iteration])
        idx = batch_rng.choice(n, size=params.batch_size, replace=n < params.batch_size)
        try:
            loss = _gradients(net, corr_all[idx], labels_all[idx], loss_cfg, iteration, counters)
        except ad.NotFinite as err:
            raise TrainingDiverged(iteration, str(err)) from None
        adam_step(net.store, lr=params.lr)
        step = net.store.step
        if step % params.log_every == 0 or k == params.steps - 1:
            row = LogRow(step, loss, validation_map5(net, val_slice))
            rows.append(row)
            if log_cb is not None:
                log_cb(row)
    return net, rows, counters
