"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are built eagerly: every op computes its value immediately and
records a backward closure. The graph is separate from the values: a
Tensor is its array plus a Node, or None when no gradient flows to it,
and a Node holds the gradient, the backward closure and the parent
*nodes*. Each closure keeps only the arrays its backward reads:

- mul, div and matmul keep an operand's data only when the other operand
  takes a gradient (div always keeps its divisor);
- add, sub, neg, reshape, concat, transpose_last2 and reduce_sum keep
  only shapes;
- relu, minimum_const, tanh, sqrt, softmax and normalize keep their own
  output (normalize also its scale), softplus its input and output;
- bn_relu_linear keeps its ReLU output, its input's and weight's data and
  the per-channel statistics; cn_bn_relu_linear, one whole PointCN unit,
  keeps its ReLU output, its centred input (never the input itself), its
  weight's data and per-sample and per-channel scales. Both unit ops take
  running statistics or their own batch ones, and return (out, moments).

So a training forward frees every value that no backward reads as soon as
its tensor goes, such as a unit's output once the next context norm has
read it. Ops that only see constant inputs, or run under no_grad, build
no node, so evaluation without gradients carries no bookkeeping cost. The
module also provides the gradient checker (one finite-difference reference
and one rule for probes at a kink), the Adam optimizer, and the binary
parameter checkpoint format.
"""

import math
import os
import struct
import zlib

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes violate an op contract."""


class NonScalarLoss(ValueError):
    """backward() started from a tensor that is not a scalar."""


class GraphConsumed(RuntimeError):
    """backward() reached a node of a graph that an earlier backward() consumed."""


class NotFinite(FloatingPointError):
    """A NaN or Inf reached a place where it could be lost, or was created.

    Only a few places check: leaves (inputs and parameters) when they are
    built, ops that can create a non-finite value (div, sqrt, custom) on
    their output, ops that can hide one (relu, tanh, softplus,
    minimum_const, softmax, the pre-activation of bn_relu_linear and of
    cn_bn_relu_linear) on their input, and backward() on the loss. Every
    other op carries NaN and Inf through unchanged, so the next check
    names the op that would lose it.
    """


class ProbeModified(RuntimeError):
    """A gradient check's function wrote into the probe it was given."""


class CorruptCheckpoint(ValueError):
    """A checkpoint file is truncated, garbled, of another format or not for this network."""


def _check_finite(data, op, what="output"):
    # a single reduction: the sum is non-finite iff any entry is NaN/Inf
    if not np.isfinite(np.sum(data)):
        bad = int(np.count_nonzero(~np.isfinite(data)))
        if bad == 0:
            return  # sum overflowed but every entry is finite
        raise NotFinite(f"{op}: {bad} non-finite entries in {what} of shape {data.shape}")


def _check_nonempty(data, op):
    if data.size == 0:
        raise ShapeMismatch(f"{op}: empty tensor")


class Node:
    """A tensor's place in the backward graph: its gradient, backward closure and parent nodes.

    A leaf's node (an input or parameter that requires grad) has no closure.
    An op's closure holds only the arrays its backward reads, never the
    tensors it was called on, so a forward value that no backward reads is
    freed with its tensor. op names the node in GraphConsumed.
    """

    __slots__ = ("grad", "backward", "parents", "op")

    def __init__(self, op, backward=None, parents=()):
        self.grad = None
        self.backward = backward
        self.parents = parents
        self.op = op

    def accum(self, g, owned=False):
        if self.grad is None:
            # adopt an array the caller gives up (owned); copy views, shared buffers and numpy scalars
            self.grad = g if owned and isinstance(g, np.ndarray) else np.array(g, dtype=np.float64)
        else:
            self.grad += g


class Tensor:
    """A dense float64 array and, when a gradient flows to it, its graph node.

    Built directly it is a leaf, and its data must be finite; op outputs
    come from _make and are checked only where NotFinite says.
    """

    __slots__ = ("data", "op", "node")

    def __init__(self, data, requires_grad=False, op="leaf"):
        self.data = np.asarray(data, dtype=np.float64)
        _check_nonempty(self.data, op)
        _check_finite(self.data, op)
        self.op = op
        self.node = Node(op) if requires_grad else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, g):
        self.node.grad = g

    @property
    def _backward(self):
        """The node's backward closure, None for a leaf or a constant; assignable, to wrap it."""
        return None if self.node is None else self.node.backward

    @_backward.setter
    def _backward(self, fn):
        self.node.backward = fn

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


_grad_enabled = True


class no_grad:
    """Context manager that suppresses graph construction (inference mode)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def _make(data, parents, op, backward_fn):
    """An op's output; it gets a node when grad is enabled and a parent has one.

    Its finiteness is the op's own business (see NotFinite).
    """
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(data, dtype=np.float64)
    _check_nonempty(t.data, op)
    t.op = op
    nodes = tuple(p.node for p in parents if p.node is not None) if _grad_enabled else ()
    t.node = Node(op, backward_fn, nodes) if nodes else None
    return t


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to the operand shape: g itself, or a new array."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g if g.shape == shape else g.reshape(shape)


def _broadcastable(a_shape, b_shape, op):
    try:
        np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ShapeMismatch(f"{op}: cannot broadcast {a_shape} with {b_shape}") from None


# ---------------------------------------------------------------------------
# elementwise ops (each closure captures parent nodes, shapes and the arrays it reads)


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "add")
    out = a.data + b.data
    na, nb, a_shape, b_shape = a.node, b.node, a.shape, b.shape

    def bwd(g):
        # a may adopt the donated g; b then gets a copy (x + x adds g to itself)
        if na is not None:
            na.accum(_unbroadcast(g, a_shape), owned=True)
        if nb is not None:
            gb = _unbroadcast(g, b_shape)
            nb.accum(gb, owned=gb is not g or na is None or na.grad is not g)

    return _make(out, (a, b), "add", bwd)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "sub")
    out = a.data - b.data
    na, nb, a_shape, b_shape = a.node, b.node, a.shape, b.shape

    def bwd(g):
        if na is not None:
            na.accum(_unbroadcast(g, a_shape), owned=True)
        if nb is not None:
            # negate g in place unless a adopted it
            gb = -g if na is not None and na.grad is g else np.negative(g, out=g)
            nb.accum(_unbroadcast(gb, b_shape), owned=True)

    return _make(out, (a, b), "sub", bwd)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "mul")
    out = a.data * b.data
    na, nb, a_shape, b_shape = a.node, b.node, a.shape, b.shape
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def bwd(g):
        if na is not None:
            na.accum(_unbroadcast(g * b_data, a_shape), owned=True)
        if nb is not None:
            nb.accum(_unbroadcast(g * a_data, b_shape), owned=True)

    return _make(out, (a, b), "mul", bwd)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    _broadcastable(a.shape, b.shape, "div")
    with np.errstate(divide="ignore", invalid="ignore"):  # NotFinite handles it
        out = a.data / b.data
    _check_finite(out, "div")
    na, nb, a_shape, b_shape = a.node, b.node, a.shape, b.shape
    a_data, b_data = a.data if nb is not None else None, b.data

    def bwd(g):
        if na is not None:
            na.accum(_unbroadcast(g / b_data, a_shape), owned=True)
        if nb is not None:
            nb.accum(_unbroadcast(-g * a_data / (b_data * b_data), b_shape), owned=True)

    return _make(out, (a, b), "div", bwd)


def neg(a):
    a = as_tensor(a)
    na = a.node

    def bwd(g):
        na.accum(-g, owned=True)

    return _make(-a.data, (a,), "neg", bwd)


def relu(a):
    a = as_tensor(a)
    _check_finite(a.data, "relu", "input")  # a -inf would come out as 0
    out = np.maximum(a.data, 0.0)
    na = a.node

    def bwd(g):
        # np.where(a > 0, g, 0.0) in g: the subgradient at 0 is +0.0; out > 0 exactly where a > 0
        np.copyto(g, 0.0, where=~(out > 0.0))
        na.accum(g, owned=True)

    return _make(out, (a,), "relu", bwd)


def tanh(a):
    a = as_tensor(a)
    _check_finite(a.data, "tanh", "input")  # +-inf would come out as +-1
    out = np.tanh(a.data)
    na = a.node

    def bwd(g):
        d = out * out
        g *= np.subtract(1.0, d, out=d)
        na.accum(g, owned=True)

    return _make(out, (a,), "tanh", bwd)


def softplus(a):
    """log(1 + exp(x)), evaluated stably; backward is the logistic sigmoid."""
    a = as_tensor(a)
    _check_finite(a.data, "softplus", "input")  # a -inf would come out as 0
    out = np.logaddexp(0.0, a.data)
    na, a_data = a.node, a.data

    def bwd(g):
        na.accum(g * np.exp(a_data - out), owned=True)

    return _make(out, (a,), "softplus", bwd)


def sqrt(a):
    a = as_tensor(a)
    with np.errstate(invalid="ignore"):  # NotFinite handles negatives
        out = np.sqrt(a.data)
    _check_finite(out, "sqrt")
    na = a.node

    def bwd(g):
        na.accum(g / (2.0 * out), owned=True)

    return _make(out, (a,), "sqrt", bwd)


def minimum_const(a, cap):
    """Elementwise min(x, cap); gradient is 0 on the clamped side (ties clamp)."""
    a = as_tensor(a)
    cap = float(cap)
    _check_finite(a.data, "minimum_const", "input")  # +inf would come out as cap
    out = np.minimum(a.data, cap)
    na = a.node

    def bwd(g):
        na.accum(np.where(out < cap, g, 0.0), owned=True)  # out < cap exactly where a < cap

    return _make(out, (a,), "minimum_const", bwd)


# ---------------------------------------------------------------------------
# structural ops


def _matmul_data(x, y):
    """Dense product; a batch against one shared matrix runs as a single GEMM.

    np.matmul loops over the batch for (B, N, K) @ (K, M), which is slower
    than one (B*N, K) @ (K, M) GEMM at the spatial-correlation shape.
    """
    if x.ndim == 3 and y.ndim == 2:
        return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape[0], x.shape[1], y.shape[1])
    if x.ndim == 3 and y.ndim == 3 and x.shape[0] != y.shape[0]:
        raise ShapeMismatch(f"matmul: batch dims differ, {x.shape} @ {y.shape}")
    return np.matmul(x, y)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    out = _matmul_data(a.data, b.data)
    na, nb, a_shape, b_shape = a.node, b.node, a.shape, b.shape
    a_data = a.data if nb is not None else None
    b_data = b.data if na is not None else None

    def bwd(g):
        if na is not None:
            ga = _matmul_data(g, np.swapaxes(b_data, -1, -2))
            na.accum(_unbroadcast(ga, a_shape), owned=True)
        if nb is not None:
            if len(b_shape) == 2 and g.ndim == 3:
                # weight shared across the batch: single fused GEMM
                gb = a_data.reshape(-1, a_shape[-1]).T @ g.reshape(-1, g.shape[-1])
                nb.accum(gb, owned=True)
            else:
                gb = _matmul_data(np.swapaxes(a_data, -1, -2), g)
                nb.accum(_unbroadcast(gb, b_shape), owned=True)

    return _make(out, (a, b), "matmul", bwd)


def transpose_last2(a):
    a = as_tensor(a)
    if a.data.ndim < 2:
        raise ShapeMismatch(f"transpose_last2: need rank >= 2, got {a.shape}")
    na = a.node

    def bwd(g):
        na.accum(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2).copy(), (a,), "transpose_last2", bwd)


def reshape(a, shape):
    a = as_tensor(a)
    shape = tuple(shape)
    out = a.data.reshape(shape)
    na, a_shape = a.node, a.shape

    def bwd(g):
        na.accum(g.reshape(a_shape), owned=True)

    return _make(out, (a,), "reshape", bwd)


def concat(tensors, axis=-1):
    ts = [as_tensor(t) for t in tensors]
    nd = ts[0].data.ndim
    ax = axis % nd
    for t in ts[1:]:
        if t.data.ndim != nd:
            raise ShapeMismatch("concat: rank mismatch")
        for i in range(nd):
            if i != ax and t.shape[i] != ts[0].shape[i]:
                raise ShapeMismatch(f"concat: shapes {ts[0].shape} and {t.shape} differ off-axis")
    out = np.concatenate([t.data for t in ts], axis=ax)
    sizes = [t.shape[ax] for t in ts]
    offsets = np.cumsum([0] + sizes)
    nodes = [t.node for t in ts]

    def bwd(g):
        for n, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            if n is not None:
                idx = [slice(None)] * nd
                idx[ax] = slice(lo, hi)
                n.accum(g[tuple(idx)])

    return _make(out, ts, "concat", bwd)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    if axis is not None and not isinstance(axis, tuple):
        axis = (axis,)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    na, a_shape = a.node, a.shape

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        na.accum(np.broadcast_to(g, a_shape))  # accum copies the view

    return _make(out, (a,), "reduce_sum", bwd)


def softmax(a, axis):
    a = as_tensor(a)
    _check_finite(a.data, "softmax", "input")  # a -inf would come out as a 0 weight
    axis = axis % a.data.ndim
    out = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    na = a.node

    def bwd(g):
        g -= np.expand_dims(_dot_axes(g, out, (axis,)), axis)
        g *= out
        na.accum(g, owned=True)

    return _make(out, (a,), "softmax", bwd)


def _sum_axes(x, axes):
    """Reduce-sum without keepdims; einsum for the hot 3-D layouts."""
    if x.ndim == 3:
        if axes == (1,):
            return np.einsum("bnd->bd", x)
        if axes == (0, 1):
            return np.einsum("bnd->d", x)
    return x.sum(axis=axes)


def _dot_axes(x, y, axes):
    """Reduce-sum of x*y without materializing the product, where possible."""
    if x.ndim == 3 and y.shape == x.shape:
        if axes == (1,):
            return np.einsum("bnd,bnd->bd", x, y)
        if axes == (2,):
            return np.einsum("bnd,bnd->bn", x, y)
        if axes == (0, 1):
            return np.einsum("bnd,bnd->d", x, y)
    return (x * y).sum(axis=axes)


def normalize(a, axes, eps=1e-5):
    """Subtract the mean and divide by sqrt(variance + eps) along the given axes."""
    a = as_tensor(a)
    axes = axes if isinstance(axes, tuple) else (axes,)
    inv_n = 1.0 / np.prod([a.shape[i] for i in axes])
    mu = np.expand_dims(_sum_axes(a.data, axes) * inv_n, axes)
    out = a.data - mu                               # centred, then scaled in place
    var = np.expand_dims(_dot_axes(out, out, axes) * inv_n, axes)
    inv = 1.0 / np.sqrt(var + eps)
    out *= inv
    na = a.node

    def bwd(g):
        gm = np.expand_dims(_sum_axes(g, axes) * inv_n, axes)
        gy = np.expand_dims(_dot_axes(g, out, axes) * inv_n, axes)
        g -= gm
        g -= out * gy
        g *= inv
        na.accum(g, owned=True)

    return _make(out, (a,), "normalize", bwd)


def _check_unit_shapes(op, x, gamma, beta, weight, bias):
    """The shape contract of a unit node: x is (B, N, D) and the parameters fit x @ weight."""
    if x.data.ndim != 3:
        raise ShapeMismatch(f"{op}: expected (B, N, D), got {x.shape}")
    d = x.shape[2]
    if weight.data.ndim != 2 or weight.shape[0] != d:
        raise ShapeMismatch(f"{op}: {x.shape} @ {weight.shape}")
    if gamma.shape != (d,) or beta.shape != (d,) or bias is not None and bias.shape != (weight.shape[1],):
        raise ShapeMismatch(f"{op}: gamma {gamma.shape}, beta {beta.shape} or bias "
                            f"{None if bias is None else bias.shape} do not fit {x.shape} @ {weight.shape}")


def _relu_linear(a, weight, bias, op, bound=np.inf):
    """(r, out): r = relu(a), taken in a's buffer, and out = r @ weight (+ bias).

    bound is a ceiling on |a| that the caller worked out; below 1e300, a is
    finite and the check for a -inf, which the ReLU would hide, is skipped.
    """
    if not bound < 1e300:  # also when bound is NaN
        _check_finite(a, op, "pre-activation")
    r = np.maximum(a, 0.0, out=a)
    out = np.matmul(r, weight.data)  # one GEMM per sample (see _relu_linear_backward)
    if bias is not None:
        out += bias.data
    return r, out


def _relu_linear_backward(g, r, w_data, nw, nbias):
    """Give the weight and bias their gradients from g; returns the pre-activation's gradient.

    The forward product and the weight gradient take one GEMM per sample:
    at a desk unit's 512 x 32 @ 32 x 32 they measured about 40% faster
    under OpenBLAS than one GEMM over all B * N rows, and no slower at the
    heads' 512 x 32 @ 32 x 128. The input gradient's GEMM measured the same
    either way and stays one.
    """
    g2 = g.reshape(-1, g.shape[-1])
    if nw is not None:
        g_w = r[0].T @ g[0]
        for r_b, g_b in zip(r[1:], g[1:]):
            g_w += r_b.T @ g_b
        nw.accum(g_w, owned=True)
    if nbias is not None:
        nbias.accum(np.ones(g2.shape[0]) @ g2, owned=True)  # a GEMV sums faster than einsum
    ga = (g2 @ w_data.T).reshape(r.shape)
    return np.multiply(ga, r > 0.0, out=ga)  # ReLU mask; r > 0 exactly where a > 0


def bn_relu_linear(h, gamma, beta, weight, bias, running=None, bn_eps=1e-5):
    """relu(bn(h)) @ weight (+ bias) as one graph node; returns (out, moments).

    h is (B, N, D) and must be a context norm's output. bn normalizes with
    running = (mean, var), constants, or, when running is None, with h's
    own mean and variance over (B, N), through which the backward then
    passes, and returns them as moments (None with running); then it
    scales by gamma and shifts by beta. bias may be None.
    """
    h, gamma, beta, weight, bias = (t if t is None else as_tensor(t) for t in (h, gamma, beta, weight, bias))
    _check_unit_shapes("bn_relu_linear", h, gamma, beta, weight, bias)
    if running is None:
        inv_n = 1.0 / (h.shape[0] * h.shape[1])
        mean = np.einsum("bnd->d", h.data) * inv_n
        # h has a per-sample mean of ~0, so E[h^2] - mean^2 loses nothing
        var = np.einsum("bnd,bnd->d", h.data, h.data) * inv_n - mean * mean
    else:
        # a copy of the mean: running buffers change in place
        mean, var = np.array(running[0], dtype=np.float64), running[1]
    inv = 1.0 / np.sqrt(var + bn_eps)
    s = inv * gamma.data
    a = h.data * s
    a += beta.data - mean * s
    r, out = _relu_linear(a, weight, bias, "bn_relu_linear")
    # the closure keeps r, h's data and weight's data, not out
    nh, ngamma, nbeta, nw = h.node, gamma.node, beta.node, weight.node
    nbias = None if bias is None else bias.node
    h_data, w_data = h.data, weight.data

    def bwd(g):
        ga = _relu_linear_backward(g, r, w_data, nw, nbias)
        g_beta = np.einsum("bnd->d", ga)
        g_gamma = inv * (np.einsum("bnd,bnd->d", ga, h_data) - mean * g_beta)
        if nbeta is not None:
            nbeta.accum(g_beta, owned=True)
        if ngamma is not None:
            ngamma.accum(g_gamma, owned=True)
        if nh is not None:
            ga *= s
            if running is None:
                c = s * inv * g_gamma * inv_n
                ga -= np.multiply(h_data, c, out=r)  # r is dead: the graph runs backward once
                ga += mean * c - s * g_beta * inv_n
            nh.accum(ga, owned=True)

    moments = (mean, var) if running is None else None
    return _make(out, [t for t in (h, gamma, beta, weight, bias) if t is not None], "bn_relu_linear",
                 bwd), moments


def cn_bn_relu_linear(x, gamma, beta, weight, bias, running=None, bn_eps=1e-5, cn_eps=1e-5):
    """One PointCN unit, relu(bn(cn(x))) @ weight (+ bias), as one graph node; returns (out, moments).

    x is (B, N, D) with N >= 2. cn is the context norm: each sample's
    centred channels xc over c = 1/sqrt(var + cn_eps), var their mean
    square over the points. bn normalizes with running = (mean, var),
    constants, or, when running is None, with the batch statistics of
    cn(x) over (B, N), through which the backward then passes; then it
    scales by gamma and shifts by beta. cn(x) has a batch mean of exactly
    0 and a per-sample mean square of var / (var + cn_eps), so the batch
    statistics come from cn's own variances and are returned as moments
    (None with running). The pre-activation is xc * (c * s) + shift, with
    s = inv * gamma per channel. bias may be None.
    """
    x, gamma, beta, weight, bias = (t if t is None else as_tensor(t) for t in (x, gamma, beta, weight, bias))
    _check_unit_shapes("cn_bn_relu_linear", x, gamma, beta, weight, bias)
    b, n, d = x.shape
    if n < 2:
        raise ShapeMismatch("cn_bn_relu_linear: need at least 2 points")
    # sums over each sample's points as batched GEMVs, which beat einsum
    xc = x.data - (np.ones(n) @ x.data)[:, None] * (1.0 / n)
    var = np.einsum("bnd,bnd->bd", xc, xc) * (1.0 / n)
    c = 1.0 / np.sqrt(var + cn_eps)
    if running is None:
        mean, bn_var = np.zeros(d), np.einsum("bd,bd->d", var, c * c) * (1.0 / b)
    else:
        # a copy of the mean: running buffers change in place
        mean, bn_var = np.array(running[0], dtype=np.float64), running[1]
    inv = 1.0 / np.sqrt(bn_var + bn_eps)
    s = inv * gamma.data
    shift = beta.data - mean * s
    a = np.einsum("bnd,bd->bnd", xc, c * s)
    a += shift
    # |xc| <= sqrt(n * var) at every point, so this bounds |a| without a pass over it
    bound = np.max(np.sqrt(var * n) * np.abs(c * s) + np.abs(shift))
    r, out = _relu_linear(a, weight, bias, "cn_bn_relu_linear", bound)
    # the closure keeps r, xc, weight's data and the (B, D) scale c, never x
    nx, ngamma, nbeta, nw = x.node, gamma.node, beta.node, weight.node
    nbias = None if bias is None else bias.node
    w_data = weight.data

    def bwd(g):
        ga = _relu_linear_backward(g, r, w_data, nw, nbias)
        s1 = np.ones(n) @ ga
        s2 = np.einsum("bnd,bnd->bd", ga, xc)
        g_beta = s1.sum(axis=0)
        g_gamma = inv * (np.einsum("bd,bd->d", c, s2) - mean * g_beta)
        if nbeta is not None:
            nbeta.accum(g_beta, owned=True)
        if ngamma is not None:
            ngamma.accum(g_gamma, owned=True)
        if nx is not None:
            # g_x = A ga + q xc - A s1 / n for A = c s: cn's backward of s ga, plus, with batch
            # statistics, the path through bn's variance mean_b(var c^2), whose slope in var is
            # cn_eps c^4 / B
            A = c * s
            k = s * inv * g_gamma * (1.0 / (b * n)) if running is None else 0.0
            c2 = c * c
            q = -c2 * (k * cn_eps * c2 + s * c * s2 * (1.0 / n))
            ga *= A[:, None]
            ga += np.einsum("bnd,bd->bnd", xc, q, out=r)  # r is dead: the graph runs backward once
            ga -= (A * s1 * (1.0 / n))[:, None]
            nx.accum(ga, owned=True)

    moments = (mean, bn_var) if running is None else None
    return _make(out, [t for t in (x, gamma, beta, weight, bias) if t is not None], "cn_bn_relu_linear",
                 bwd), moments


def custom(inputs, out_data, backward_fn, op="custom"):
    """Custom-gradient hook: backward_fn(g) returns one gradient per input (or None)."""
    ts = tuple(as_tensor(t) for t in inputs)
    operands = [(t.node, t.shape) for t in ts]

    def bwd(g):
        grads = backward_fn(g)
        for (n, shape), gt in zip(operands, grads):
            if n is not None and gt is not None:
                if gt.shape != shape:
                    raise ShapeMismatch(f"{op}: backward produced {gt.shape} for input {shape}")
                n.accum(gt)

    out_data = np.asarray(out_data, dtype=np.float64)
    _check_finite(out_data, op)
    return _make(out_data, ts, op, bwd)


# ---------------------------------------------------------------------------
# backward pass


def _consumed(g):
    """The backward closure of every consumed node; backward() checks for it before it starts."""
    raise GraphConsumed("backward through a consumed graph")


def backward(loss):
    """Reverse accumulation from a scalar loss to all requires_grad tensors; consumes the graph.

    It walks nodes, not tensors. Each op node hands its gradient to its
    backward closure as a donated buffer, which the closure may overwrite
    or pass on to one parent, and then drops its gradient, closure and
    parent links, so gradients and the arrays the closures hold are freed
    as the pass goes. Leaves keep .grad. Reaching a node of a consumed
    graph raises GraphConsumed before any gradient moves.
    """
    if loss.data.shape != ():
        raise NonScalarLoss(f"loss has shape {loss.data.shape}, expected a scalar")
    _check_finite(loss.data, "backward", "loss")
    if loss.node is None:
        return  # a constant: no gradient flows
    topo = []
    seen = set()
    stack = [(loss.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node.backward is _consumed:
            raise GraphConsumed(f"{node.op} node was consumed by an earlier backward()")
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    loss.node.accum(np.ones((), dtype=np.float64), owned=True)
    while topo:
        node = topo.pop()
        fn, g = node.backward, node.grad
        if fn is None:
            continue  # a leaf
        node.grad, node.backward, node.parents = None, _consumed, ()
        if g is not None:
            fn(g)


def analytic_gradient(f, x):
    """Gradient at x, by backward, of f: one Tensor in, a scalar Tensor out; f must leave x alone."""
    x = np.asarray(x, dtype=np.float64)
    probe = Tensor(x.copy(), requires_grad=True)
    loss = f(probe)
    if loss.data.shape != ():
        raise NonScalarLoss("a gradient check needs a scalar-valued function")
    backward(loss)
    if not np.array_equal(probe.data, x):
        raise ProbeModified("the function's forward or backward wrote into the probe")
    return np.zeros_like(x) if probe.grad is None else probe.grad


def _central_differences(f, x, h):
    """Central differences of scalar f at x, one component at a time and under no_grad."""
    x = np.asarray(x, dtype=np.float64)
    numeric = np.zeros_like(x)
    with no_grad():
        for i in np.ndindex(x.shape):
            bumped = x.copy()
            bumped[i] += h
            hi = float(f(Tensor(bumped)).data)
            bumped[i] -= 2.0 * h
            numeric[i] = (hi - float(f(Tensor(bumped)).data)) / (2.0 * h)
    return numeric


def numeric_gradient(f, x):
    """The finite-difference reference: (4 D(h/2) - D(h)) / 3 for central differences D at h = 1e-5.

    This Richardson extrapolation cancels the h^2 term of D(h): gradients in the hundreds
    (normalize over two points) leave a plain D(h) about 1e-6 relative off the analytic value.
    """
    return (4.0 * _central_differences(f, x, 5e-6) - _central_differences(f, x, 1e-5)) / 3.0


def relative_errors(a, b):
    """|a - b| / max(|a|, |b|, 1e-2 of their largest, 1e-8), per component."""
    # rounding is about alike on every component of a row, up to 1.6e-7 of its largest
    scale = np.maximum(np.abs(a), np.abs(b))
    return np.abs(a - b) / np.maximum(scale, max(1e-2 * scale.max(), 1e-8))


def gradient_error(f, x):
    """Largest relative error of f's analytic gradient at x against numeric_gradient, per component.

    A probe within the step of a kink (a ReLU at 0) makes the differences, not the gradient,
    wrong there, and they move between the steps 1e-5 and 1e-6. So an error of 1e-4 or more is
    taken again without the components whose D(1e-5) and D(1e-6) differ by that much, unless
    every component does. A wrong backward still fails on the other components.
    """
    errors = relative_errors(analytic_gradient(f, x), numeric_gradient(f, x))
    if errors.max() >= 1e-4:
        coarse, fine = _central_differences(f, x, 1e-5), _central_differences(f, x, 1e-6)
        kinked = relative_errors(coarse, fine) >= 1e-4
        if not kinked.all():
            errors = errors[~kinked]
    return float(errors.max())


# ---------------------------------------------------------------------------
# parameters, Adam, checkpoints

_ADAM_M = "__adam_m__/"
_ADAM_V = "__adam_v__/"
_STEP_KEY = "__step__"


class ParameterStore:
    """Named parameters and buffers plus Adam state and the step counter."""

    def __init__(self):
        self._tensors = {}
        self._trainable = {}
        self._m = {}
        self._v = {}
        self.step = 0

    def _register(self, name, value, trainable):
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        if name.startswith("__"):
            raise ValueError(f"parameter name {name!r} uses a reserved prefix")
        t = Tensor(np.array(value, dtype=np.float64), requires_grad=trainable, op="param")
        self._tensors[name] = t
        self._trainable[name] = trainable
        if trainable:
            self._m[name] = np.zeros_like(t.data)
            self._v[name] = np.zeros_like(t.data)
        return t

    def parameter(self, name, value):
        return self._register(name, value, True)

    def buffer(self, name, value):
        return self._register(name, value, False)

    def __getitem__(self, name):
        return self._tensors[name]

    def names(self):
        return list(self._tensors)

    def trainable_names(self):
        return [n for n, t in self._trainable.items() if t]

    def zero_grad(self):
        for name in self.trainable_names():
            self[name].grad = None


def adam_step(store: ParameterStore, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update over every trainable entry of the store.

    Gradients come from each tensor's .grad; missing gradients count as zero.
    """
    store.step += 1
    t = store.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name in store.trainable_names():
        p = store[name]
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeMismatch(f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name!r}")
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


_MAGIC = b"TWVC"
_VERSION = 2


def _write_record(fh, name, array):
    """Write one record (name length, name, rank, dims, data) and return its bytes."""
    nb = name.encode("utf-8")
    record = (struct.pack(f"<I{len(nb)}sI{array.ndim}Q", len(nb), nb, array.ndim, *array.shape)
              + np.ascontiguousarray(array, dtype="<f8").tobytes())
    fh.write(record)
    return record


def save_checkpoint(store: ParameterStore, path):
    """Binary checkpoint: parameters, buffers, Adam moments, and the step counter.

    A header (magic, version, record count) and the records end with the
    CRC-32 of all bytes before it. The file is written beside `path` and
    renamed over it, so a crash never leaves a partial checkpoint there.
    """
    names = store.names()
    records = [(n, store[n].data) for n in names]
    for n in store.trainable_names():
        records.append((_ADAM_M + n, store._m[n]))
        records.append((_ADAM_V + n, store._v[n]))
    records.append((_STEP_KEY, np.array(float(store.step))))

    def write(fh):
        header = _MAGIC + struct.pack("<IQ", _VERSION, len(records))
        fh.write(header)
        crc = zlib.crc32(header)
        for name, arr in records:
            crc = zlib.crc32(_write_record(fh, name, arr), crc)
        fh.write(struct.pack("<I", crc))

    write_atomically(path, write, prefix=".ckpt-")


def write_atomically(path, write, prefix, text=False):
    """Run write(fh) on a binary (or UTF-8 `text`) temp file beside path, then rename it to path."""
    directory, name = os.path.split(os.path.abspath(path))
    # one temp name per process and target; open() keeps the umask's file mode
    tmp = os.path.join(directory, f"{prefix}{os.getpid()}-{name}")
    try:
        with (open(tmp, "w", encoding="utf-8", newline="") if text else open(tmp, "wb")) as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_checkpoint_arrays(path):
    """Raw name -> array contents of a checkpoint file; CorruptCheckpoint if it fails to parse or check."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise CorruptCheckpoint(f"{path}: not a checkpoint file")
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != _VERSION:
            raise CorruptCheckpoint(f"{path}: unsupported checkpoint version {version}")
        end = len(blob) - 4  # the file ends with a CRC-32 of all bytes before it
        if zlib.crc32(memoryview(blob)[:end]) != struct.unpack_from("<I", blob, end)[0]:
            raise CorruptCheckpoint(f"{path}: checksum mismatch (truncated or altered)")
        (count,) = struct.unpack_from("<Q", blob, 8)
        off = 16
        out = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", blob, off)
            off += 4
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{rank}Q", blob, off)
            off += 8 * rank
            size = math.prod(shape)
            if off + 8 * size > end:
                raise CorruptCheckpoint(f"{path}: record {name!r} runs past the end of the file")
            arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).reshape(shape)
            off += 8 * size
            out[name] = arr.astype(np.float64)
    except (struct.error, UnicodeDecodeError) as err:
        raise CorruptCheckpoint(f"{path}: truncated or garbled ({err})") from None
    if off != end:
        raise CorruptCheckpoint(f"{path}: {end - off} trailing bytes")
    return out


def load_checkpoint(store: ParameterStore, path):
    """Restore a checkpoint into a store of the same structure.

    A store entry the file lacks, a record of another shape or one the store does not take is
    corrupt.
    """
    arrays = read_checkpoint_arrays(path)
    for name in store.names():
        if name not in arrays:
            raise CorruptCheckpoint(f"{path}: missing entry {name!r}")
        arr = arrays.pop(name)
        if arr.shape != store[name].data.shape:
            raise CorruptCheckpoint(f"{path}: shape {arr.shape} != expected {store[name].data.shape} "
                                    f"for {name!r}")
        store[name].data[...] = arr
    for name in store.trainable_names():
        for key, moment in ((_ADAM_M + name, store._m[name]), (_ADAM_V + name, store._v[name])):
            if key in arrays:
                moment[...] = arrays.pop(key)
    if _STEP_KEY in arrays:
        store.step = int(arrays.pop(_STEP_KEY))
    if arrays:
        raise CorruptCheckpoint(f"{path}: record {next(iter(arrays))!r} is not part of this network "
                                f"({len(arrays)} such records)")
