"""Property tests: each autodiff op's gradient agrees with finite differences over random shapes.

Backward hands every node's gradient buffer to its closure, which may write
into it or pass it on to one parent, so the fan-out graphs below (a tensor
read twice by one op, reshapes feeding adds, residual chains) are where a
buffer could end up shared by two gradients.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twoview import autodiff as ad
from twoview.autodiff import Tensor

SEEDS = st.integers(0, 2**32 - 1)
SHAPES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def assert_gradient(f, x):
    """f's analytic gradient at x matches the finite-difference reference; backward leaves x alone."""
    analytic, numeric = ad.analytic_gradient(f, x), ad.numeric_gradient(f, x)
    assert analytic.shape == np.shape(x)
    np.testing.assert_allclose(analytic, numeric, rtol=0.0,
                               atol=1e-6 * max(1.0, float(np.abs(numeric).max())))


def projected(op, shape, rng):
    """x -> sum(op(x) * P) for a fixed random P, so every output entry carries its own weight."""
    P = rng.normal(size=shape)
    return lambda t: ad.reduce_sum(ad.mul(op(t), P))


def away_from(rng, shape, point, margin=0.1):
    """Random values at least `margin` from `point`, so a kink stays outside the FD step."""
    v = rng.normal(size=shape)
    return point + np.sign(v + (v == 0)) * (margin + np.abs(v))


@st.composite
def broadcast_pair(draw):
    """A shape and a second shape that broadcasts against it (a suffix, some dims set to 1)."""
    shape = draw(SHAPES)
    suffix = shape[len(shape) - draw(st.integers(1, len(shape))):]
    other = tuple(1 if draw(st.booleans()) else n for n in suffix)
    return (shape, other) if draw(st.booleans()) else (other, shape)


class TestElementwise:
    @PROPERTY
    @given(shapes=broadcast_pair(), seed=SEEDS, op=st.sampled_from(["add", "sub", "mul", "div"]),
           probe_first=st.booleans())
    def test_binary(self, shapes, seed, op, probe_first):
        rng = np.random.default_rng(seed)
        fn = getattr(ad, op)
        out_shape = np.broadcast_shapes(*shapes)
        probe_shape, other_shape = shapes if probe_first else shapes[::-1]
        other = rng.normal(size=other_shape)
        if op == "div":
            other = away_from(rng, other_shape, 0.0, 0.5)
        x = away_from(rng, probe_shape, 0.0, 0.5) if op == "div" and not probe_first else \
            rng.normal(size=probe_shape)
        f = projected((lambda t: fn(t, other)) if probe_first else (lambda t: fn(other, t)),
                      out_shape, rng)
        assert_gradient(f, x)

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS,
           op=st.sampled_from(["neg", "relu", "tanh", "softplus", "sqrt", "minimum_const"]))
    def test_unary(self, shape, seed, op):
        rng = np.random.default_rng(seed)
        fn = {"minimum_const": lambda t: ad.minimum_const(t, 0.25)}.get(op, getattr(ad, op))
        x = {"relu": away_from(rng, shape, 0.0), "minimum_const": away_from(rng, shape, 0.25),
             "sqrt": rng.uniform(0.5, 2.0, size=shape)}.get(op, rng.normal(size=shape))
        assert_gradient(projected(fn, shape, rng), x)


class TestStructural:
    @PROPERTY
    @given(n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4), b=st.integers(1, 3),
           layout=st.sampled_from(["2@2", "3@2", "3@3", "2@3"]), probe_left=st.booleans(),
           seed=SEEDS)
    def test_matmul(self, n, k, m, b, layout, probe_left, seed):
        rng = np.random.default_rng(seed)
        left = (b, n, k) if layout[0] == "3" else (n, k)
        right = (b, k, m) if layout[2] == "3" else (k, m)
        out_shape = np.broadcast_shapes(left[:-2], right[:-2]) + (n, m)
        if probe_left:
            other = rng.normal(size=right)
            f, x = projected(lambda t: ad.matmul(t, other), out_shape, rng), rng.normal(size=left)
        else:
            other = rng.normal(size=left)
            f, x = projected(lambda t: ad.matmul(other, t), out_shape, rng), rng.normal(size=right)
        assert_gradient(f, x)

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS, data=st.data())
    def test_shape_ops(self, shape, seed, data):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        ax = data.draw(st.integers(0, len(shape) - 1))
        assert_gradient(projected(lambda t: ad.reshape(t, shape[::-1]), shape[::-1], rng), x)
        assert_gradient(projected(lambda t: ad.reshape(t, (-1,)), (x.size,), rng), x)
        other = rng.normal(size=shape)
        cat = tuple(2 * n if i == ax else n for i, n in enumerate(shape))
        assert_gradient(projected(lambda t: ad.concat([other, t], axis=ax), cat, rng), x)
        if len(shape) >= 2:
            flipped = shape[:-2] + (shape[-1], shape[-2])
            assert_gradient(projected(ad.transpose_last2, flipped, rng), x)

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS, keepdims=st.booleans(), data=st.data())
    def test_reduce_sum(self, shape, seed, keepdims, data):
        rng = np.random.default_rng(seed)
        axes = tuple(sorted(data.draw(st.sets(st.integers(0, len(shape) - 1), min_size=1))))
        out_shape = np.sum(np.zeros(shape), axis=axes, keepdims=keepdims).shape
        assert_gradient(projected(lambda t: ad.reduce_sum(t, axis=axes, keepdims=keepdims),
                                  out_shape, rng), rng.normal(size=shape))
        assert_gradient(lambda t: ad.reduce_sum(t) * 3.0, rng.normal(size=shape))


class TestNormalisations:
    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS, data=st.data())
    def test_softmax(self, shape, seed, data):
        rng = np.random.default_rng(seed)
        axis = data.draw(st.integers(-len(shape), len(shape) - 1))
        assert_gradient(projected(lambda t: ad.softmax(t, axis), shape, rng),
                        2.0 * rng.normal(size=shape))

    @PROPERTY
    @given(shape=st.lists(st.integers(2, 4), min_size=1, max_size=3).map(tuple), seed=SEEDS,
           data=st.data())
    def test_normalize(self, shape, seed, data):
        rng = np.random.default_rng(seed)
        axes = tuple(sorted(data.draw(st.sets(st.integers(0, len(shape) - 1), min_size=1))))
        assert_gradient(projected(lambda t: ad.normalize(t, axes), shape, rng),
                        rng.normal(size=shape))

    @PROPERTY
    @given(b=st.integers(1, 3), n=st.integers(2, 5), d=st.integers(1, 4), k=st.integers(1, 4),
           batch_stats=st.booleans(), with_bias=st.booleans(),
           probe=st.sampled_from(["h", "gamma", "beta", "weight", "bias"]), seed=SEEDS)
    def test_bn_relu_linear(self, b, n, d, k, batch_stats, with_bias, probe, seed):
        assume(probe != "bias" or with_bias)
        rng = np.random.default_rng(seed)
        args = {"h": rng.normal(size=(b, n, d)), "gamma": rng.uniform(0.5, 1.5, d),
                "beta": rng.normal(size=d), "weight": rng.normal(size=(d, k)),
                "bias": rng.normal(size=k) if with_bias else None}
        running = None if batch_stats else (rng.normal(size=d), rng.uniform(0.5, 2.0, d))
        # the batch statistics, taken here in numpy: the op's own are what is under test
        moments_ref = (args["h"].mean(axis=(0, 1)), args["h"].var(axis=(0, 1)))
        mean, var = moments_ref if batch_stats else running
        inv = 1.0 / np.sqrt(var + 1e-5)
        pre = (args["h"] - mean) * inv * args["gamma"] + args["beta"]
        assume(np.abs(pre).min() > 1e-3 * max(1.0, float(inv.max())))  # no ReLU kink within the FD step

        _, moments = ad.bn_relu_linear(*args.values(), running)
        if batch_stats:
            scale = max(np.abs(m).max() for m in moments_ref)
            for got, ref in zip(moments, moments_ref):
                assert np.abs(got - ref).max() <= 1e-12 * scale
        else:
            assert moments is None

        def op(t):
            full = dict(args, **{probe: t})
            return ad.bn_relu_linear(*full.values(), running)[0]

        f = projected(op, (b, n, k), rng)
        assert_gradient(f, args[probe])
        if not batch_stats:
            # the running buffers change in place after a train step's forward; the backward
            # must not read them
            def then_update_running(t):
                loss = f(t)
                for buffer in running:
                    buffer += 1.0
                return loss

            expected = ad.analytic_gradient(f, args[probe])
            assert np.array_equal(ad.analytic_gradient(then_update_running, args[probe]), expected)


class TestFoldedUnit:
    """cn_bn_relu_linear against the two nodes it folds, bn_relu_linear(normalize(x))."""

    @staticmethod
    def two_node(x, gamma, beta, weight, bias, running):
        """The unit as a context-norm node and a bn_relu_linear node, with numpy's moments of h."""
        h = ad.normalize(x, axes=(1,))
        out, _ = ad.bn_relu_linear(h, gamma, beta, weight, bias, running)
        return out, (h.data.mean(axis=(0, 1)), h.data.var(axis=(0, 1))) if running is None else None

    @PROPERTY
    @given(b=st.integers(1, 3), n=st.integers(2, 6), d=st.integers(2, 5), k=st.integers(1, 4),
           train=st.booleans(), with_bias=st.booleans(), seed=SEEDS, data=st.data())
    def test_matches_the_two_node_unit(self, b, n, d, k, train, with_bias, seed, data):
        rng = np.random.default_rng(seed)
        constant, dead = data.draw(st.permutations(range(d)))[:2]
        values = {"x": rng.normal(size=(b, n, d)), "gamma": rng.uniform(0.5, 1.5, d),
                  "beta": rng.normal(size=d), "weight": rng.normal(size=(d, k)),
                  "bias": rng.normal(size=k) if with_bias else None}
        values["x"][..., constant] = rng.normal()  # variance 0 in every sample
        values["gamma"][dead] = 0.0
        running = None if train else (rng.normal(size=d), rng.uniform(0.5, 2.0, d))
        proj = rng.normal(size=(b, n, k))
        results = []
        for unit in (ad.cn_bn_relu_linear, self.two_node):
            leaves = {name: v if v is None else Tensor(v, requires_grad=True) for name, v in values.items()}
            out, moments = unit(*leaves.values(), running)
            ad.backward(ad.reduce_sum(out * proj))
            grads = {name: t.grad for name, t in leaves.items() if t is not None}
            results.append((out.data, grads, moments))
        (out, grads, moments), (out_ref, grads_ref, moments_ref) = results
        # the constant channel's centred values are rounding, which cn's and bn's scales of
        # 1/sqrt(eps) lift by 1e5, and the two units round them apart: 3e-10 at worst over
        # 3000 draws (in train mode the two-node unit takes their batch mean out)
        for got, ref in [(out, out_ref)] + [(g, grads_ref[name]) for name, g in grads.items()]:
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-8 * max(1.0, np.abs(ref).max()))
        if train:
            assert np.array_equal(moments[0], np.zeros(d))
            assert np.abs(moments[1] - moments_ref[1]).max() <= 1e-15
        else:
            assert moments is None


class TestFanOut:
    """Graphs that read one tensor more than once, where a donated buffer could be shared."""

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS)
    def test_one_op_reads_a_tensor_twice(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        for op in (lambda t: t + t, lambda t: t - t * 2.0, lambda t: t * t,
                   lambda t: ad.concat([t, t], axis=0)):
            out_shape = op(Tensor(x)).shape
            assert_gradient(projected(op, out_shape, rng), x)

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS)
    def test_reshape_into_add(self, shape, seed):
        rng = np.random.default_rng(seed)
        flat = (int(np.prod(shape)),)
        for op in (lambda t: ad.reshape(t, flat) + ad.reshape(t, flat),
                   lambda t: ad.reshape(t, flat) + ad.reshape(ad.tanh(t), flat),
                   lambda t: ad.reshape(ad.tanh(t), flat) - ad.reshape(t, flat),
                   lambda t: ad.reshape(ad.reshape(t, flat) + ad.reshape(t * 3.0, flat), shape)
                   + t):
            assert_gradient(projected(op, op(Tensor(rng.normal(size=shape))).shape, rng),
                            rng.normal(size=shape))

    @PROPERTY
    @given(shape=SHAPES, seed=SEEDS)
    def test_both_addends_gather_gradient_after_the_add(self, shape, seed):
        """s = t (op) v, where later-explored terms read t and v again, so backward adds to
        their gradients after the add has handed its gradient on."""
        rng = np.random.default_rng(seed)
        P = rng.normal(size=(3,) + shape)
        flat = (int(np.prod(shape)),)
        for combine in (ad.add, ad.sub, lambda a, b: ad.reshape(a, flat) + ad.reshape(b, flat)):
            def f(t, combine=combine):
                v = ad.tanh(t)
                s = combine(t, v)
                return (ad.reduce_sum(s * P[0].reshape(s.shape))
                        + (ad.reduce_sum(t * P[1]) + ad.reduce_sum(v * P[2])))

            assert_gradient(f, rng.normal(size=shape))

    @PROPERTY
    @given(b=st.integers(1, 3), n=st.integers(2, 5), d=st.integers(1, 4), depth=st.integers(1, 4),
           seed=SEEDS)
    def test_residual_chain(self, b, n, d, depth, seed):
        rng = np.random.default_rng(seed)
        weights = [rng.normal(size=(d, d)) * 0.5 for _ in range(depth)]

        def op(t):
            h = t
            for i, w in enumerate(weights):
                branch = (ad.tanh(ad.matmul(h, w)), ad.softmax(h, axis=1),
                          ad.normalize(h, axes=(1,)))[i % 3]
                h = h + branch if i % 2 == 0 else branch - h
            return h + ad.reduce_sum(h, axis=0, keepdims=True)

        assert_gradient(projected(op, (b, n, d), rng), rng.normal(size=(b, n, d)))
