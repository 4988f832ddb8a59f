import math
import os
import struct
import weakref

import numpy as np
import pytest

from twoview import autodiff as ad
from twoview.autodiff import (
    CorruptCheckpoint,
    GraphConsumed,
    NonScalarLoss,
    NotFinite,
    ParameterStore,
    ShapeMismatch,
    Tensor,
    adam_step,
    analytic_gradient,
    gradient_error,
    load_checkpoint,
    numeric_gradient,
    read_checkpoint_arrays,
    relative_errors,
    save_checkpoint,
)
from twoview import gradcheck
from twoview.gradcheck import run_gradcheck


class TestForwardSemantics:
    def test_relu(self):
        out = ad.relu(Tensor(np.array([-1.0, 0.0, 2.0])))
        assert out.data.tolist() == [0.0, 0.0, 2.0]

    def test_softmax_uniform(self):
        out = ad.softmax(Tensor(np.zeros(3)), axis=0)
        assert np.allclose(out.data, np.full(3, 1 / 3))

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 5))
        out = ad.matmul(Tensor(np.eye(3)), Tensor(A))
        assert np.allclose(out.data, A)

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (2, 4, 5)), ((3, 4), (2, 4, 5)),
                                        ((8, 64, 16), (8, 16, 8))])
    def test_batched_matmul_equals_per_sample_loop(self, shapes):
        """Output and both gradients equal a loop of 2-D products, bit for bit."""
        rng = np.random.default_rng(3)
        a, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes)
        g = rng.normal(size=(shapes[1][0], shapes[0][-2], shapes[1][-1]))
        out = ad.matmul(a, b)
        ad.backward(ad.reduce_sum(out * g))
        a3 = np.broadcast_to(a.data, (len(g),) + a.shape[-2:])
        assert np.array_equal(out.data, np.stack([x @ y for x, y in zip(a3, b.data)]))
        ga = np.stack([gi @ y.T for gi, y in zip(g, b.data)])
        assert np.array_equal(a.grad, ga if a.data.ndim == 3 else ga.sum(axis=0))
        assert np.array_equal(b.grad, np.stack([x.T @ gi for x, gi in zip(a3, g)]))

    def test_matmul_batch_mismatch(self):
        with pytest.raises(ShapeMismatch, match="batch dims differ"):
            ad.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 4))
        a = ad.softmax(ad.tanh(Tensor(x)), axis=1).data
        b = ad.softmax(ad.tanh(Tensor(x)), axis=1).data
        assert np.array_equal(a, b)

    def test_nan_aborts_with_diagnostics(self):
        with pytest.raises(NotFinite) as exc:
            ad.div(Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert "div" in str(exc.value)

    def test_constant_inputs_build_no_graph(self):
        out = ad.mul(Tensor(np.ones(3)), Tensor(np.ones(3)))
        assert not out.requires_grad and out.node is None

    def test_no_grad_suppresses_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            out = ad.tanh(x)
        assert not out.requires_grad


def non_finite(kind, shape=(2, 3, 4)):
    """One +inf, -inf or NaN entry, made by unchecked ops from finite leaves."""
    big = np.zeros(shape)
    big.flat[5] = 1e308
    with np.errstate(over="ignore", invalid="ignore"):
        t = ad.add(Tensor(big), Tensor(big))  # overflows to +inf
        if kind == "-inf":
            t = ad.neg(t)
        elif kind == "nan":
            t = ad.sub(t, t)
    return t


class TestFiniteness:
    """Checks sit where a NaN or Inf can be created or hidden, not after every op."""

    HIDING_OPS = {
        "relu": lambda t: ad.relu(t),
        "tanh": lambda t: ad.tanh(t),
        "softplus": lambda t: ad.softplus(t),
        "minimum_const": lambda t: ad.minimum_const(t, 0.5),
        "softmax": lambda t: ad.softmax(t, axis=2),
        "bn_relu_linear": lambda t: ad.bn_relu_linear(
            t, np.ones(4), np.zeros(4), np.ones((4, 3)), np.zeros(3), (np.zeros(4), np.ones(4))),
    }

    @pytest.mark.parametrize("kind", ["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("op", sorted(HIDING_OPS))
    def test_hiding_op_names_itself(self, op, kind):
        t = non_finite(kind)
        assert np.count_nonzero(~np.isfinite(t.data)) == 1
        with pytest.raises(NotFinite, match=rf"^{op}: 1 non-finite"):
            self.HIDING_OPS[op](t)

    @pytest.mark.parametrize("running", [None, (np.zeros(1), np.ones(1))], ids=["train", "eval"])
    def test_folded_unit_names_a_minus_inf_pre_activation(self, running):
        # one spike among ten points: its context-normed value is 3, which a gamma of -1e308
        # takes past the largest float; the ReLU would make that -inf a 0
        x = np.zeros((1, 10, 1))
        x[0, 9, 0] = 10.0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NotFinite, match="^cn_bn_relu_linear: 1 non-finite entries in pre-activation"):
            ad.cn_bn_relu_linear(Tensor(x), np.array([-1e308]), np.zeros(1), np.ones((1, 2)), None, running)

    @pytest.mark.parametrize("kind", ["+inf", "-inf", "nan"])
    def test_folded_unit_checks_a_non_finite_input(self, kind):
        # the entry spreads over its channel, and no bound on the pre-activation holds
        with np.errstate(invalid="ignore"), \
                pytest.raises(NotFinite, match=r"^cn_bn_relu_linear: \d+ non-finite entries in pre-activation"):
            ad.cn_bn_relu_linear(non_finite(kind), np.ones(4), np.zeros(4), np.ones((4, 3)), None)

    @pytest.mark.parametrize("kind", ["+inf", "-inf", "nan"])
    def test_pass_through_ops_leave_it_to_the_next_check(self, kind):
        t = non_finite(kind)
        with np.errstate(invalid="ignore"):
            h = ad.normalize(ad.matmul(ad.mul(t, 2.0) - 1.0, np.eye(4)), axes=(1,))
            h = ad.reduce_sum(ad.transpose_last2(ad.reshape(h, (2, 3, 4))), axis=0, keepdims=True)
        assert not np.isfinite(h.data).all()
        with pytest.raises(NotFinite, match="^tanh:"):
            ad.tanh(h)

    def test_backward_rejects_non_finite_loss(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        loss = ad.reduce_sum(ad.mul(x, non_finite("+inf")))
        with pytest.raises(NotFinite, match="^backward: .* loss"):
            ad.backward(loss)
        assert x.grad is None

    def test_leaf_checked(self):
        with pytest.raises(NotFinite, match="^leaf:"):
            Tensor(np.array([1.0, np.inf]))

    @pytest.mark.parametrize("op, fn", [
        ("div", lambda: ad.div(Tensor(np.array([1.0, 1.0])), Tensor(np.array([2.0, 0.0])))),
        ("my_op", lambda: ad.custom((Tensor(np.ones(2)),), np.array([np.nan]), None, op="my_op")),
    ])
    def test_creating_op_checks_output(self, op, fn):
        with pytest.raises(NotFinite, match=f"^{op}:"):
            fn()

    def test_empty_tensor_is_a_shape_mismatch(self):
        with pytest.raises(ShapeMismatch, match="empty"):
            Tensor(np.zeros((0, 3)))
        with pytest.raises(ShapeMismatch, match="^my_op: empty"):
            ad.custom((Tensor(np.ones(2)),), np.zeros((2, 0)), None, op="my_op")


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)), requires_grad=True)
        ad.backward(ad.reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(NonScalarLoss):
            ad.backward(ad.relu(x))

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(np.array([0.0, 1.0, -1.0]), requires_grad=True)
        ad.backward(ad.reduce_sum(ad.relu(x)))
        assert x.grad.tolist() == [0.0, 1.0, 0.0]

    def test_random_three_layer_graph(self):
        rng = np.random.default_rng(4)
        W1, W2 = rng.normal(size=(5, 6)), rng.normal(size=(6, 2))
        proj = rng.normal(size=(3, 2))

        def f(t):
            h = ad.tanh(ad.matmul(t, W1))
            h = ad.relu(ad.matmul(h, W2) + 0.3)
            return ad.reduce_sum(h * proj)

        assert gradient_error(f, rng.normal(size=(3, 5))) < 1e-4

    def test_fanout_accumulates(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = ad.mul(x, x)  # both parents are the same tensor
        ad.backward(ad.reduce_sum(y))
        assert np.allclose(x.grad, [4.0])

    def test_relu_backward_keeps_where_semantics(self):
        """NaN and -0.0 in the upstream gradient pass where the input is positive; elsewhere +0.0."""
        x = Tensor(np.array([1.0, 2.0, 3.0, 0.0, -1.0, -2.0]), requires_grad=True)
        upstream = np.array([np.nan, -0.0, 1.5, np.nan, -0.0, 2.0])
        out = ad.relu(x)
        out._backward(upstream.copy())
        expected = np.where(x.data > 0.0, upstream, 0.0)
        assert np.array_equal(x.grad, expected, equal_nan=True)
        assert np.array_equal(np.signbit(x.grad), np.signbit(expected))

    def test_residual_partner_keeps_its_own_gradient(self):
        """x + y hands its gradient to one parent only: a later x.grad += ... must not move y.grad."""
        x, y = (Tensor(np.ones((2, 3)), requires_grad=True) for _ in range(2))
        ad.backward(ad.reduce_sum((x + y) * 3.0) + ad.reduce_sum(x * 5.0))
        assert np.array_equal(x.grad, np.full((2, 3), 8.0))
        assert np.array_equal(y.grad, np.full((2, 3), 3.0))


class TestGraphConsumed:
    def graph(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        h = ad.tanh(ad.matmul(x, w))
        return x, w, h, ad.reduce_sum(ad.softmax(h, axis=1) * np.arange(8.0).reshape(4, 2))

    def test_second_backward_raises_and_leaf_grads_survive(self):
        x, w, h, loss = self.graph()
        ad.backward(loss)
        grads = x.grad.copy(), w.grad.copy()
        with pytest.raises(GraphConsumed):
            ad.backward(loss)
        assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    def test_new_graph_on_a_consumed_tensor_raises_before_any_gradient_moves(self):
        x, w, h, loss = self.graph()
        ad.backward(loss)
        grads = x.grad.copy(), w.grad.copy()
        with pytest.raises(GraphConsumed, match="tanh"):
            ad.backward(ad.reduce_sum(h * 2.0) + ad.reduce_sum(x * w.data[:, 0]))
        assert np.array_equal(x.grad, grads[0]) and np.array_equal(w.grad, grads[1])

    def test_op_nodes_are_released_and_leaves_keep_grad(self):
        x, w, h, loss = self.graph()
        ad.backward(loss)
        for t in (h, loss):
            assert t.node.grad is None and t.node.parents == () and t.node.backward is ad._consumed
        assert x.grad.shape == x.shape and w.grad.shape == w.shape
        assert x.node.backward is None and w.node.backward is None

    def test_a_new_graph_on_the_same_leaves_adds_to_their_grads(self):
        x, w, _, loss = self.graph()
        ad.backward(loss)
        first = x.grad.copy()
        ad.backward(ad.reduce_sum(ad.tanh(ad.matmul(x, w))))
        t = np.tanh(x.data @ w.data)
        assert np.allclose(x.grad, first + (1.0 - t * t) @ w.data.T, rtol=1e-14, atol=0.0)


class TestClosuresKeepOnlyWhatBackwardReads:
    """Dropping an operand tensor frees its data unless a backward reads it; its node lives on."""

    @staticmethod
    def dropped(t):
        """t's node and a weak reference to its data; the caller then drops t."""
        return t.node, weakref.ref(t.data)

    def test_mul_by_a_constant_keeps_no_reference_to_the_variable(self):
        a = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
        c = np.full((2, 3), 2.5)
        node, data = self.dropped(a)
        out = ad.mul(a, c)
        del a
        assert data() is None
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(node.grad, c)

    def test_matmul_with_a_constant_lhs_keeps_no_reference_to_the_rhs(self):
        x = np.arange(6.0).reshape(2, 3)
        w = Tensor(np.ones((3, 4)), requires_grad=True)
        node, data = self.dropped(w)
        out = ad.matmul(x, w)
        del w
        assert data() is None
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(node.grad, x.T @ np.ones((2, 4)))

    def test_an_operand_that_the_other_gradient_reads_is_kept(self):
        a, b = (Tensor(np.full((2, 3), v), requires_grad=True) for v in (2.0, 3.0))
        (na, ra), (nb, rb) = self.dropped(a), self.dropped(b)
        out = ad.mul(a, b)
        del a, b
        assert ra() is not None and rb() is not None
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(na.grad, np.full((2, 3), 3.0)) and np.array_equal(nb.grad, np.full((2, 3), 2.0))
        del out
        assert ra() is None and rb() is None

    SHAPE_ONLY = {
        "add": lambda x, y: ad.add(x, y),
        "sub": lambda x, y: ad.sub(x, y),
        "neg": lambda x, y: ad.neg(x),
        "concat": lambda x, y: ad.concat([x, y], axis=1),
        "transpose_last2": lambda x, y: ad.transpose_last2(x),
        "reduce_sum": lambda x, y: ad.reduce_sum(x, axis=1),
        "relu": lambda x, y: ad.relu(x),
        "minimum_const": lambda x, y: ad.minimum_const(x, 0.5),
    }

    @pytest.mark.parametrize("op", sorted(SHAPE_ONLY))
    def test_ops_that_read_no_operand_free_it(self, op):
        rng = np.random.default_rng(11)
        x, y = (Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(2))
        (nx, rx), (ny, ry) = self.dropped(x), self.dropped(y)
        out = self.SHAPE_ONLY[op](x, y)
        del x, y
        assert rx() is None and ry() is None
        ad.backward(ad.reduce_sum(out))
        assert nx.grad.shape == (3, 4)


class TestFiniteDifferenceCheck:
    def test_quadratic(self):
        assert gradient_error(lambda t: ad.reduce_sum(t * t), np.array([3.0])) < 1e-9

    def test_tanh(self):
        assert gradient_error(lambda t: ad.reduce_sum(ad.tanh(t)), np.array([0.5])) < 1e-8


class TestGradcheckRows:
    @pytest.fixture(autouse=True)
    def solver_cases_only(self, monkeypatch):
        """run_gradcheck with only the solver's case builder, so a run takes milliseconds."""
        for name in ("_op_cases", "_block_cases", "_loss_cases", "_full_network_cases"):
            monkeypatch.setattr(gradcheck, name, lambda *rng: [])

    def test_eigendecomposition_row_follows_the_seed(self):
        (row0,), (row1,) = (run_gradcheck(seed)[0] for seed in (0, 1))
        assert row0[0] == row1[0] == "weighted_eightpoint_backward(eigendecomposition)"
        assert row0[1] != row1[1]

    def test_row_writing_into_its_probe_fails(self, monkeypatch):
        def zeroes_its_probe(t):
            def bwd(g):
                t.data[...] = 0.0
                return [np.full(t.shape, g)]

            return ad.custom((t,), t.data.sum(), bwd)

        monkeypatch.setattr(gradcheck, "_solver_cases", lambda rng: [("writes", np.ones(3), zeroes_its_probe)])
        assert run_gradcheck(0) == ([("writes", math.inf, False)], False)


class TestKinkedProbe:
    """gradcheck leaves out a component whose probe sits within the step of a kink, and no more."""

    @staticmethod
    def relu_sum(scale=1.0):
        # relu with a backward scaled by `scale`; 1.0 is the correct gradient
        def fn(t):
            out = ad.custom((t,), np.maximum(t.data, 0.0),
                            lambda g: [scale * g * (t.data > 0)], op="scaled_relu")
            return ad.reduce_sum(out)

        return fn

    def test_kinked_component_left_out(self):
        x = np.array([5e-6, 1.0, -2.0, 0.5])  # 5e-6 is within h = 1e-5 of the kink at 0
        # relu's central differences at 5e-6 read 0.75 at h and 1 at h/2: Richardson gives 13/12
        unfiltered = relative_errors(analytic_gradient(self.relu_sum(), x),
                                     numeric_gradient(self.relu_sum(), x))
        assert unfiltered.max() == pytest.approx(1 / 13)
        assert gradient_error(self.relu_sum(), x) < 1e-9

    def test_wrong_backward_still_fails(self):
        x = np.array([5e-6, 1.0, -2.0, 0.5])
        assert gradient_error(self.relu_sum(1.05), x) == pytest.approx(0.05 / 1.05)

    def test_all_components_kinked_keeps_the_error(self):
        assert gradient_error(self.relu_sum(), np.array([5e-6])) == pytest.approx(1 / 13)

    @pytest.mark.parametrize("seed", [3, 29, 32, 19, 69, 87])
    def test_seeds_probing_a_kink_pass(self, seed, gradcheck_rows):
        # the ten pointcn_unit rows, probed where the full suite probes them. Of all rows at these
        # seeds only pointcn_unit(train, beta) at 32 reaches the re-check at h/10 (5.0e-4, one
        # kinked component); pointcn_unit(train, input) at 3 and 29 did only while rounding on
        # components 7e-9 and 3e-7 of the row's largest read as error, and 19, 69 and 87 only
        # while the op cases drew one more probe
        gradcheck_rows(lambda name: name.startswith("pointcn_unit("))
        rows, ok = run_gradcheck(seed=seed)
        assert len(rows) == 10 and ok, [(name, err) for name, err, passed in rows if not passed]

    @pytest.mark.parametrize("seed", [0, 15])
    def test_rounding_on_small_components_is_not_a_kink(self, seed, gradcheck_rows, monkeypatch):
        # the eigendecomposition row read 1.5e-4 and 1.3e-4 on a component about 4e-5 of a row
        # whose largest is 0.21 and 0.078; the row floor reads it below the budget in the first
        # pass, so the kink rule has nothing to drop
        gradcheck_rows(lambda name: "eigendecomposition" in name)
        monkeypatch.setattr(ad, "gradient_error", lambda f, x: float(
            relative_errors(analytic_gradient(f, x), numeric_gradient(f, x)).max()))
        rows, ok = run_gradcheck(seed=seed)
        assert len(rows) == 1 and ok, rows

    def test_wrong_backward_on_a_small_component_still_fails(self):
        # a 5% error on a component at 1e-3 of the row's largest reads 5e-5 / 1e-2
        c = np.array([1.0, 1e-3, -0.5, 0.25])
        scale = np.array([1.0, 1.05, 1.0, 1.0])

        def fn(t):
            return ad.reduce_sum(ad.custom((t,), c * t.data, lambda g: [g * c * scale]))

        assert gradient_error(fn, np.zeros(4)) == pytest.approx(5e-3, rel=1e-6)


class TestAdam:
    def make_store(self):
        store = ParameterStore()
        store.parameter("w", np.array([1.0, -2.0, 3.0]))
        return store

    def test_zero_grad_keeps_parameters(self):
        store = self.make_store()
        before = store["w"].data.copy()
        store["w"].grad = np.zeros(3)
        adam_step(store, lr=0.1)
        assert np.array_equal(store["w"].data, before)
        assert store.step == 1

    def test_first_step_magnitude(self):
        store = self.make_store()
        g = np.array([0.3, -0.7, 1.9])
        before = store["w"].data.copy()
        store["w"].grad = g
        adam_step(store, lr=1e-2)
        delta = store["w"].data - before
        assert np.allclose(np.abs(delta), 1e-2, rtol=1e-6)
        assert np.array_equal(np.sign(delta), -np.sign(g))

    def test_descends_convex_quadratic(self):
        store = ParameterStore()
        store.parameter("x", np.array([5.0]))
        value = lambda: float(store["x"].data[0] ** 2)
        v0 = value()
        for _ in range(2):
            store["x"].grad = 2.0 * store["x"].data
            adam_step(store, lr=0.5)
        assert value() < v0

    def test_shape_mismatch(self):
        store = self.make_store()
        store["w"].grad = np.zeros(4)
        with pytest.raises(ShapeMismatch):
            adam_step(store)

    def test_gradients_from_graph(self):
        store = ParameterStore()
        w = store.parameter("w", np.array([1.0, 2.0]))
        ad.backward(ad.reduce_sum(w * w))
        before = w.data.copy()
        adam_step(store, lr=1e-3)
        assert np.all(np.abs(w.data - before) > 0)


class TestParameterStore:
    def test_duplicate_name_rejected(self):
        store = ParameterStore()
        store.parameter("a", np.zeros(2))
        with pytest.raises(ValueError):
            store.buffer("a", np.zeros(2))

    def test_reserved_prefix_rejected(self):
        store = ParameterStore()
        with pytest.raises(ValueError):
            store.parameter("__adam_m__/x", np.zeros(1))

    def test_zero_grad(self):
        store = ParameterStore()
        w = store.parameter("w", np.ones(2))
        ad.backward(ad.reduce_sum(w))
        assert w.grad is not None
        store.zero_grad()
        assert w.grad is None


class TestCheckpoint:
    def build(self, seed=0):
        rng = np.random.default_rng(seed)
        store = ParameterStore()
        store.parameter("layer.weight", rng.normal(size=(4, 3)))
        store.parameter("layer.bias", rng.normal(size=3))
        store.buffer("layer.running_mean", rng.normal(size=3))
        return store

    def test_round_trip_bit_exact(self, tmp_path):
        store = self.build()
        store["layer.weight"].grad = np.ones((4, 3)) * 0.1
        store["layer.bias"].grad = np.ones(3)
        adam_step(store)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        other = self.build(seed=9)
        load_checkpoint(other, path)
        for name in store.names():
            assert np.array_equal(store[name].data, other[name].data)
        for name in store.trainable_names():
            assert np.array_equal(store._m[name], other._m[name])
            assert np.array_equal(store._v[name], other._v[name])
        assert other.step == store.step == 1

    def test_file_byte_stable(self, tmp_path):
        store = self.build()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(store, p1)
        save_checkpoint(store, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_raw_read(self, tmp_path):
        store = self.build()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        arrays = read_checkpoint_arrays(path)
        assert np.array_equal(arrays["layer.weight"], store["layer.weight"].data)
        assert "__step__" in arrays

    def test_truncated_file_rejected(self, tmp_path):
        store = self.build()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ValueError):
            read_checkpoint_arrays(path)

    def test_every_truncation_is_corrupt(self, tmp_path):
        store = self.build()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(CorruptCheckpoint):
                read_checkpoint_arrays(path)

    def test_garbled_records_are_corrupt(self, tmp_path):
        store = self.build()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        blob = path.read_bytes()
        # header (16 bytes), then the first record: name length, "layer.weight", rank, dims
        assert blob[20:32] == b"layer.weight"
        bad_name = bytearray(blob)
        bad_name[20] = 0xFF
        huge_dim = bytearray(blob)
        struct.pack_into("<Q", huge_dim, 36, 2 ** 62)
        for garbled in (bytes(bad_name), bytes(huge_dim), blob + b"\0"):
            path.write_bytes(garbled)
            with pytest.raises(CorruptCheckpoint):
                read_checkpoint_arrays(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self.build(), path)
        before = path.read_bytes()

        def broken(fh, name, array):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(ad, "_write_record", broken)
        with pytest.raises(OSError):
            save_checkpoint(self.build(seed=1), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.bin"]

    def test_save_keeps_the_umask_file_mode(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self.build(), path)
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"hello world")
        with pytest.raises(ValueError):
            read_checkpoint_arrays(path)

    def test_every_bit_flip_is_corrupt(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 1 << (i % 8)
            path.write_bytes(bytes(flipped))
            with pytest.raises(CorruptCheckpoint):
                read_checkpoint_arrays(path)

    def test_format_1_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self.build(), path)
        blob = path.read_bytes()
        assert struct.unpack_from("<I", blob, 4) == (2,)
        v1 = tmp_path / "v1.bin"
        for body in (blob[8:-4], blob[8:]):  # format 1 had no checksum trailer
            v1.write_bytes(blob[:4] + struct.pack("<I", 1) + body)
            with pytest.raises(CorruptCheckpoint, match="unsupported checkpoint version 1"):
                read_checkpoint_arrays(v1)

    def test_unconsumed_record_rejected(self, tmp_path):
        store = self.build()
        store.parameter("extra.weight", np.ones(2))
        path = tmp_path / "ckpt.bin"
        save_checkpoint(store, path)
        with pytest.raises(CorruptCheckpoint, match="'extra.weight'"):
            load_checkpoint(self.build(), path)

    def test_missing_entry_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(self.build(), path)
        cases = [("different", 2, "missing entry 'different'"),
                 ("layer.bias", 4, r"shape \(3,\) != expected \(4,\) for 'layer.bias'")]
        for name, shape, message in cases:
            other = ParameterStore()
            other.parameter(name, np.zeros(shape))
            with pytest.raises(CorruptCheckpoint, match=message):
                load_checkpoint(other, path)
