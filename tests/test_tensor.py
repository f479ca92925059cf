import numpy as np
import pytest

import winoref.tensor as T
from winoref.tensor import Tensor

from conftest import check_grads, finite_difference_grad, rel_err


def randt(rng, *shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def cosine(u, v):
    """Cosine along the last axis as the windowed score computes it: unit
    vectors from l2_normalize, multiplied and summed."""
    return T.tsum(T.mul(T.l2_normalize(u), T.l2_normalize(v)), axis=-1)


class TestBasics:
    def test_shape_invariant(self):
        t = Tensor(np.zeros((3, 4, 2)))
        assert t.size == 24 == int(np.prod(t.shape))

    def test_cosine_identical_unit_vectors(self):
        assert cosine(Tensor([1.0, 0, 0]), Tensor([1.0, 0, 0])).item() == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine(Tensor([1.0, 0]), Tensor([0.0, 1])).item() == pytest.approx(0.0)

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0])).numpy()
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 5, size=(4, 7))
            out = T.softmax(Tensor(x), axis=-1).numpy()
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
            assert (out > 0).all()

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.3, size=(10, 128))
        out = T.layer_norm(Tensor(x), Tensor(np.ones(128)), Tensor(np.zeros(128))).numpy()
        assert np.abs(out.mean(axis=-1)).max() < 1e-6
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_sum_of_squares_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_backward_rejects_non_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(T.ShapeError, match="scalar"):
            T.backward(T.mul(x, x))

    def test_backward_twice_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = T.tsum(T.mul(x, x))
        T.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            T.backward(loss)

    def test_detached_branch_gets_exactly_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        loss = T.tsum(T.add(T.mul(x, x), T.mul(y, y).detach()))
        T.backward(loss)
        np.testing.assert_array_equal(y.grad, [0.0, 0.0])
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_non_participating_tensor_grad_is_zero(self):
        x = Tensor([1.0], requires_grad=True)
        bystander = Tensor([5.0, 6.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_array_equal(bystander.grad, [0.0, 0.0])

    def test_grad_accumulates_across_graphs(self):
        x = Tensor([2.0], requires_grad=True)
        T.backward(T.tsum(T.mul(x, x)))
        T.backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [8.0])
        x.zero_grad()
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as e:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)

    def test_add_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as e:
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
        assert "(2, 3)" in str(e.value) and "(4,)" in str(e.value)

    def test_zero_norm_cosine_is_zero_with_zero_grad(self):
        u = Tensor([0.0, 0.0], requires_grad=True)
        v = Tensor([1.0, 2.0], requires_grad=True)
        sim = cosine(u, v)
        assert sim.item() == 0.0
        T.backward(sim)
        np.testing.assert_array_equal(u.grad, [0.0, 0.0])
        np.testing.assert_array_equal(v.grad, [0.0, 0.0])

    def test_no_grad_builds_no_tape(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with T.no_grad():
            y = T.tsum(T.mul(x, x))
        assert not y.requires_grad

    def test_embedding_lookup_rejects_out_of_range(self):
        table = Tensor(np.zeros((4, 3)), requires_grad=True)
        with pytest.raises(T.ShapeError, match="out of range"):
            T.embedding_lookup(table, np.array([[0, 4]]))

    def test_dtype_switch(self):
        T.set_dtype("float32")
        assert Tensor([1.0]).data.dtype == np.float32
        T.set_dtype("float64")
        assert Tensor([1.0]).data.dtype == np.float64
        with pytest.raises(ValueError):
            T.set_dtype("float16")


class TestGradChecks:
    """Analytic vs central finite-difference gradients, 64-bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_elementwise_chain(self, seed):
        rng = np.random.default_rng(seed)
        a, b = randt(rng, 3, 4), randt(rng, 3, 4)
        w = Tensor(rng.normal(size=(3, 4)))
        check_grads(lambda: T.tsum(T.mul(T.add(T.mul(a, b), T.sub(a, b)), w)), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_broadcast_add_mul(self, seed):
        rng = np.random.default_rng(10 + seed)
        a = randt(rng, 2, 3, 4)
        bias = randt(rng, 4)
        w = Tensor(rng.normal(size=(2, 3, 4)))
        check_grads(lambda: T.tsum(T.mul(T.add(a, bias), w)), [a, bias])

    @pytest.mark.parametrize("seed", range(4))
    def test_div(self, seed):
        rng = np.random.default_rng(20 + seed)
        a = randt(rng, 3, 3)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
        check_grads(lambda: T.tsum(T.div(a, b)), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_unary_smooth(self, seed):
        rng = np.random.default_rng(30 + seed)
        x = Tensor(rng.uniform(0.3, 2.0, size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 5)))
        check_grads(lambda: T.tsum(T.mul(T.sqrt(x), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_relu_and_clip_away_from_kinks(self, seed):
        rng = np.random.default_rng(40 + seed)
        vals = rng.normal(0, 2, size=(4, 4))
        vals[np.abs(vals) < 0.05] = 0.5  # keep clear of the kink
        vals[np.abs(vals - 1.0) < 0.05] = 0.5
        vals[np.abs(vals + 1.0) < 0.05] = 0.5
        x = Tensor(vals, requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)))
        check_grads(lambda: T.tsum(T.mul(T.relu(x), w)), [x])
        check_grads(lambda: T.tsum(T.mul(T.clip(x, -1.0, 1.0), w)), [x])

    @pytest.mark.parametrize("seed", range(6))
    def test_matmul_2d(self, seed):
        rng = np.random.default_rng(50 + seed)
        a, b = randt(rng, 3, 4), randt(rng, 4, 2)
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul_batched(self, seed):
        rng = np.random.default_rng(60 + seed)
        a, b = randt(rng, 2, 3, 4), randt(rng, 2, 4, 3)
        w = Tensor(rng.normal(size=(2, 3, 3)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_matmul_activation_times_weight(self, seed):
        rng = np.random.default_rng(70 + seed)
        a, b = randt(rng, 2, 3, 4), randt(rng, 4, 5)
        w = Tensor(rng.normal(size=(2, 3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize("seed", range(6))
    def test_softmax(self, seed):
        rng = np.random.default_rng(80 + seed)
        x = randt(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.softmax(x, axis=-1), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_logsumexp(self, seed):
        rng = np.random.default_rng(90 + seed)
        x = randt(rng, 4, 6)
        w = Tensor(rng.normal(size=(4,)))
        check_grads(lambda: T.tsum(T.mul(T.logsumexp(x, axis=-1), w)), [x])

    @pytest.mark.parametrize("seed", range(6))
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(100 + seed)
        x, g, b = randt(rng, 3, 8), randt(rng, 8), randt(rng, 8)
        w = Tensor(rng.normal(size=(3, 8)))
        check_grads(lambda: T.tsum(T.mul(T.layer_norm(x, g, b), w)), [x, g, b])

    @pytest.mark.parametrize("seed", range(6))
    def test_gelu(self, seed):
        rng = np.random.default_rng(110 + seed)
        x = randt(rng, 3, 6, scale=2.0)
        w = Tensor(rng.normal(size=(3, 6)))
        check_grads(lambda: T.tsum(T.mul(T.gelu(x), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_embedding_lookup(self, seed):
        rng = np.random.default_rng(120 + seed)
        table = randt(rng, 7, 4)
        ids = rng.integers(0, 7, size=(2, 5))
        w = Tensor(rng.normal(size=(2, 5, 4)))
        check_grads(lambda: T.tsum(T.mul(T.embedding_lookup(table, ids), w)), [table])

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_entropy(self, seed):
        rng = np.random.default_rng(130 + seed)
        logits = randt(rng, 5, 9)
        targets = rng.integers(0, 9, size=5)
        check_grads(lambda: T.cross_entropy(logits, targets), [logits])

    @pytest.mark.parametrize("seed", range(6))
    def test_cosine_similarity(self, seed):
        rng = np.random.default_rng(140 + seed)
        u, v = randt(rng, 4, 6), randt(rng, 4, 6)
        w = Tensor(rng.normal(size=(4,)))
        check_grads(lambda: T.tsum(T.mul(cosine(u, v), w)), [u, v])

    @pytest.mark.parametrize("seed", range(4))
    def test_l2_normalize(self, seed):
        rng = np.random.default_rng(150 + seed)
        x = randt(rng, 3, 5)
        w = Tensor(rng.normal(size=(3, 5)))
        check_grads(lambda: T.tsum(T.mul(T.l2_normalize(x, axis=-1), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_take_and_stack_and_concat(self, seed):
        rng = np.random.default_rng(160 + seed)
        x = randt(rng, 6, 3)
        y = randt(rng, 6, 3)
        idx = rng.integers(0, 6, size=4)
        w = Tensor(rng.normal(size=(4, 3)))
        check_grads(lambda: T.tsum(T.mul(T.take(x, idx, axis=0), w)), [x])
        # repeated indices along a later axis, and a 2-d index array
        z = randt(rng, 2, 5, 3)
        idx2 = np.array([[4, 0, 4], [1, 4, 0]])
        w4 = Tensor(rng.normal(size=(2, 2, 3, 3)))
        check_grads(lambda: T.tsum(T.mul(T.take(z, idx2, axis=1), w4)), [z])
        w2 = Tensor(rng.normal(size=(2, 6, 3)))
        check_grads(lambda: T.tsum(T.mul(T.stack([x, y], axis=0), w2)), [x, y])
        # concatenation along axis 0 as a stack followed by a reshape
        w3 = Tensor(rng.normal(size=(12, 3)))
        check_grads(lambda: T.tsum(T.mul(T.reshape(T.stack([x, y], axis=0), (12, 3)),
                                         w3)), [x, y])

    @pytest.mark.parametrize("seed", range(4))
    def test_max_mean_reductions(self, seed):
        rng = np.random.default_rng(170 + seed)
        x = randt(rng, 5, 7)
        w = Tensor(rng.normal(size=(5,)))
        check_grads(lambda: T.tsum(T.mul(T.tmax(x, axis=1), w)), [x])
        check_grads(lambda: T.tsum(T.mul(T.tmean(x, axis=1), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_reshape_transpose(self, seed):
        rng = np.random.default_rng(180 + seed)
        x = randt(rng, 2, 3, 4)
        w = Tensor(rng.normal(size=(4, 6)))
        check_grads(
            lambda: T.tsum(T.mul(T.reshape(T.transpose(x, (2, 0, 1)), (4, 6)), w)),
            [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_composite_graph(self, seed):
        # mlp-ish composite: matmul -> gelu -> layer_norm -> softmax -> ce
        rng = np.random.default_rng(190 + seed)
        x = randt(rng, 3, 4)
        w1 = randt(rng, 4, 6)
        g, b = randt(rng, 6), randt(rng, 6)
        targets = rng.integers(0, 6, size=3)

        def build():
            h = T.gelu(T.matmul(x, w1))
            h = T.layer_norm(h, g, b)
            return T.cross_entropy(h, targets)

        check_grads(build, [x, w1, g, b])


def test_gradcheck_instance_count():
    # the class above parametrizes well past 100 distinct random instances
    import inspect
    total = 0
    for name, fn in inspect.getmembers(TestGradChecks, predicate=inspect.isfunction):
        marks = getattr(fn, "pytestmark", [])
        for m in marks:
            if m.name == "parametrize":
                # several checks per test body; count conservatively as one
                total += len(list(m.args[1]))
    assert total >= 70  # bodies with multiple check_grads calls push past 100
