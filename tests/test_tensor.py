import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import winoref.refine
import winoref.tensor as T
from winoref import encoder
from winoref.encoder import (EncoderConfig, EncoderModel, PretrainConfig,
                             mlm_logits_batch, pretrain_mlm)
from winoref.optim import AdamW
from winoref.refine import Discriminator, LossWeights, RefinementConfig, refine
from winoref.scoring import ScoreConfig, windowed_bertscore
from winoref.synthetic import make_perturbation_corpus
from winoref.tensor import Tensor
from winoref.text import (CLS_ID, FIRST_WORD_ID, PAD_ID, SEP_ID, build_vocab,
                          corpus_sentences, row_masks, tokenize)

from conftest import check_grads
from test_scoring import make_stack


def randt(rng, *shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def cosine(u, v):
    """Cosine along the last axis as the windowed score computes it: unit
    vectors from l2_normalize, multiplied and summed."""
    return T.tsum(T.mul(T.l2_normalize(u), T.l2_normalize(v)), axis=-1)


class TestBasics:
    def test_shape_invariant(self):
        t = Tensor(np.zeros((3, 4, 2)))
        assert t.shape == t.data.shape == (3, 4, 2)

    def test_cosine_identical_unit_vectors(self):
        assert cosine(Tensor([1.0, 0, 0]), Tensor([1.0, 0, 0])).item() == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        assert cosine(Tensor([1.0, 0]), Tensor([0.0, 1])).item() == pytest.approx(0.0)

    def test_softmax_symmetry(self):
        out = T.softmax(Tensor([0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_softmax_normalized_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(0, 5, size=(4, 7))
            out = T.softmax(Tensor(x)).data
            np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
            assert (out > 0).all()

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(2.0, 1.3, size=(10, 128))
        out = T.layer_norm(Tensor(x), Tensor(np.ones(128)), Tensor(np.zeros(128))).data
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

    def test_backward_through_a_shared_node_twice_rejected(self):
        # gelu's backward overwrites what its forward saved, so a second
        # root may not pass through it again
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = T.gelu(x)
        T.backward(T.tsum(h))
        with pytest.raises(RuntimeError, match="already ran"):
            T.backward(T.tsum(T.mul(h, 2.0)))

    def test_backward_releases_the_tape(self):
        # what only the tape held is freed; a node the caller holds keeps its
        # data and its exact gradient, cut from its parents
        x = Tensor([0.5, -2.0, 3.0], requires_grad=True)
        h = T.mul(x, x)
        y = T.gelu(h)
        w = np.array([1.5, -0.25, 2.0])
        loss = T.tsum(T.mul(y, w))
        y_data = weakref.ref(y.data)
        del y
        T.backward(loss)
        assert y_data() is None
        assert loss._parents == () and h._parents == ()
        assert_same_bits(h.grad, gelu_formula(h.data, w)[1])
        assert_same_bits(x.grad, leaf_grad(h.grad * x.data + h.grad * x.data))

    def test_detached_branch_gets_exactly_zero_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        constant = Tensor(y.data)    # y's values off the tape
        yy = T.mul(constant, constant)
        loss = T.tsum(T.add(T.mul(x, x), yy))
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

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as e:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))
        assert "(2, 3)" in str(e.value) and "(4, 5)" in str(e.value)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)), ((2, 3), (3, 5), (4,)),
                                        ((2, 2, 3), (3, 5), (5,))],
                             ids=["inner", "bias", "3-d"])
    def test_linear_shape_error_names_all_shapes(self, shapes):
        with pytest.raises(T.ShapeError) as e:
            T.linear(*(Tensor(np.ones(s)) for s in shapes))
        assert all(str(s) in str(e.value) for s in shapes)

    def test_add_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError) as e:
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4,))))
        assert "(2, 3)" in str(e.value) and "(4,)" in str(e.value)

    @pytest.mark.parametrize("op", [T.sub, T.mul, T.div])
    def test_elementwise_shape_error_names_the_op_and_both_shapes(self, op):
        with pytest.raises(T.ShapeError) as e:
            op(Tensor(np.ones((3, 2))), Tensor(np.ones((5, 1, 3))))
        assert str(e.value) == (f"{op.__name__}: shapes (3, 2) and (5, 1, 3) "
                                f"are not broadcast-compatible")

    @pytest.mark.parametrize("counts, heads, message", [
        ((3, 5, 5), 2, "attention: 3 query rows for 4 positions"),
        ((4, 4, 5), 2, "attention: 4 key rows for 5 positions"),
        ((4, 5, 6), 2, "attention: 6 value rows for 5 positions"),
        ((4, 5, 5), 4, "attention: row width 6 is not a multiple of 4 heads"),
    ], ids=["query-rows", "key-rows", "value-rows", "heads"])
    def test_attention_shape_error_is_one_message(self, counts, heads, message):
        trimmed = np.array([[True, True, False], [True, True, True]])
        queries = trimmed & np.array([[True, False, True], [True, True, True]])
        q, k, v = (Tensor(np.ones((c, 6))) for c in counts)
        with pytest.raises(T.ShapeError) as e:
            T.attention(q, k, v, trimmed, queries, heads, 0.0, None)
        assert str(e.value) == message

    def test_attention_rejects_queries_outside_the_key_mask(self):
        # a query at a pad position was attended from silently, one row each
        trimmed = np.array([[True, True, False], [True, False, False]])
        queries = np.array([[False, True, True], [False, True, False]])
        q, k, v = Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4))), Tensor(np.ones((3, 4)))
        with pytest.raises(T.ShapeError) as e:
            T.attention(q, k, v, trimmed, queries, 2, 0.0, None)
        assert str(e.value) == "attention: 2 query positions outside the key mask"

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dropout_draws_one_mask_at_its_input_shape(self, dtype):
        T.set_dtype(dtype)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 5)), requires_grad=True)
        out = T.dropout(x, 0.25, np.random.default_rng(3))
        drawn = np.random.default_rng(3)
        keep = (drawn.random((3, 5)) >= 0.25).astype(dtype) / 0.75
        assert out.data.dtype == dtype
        assert out.data.tobytes() == (x.data * keep).tobytes()
        T.backward(T.tsum(out))
        assert x.grad.tobytes() == keep.tobytes()
        # at rate 0: the input itself, and nothing drawn
        stream = np.random.default_rng(3)
        assert T.dropout(x, 0.0, stream) is x
        assert stream.bit_generator.state == np.random.default_rng(3).bit_generator.state

    def test_zero_norm_cosine_is_zero_with_zero_grad(self):
        u = Tensor([0.0, 0.0], requires_grad=True)
        v = Tensor([1.0, 2.0], requires_grad=True)
        sim = cosine(u, v)
        assert sim.item() == 0.0
        T.backward(sim)
        np.testing.assert_array_equal(u.grad, [0.0, 0.0])
        np.testing.assert_array_equal(v.grad, [0.0, 0.0])

    @pytest.mark.parametrize("train, dtype", [
        (False, "float64"), (True, "float64"), (False, "float32"), (True, "float32")],
        ids=["eval", "train", "eval-float32", "train-float32"])
    def test_detached_forward_builds_no_tape(self, train, dtype, monkeypatch):
        # the view's parameters are constants on the model's own arrays, so
        # no node of its forward joins a tape, and its logits are the model's
        T.set_dtype(dtype)
        cfg = EncoderConfig(layers=2, heads=2, model_dim=8, ff_dim=16, max_len=8,
                            vocab_size=FIRST_WORD_ID + 4)
        model = EncoderModel(cfg, seed=1)
        view = model.detached()
        assert view.params.keys() == model.params.keys()
        for name, p in model.params.items():
            q = view.params[name]
            assert np.shares_memory(q.data, p.data), name
            assert not q.requires_grad and q.grad is None, name
        ids = np.full((2, 8), PAD_ID)
        ids[0, :6] = [CLS_ID, *range(FIRST_WORD_ID, FIRST_WORD_ID + 4), SEP_ID]
        ids[1, :4] = [CLS_ID, FIRST_WORD_ID + 1, FIRST_WORD_ID, SEP_ID]
        rows = row_masks(ids)[1]
        node, nodes = T._node, []
        monkeypatch.setattr(T, "_node", lambda *a: nodes.append(node(*a)) or nodes[-1])
        logits = {}
        for which, m in (("view", view), ("model", model)):
            nodes.clear()
            rng = np.random.default_rng(2) if train else None
            logits[which] = mlm_logits_batch(m, ids, rows, rng=rng)
            taped = [n for n in nodes if n._backward_fn is not None or n._parents]
            assert nodes and (taped == []) == (which == "view"), which
        assert not logits["view"].requires_grad
        assert logits["view"].data.dtype == dtype
        assert logits["view"].data.tobytes() == logits["model"].data.tobytes()

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


@pytest.mark.parametrize("phase", ["pretrain", "refine"])
def test_a_training_steps_tape_is_freed_by_its_backward(monkeypatch, phase):
    # traced from the start of the first step, so setup is not counted: right
    # after each backward, what the steps still hold (optimizer state, small
    # loop locals) is a small part of the step's peak; a tape kept alive into
    # the next step held about half of it, and the peak held two tapes
    groups = make_perturbation_corpus(12, seed=5)
    vocab = build_vocab(corpus_sentences(groups))
    cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                        vocab_size=len(vocab))
    model = EncoderModel(cfg, seed=0)
    after = []

    def starting(fn):
        def wrapper(*args, **kwargs):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            return fn(*args, **kwargs)
        return wrapper

    def backward(loss, real=T.backward):
        real(loss)
        after.append(tracemalloc.get_traced_memory())

    def step(opt, real=AdamW.step):
        real(opt)
        tracemalloc.reset_peak()

    monkeypatch.setattr(encoder, "apply_mlm_masking", starting(encoder.apply_mlm_masking))
    monkeypatch.setattr(winoref.refine, "encode_batch", starting(winoref.refine.encode_batch))
    monkeypatch.setattr(T, "backward", backward)
    monkeypatch.setattr(AdamW, "step", step)
    try:
        if phase == "pretrain":
            rows = [tokenize(s, vocab, cfg.max_len) for s in corpus_sentences(groups)]
            pretrain_mlm(model, rows, PretrainConfig(epochs=1, batch_size=8, seed=1), vocab)
        else:
            refine(model, Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0), groups,
                   LossWeights(1.0, 0.5, 0.5),
                   RefinementConfig(epochs=2, batch_size=4, perturbations_per_sample=2),
                   ScoreConfig(window_radius=2), vocab)
    finally:
        tracemalloc.stop()
    assert len(after) >= 6
    for held, peak in after:
        assert held < 0.25 * peak, [f"{h / 2**20:.2f} of {p / 2**20:.2f} MB" for h, p in after]


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
    def test_clip_away_from_its_bounds(self, seed):
        rng = np.random.default_rng(40 + seed)
        vals = rng.normal(0, 2, size=(4, 4))
        vals[np.abs(vals - 1.0) < 0.05] = 0.5  # keep clear of the bounds
        vals[np.abs(vals + 1.0) < 0.05] = 0.5
        x = Tensor(vals, requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)))
        check_grads(lambda: T.tsum(T.mul(T.clip(x, -1.0, 1.0), w)), [x])

    @pytest.mark.parametrize("seed", range(6))
    def test_matmul_2d(self, seed):
        rng = np.random.default_rng(50 + seed)
        a, b = randt(rng, 3, 4), randt(rng, 4, 2)
        w = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: T.tsum(T.mul(T.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize("seed", range(4))
    def test_linear(self, seed):
        rng = np.random.default_rng(55 + seed)
        x, w, b = randt(rng, 3, 4), randt(rng, 4, 2), randt(rng, 2)
        g = Tensor(rng.normal(size=(3, 2)))
        check_grads(lambda: T.tsum(T.mul(T.linear(x, w, b), g)), [x, w, b])

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
        check_grads(lambda: T.tsum(T.mul(T.softmax(x), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_logsumexp(self, seed):
        rng = np.random.default_rng(90 + seed)
        x = randt(rng, 4, 6)
        w = Tensor(rng.normal(size=(4,)))
        check_grads(lambda: T.tsum(T.mul(T.logsumexp(x), w)), [x])

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

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_cross_entropy_matches_full_log_prob_matrix_bitwise(self, dtype):
        # the forward reads log-probabilities at the targets only; the value
        # must be the one the full (n, V) matrix gives, bit for bit
        T.set_dtype(dtype)
        rng = np.random.default_rng(137)
        for n, V in ((1, 2), (7, 13), (131, 512)):
            logits = Tensor(rng.normal(0, 4, size=(n, V)))
            targets = rng.integers(0, V, size=n)
            x = logits.data
            m = x.max(axis=1, keepdims=True)
            logp = x - m - np.log(np.exp(x - m).sum(axis=1, keepdims=True))
            want = -logp[np.arange(n), targets].mean()
            got = T.cross_entropy(logits, targets).data
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == np.asarray(want).tobytes()

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
        check_grads(lambda: T.tsum(T.mul(T.l2_normalize(x), w)), [x])

    @pytest.mark.parametrize("seed", range(4))
    def test_take_and_stack_and_concat(self, seed):
        rng = np.random.default_rng(160 + seed)
        x = randt(rng, 6, 3)
        idx = rng.integers(0, 6, size=4)
        w = Tensor(rng.normal(size=(4, 3)))
        check_grads(lambda: T.tsum(T.mul(T.take(x, idx), w)), [x])
        with pytest.raises(T.ShapeError, match="1-d"):
            T.take(x, idx[None, :])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kept", ["none", "all", "holes"])
    def test_gather_and_scatter_rows(self, seed, kept):
        rng = np.random.default_rng(200 + seed)
        keep = {"none": np.zeros((3, 7), dtype=bool), "all": np.ones((3, 7), dtype=bool),
                "holes": rng.random((3, 7)) < 0.5}[kept]
        t = int(keep.sum())
        x = randt(rng, 3, 7, 4)
        w = Tensor(rng.normal(size=(t, 4)))
        check_grads(lambda: T.tsum(T.mul(T.gather_rows(x, keep), w)), [x])
        if t:   # no rows to perturb when none is kept; the pair below runs it
            rows = randt(rng, t, 2, 3)
            w2 = Tensor(rng.normal(size=(3, 7, 2, 3)))
            check_grads(lambda: T.tsum(T.mul(T.scatter_rows(rows, keep), w2)), [rows])
        # the pair as the encoder uses it: pack, compute, unpack
        w3 = Tensor(rng.normal(size=(3, 7, 4)))
        check_grads(lambda: T.tsum(T.mul(
            T.scatter_rows(T.gelu(T.gather_rows(x, keep)), keep), w3)), [x])

    def test_gather_and_scatter_rows_values(self):
        x = np.arange(24.0).reshape(2, 3, 4)
        keep = np.array([[True, False, True], [False, False, True]])
        packed = T.gather_rows(Tensor(x), keep).data
        np.testing.assert_array_equal(packed, x[[0, 0, 1], [0, 2, 2]])
        unpacked = T.scatter_rows(Tensor(packed), keep).data
        np.testing.assert_array_equal(unpacked[keep], packed)
        assert unpacked[~keep].tobytes() == np.zeros((3, 4)).tobytes()   # +0.0
        # every row kept: a reshape of the same buffer, no copy
        full = np.ones((2, 3), dtype=bool)
        assert np.shares_memory(T.gather_rows(Tensor(x), full).data, x)
        assert np.shares_memory(T.scatter_rows(Tensor(x[0]), full[0]).data, x)
        with pytest.raises(T.ShapeError, match="2 rows for 3 kept"):
            T.scatter_rows(Tensor(packed[:2]), keep)
        with pytest.raises(T.ShapeError, match="does not lead"):
            T.gather_rows(Tensor(x), keep.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_max_reduction(self, seed):
        rng = np.random.default_rng(170 + seed)
        x = randt(rng, 5, 7)
        w = Tensor(rng.normal(size=(5,)))
        check_grads(lambda: T.tsum(T.mul(T.tmax(x, axis=1), w)), [x])

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


# ---------------------------------------------------------------------------
# in-place kernels against the allocating formulas they replaced
# ---------------------------------------------------------------------------


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def leaf_grad(values):
    """What a zero-filled leaf gradient holds after one contribution."""
    return np.zeros_like(values) + values


_GELU_C = float(np.sqrt(2.0 / np.pi))


def row_sum(a, b=None):
    """The sum along the last axis of ``a``, or of ``a * b``, as one einsum
    pass per row, kept as a length-1 axis."""
    if b is None:
        return np.einsum("...i->...", a)[..., None]
    return np.einsum("...i,...i->...", a, b)[..., None]


def gelu_formula(x, g):
    sq = x * x
    t = np.tanh((sq * (_GELU_C * 0.044715) + _GELU_C) * x)
    half = t * 0.5 + 0.5
    d_inner = sq * (1.5 * _GELU_C * 0.044715) + 0.5 * _GELU_C
    return x * half, g * (half + d_inner * (1.0 - t * t) * x)


def layer_norm_formula(x, gain, bias, g, eps=1e-5):
    n = x.shape[-1]
    xc = x - x[..., :1]
    xc = xc - row_sum(xc) / n
    inv = 1.0 / np.sqrt(row_sum(xc, xc) / n + eps)
    xhat = xc * inv
    out = xhat * gain + bias
    gx = g * gain
    m1 = row_sum(gx) / n
    m2 = row_sum(gx, xhat) / n
    return (out, inv * (gx - m1 - xhat * m2),
            (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))


def sum_in_order(x, axis):
    """Sum along ``axis`` one element after another, left to right."""
    keys = np.moveaxis(x, axis, 0)
    total = keys[0].copy()
    for key in keys[1:]:
        total = total + key
    return np.expand_dims(total, axis)


def softmax_formula(x, g):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    out = e / sum_in_order(e, -1)
    return out, out * (g - row_sum(g, out))


def cross_entropy_formula(x, targets, g):
    n = x.shape[0]
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    z = row_sum(e)
    logp = x[np.arange(n), targets] - m[:, 0] - np.log(z[:, 0])
    soft = e / z
    soft[np.arange(n), targets] -= 1.0
    return np.asarray(-logp.mean()), g * soft / n


def embedding_formula_grad(table, ids, g):
    buf = np.zeros_like(table)
    np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[1]))
    return buf


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestInPlaceKernels:
    """Each kernel writes into buffers it owns, by the same operations in
    the same order as the plain formula, so its bits are the formula's."""

    def test_gelu(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(0, 2, size=(37, 29)), requires_grad=True)
        g = rng.normal(size=(37, 29)).astype(dtype)
        out = T.gelu(x)
        want_out, want_gx = gelu_formula(x.data, g)
        assert_same_bits(out.data, want_out)
        out._backward_fn(g)
        assert_same_bits(x.grad, leaf_grad(want_gx))

    def test_layer_norm(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(1.0, 3.0, size=(3, 7, 24)), requires_grad=True)
        gain = Tensor(rng.normal(size=24), requires_grad=True)
        bias = Tensor(rng.normal(size=24), requires_grad=True)
        g = rng.normal(size=(3, 7, 24)).astype(dtype)
        out = T.layer_norm(x, gain, bias)
        want_out, want_gx, want_gg, want_gb = layer_norm_formula(
            x.data, gain.data, bias.data, g)
        assert_same_bits(out.data, want_out)
        out._backward_fn(g)
        assert_same_bits(x.grad, leaf_grad(want_gx))
        assert_same_bits(gain.grad, leaf_grad(want_gg))
        assert_same_bits(bias.grad, leaf_grad(want_gb))

    def test_softmax_with_a_fully_masked_row(self, dtype):
        # 11 keys: numpy's pairwise sum regroups from 8 keys on, so only
        # then does the in-order key sum differ from it
        T.set_dtype(dtype)
        rng = np.random.default_rng(2)
        scores = rng.normal(0, 3, size=(2, 3, 5, 11))
        mask = np.ones((2, 1, 1, 11))
        mask[0, 0, 0, 4:] = 0
        mask[1] = 0                          # every key of the second sequence
        x = Tensor(scores + (1.0 - mask) * -1e9, requires_grad=True)
        g = rng.normal(size=scores.shape).astype(dtype)
        out = T.softmax(x)
        want_out, want_gx = softmax_formula(x.data, g)
        assert_same_bits(out.data, want_out)
        e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
        assert not np.array_equal(out.data, e / e.sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(out.data[1].sum(axis=-1), 1.0, rtol=1e-6)
        out._backward_fn(g)
        assert_same_bits(x.grad, leaf_grad(want_gx))

    def test_cross_entropy(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(3)
        logits = Tensor(rng.normal(0, 4, size=(31, 97)), requires_grad=True)
        targets = rng.integers(0, 97, size=31)
        g = np.asarray(0.75, dtype=dtype)
        out = T.cross_entropy(logits, targets)
        want_out, want_gx = cross_entropy_formula(logits.data, targets, g)
        assert_same_bits(out.data, want_out)
        out._backward_fn(g)
        assert_same_bits(logits.grad, leaf_grad(want_gx))

    @pytest.mark.parametrize("kernel, taped_parents", [
        ("gelu", [0]), ("layer_norm", [0]), ("layer_norm", [1])],
        ids=["gelu", "layer_norm-x", "layer_norm-gain"])
    def test_off_tape_kernel_equals_the_taped_one(self, dtype, kernel, taped_parents):
        # with no parent that requires grad, the kernel writes its forward
        # over its one output array and keeps nothing for a backward, by
        # the taped forward's operations in the same order
        T.set_dtype(dtype)
        rng = np.random.default_rng(15)
        x = rng.normal(1.0, 3.0, size=(512, 96)).astype(dtype)
        x[2] = x[2, 0]                        # a constant row
        gain, bias = (rng.normal(size=96).astype(dtype) for _ in range(2))
        run = {"gelu": lambda x, gain, bias: T.gelu(x),
               "layer_norm": T.layer_norm}[kernel]
        for rows in (x, x[:0]):
            arrays = (rows, gain, bias)
            taped = run(*(Tensor(a, requires_grad=i in taped_parents)
                          for i, a in enumerate(arrays)))
            params = [Tensor(a) for a in arrays]
            tracemalloc.start()
            try:
                off = run(*params)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert taped.requires_grad and taped._backward_fn is not None
            assert not off.requires_grad and off._backward_fn is None
            assert off.data.shape == rows.shape and off.data.dtype == dtype
            assert_same_bits(off.data, taped.data)
            assert all(not np.shares_memory(off.data, p.data) for p in params)
            if rows.size:
                # the output array, and small temporaries only
                assert peak < 1.5 * off.data.nbytes
                if kernel == "layer_norm":
                    assert_same_bits(off.data[2], bias)

    def test_linear_is_the_add_of_a_matmul(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(14)
        arrays = [rng.normal(size=s).astype(dtype) for s in ((70, 24), (24, 16), (16,))]
        g = rng.normal(size=(70, 16)).astype(dtype)
        runs = []
        for op in (T.linear, lambda x, w, b: T.add(T.matmul(x, w), b)):
            leaves = [Tensor(a, requires_grad=True) for a in arrays]
            out = op(*leaves)
            T.backward(T.tsum(T.mul(out, g)))
            runs.append([out.data] + [t.grad for t in leaves])
        for got, want in zip(*runs):
            assert_same_bits(got, want)

    def test_embedding_lookup_with_repeated_ids(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(4)
        table = Tensor(rng.normal(size=(50, 8)), requires_grad=True)
        ids = rng.integers(0, 12, size=(4, 9))          # many repeats, rows 12+ unused
        g = rng.normal(size=(4, 9, 8)).astype(dtype)
        out = T.embedding_lookup(table, ids)
        out._backward_fn(g)
        assert_same_bits(table.grad, leaf_grad(embedding_formula_grad(table.data, ids, g)))

    def test_embedding_lookup_into_a_tied_table_holding_a_head_gradient(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(5)
        table = Tensor(rng.normal(size=(40, 6)), requires_grad=True)
        head = rng.normal(size=(40, 6)).astype(dtype)
        head[30] = -0.0
        table.grad[...] = head
        ids = np.array([[3, 7, 3, 3], [0, 7, 39, 5]])
        g = rng.normal(size=(2, 4, 6)).astype(dtype)
        out = T.embedding_lookup(table, ids)
        out._backward_fn(g)
        want = head + embedding_formula_grad(table.data, ids, g)
        np.testing.assert_array_equal(table.grad, want)
        looked_up = np.unique(ids)
        assert_same_bits(table.grad[looked_up], want[looked_up])
        # a row no id reads keeps the head gradient as it was, -0.0 included
        assert_same_bits(table.grad[30], head[30])

    def test_embedding_lookup_from_an_interior_table(self, dtype):
        # the table's gradient is first borrowed from another op, then
        # summed with the looked-up rows into a buffer of its own
        T.set_dtype(dtype)
        rng = np.random.default_rng(6)
        base = Tensor(rng.normal(size=(9, 4)), requires_grad=True)
        w = rng.normal(size=(9, 4)).astype(dtype)
        ids = np.array([[8, 1, 1], [0, 1, 8]])
        g = rng.normal(size=(2, 3, 4)).astype(dtype)
        table = T.mul(base, 2.0)
        T.backward(T.add(T.tsum(T.mul(T.embedding_lookup(table, ids), g)),
                         T.tsum(T.mul(table, w))))
        np.testing.assert_array_equal(table.grad, w + embedding_formula_grad(
            table.data, ids, g))
        np.testing.assert_array_equal(base.grad, table.grad * 2.0)

    def test_take_with_repeated_indices_sums_as_np_add_at(self, dtype):
        # about seven reads of each of rows 0-5, nine of row 11 and none of
        # rows 6-10; -0.0 rows must sum to +0.0, as np.add.at's zeros give
        T.set_dtype(dtype)
        rng = np.random.default_rng(7)
        a = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        idx = np.concatenate([rng.integers(0, 6, size=40), [11] * 9])
        rng.shuffle(idx)
        g = rng.normal(0, 10, size=(idx.size, 5)).astype(dtype)
        g[idx == 11, 0] = -0.0
        out = T.take(a, idx)
        assert_same_bits(out.data, a.data[idx])
        out._backward_fn(g)
        want = np.zeros_like(a.data)
        np.add.at(want, idx, g)
        assert_same_bits(a.grad, leaf_grad(want))

    def test_index_sums_at_pretrainings_id_distribution(self, dtype):
        # one id read 90 times, a few 20-40 times, most once or twice, as in
        # a pretrain batch's token ids; the rank-major sums must keep
        # np.add.at's bits, -0.0 rows included, for both backwards
        T.set_dtype(dtype)
        rng = np.random.default_rng(16)
        idx = np.concatenate([[7] * 90, [3] * 40, [12] * 31, [40] * 20,
                              np.arange(50, 360), np.arange(300, 360)])
        rng.shuffle(idx)
        assert sorted(np.bincount(idx))[-6:] == [2, 2, 20, 31, 40, 90]
        g = rng.normal(0, 10, size=(idx.size, 8)).astype(dtype)
        g[idx == 7, 0] = -0.0
        g[rng.random(idx.size) < 0.1] = -0.0
        table = Tensor(rng.normal(size=(360, 8)), requires_grad=True)
        out = T.embedding_lookup(table, idx)
        out._backward_fn(g)
        assert_same_bits(table.grad, leaf_grad(embedding_formula_grad(table.data, idx, g)))
        a = Tensor(rng.normal(size=(360, 8)), requires_grad=True)
        out = T.take(a, idx)
        out._backward_fn(g)
        want = np.zeros_like(a.data)
        np.add.at(want, idx, g)
        assert_same_bits(a.grad, leaf_grad(want))

    def test_embedding_lookup_with_one_id_read_40_times_and_with_none(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(8)
        table = Tensor(rng.normal(size=(20, 6)), requires_grad=True)
        ids = rng.integers(0, 20, size=(5, 12))
        ids.flat[rng.permutation(ids.size)[:40]] = 7
        g = rng.normal(0, 10, size=(5, 12, 6)).astype(dtype)
        out = T.embedding_lookup(table, ids)
        out._backward_fn(g)
        assert_same_bits(table.grad, leaf_grad(embedding_formula_grad(table.data, ids, g)))
        table = Tensor(table.data, requires_grad=True)
        out = T.embedding_lookup(table, np.zeros(0, dtype=np.int64))
        assert out.data.shape == (0, 6)
        out._backward_fn(np.zeros((0, 6), dtype=dtype))
        assert_same_bits(table.grad, np.zeros_like(table.data))

    def test_take_backward_adds_its_rows_into_a_gradient_the_parent_owns(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(17)
        # three rows of a (4096, 64) leaf cost three rows, not the leaf
        big = Tensor(rng.normal(size=(4096, 64)), requires_grad=True)
        loss = T.tsum(T.take(big, [5, 4000, 5]))
        tracemalloc.start()
        try:
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < big.data.nbytes / 4
        assert_same_bits(big.grad[[5, 4000, 6]], np.array([2, 1, 0], dtype)[:, None]
                         * np.ones(64, dtype))

        idx = np.concatenate([rng.integers(0, 6, size=30), [9] * 4])
        rng.shuffle(idx)
        g = rng.normal(0, 10, size=(idx.size, 5)).astype(dtype)
        want = np.zeros((12, 5), dtype=dtype)
        np.add.at(want, idx, g)
        # a leaf, onto its zero-filled gradient
        leaf = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        T.backward(T.tsum(T.mul(T.take(leaf, idx), g)))
        assert_same_bits(leaf.grad, leaf_grad(want))
        # an interior parent with no gradient yet
        x = Tensor(rng.normal(size=(12, 5)), requires_grad=True)
        h = T.mul(x, 2.0)
        T.backward(T.tsum(T.mul(T.take(h, idx), g)))
        assert_same_bits(h.grad, want)
        # an interior parent whose first gradient an add lent it: the add's
        # backward runs first, so take's adds into a copy, not the lent buffer
        w = rng.normal(size=(12, 5)).astype(dtype)
        h = T.mul(x, 2.0)
        s = T.add(h, Tensor(np.zeros((12, 5)), requires_grad=True))
        T.backward(T.add(T.tsum(T.mul(T.take(h, idx), g)), T.tsum(T.mul(s, w))))
        assert_same_bits(s.grad, w)
        assert_same_bits(h.grad, w + want)

    @pytest.mark.parametrize("axis", [1, 2])
    def test_tmax_with_ties_and_a_nan(self, dtype, axis):
        # small integers tie often; the gradient goes to the first maximum
        T.set_dtype(dtype)
        rng = np.random.default_rng(9)
        x = rng.integers(-2, 3, size=(4, 6, 5)).astype(dtype)
        x[1, 2, 3] = np.nan
        a = Tensor(x, requires_grad=True)
        g = rng.normal(size=np.delete(x.shape, axis)).astype(dtype)
        out = T.tmax(a, axis)
        assert_same_bits(out.data, np.max(x, axis=axis))
        assert np.isnan(out.data).sum() == 1
        out._backward_fn(g)
        first = np.expand_dims(np.argmax(x, axis=axis), axis)
        one_hot = np.arange(x.shape[axis]).reshape([-1 if d == axis else 1
                                                    for d in range(3)]) == first
        assert (one_hot.sum(axis=axis) == 1).all()
        want = np.where(one_hot, np.expand_dims(g, axis), 0.0)
        assert_same_bits(a.grad, leaf_grad(want))

    @pytest.mark.parametrize("shape", [(3, 5, 7, 9), (6, 1)], ids=["batch", "k-by-1"])
    def test_softmax_over_key_slabs(self, dtype, shape):
        T.set_dtype(dtype)
        rng = np.random.default_rng(10)
        x = Tensor(rng.normal(0, 3, size=shape), requires_grad=True)
        g = rng.normal(size=shape).astype(dtype)
        out = T.softmax(x)
        want_out, want_gx = softmax_formula(x.data, g)
        assert_same_bits(out.data, want_out)
        assert out.data.flags.c_contiguous
        out._backward_fn(g)
        assert_same_bits(x.grad, leaf_grad(want_gx))

    @pytest.mark.parametrize("rows", [1, 2, 40])
    def test_linear_with_a_transposed_table(self, dtype, rows):
        # the tied head's weight, the table transposed: its product and
        # gradient run in the table's layout, whose bits depend on the BLAS
        # build; the artifact hashes pin those
        T.set_dtype(dtype)
        rng = np.random.default_rng(15)
        table = Tensor(rng.normal(size=(300, 24)), requires_grad=True)
        x = Tensor(rng.normal(size=(rows, 24)), requires_grad=True)
        b = Tensor(rng.normal(size=300), requires_grad=True)
        g = rng.normal(size=(rows, 300)).astype(dtype)
        out = T.linear(x, T.transpose(table, (1, 0)), b)
        assert out.data.dtype == dtype and out.data.flags.c_contiguous
        tol = {"float32": 1e-5, "float64": 1e-12}[dtype]
        np.testing.assert_allclose(out.data, x.data @ table.data.T + b.data,
                                   rtol=tol, atol=tol)
        T.backward(T.tsum(T.mul(out, g)))
        np.testing.assert_allclose(table.grad, (x.data.T @ g).T, rtol=tol, atol=tol)
        np.testing.assert_allclose(x.grad, g @ table.data, rtol=tol, atol=tol)
        assert_same_bits(b.grad, leaf_grad(g.sum(axis=0)))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("vocab", [193, 8192])
@pytest.mark.parametrize("rows", [T.PACK_TABLE_ROWS - 1, T.PACK_TABLE_ROWS, 150])
def test_tied_head_layouts_give_the_same_bytes(dtype, vocab, rows):
    # below PACK_TABLE_ROWS the product runs in the table's layout, from it
    # on as x @ w; each gives its own formula's bytes. In float32 both give
    # the table layout's bytes; in float64 x @ w may round a table's last
    # rows otherwise (193 words here), so it only agrees to 1e-12. The
    # gradients keep the table layout at every row count
    T.set_dtype(dtype)
    rng = np.random.default_rng(vocab + rows)
    table = Tensor(rng.normal(size=(vocab, 96)), requires_grad=True)
    x = Tensor(rng.normal(size=(rows, 96)), requires_grad=True)
    b = Tensor(rng.normal(size=vocab), requires_grad=True)
    g = rng.normal(size=(rows, vocab)).astype(dtype)
    out = T.linear(x, T.transpose(table, (1, 0)), b)
    assert out.data.flags.c_contiguous
    table_layout = np.add((table.data @ x.data.T).T, b.data)
    assert_same_bits(out.data, table_layout if rows < T.PACK_TABLE_ROWS
                     else x.data @ table.data.T + b.data)
    if dtype == "float32":
        assert_same_bits(out.data, table_layout)
    else:
        np.testing.assert_allclose(out.data, table_layout, rtol=1e-12, atol=1e-12)
    T.backward(T.tsum(T.mul(out, g)))
    assert_same_bits(table.grad, leaf_grad(g.T @ x.data))
    assert_same_bits(x.grad, leaf_grad(g @ table.data))
    assert_same_bits(b.grad, leaf_grad(g.sum(axis=0)))


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_pretraining_above_the_head_row_constant_keeps_its_bytes(monkeypatch, dtype):
    # every step's head sees at least PACK_TABLE_ROWS rows; the same run with
    # the constant above every batch keeps the table layout throughout. In
    # float32 both runs give the same bytes; in float64 the x @ w head may
    # round its logits otherwise, so the runs only agree to 1e-12
    T.set_dtype(dtype)
    groups = make_perturbation_corpus(8, seed=5)
    vocab = build_vocab(corpus_sentences(groups))
    cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                        vocab_size=len(vocab), dropout=0.1)
    seqs = [tokenize(t, vocab, cfg.max_len) for t in corpus_sentences(groups)]
    pre = PretrainConfig(epochs=2, batch_size=32, lr=1e-3, warmup_steps=2,
                         mask_prob=0.4, seed=3)
    heads = []
    real_linear = T.linear

    def linear(x, w, b):
        if not w.data.flags.c_contiguous:
            heads.append(x.data.shape[0])
        return real_linear(x, w, b)

    monkeypatch.setattr(T, "linear", linear)
    params = []
    for cap in (T.PACK_TABLE_ROWS, 10**9):
        monkeypatch.setattr(T, "PACK_TABLE_ROWS", cap)
        model = EncoderModel(cfg, seed=1)
        pretrain_mlm(model, seqs, pre, vocab)
        params.append(model.params)
    monkeypatch.undo()
    assert len(heads) >= 8 and min(heads) >= T.PACK_TABLE_ROWS
    for k, p in params[0].items():
        if dtype == "float32":
            assert_same_bits(p.data, params[1][k].data)
        else:
            np.testing.assert_allclose(p.data, params[1][k].data, rtol=1e-12, atol=1e-12)


def _rows_out(kernel, x, g):
    """The per-row results of ``kernel`` on the rows ``x`` with output
    gradient ``g``: its output rows and its input gradient rows; for
    cross_entropy, whose output is a mean, the gradient rows only, with
    ``g`` the targets."""
    t = Tensor(x, requires_grad=True, dtype=x.dtype)
    if kernel == "cross_entropy":
        out = T.cross_entropy(t, g)
        out._backward_fn(np.asarray(1.0, dtype=x.dtype))
        return [t.grad]
    if kernel == "layer_norm":
        n = x.shape[-1]
        gain, bias = (Tensor(np.linspace(-1.0, 2.0, n) + k, dtype=x.dtype) for k in (0, 1))
        out = T.layer_norm(t, gain, bias)
    else:
        out = getattr(T, kernel)(t)
    out._backward_fn(g)
    return [out.data, t.grad]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("kernel, width", [("layer_norm", 96), ("l2_normalize", 96),
                                           ("softmax", 17), ("cross_entropy", 191)])
def test_each_row_sum_depends_on_its_row_alone(dtype, kernel, width):
    # the kernels sum each row in one einsum pass: a row's bytes are the
    # same at any row count, at any offset, in a row-strided view and in a
    # column-major copy, whose rows are made unit-stride before the sum.
    # cross_entropy divides its gradient by the row count once, so its rows
    # are the one-row gradients over that count
    rng = np.random.default_rng(17)
    x = rng.normal(0, 3, size=(720, width)).astype(dtype)
    x[5, :width // 2] = 0.0
    g = rng.normal(size=x.shape).astype(dtype)
    if kernel == "cross_entropy":
        g = rng.integers(0, width, size=len(x))
        one = np.concatenate([_rows_out(kernel, x[i:i + 1], g[i:i + 1])[0]
                              for i in range(len(x))])

        def want(rows):
            return [one[rows] / np.asarray(len(one[rows]), dtype=dtype)]
    else:
        full = _rows_out(kernel, x, g)

        def want(rows):
            return [a[rows] for a in full]

    cases = [(slice(o, o + n), x[o:o + n].copy(), g[o:o + n].copy())
             for n in (1, 2, 7, 8, 9, 64, 700) for o in (0, 5, 13)]
    cases += [(slice(None, None, 2), x[::2], g[::2]),
              (slice(None), np.asfortranarray(x), np.asfortranarray(g))]
    for rows, xs, gs in cases:
        for got, expected in zip(_rows_out(kernel, xs, gs), want(rows)):
            assert_same_bits(got, expected)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_softmax_fuzz_over_the_float_range(dtype):
    """Seeded rows at magnitudes from 1e-30 to 1e30, with masked keys and
    rows whose every key is masked: each row sums to 1, and keys of weight
    zero appended at the end leave every other weight's bits."""
    T.set_dtype(dtype)
    rng = np.random.default_rng(41)
    eps = np.finfo(dtype).eps
    for trial in range(300):
        n = int(rng.integers(1, 30))
        shape = (n,) if trial % 5 == 0 else (int(rng.integers(1, 7)), n)
        scale = 10.0 ** rng.uniform(-30, 30)
        mask = rng.random(shape) < 0.7
        if len(shape) == 2:
            mask[rng.random(shape[0]) < 0.3] = False          # every key masked
        x = rng.normal(size=shape) * scale + (1.0 - mask) * -1e9
        out = T.softmax(Tensor(x)).data
        assert np.isfinite(out).all() and (out >= 0).all() and (out <= 1).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=4 * n * eps)
        tail = np.full(shape[:-1] + (int(rng.integers(1, 12)),), np.finfo(dtype).min)
        longer = T.softmax(Tensor(np.concatenate([x, tail], axis=-1))).data
        assert (longer[..., n:] == 0).all()
        assert_same_bits(np.ascontiguousarray(longer[..., :n]), out)


@pytest.mark.parametrize("dtype, value, tol", [("float32", 12345.678, 1e-6),
                                               ("float64", 1000.1, 1e-12)])
def test_layer_norm_of_a_row_on_a_large_offset(dtype, value, tol):
    # each row is centred on its first entry before its mean is taken: a
    # constant row is then exactly zero and maps to the bias bit for bit,
    # and rows of 1000 +- 1e-3 keep their deviations, which a mean taken
    # at the offset rounded away
    T.set_dtype(dtype)
    rng = np.random.default_rng(11)
    gain, bias = (rng.normal(size=96).astype(dtype) for _ in range(2))
    out = T.layer_norm(Tensor(np.full((3, 96), value)), Tensor(gain), Tensor(bias))
    assert_same_bits(out.data, np.broadcast_to(bias, (3, 96)))
    x = (1000.0 + rng.choice([-1e-3, 1e-3], size=(4, 96))
         * rng.uniform(0.5, 1.0, size=(4, 96))).astype(dtype)
    out = T.layer_norm(Tensor(x), Tensor(gain), Tensor(bias))
    xc = x.astype(np.longdouble) - x.astype(np.longdouble).mean(axis=-1, keepdims=True)
    want = xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias
    assert np.abs(out.data - want).max() < tol


@pytest.mark.parametrize("dtype, x", [("float32", 2e19), ("float64", 1e154)])
def test_layer_norm_of_a_row_whose_squares_overflow(dtype, x):
    # the centred squares of [x, -x, 0.5, 3] overflow: the row is
    # prescaled by a power of two, so it normalizes to [√2, -√2, 0, 0] and
    # not to the bias, and the in-range row beside it keeps its bits
    T.set_dtype(dtype)
    eps = np.finfo(dtype).eps
    gain, bias = np.array([1.0, 2.0, 0.5, 1.5]), np.array([0.1, -0.2, 0.3, 0.0])
    t = Tensor(np.array([[x, -x, 0.5, 3.0], [1.0, 2.0, 3.0, 5.0]]), requires_grad=True)
    out = T.layer_norm(t, Tensor(gain), Tensor(bias))
    want = np.array([np.sqrt(2.0), -np.sqrt(2.0), 0.0, 0.0]) * gain + bias
    np.testing.assert_allclose(out.data[0], want, rtol=4 * eps, atol=4 * eps)
    alone = T.layer_norm(Tensor(t.data[1:]), Tensor(gain), Tensor(bias))
    assert_same_bits(out.data[1:], alone.data)
    T.backward(T.tsum(T.mul(out, np.array([[1.0, 2.0, -1.0, 0.5]] * 2))))
    assert np.isfinite(t.grad).all()
    assert np.abs(t.grad[0]).max() > 0.1 / x


@pytest.mark.parametrize("dtype, x", [("float32", 2e19), ("float64", 1e155)])
def test_gelu_of_an_input_whose_square_overflows(dtype, x):
    # x * x overflows from these magnitudes on, where the tanh is already
    # ±1: the value is x or -0.0 and the gradient exactly 1 or 0, with no
    # warning, up to the largest finite input
    T.set_dtype(dtype)
    big = np.finfo(dtype).max
    t = Tensor(np.array([x, -x, big, -big, 9.0, -9.0]), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.gelu(t)
        T.backward(T.tsum(out))
    assert_same_bits(out.data, np.array([x, -0.0, big, -0.0, 9.0, -0.0], dtype=dtype))
    assert_same_bits(t.grad, np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0], dtype=dtype))


# ---------------------------------------------------------------------------
# the buffer contract: borrowed first gradients, no backward writes into g
# ---------------------------------------------------------------------------


def _read_only_gradient(fn):
    def bw(g):
        g = np.asarray(g).view()
        g.flags.writeable = False
        fn(g)
    return bw


class TestBufferContract:
    def test_same_tensor_added_to_itself(self):
        rng = np.random.default_rng(6)
        x = randt(rng, 3, 4)
        w = rng.normal(size=(3, 4))
        h = T.mul(x, 2.0)                               # interior: borrows, then sums
        T.backward(T.tsum(T.mul(T.add(h, h), w)))
        np.testing.assert_allclose(h.grad, 2.0 * w, rtol=1e-15)
        np.testing.assert_allclose(x.grad, 4.0 * w, rtol=1e-15)

    def test_same_tensor_multiplied_by_itself(self):
        rng = np.random.default_rng(7)
        x = randt(rng, 5)
        c = rng.normal(size=5)
        w = rng.normal(size=5)
        y = T.add(x, c)
        T.backward(T.tsum(T.mul(T.mul(y, y), w)))
        np.testing.assert_allclose(x.grad, 2.0 * (x.data + c) * w, rtol=1e-14)
        check_grads(lambda: T.tsum(T.mul(T.mul(T.add(x, c), T.add(x, c)), w)), [x])

    def test_fan_out_gradient_is_not_written_through(self):
        # add hands one g to both parents; u then takes a second
        # contribution, which must not reach v through the shared buffer
        rng = np.random.default_rng(8)
        x = randt(rng, 4, 3)
        w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))

        def build():
            u, v = T.mul(x, 3.0), T.mul(x, 5.0)
            # the add's backward runs first, so its g is u's first gradient
            return T.add(T.tsum(T.mul(u, w2)), T.tsum(T.mul(T.add(u, v), w1))), u, v

        loss, u, v = build()
        T.backward(loss)
        np.testing.assert_array_equal(v.grad, w1)
        np.testing.assert_allclose(u.grad, w1 + w2, rtol=1e-15)
        np.testing.assert_allclose(x.grad, 3.0 * (w1 + w2) + 5.0 * w1, rtol=1e-14)
        check_grads(lambda: build()[0], [x])

    @staticmethod
    def _grads_per_step(monkeypatch, run, params, read_only):
        """Run ``run()`` and copy the gradients of ``params()`` after every
        backward; with ``read_only`` every node's backward receives its
        gradient as a read-only view."""
        real_backward = T.backward
        steps = []

        def backward(loss):
            if read_only:
                seen, stack = {id(loss)}, [loss]
                while stack:
                    node = stack.pop()
                    if node._backward_fn is not None:
                        node._backward_fn = _read_only_gradient(node._backward_fn)
                    for parent in node._parents:
                        if parent.requires_grad and id(parent) not in seen:
                            seen.add(id(parent))
                            stack.append(parent)
            real_backward(loss)
            steps.append([p.grad.copy() for _, p in params()])

        monkeypatch.setattr(T, "backward", backward)
        run()
        monkeypatch.setattr(T, "backward", real_backward)
        return steps

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_no_backward_writes_into_its_gradient(self, monkeypatch, dtype):
        T.set_dtype(dtype)
        groups = make_perturbation_corpus(6, seed=5)
        vocab = build_vocab(corpus_sentences(groups))
        cfg = EncoderConfig(layers=2, heads=2, model_dim=16, ff_dim=32, max_len=24,
                            vocab_size=len(vocab), dropout=0.1)
        seqs = [tokenize(t, vocab, cfg.max_len) for t in corpus_sentences(groups)]
        pre = PretrainConfig(epochs=1, batch_size=16, lr=1e-3, warmup_steps=2,
                             weight_decay=0.01, seed=3)
        rcfg = RefinementConfig(epochs=1, batch_size=3, perturbations_per_sample=3,
                                lr=1e-3, warmup_steps=2, weight_decay=0.01, seed=4,
                                disc_hidden=8, disc_dropout=0.2)
        runs = {}
        for read_only in (False, True):
            model = EncoderModel(cfg, seed=1)
            disc = Discriminator(cfg.model_dim, 8, dropout=0.2, seed=2)
            pre_steps = self._grads_per_step(
                monkeypatch, lambda: pretrain_mlm(model, seqs, pre, vocab),
                model.named_params, read_only)
            ref_steps = self._grads_per_step(
                monkeypatch,
                lambda: refine(model, disc, groups, LossWeights(1.0, 0.5, 0.5), rcfg,
                               ScoreConfig(window_radius=2), vocab),
                lambda: model.named_params() + disc.named_params(), read_only)
            runs[read_only] = pre_steps + ref_steps
        assert len(runs[True]) == len(runs[False]) >= 4
        for want, got in zip(runs[False], runs[True]):
            for a, b in zip(want, got):
                assert_same_bits(b, a)


# ---------------------------------------------------------------------------
# l2_normalize at magnitudes whose squares underflow or overflow
# ---------------------------------------------------------------------------


# per dtype: tiny rows, a tiny value next to the least subnormal, huge rows
RANGE_CASES = {
    "float32": ([1e-22] * 6, [3e-23, 1e-45], [1e20] * 6),
    "float64": ([1e-170] * 6, [3e-170, 5e-324], [1e160] * 6),
}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestL2NormalizeRange:
    @pytest.mark.parametrize("case", range(3), ids=["tiny", "subnormal-tail", "huge"])
    def test_unit_norm(self, dtype, case):
        T.set_dtype(dtype)
        row = np.array(RANGE_CASES[dtype][case], dtype=dtype)
        out = T.l2_normalize(Tensor(row)).data
        assert out.dtype == np.dtype(dtype)
        want = row / np.linalg.norm(row.astype(np.longdouble))
        np.testing.assert_allclose(out, want.astype(np.float64),
                                   rtol=4 * np.finfo(dtype).eps, atol=0)

    def test_windowed_score_of_tiny_rows_stays_in_unit_interval(self, dtype):
        T.set_dtype(dtype)
        rows = np.full((2, 5), RANGE_CASES[dtype][0][0])
        a, b = make_stack(rows), make_stack(rows)
        score = windowed_bertscore(a, b, [0], [0], ScoreConfig(window_radius=1)).data
        assert 0.0 <= score[0] <= 1.0
        np.testing.assert_allclose(score[0], 1.0, rtol=4 * np.finfo(dtype).eps)

    def test_in_range_rows_are_bit_identical_to_the_unscaled_norm(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(9)
        x = rng.normal(0, 3, size=(6, 5, 16)).astype(dtype)
        x[0, 0] = 0.0                      # a zero row
        x[1, 1, :8] = 0.0                  # zeros next to ordinary values
        x[2] *= 1e6
        g = rng.normal(size=x.shape).astype(dtype)
        t = Tensor(x, requires_grad=True)
        out = T.l2_normalize(t)
        norm = np.sqrt(row_sum(x, x))
        safe = np.where(norm > 0, norm, 1.0)
        want = np.where(norm > 0, x / safe, 0.0)
        assert_same_bits(out.data, want)
        out._backward_fn(g)
        want_gx = np.where(norm > 0, (g - want * row_sum(g, want)) / safe, 0.0)
        assert_same_bits(t.grad, leaf_grad(want_gx))


@pytest.mark.parametrize("magnitude", [1e-170, 1e160], ids=["tiny", "huge"])
def test_l2_normalize_gradient_on_a_scaled_row(magnitude):
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(2, 6)) * magnitude, requires_grad=True)
    w = Tensor(rng.normal(size=(2, 6)))
    check_grads(lambda: T.tsum(T.mul(T.l2_normalize(x), w)), [x], h=1e-6 * magnitude)
    assert np.abs(x.grad).max() > 0.1 / magnitude
