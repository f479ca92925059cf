import dataclasses

import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import (ENCODE_CHUNK, EncoderConfig, EncoderModel,
                             PretrainConfig, apply_mlm_masking, encode, encode_batch,
                             forward_hidden, mlm_logits_batch, pretrain_mlm)
from winoref.optim import AdamW
from winoref.synthetic import make_perturbation_corpus
from winoref.tensor import Tensor
from winoref.text import (CLS_ID, FIRST_WORD_ID, MASK_ID, PAD_ID, SEP_ID, UNK_ID,
                          build_vocab, corpus_sentences, row_masks, tokenize)

from conftest import check_grads, masked_token_accuracy


@pytest.fixture(scope="module")
def small_setup():
    groups = make_perturbation_corpus(8, seed=11)
    texts = corpus_sentences(groups)
    vocab = build_vocab(texts)
    cfg = EncoderConfig(layers=2, heads=2, model_dim=32, ff_dim=64, max_len=24,
                        vocab_size=len(vocab), dropout=0.1)
    model = EncoderModel(cfg, seed=3)
    seqs = [tokenize(t, vocab, cfg.max_len) for t in texts]
    return vocab, cfg, model, seqs


def every_row(model, row):
    """Eval-mode logits at every position of one id row, (L, V)."""
    with T.no_grad():
        return mlm_logits_batch(model, row[None, :], row_masks(row)[0][None, :],
                                np.arange(model.config.max_len)).data


class TestEncode:
    def test_eval_mode_deterministic(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        a = encode(model, [seqs[0]]).hidden.data
        b = encode(model, [seqs[0]]).hidden.data
        np.testing.assert_array_equal(a, b)

    def test_position_sensitivity(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        seq = seqs[0]
        swapped = seq.copy()
        # swap two in-sentence word positions with different tokens
        content = np.nonzero(row_masks(seq)[1])[0]
        i, j = None, None
        for a in content:
            for b in content:
                if seq[a] != seq[b]:
                    i, j = a, b
                    break
            if i is not None:
                break
        swapped[i], swapped[j] = seq[j], seq[i]
        h1 = encode(model, [seq]).hidden.data
        h2 = encode(model, [swapped]).hidden.data
        assert np.abs(h1 - h2).max() > 1e-6

    def test_zero_layer_config_is_normed_embeddings(self, small_setup):
        vocab, _, _, seqs = small_setup
        cfg = EncoderConfig(layers=0, heads=2, model_dim=32, ff_dim=64,
                            max_len=24, vocab_size=len(vocab))
        model = EncoderModel(cfg, seed=5)
        seq = seqs[0]
        got = encode(model, [seq]).hidden.data[0]

        # hand trace: token + position embeddings, layer norm, pad rows zeroed
        tok = model.params["tok_emb"].data[seq]
        pos = model.params["pos_emb"].data
        x = tok + pos
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + cfg.layer_norm_eps)
        expected *= row_masks(seq)[0][:, None]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_pad_content_invariance(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        seq = seqs[0]
        h1 = encode(model, [seq]).hidden.data
        attention = row_masks(seq)[0]
        tweaked = seq.copy()
        tweaked[~attention] = UNK_ID   # rewrite pad content
        # the original mask: the masks of the tweaked row would count its
        # former pads as real tokens
        with T.no_grad():
            h2 = forward_hidden(model, tweaked[None, :], attention[None, :]).data
        np.testing.assert_array_equal(h1, h2)

    def test_out_of_range_id_rejected(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        bad = seqs[0].copy()
        bad[2] = cfg.vocab_size
        with pytest.raises(ValueError, match="out of range"):
            encode(model, [bad])

    def test_chunked_encode_matches_one_batch(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rows = [seqs[i % len(seqs)] for i in range(2 * ENCODE_CHUNK + 5)]
        stack = encode(model, rows)
        assert not stack.hidden.requires_grad
        with T.no_grad():
            whole = encode_batch(model, rows)
        np.testing.assert_allclose(stack.hidden.data, whole.hidden.data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(stack.attention_mask, whole.attention_mask)
        np.testing.assert_array_equal(stack.content_mask, whole.content_mask)

    def test_stack_carries_masks(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        stack = encode_batch(model, seqs[:3])
        assert stack.hidden.shape == (3, cfg.max_len, cfg.model_dim)
        for row, seq in enumerate(seqs[:3]):
            attention, content = row_masks(seq)
            np.testing.assert_array_equal(stack.attention_mask[row], attention)
            np.testing.assert_array_equal(stack.content_mask[row], content)

    @pytest.mark.parametrize("extra", ["layer", "untied-head", "bogus"])
    def test_load_arrays_rejects_names_the_model_does_not_have(self, small_setup, extra):
        _, cfg, model, _ = small_setup
        arrays = model.param_arrays()
        d, v = cfg.model_dim, cfg.vocab_size
        added = {"layer": ("l2.ff.b2", np.zeros(d)),
                 "untied-head": ("mlm_w", np.zeros((d, v))),
                 "bogus": ("bogus", np.zeros(1))}[extra]
        target = EncoderModel(cfg, seed=0)
        before = target.param_arrays()
        with pytest.raises(ValueError, match=added[0]):
            target.load_arrays({**arrays, added[0]: added[1]})
        # nothing was loaded
        for name, arr in target.param_arrays().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_model_dim_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(layers=1, heads=3, model_dim=32, ff_dim=64,
                          max_len=8, vocab_size=30)


def word_row(rng, length, cfg):
    """An id row of ``length`` tokens, [CLS] words [SEP], then pads."""
    ids = np.full(cfg.max_len, PAD_ID, dtype=np.int64)
    ids[:length] = rng.integers(FIRST_WORD_ID, cfg.vocab_size, size=length)
    ids[0], ids[length - 1] = CLS_ID, SEP_ID
    return ids


def eval_hidden(model, rows):
    ids = np.stack(rows)
    with T.no_grad():
        return forward_hidden(model, ids, row_masks(ids)[0]).data


TRIM_CFG = EncoderConfig(layers=2, heads=4, model_dim=32, ff_dim=64, max_len=24,
                         vocab_size=60, dropout=0.1)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestTrimmedForward:
    """A forward runs only up to its batch's longest row; no row may see
    how far that is."""

    @pytest.mark.parametrize("length", [9, 13, 17, 20, 21, 24])
    def test_row_alone_and_in_a_batch_with_a_longer_row_same_bits(self, dtype, length):
        T.set_dtype(dtype)
        model = EncoderModel(TRIM_CFG, seed=7)
        rng = np.random.default_rng(length)
        row = word_row(rng, length, TRIM_CFG)
        alone = eval_hidden(model, [row])[0]
        # a row at max_len on either side
        other = word_row(rng, TRIM_CFG.max_len, TRIM_CFG)
        batched = eval_hidden(model, [other, row, other])
        assert alone.tobytes() == batched[1].tobytes()
        assert (alone[length:] == 0).all()

    def test_every_row_at_max_len(self, dtype):
        T.set_dtype(dtype)
        model = EncoderModel(TRIM_CFG, seed=8)
        rng = np.random.default_rng(1)
        rows = [word_row(rng, TRIM_CFG.max_len, TRIM_CFG) for _ in range(3)]
        batched = eval_hidden(model, rows)
        for i, row in enumerate(rows):
            assert eval_hidden(model, [row])[0].tobytes() == batched[i].tobytes()
        assert (batched != 0).any(axis=-1).all()          # no row zeroed as pad

    def test_all_pad_batch(self, dtype):
        T.set_dtype(dtype)
        model = EncoderModel(TRIM_CFG, seed=9)
        pads = np.full((3, TRIM_CFG.max_len), PAD_ID, dtype=np.int64)
        hidden = eval_hidden(model, list(pads))
        assert hidden.shape == (3, TRIM_CFG.max_len, TRIM_CFG.model_dim)
        assert hidden.dtype == np.dtype(dtype) and (hidden == 0).all()

    def test_dropout_masks_are_drawn_at_the_untrimmed_shape(self, dtype):
        T.set_dtype(dtype)
        cfg = TRIM_CFG
        model = EncoderModel(cfg, seed=10)
        rng = np.random.default_rng(2)
        ids = np.stack([word_row(rng, n, cfg) for n in (9, 13)])
        stream = np.random.default_rng(5)
        forward_hidden(model, ids, row_masks(ids)[0], train=True, rng=stream)
        B, L, d = len(ids), cfg.max_len, cfg.model_dim
        drawn = B * L * d + cfg.layers * (B * cfg.heads * L * L + 2 * B * L * d)
        want = np.random.default_rng(5)
        want.random(drawn)
        assert stream.random() == want.random()


def padded_dropout(x, rate, rng, shape):
    if rate <= 0.0:
        return x
    drawn = rng.random(shape)[tuple(map(slice, x.data.shape))]
    return T.mul(x, (drawn >= rate).astype(x.data.dtype) / (1.0 - rate))


def padded_attention(h, mask_bias, cfg, p, i, train, rate, rng):
    B, L, d = h.data.shape
    heads = cfg.heads
    dh = d // heads

    def project(w):
        flat = T.matmul(T.reshape(h, (B * L, d)), p[f"l{i}.attn.{w}"])
        flat = T.add(flat, p[f"l{i}.attn.{w}_b"])
        return T.transpose(T.reshape(flat, (B, L, heads, dh)), (0, 2, 1, 3))

    q, k, v = project("wq"), project("wk"), project("wv")
    scores = T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = T.softmax(T.add(scores, mask_bias))
    if train:
        attn = padded_dropout(attn, rate, rng, (B, heads, cfg.max_len, cfg.max_len))
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (B * L, d))
    out = T.add(T.matmul(ctx, p[f"l{i}.attn.wo"]), p[f"l{i}.attn.wo_b"])
    return T.reshape(out, (B, L, d))


def padded_forward_hidden(model, ids, attention_mask, train=False, rng=None):
    """``forward_hidden`` as it was before packing: every layer runs on all
    B·n positions of the trimmed batch, the pad rows are zeroed at the end
    and the stack is padded back to max_len."""
    cfg, p = model.config, model.params
    B, L = ids.shape
    rate, full, d = cfg.dropout, (B, L, cfg.model_dim), cfg.model_dim
    mask = np.asarray(attention_mask, dtype=p["tok_emb"].data.dtype)
    n = int(np.flatnonzero(mask.any(axis=0)).max(initial=0)) + 1
    ids, mask = ids[:, :n], mask[:, :n]
    mask_bias = Tensor(((1.0 - mask) * -1e9).reshape(B, 1, 1, n))

    pos = T.reshape(T.take(p["pos_emb"], np.arange(n)), (1, n, d))
    x = T.add(T.embedding_lookup(p["tok_emb"], ids), pos)
    if train:
        x = padded_dropout(x, rate, rng, full)
    for i in range(cfg.layers):
        h1 = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"], cfg.layer_norm_eps)
        a = padded_attention(h1, mask_bias, cfg, p, i, train, rate, rng)
        if train:
            a = padded_dropout(a, rate, rng, full)
        x = T.add(x, a)
        h2 = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"], cfg.layer_norm_eps)
        flat = T.reshape(h2, (B * n, d))
        ff = T.gelu(T.add(T.matmul(flat, p[f"l{i}.ff.w1"]), p[f"l{i}.ff.b1"]))
        ff = T.add(T.matmul(ff, p[f"l{i}.ff.w2"]), p[f"l{i}.ff.b2"])
        ff = T.reshape(ff, (B, n, d))
        if train:
            ff = padded_dropout(ff, rate, rng, full)
        x = T.add(x, ff)
    x = T.layer_norm(x, p["final_ln.g"], p["final_ln.b"], cfg.layer_norm_eps)
    x = T.add(T.mul(x, mask.reshape(B, n, 1)), 0.0)
    prefix = np.zeros((B, L), dtype=bool)
    prefix[:, :n] = True
    return T.scatter_rows(T.reshape(x, (B * n, d)), prefix)


class TestPackedForward:
    """Packing the real rows changes no bit of any real row and no gradient
    but the K-sums of the weight matrices'."""

    @pytest.mark.parametrize("dtype, rtol", [("float32", 1e-6), ("float64", 1e-13)])
    @pytest.mark.parametrize("dropout", [None, 0.0, 0.1],
                             ids=["eval", "train-dropout-0", "train-dropout-0.1"])
    @pytest.mark.parametrize("longest", [TRIM_CFG.max_len, 15])
    def test_matches_the_padded_forward(self, dtype, rtol, dropout, longest):
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, dropout=dropout or 0.0)
        rng = np.random.default_rng(longest)
        lengths = rng.permutation(np.arange(1, longest + 1))
        ids = np.stack([word_row(rng, n, cfg) for n in lengths])
        mask = row_masks(ids)[0]
        mask[np.argmax(lengths), 3] = False        # a mask that is not a prefix
        rows = rng.choice(np.flatnonzero(mask), size=20, replace=False)
        targets = rng.integers(0, cfg.vocab_size, size=len(rows))

        runs = []
        for forward in (forward_hidden, padded_forward_hidden):
            model = EncoderModel(cfg, seed=12)
            p = model.params
            stream = np.random.default_rng(4) if dropout is not None else None
            hidden = forward(model, ids, mask, train=dropout is not None, rng=stream)
            picked = T.take(T.reshape(hidden, (-1, cfg.model_dim)), rows)
            logits = T.add(T.matmul(picked, T.transpose(p["tok_emb"], (1, 0))),
                           p["mlm_bias"])
            loss = T.cross_entropy(logits, targets)
            T.backward(loss)
            runs.append((hidden.data, loss.data,
                         {name: q.grad for name, q in model.named_params()}))
        (packed, loss, grads), (padded, want_loss, want_grads) = runs

        assert packed.dtype == np.dtype(dtype)
        assert packed[mask].tobytes() == padded[mask].tobytes()
        pads = packed[~mask]
        assert (pads == 0).all() and not np.signbit(pads).any()
        assert loss.tobytes() == want_loss.tobytes()
        for name, want in want_grads.items():
            if want.ndim == 2 and name not in ("tok_emb", "pos_emb"):
                err = np.abs(grads[name] - want).max() / np.abs(want).max()
                assert err <= rtol, f"{name}: {err:.2e}"
            else:
                assert grads[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_position_gradient_is_the_add_at_sum(dtype):
    # every real position holds its own token id, so the token table's
    # gradient rows are the gradient of the packed embedding rows; the
    # position table's gradient must be their np.add.at sum, bit for bit
    T.set_dtype(dtype)
    cfg = dataclasses.replace(TRIM_CFG, vocab_size=200)
    rng = np.random.default_rng(3)
    mask = rng.random((6, cfg.max_len)) < 0.6
    mask[:, 0] = True
    ids = np.full(mask.shape, PAD_ID, dtype=np.int64)
    ids[mask] = rng.permutation(np.arange(FIRST_WORD_ID, cfg.vocab_size))[:mask.sum()]
    model = EncoderModel(cfg, seed=13)
    p = model.params
    hidden = forward_hidden(model, ids, mask, train=True, rng=np.random.default_rng(6))
    weights = rng.normal(size=hidden.shape).astype(dtype)
    T.backward(T.tsum(T.mul(hidden, weights)))
    want = np.zeros_like(p["pos_emb"].data)
    np.add.at(want, np.nonzero(mask)[1], p["tok_emb"].grad[ids[mask]])
    assert p["pos_emb"].grad.dtype == dtype
    assert p["pos_emb"].grad.tobytes() == want.tobytes()


class TestMlmLogits:
    def test_softmax_normalized_everywhere(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        logits = every_row(model, seqs[0])
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_untrained_model_is_near_uniform(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        fresh = EncoderModel(cfg, seed=19)
        logits = every_row(fresh, seqs[0])
        row = logits[2]
        probs = np.exp(row - row.max())
        probs /= probs.sum()
        assert probs.max() < 5.0 / cfg.vocab_size

    def test_gradient_reaches_every_parameter(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        model = EncoderModel(cfg, seed=23)
        rng = np.random.default_rng(0)
        batch = seqs[:8]
        corrupted, flat_idx, targets = apply_mlm_masking(batch, vocab, 0.5, rng)
        mask = row_masks(np.stack(batch))[0]
        logits = mlm_logits_batch(model, corrupted, mask, flat_idx,
                                  train=True, rng=rng)
        T.backward(T.cross_entropy(logits, targets))
        for name, p in model.named_params():
            assert np.linalg.norm(p.grad) > 0, f"dead parameter {name}"


def head_weight(model):
    p = model.params
    return p["tok_emb"].data.T if model.config.tie_mlm_head else p["mlm_w"].data


def full_logits(model, ids, mask):
    """(B*L, V) logits at every position, hidden states times the head."""
    hidden = forward_hidden(model, ids, mask).data
    flat = hidden.reshape(-1, model.config.model_dim)
    return flat @ head_weight(model) + model.params["mlm_bias"].data


@pytest.fixture(scope="module")
def tiny_world():
    vocab = build_vocab(["the cat sat on the mat .", "a dog ran home ."])
    seqs = [tokenize(t, vocab, 8) for t in ("the cat sat .", "a dog ran home .")]
    ids = np.stack(seqs)
    return vocab, ids, row_masks(ids)[0]


def biased_model(cfg, seed):
    model = EncoderModel(cfg, seed=seed)
    # a nonzero bias so a wrong row or a dropped bias shows
    model.params["mlm_bias"].data = np.random.default_rng(seed).normal(
        0, 0.1, size=cfg.vocab_size)
    return model


def tiny_model(vocab, tie):
    return biased_model(EncoderConfig(layers=1, heads=2, model_dim=8, ff_dim=16,
                                      max_len=8, vocab_size=len(vocab), dropout=0.0,
                                      tie_mlm_head=tie), seed=4)


class TestHeadRows:
    @pytest.mark.parametrize("tie", [True, False])
    def test_rows_match_the_full_head(self, small_setup, tie):
        vocab, cfg, _, seqs = small_setup
        model = biased_model(dataclasses.replace(cfg, tie_mlm_head=tie), seed=6)
        batch = seqs[:3]
        ids = np.stack(batch)
        mask = row_masks(ids)[0]
        L = cfg.max_len
        # rows from all three sequences, unsorted and repeated
        rows = np.array([2 * L + 3, 5, L + 1, 5, 0, 2 * L + 3, L + 7, 3 * L - 1])
        with T.no_grad():
            got = mlm_logits_batch(model, ids, mask, rows).data
        want = full_logits(model, ids, mask)[rows]
        assert got.shape == (len(rows), cfg.vocab_size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tie", [True, False])
    def test_gradients_match_finite_differences(self, tiny_world, tie):
        vocab, ids, mask = tiny_world
        model = tiny_model(vocab, tie)
        rows = np.array([9, 1, 3, 9, 12])
        targets = np.random.default_rng(2).integers(0, len(vocab), size=len(rows))
        names = ["tok_emb", "mlm_bias", "pos_emb"] + ([] if tie else ["mlm_w"])
        check_grads(lambda: T.cross_entropy(mlm_logits_batch(model, ids, mask, rows),
                                            targets),
                    [model.params[n] for n in names])

    @pytest.mark.parametrize("rows", [[0, 16], [-1], np.array([1.0, 2.0]),
                                      np.array([[1, 2]]), np.array([True, False])],
                             ids=["out-of-range", "negative", "float", "2-d", "bool"])
    def test_bad_rows_rejected(self, tiny_world, rows):
        vocab, ids, mask = tiny_world
        model = tiny_model(vocab, True)
        with pytest.raises(ValueError, match="rows"):
            mlm_logits_batch(model, ids, mask, rows)

    def test_pretrain_matches_full_logit_path(self, small_setup):
        # the same run with the head over all B*L rows and a take after it,
        # as pretraining computed it before the head gathered its rows
        vocab, cfg, _, seqs = small_setup
        pre = PretrainConfig(epochs=2, batch_size=16, lr=1e-3, warmup_steps=5, seed=4)
        model = EncoderModel(cfg, seed=9)
        history = pretrain_mlm(model, seqs, pre, vocab)

        ref = EncoderModel(cfg, seed=9)
        p = ref.params
        rng = np.random.default_rng(pre.seed)
        opt = AdamW(ref.named_params(), lr=pre.lr, eps=pre.adam_eps,
                    weight_decay=pre.weight_decay, warmup_steps=pre.warmup_steps)
        losses = []
        order = np.arange(len(seqs))
        for _ in range(pre.epochs):
            rng.shuffle(order)
            for start in range(0, len(seqs), pre.batch_size):
                batch = [seqs[i] for i in order[start:start + pre.batch_size]]
                corrupted, flat_idx, targets = apply_mlm_masking(
                    batch, vocab, pre.mask_prob, rng)
                if flat_idx.size == 0:
                    continue
                mask = row_masks(np.stack(batch))[0]
                hidden = forward_hidden(ref, corrupted, mask, train=True, rng=rng)
                flat = T.reshape(hidden, (-1, cfg.model_dim))
                logits = T.add(T.matmul(flat, T.transpose(p["tok_emb"], (1, 0))),
                               p["mlm_bias"])
                loss = T.cross_entropy(T.take(logits, flat_idx), targets)
                T.backward(loss)
                opt.step()
                losses.append(loss.item())

        assert len(history) == len(losses) > 0
        np.testing.assert_allclose([h["loss"] for h in history], losses,
                                   rtol=0, atol=1e-10)
        for name, param in model.named_params():
            np.testing.assert_allclose(param.data, p[name].data, rtol=0, atol=1e-9,
                                       err_msg=name)


def full_stack_logits(model, ids, mask, rows, train=False, rng=None):
    """Logits at ``rows`` from a forward that runs every row through the
    last block, then the head over the picked rows."""
    p = model.params
    hidden = forward_hidden(model, ids, mask, train=train, rng=rng)
    picked = T.take(T.reshape(hidden, (-1, model.config.model_dim)), rows)
    return T.linear(picked, T.transpose(p["tok_emb"], (1, 0)), p["mlm_bias"])


def asked_batch(cfg):
    """Rows of 9, 24 and 13 tokens, then an all-pad row: (ids, mask)."""
    rng = np.random.default_rng(21)
    ids = np.stack([word_row(rng, n, cfg) for n in (9, 24, 13)]
                   + [np.full(cfg.max_len, PAD_ID, dtype=np.int64)])
    return ids, row_masks(ids)[0]


L_TRIM = TRIM_CFG.max_len
ASKED_ROWS = {
    # unsorted and repeated, with a pad row and two of the all-pad sequence
    "unsorted-repeated": [2 * L_TRIM + 3, 5, L_TRIM + 1, 5, 0, 2 * L_TRIM + 3,
                          L_TRIM + 7, 3 * L_TRIM - 1, 3 * L_TRIM, 4 * L_TRIM - 1],
    "one-real-row": [L_TRIM + 4],
    "no-real-row": [12, 3 * L_TRIM, 3 * L_TRIM + 5, 2 * L_TRIM + 20],
    "every-row": list(range(4 * L_TRIM)),
}


@pytest.mark.parametrize("dtype, rtol", [("float32", 1e-5), ("float64", 1e-12)])
class TestAskedRows:
    """The last block runs on the rows the caller reads; they come out as
    the full stack gives them, and every other row is zero."""

    @pytest.mark.parametrize("layers", [2, 0])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("rows", list(ASKED_ROWS.values()), ids=list(ASKED_ROWS))
    def test_logits_match_the_full_stack(self, dtype, rtol, train, rows, layers):
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, layers=layers)
        ids, mask = asked_batch(cfg)
        rows = np.array(rows)
        model = EncoderModel(cfg, seed=5)
        model.params["mlm_bias"].data = np.random.default_rng(5).normal(
            0, 0.1, size=cfg.vocab_size).astype(dtype)
        streams = [np.random.default_rng(4) if train else None for _ in range(3)]
        with T.no_grad():
            got = mlm_logits_batch(model, ids, mask, rows, train=train,
                                   rng=streams[0]).data
            want = full_stack_logits(model, ids, mask, rows, train=train,
                                     rng=streams[1]).data
            hidden = forward_hidden(model, ids, mask, train=train, rng=streams[2],
                                    rows=rows).data.reshape(-1, cfg.model_dim)
        assert got.shape == (len(rows), cfg.vocab_size) and got.dtype == dtype
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        asked = np.zeros(len(hidden), dtype=bool)
        asked[rows] = True
        asked &= mask.reshape(-1)
        assert (hidden[~asked] == 0).all() and not np.signbit(hidden[~asked]).any()
        assert (hidden[asked] != 0).any(axis=-1).all()

    def test_rng_state_does_not_depend_on_rows(self, dtype, rtol):
        T.set_dtype(dtype)
        ids, mask = asked_batch(TRIM_CFG)
        model = EncoderModel(TRIM_CFG, seed=6)
        states = []
        for rows in (None, np.array(ASKED_ROWS["unsorted-repeated"])):
            stream = np.random.default_rng(8)
            forward_hidden(model, ids, mask, train=True, rng=stream, rows=rows)
            states.append(stream.bit_generator.state)
        assert states[0] == states[1]

    def test_first_pretrain_step_moves_only_the_last_weight_sums(self, dtype, rtol,
                                                                   small_setup):
        # loss and gradients of the first pretrain step against the path that
        # runs every row through the last block: only the last block's
        # wq, wo, ff.w1 and ff.w2 gradients sum over fewer rows. At the
        # quickstart's size: OpenBLAS multiplies by a transposed matrix with
        # a kernel whose row bits depend on the row count when it has only a
        # few dozen rows, as in eval, and not at a pretrain batch's 100 or so
        T.set_dtype(dtype)
        vocab, _, _, seqs = small_setup
        cfg = EncoderConfig(layers=2, heads=4, model_dim=96, ff_dim=256, max_len=24,
                            vocab_size=len(vocab), dropout=0.1)
        batch = np.stack(seqs[:32])
        corrupted, flat_idx, targets = apply_mlm_masking(
            batch, vocab, 0.3, np.random.default_rng(4))
        assert flat_idx.size >= 64
        mask = row_masks(batch)[0]
        runs = []
        for logits_of in (mlm_logits_batch, full_stack_logits):
            model = EncoderModel(cfg, seed=9)
            logits = logits_of(model, corrupted, mask, flat_idx, train=True,
                               rng=np.random.default_rng(5))
            loss = T.cross_entropy(logits, targets)
            T.backward(loss)
            runs.append((loss.data, {n: p.grad for n, p in model.named_params()}))
        (loss, grads), (want_loss, want_grads) = runs
        assert loss.dtype == dtype and loss.tobytes() == want_loss.tobytes()
        last = cfg.layers - 1
        summed = {f"l{last}.attn.wq", f"l{last}.attn.wo", f"l{last}.ff.w1",
                  f"l{last}.ff.w2"}
        for name, want in want_grads.items():
            if name in summed:
                err = np.abs(grads[name] - want).max() / np.abs(want).max()
                assert err <= rtol, f"{name}: {err:.2e}"
            else:
                assert grads[name].tobytes() == want.tobytes(), name

    def test_last_block_gelu_sees_the_asked_rows(self, dtype, rtol, monkeypatch):
        T.set_dtype(dtype)
        ids, mask = asked_batch(TRIM_CFG)
        rows = np.array(ASKED_ROWS["unsorted-repeated"])
        seen = []
        gelu = T.gelu

        def spy(x):
            seen.append(x.data.shape[0])
            return gelu(x)

        monkeypatch.setattr(T, "gelu", spy)
        model = EncoderModel(TRIM_CFG, seed=7)
        mlm_logits_batch(model, ids, mask, rows, train=True,
                         rng=np.random.default_rng(1))
        real = mask.reshape(-1)
        asked = np.unique(rows[real[rows]]).size
        assert asked == 5
        assert seen == [int(real.sum())] * (TRIM_CFG.layers - 1) + [asked]


class TestMasking:
    def test_masking_fraction_monte_carlo(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(42)
        selected = total = 0
        batch = seqs[:16]
        eligible = int(row_masks(np.stack(batch))[1].sum())
        rounds = int(np.ceil(10000 / eligible))
        for _ in range(rounds):
            _, flat_idx, _ = apply_mlm_masking(batch, vocab, 0.15, rng)
            selected += len(flat_idx)
            total += eligible
        assert total >= 10000
        assert abs(selected / total - 0.15) < 0.01

    def test_corruption_split(self, small_setup):
        # among selected positions: ~80% [MASK], ~10% random, ~10% unchanged
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(7)
        n_mask = n_same = n_total = 0
        batch = seqs[:16]
        orig = np.stack(batch).reshape(-1)
        for _ in range(200):
            corrupted, flat_idx, targets = apply_mlm_masking(batch, vocab, 0.15, rng)
            flat = corrupted.reshape(-1)
            n_mask += int((flat[flat_idx] == MASK_ID).sum())
            n_same += int((flat[flat_idx] == orig[flat_idx]).sum())
            n_total += len(flat_idx)
        assert abs(n_mask / n_total - 0.80) < 0.02
        # "unchanged" also catches random draws that hit the original token
        assert 0.08 < n_same / n_total < 0.14

    def test_selected_positions_are_content_only(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(9)
        batch = seqs[:8]
        content = row_masks(np.stack(batch))[1].reshape(-1)
        for _ in range(20):
            _, flat_idx, _ = apply_mlm_masking(batch, vocab, 0.3, rng)
            assert content[flat_idx].all()


class TestPretrain:
    def test_loss_decreases(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        model = EncoderModel(cfg, seed=1)
        pre = PretrainConfig(epochs=20, batch_size=16, lr=1e-3, warmup_steps=10,
                             seed=1, weight_decay=0.0)
        history = pretrain_mlm(model, seqs, pre, vocab)
        first = np.mean([h["loss"] for h in history[:5]])
        last = np.mean([h["loss"] for h in history[-5:]])
        assert last < first

    def test_empty_corpus_rejected(self, small_setup):
        vocab, cfg, model, _ = small_setup
        with pytest.raises(ValueError, match="empty"):
            pretrain_mlm(model, [], PretrainConfig(), vocab)

    def test_fixed_seed_bit_identical(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        outs = []
        for _ in range(2):
            model = EncoderModel(cfg, seed=2)
            pre = PretrainConfig(epochs=3, batch_size=16, lr=1e-3,
                                 warmup_steps=5, seed=2)
            pretrain_mlm(model, seqs, pre, vocab)
            outs.append({k: v.data.tobytes() for k, v in model.params.items()})
        assert outs[0] == outs[1]

    def test_masked_token_accuracy_matches_full_logit_oracle(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        model = EncoderModel(cfg, seed=12)
        pretrain_mlm(model, seqs, PretrainConfig(epochs=8, batch_size=16, lr=3e-3,
                                                 warmup_steps=5, seed=12), vocab)
        limit, seed = 150, 3
        got = masked_token_accuracy(model, seqs, limit=limit, seed=seed,
                                    batch_size=16)

        probes = [(s, pos) for s in seqs for pos in np.nonzero(row_masks(s)[1])[0]]
        keep = np.random.default_rng(seed).choice(len(probes), size=limit,
                                                  replace=False)
        correct = 0
        for i in sorted(keep):
            s, pos = probes[i]
            ids = s.copy()
            ids[pos] = MASK_ID
            logits = full_logits(model, ids[None, :], row_masks(s)[0][None, :])
            correct += int(logits[pos].argmax() == s[pos])
        assert 0 < correct < limit
        assert got == correct / limit

    def test_overfit_small_corpus_recovers_masked_tokens(self):
        # memorization oracle: distinct sentences, no dropout, wide masking
        groups = make_perturbation_corpus(20, seed=7)
        texts = [g.base for g in groups]
        vocab = build_vocab(texts)
        cfg = EncoderConfig(layers=2, heads=2, model_dim=96, ff_dim=192,
                            max_len=24, vocab_size=len(vocab), dropout=0.0)
        model = EncoderModel(cfg, seed=0)
        seqs = [tokenize(t, vocab, cfg.max_len) for t in texts]
        pre = PretrainConfig(epochs=400, batch_size=20, lr=2e-3, warmup_steps=30,
                             seed=0, weight_decay=0.0, mask_prob=0.3)
        pretrain_mlm(model, seqs, pre, vocab)
        acc = masked_token_accuracy(model, seqs)
        assert acc >= 0.95, f"masked-token accuracy {acc:.3f} below 0.95"
