import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import (EncoderConfig, EncoderModel, PretrainConfig,
                             apply_mlm_masking, encode, encode_batch,
                             masked_token_accuracy, mlm_logits,
                             mlm_logits_batch, pretrain_mlm)
from winoref.optim import AdamW
from winoref.synthetic import make_perturbation_corpus
from winoref.text import build_vocab, corpus_sentences, tokenize


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


class TestEncode:
    def test_eval_mode_deterministic(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        a = encode(model, seqs[0]).hidden.numpy()
        b = encode(model, seqs[0]).hidden.numpy()
        np.testing.assert_array_equal(a, b)

    def test_position_sensitivity(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        seq = seqs[0]
        swapped = seq.copy()
        # swap two in-sentence word positions with different tokens
        content = np.nonzero(seq.content_mask)[0]
        i, j = None, None
        for a in content:
            for b in content:
                if seq.ids[a] != seq.ids[b]:
                    i, j = a, b
                    break
            if i is not None:
                break
        swapped.ids[i], swapped.ids[j] = seq.ids[j], seq.ids[i]
        h1 = encode(model, seq).hidden.numpy()
        h2 = encode(model, swapped).hidden.numpy()
        assert np.abs(h1 - h2).max() > 1e-6

    def test_zero_layer_config_is_normed_embeddings(self, small_setup):
        vocab, _, _, seqs = small_setup
        cfg = EncoderConfig(layers=0, heads=2, model_dim=32, ff_dim=64,
                            max_len=24, vocab_size=len(vocab))
        model = EncoderModel(cfg, seed=5)
        seq = seqs[0]
        got = encode(model, seq).hidden.numpy()[0]

        # hand trace: token + position embeddings, layer norm, pad rows zeroed
        tok = model.params["tok_emb"].numpy()[seq.ids]
        pos = model.params["pos_emb"].numpy()
        x = tok + pos
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + cfg.layer_norm_eps)
        expected *= seq.attention_mask[:, None]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_pad_content_invariance(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        seq = seqs[0]
        h1 = encode(model, seq).hidden.numpy()
        tweaked = seq.copy()
        tweaked.ids[seq.length:] = vocab.unk_id   # rewrite pad content
        h2 = encode(model, tweaked).hidden.numpy()
        np.testing.assert_array_equal(h1, h2)

    def test_out_of_range_id_rejected(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        bad = seqs[0].copy()
        bad.ids[2] = cfg.vocab_size
        with pytest.raises(ValueError, match="out of range"):
            encode(model, bad)

    def test_stack_carries_masks(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        stack = encode_batch(model, seqs[:3])
        assert stack.hidden.shape == (3, cfg.max_len, cfg.model_dim)
        for row, seq in enumerate(seqs[:3]):
            np.testing.assert_array_equal(stack.attention_mask[row], seq.attention_mask)
            np.testing.assert_array_equal(stack.content_mask[row], seq.content_mask)

    def test_model_dim_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(layers=1, heads=3, model_dim=32, ff_dim=64,
                          max_len=8, vocab_size=30)


class TestMlmLogits:
    def test_softmax_normalized_everywhere(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        logits = mlm_logits(model, seqs[0]).numpy()
        probs = np.exp(logits - logits.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)

    def test_untrained_model_is_near_uniform(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        fresh = EncoderModel(cfg, seed=19)
        logits = mlm_logits(fresh, seqs[0]).numpy()
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
        mask = np.stack([s.attention_mask for s in batch])
        logits = mlm_logits_batch(model, corrupted, mask, train=True, rng=rng)
        B, L, V = logits.data.shape
        picked = T.take(T.reshape(logits, (B * L, V)), flat_idx, axis=0)
        T.backward(T.cross_entropy(picked, targets))
        for name, p in model.named_params():
            assert np.linalg.norm(p.grad) > 0, f"dead parameter {name}"


class TestMasking:
    def test_masking_fraction_monte_carlo(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(42)
        selected = total = 0
        batch = seqs[:16]
        eligible = int(np.stack([s.content_mask for s in batch]).sum())
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
        orig = np.stack([s.ids for s in batch]).reshape(-1)
        for _ in range(200):
            corrupted, flat_idx, targets = apply_mlm_masking(batch, vocab, 0.15, rng)
            flat = corrupted.reshape(-1)
            n_mask += int((flat[flat_idx] == vocab.mask_id).sum())
            n_same += int((flat[flat_idx] == orig[flat_idx]).sum())
            n_total += len(flat_idx)
        assert abs(n_mask / n_total - 0.80) < 0.02
        # "unchanged" also catches random draws that hit the original token
        assert 0.08 < n_same / n_total < 0.14

    def test_selected_positions_are_content_only(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(9)
        batch = seqs[:8]
        content = np.stack([s.content_mask for s in batch]).reshape(-1)
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
        acc = masked_token_accuracy(model, seqs, vocab)
        assert acc >= 0.95, f"masked-token accuracy {acc:.3f} below 0.95"
