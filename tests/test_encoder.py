import contextlib
import dataclasses
import itertools
import math

import numpy as np
import pytest

import winoref.tensor as T
from winoref import encoder
from winoref import evaluate as ev
from winoref.encoder import (ENCODE_CHUNK, EncoderConfig, EncoderModel,
                             PretrainConfig, _attention, apply_mlm_masking, encode,
                             encode_batch, forward_hidden, mlm_logits_batch, pretrain_mlm)
from winoref.optim import AdamW
from winoref.synthetic import make_perturbation_corpus
from winoref.tensor import Tensor
from winoref.text import (CLS_ID, FIRST_WORD_ID, MASK_ID, PAD_ID, SEP_ID, UNK_ID,
                          SchemaInstance, build_vocab, corpus_sentences, row_masks,
                          tokenize)

from conftest import (check_grads, masked_token_accuracy, quickstart_config,
                      record_draws)


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
    return mlm_logits_batch(model.detached(), row[None, :],
                            np.ones((1, model.config.max_len), dtype=bool)).data


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
        expected = (x - mu) / np.sqrt(var + T.LAYER_NORM_EPS)
        expected *= row_masks(seq)[0][:, None]
        length = int(row_masks(seq)[0].sum())
        assert got.shape == (length, cfg.model_dim)
        np.testing.assert_allclose(got, expected[:length], atol=1e-12)

    def test_pad_content_invariance(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        seq = seqs[0]
        h1 = encode(model, [seq]).hidden.data
        attention = row_masks(seq)[0]
        tweaked = seq.copy()
        tweaked[~attention] = UNK_ID   # rewrite pad content
        # the original mask: the masks of the tweaked row would count its
        # former pads as real tokens
        h2 = forward_hidden(model.detached(), tweaked[None, :], attention[None, :]).data
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
        whole = encode_batch(model.detached(), rows)
        np.testing.assert_allclose(stack.hidden.data, whole.hidden.data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(stack.content_mask, whole.content_mask)

    def test_stack_carries_masks(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        stack = encode_batch(model, seqs[:3])
        n = max(int(row_masks(seq)[0].sum()) for seq in seqs[:3])
        assert stack.hidden.shape == (3, n, cfg.model_dim)
        for row, seq in enumerate(seqs[:3]):
            np.testing.assert_array_equal(stack.content_mask[row], row_masks(seq)[1][:n])

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_load_arrays_rejects_a_non_finite_parameter(self, small_setup, value):
        _, cfg, model, _ = small_setup
        arrays = {name: arr.copy() for name, arr in model.param_arrays().items()}
        arrays["final_ln.g"][3] = value
        with pytest.raises(ValueError, match="'final_ln.g' holds a NaN or infinite"):
            EncoderModel(cfg, seed=1).load_arrays(arrays)

    @pytest.mark.parametrize("dtype,case", [
        ("float64", "nan"), ("float64", "missing"), ("float64", "shape"),
        ("float64", "int"), ("float32", "overflows-after-cast")])
    def test_rejected_load_writes_no_parameter(self, small_setup, dtype, case):
        # mlm_bias is the last parameter checked, so a load that wrote each
        # parameter as it checked it would have replaced all the others
        _, cfg, _, _ = small_setup
        T.set_dtype(dtype)
        arrays = {name: arr.copy()
                  for name, arr in EncoderModel(cfg, seed=1).param_arrays().items()}
        bias = arrays.pop("mlm_bias")
        if case != "missing":
            arrays["mlm_bias"] = {
                "nan": np.where(np.arange(bias.size) == 2, np.nan, bias),
                "shape": bias[:-1], "int": bias.astype(np.int64),
                "overflows-after-cast": np.full(bias.shape, 1e300)}[case]
        target = EncoderModel(cfg, seed=0)
        before = {name: arr.copy() for name, arr in target.param_arrays().items()}
        # the float32 cast of 1e300 overflows: rejected, with no warning
        with pytest.raises(ValueError, match="'mlm_bias'"):
            target.load_arrays(arrays)
        for name, arr in target.param_arrays().items():
            assert arr.tobytes() == before[name].tobytes(), name

    def test_clone_keeps_each_parameter_dtype(self, small_setup):
        # the clone copies the model's arrays, whatever the precision is now
        _, cfg, _, _ = small_setup
        T.set_dtype("float32")
        model = EncoderModel(cfg, seed=1)
        T.set_dtype("float64")
        other = model.clone()
        for name, p in other.params.items():
            original = model.params[name].data
            assert p.data.dtype == p.grad.dtype == np.float32, name
            assert p.data.tobytes() == original.tobytes(), name
            assert not np.shares_memory(p.data, original), name

    def test_model_dim_must_divide_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            EncoderConfig(layers=1, heads=3, model_dim=32, ff_dim=64,
                          max_len=8, vocab_size=30)

    def test_parameter_cap_counts_every_parameter(self, monkeypatch):
        for layers in (0, 2):
            cfg = EncoderConfig(layers=layers, heads=3, model_dim=24, ff_dim=7,
                                max_len=11, vocab_size=37)
            count = sum(p.data.size for p in EncoderModel(cfg, seed=0).params.values())
            monkeypatch.setattr(encoder, "MAX_PARAMS", count)   # at the cap
            dataclasses.replace(cfg)
            monkeypatch.setattr(encoder, "MAX_PARAMS", count - 1)
            with pytest.raises(ValueError, match=f"would hold {count} parameters"):
                dataclasses.replace(cfg)
            monkeypatch.undo()

    @pytest.mark.parametrize("key,value,message", [
        ("max_len", 100_000_000, r"encoder.max_len must be in \[3, 512\]"),
        ("max_len", 513, r"encoder.max_len must be in \[3, 512\]"),
        ("model_dim", 100_000, "over the cap of 50000000"),
        ("ff_dim", 10**9, "over the cap of 50000000"),
        ("layers", 10**6, "over the cap of 50000000"),
        ("vocab_size", 10**9, "over the cap of 50000000")])
    def test_too_large_an_encoder_is_rejected_before_any_allocation(
            self, monkeypatch, key, value, message):
        # the sizes are never allocated: no generator may be made
        def default_rng(*args, **kwargs):
            raise AssertionError("a parameter was about to be drawn")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        sizes = dict(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                     vocab_size=40)
        with pytest.raises(ValueError, match=message):
            EncoderModel(EncoderConfig(**{**sizes, key: value}), seed=0)


def word_row(rng, length, cfg):
    """An id row of ``length`` tokens, [CLS] words [SEP], then pads."""
    ids = np.full(cfg.max_len, PAD_ID, dtype=np.int64)
    ids[:length] = rng.integers(FIRST_WORD_ID, cfg.vocab_size, size=length)
    ids[0], ids[length - 1] = CLS_ID, SEP_ID
    return ids


def eval_hidden(model, rows):
    ids = np.stack(rows)
    return forward_hidden(model.detached(), ids, row_masks(ids)[0]).data


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
        assert alone.shape == (length, TRIM_CFG.model_dim)
        assert alone.tobytes() == batched[1, :length].tobytes()
        assert (batched[1, length:] == 0).all()

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
        assert hidden.shape == (3, 1, TRIM_CFG.model_dim)
        assert hidden.dtype == np.dtype(dtype) and (hidden == 0).all()


PRETRAIN = "pretrain.batch_size"
REFINE = "refine.batch_size, refine.perturbations_per_sample"


def over_the_cap(shape, keys, cap=None, what="a training step"):
    return (f"{what} would build an array of shape {shape}, over the cap "
            f"of {cap or encoder.MAX_STEP_VALUES} values: lower {keys}")


class TestStepBudget:
    @pytest.mark.parametrize("sizes, rows, longest, disc, shape, keys", [
        # every key in range; the first attention scores would be 15 GiB as
        # float64. At dropout 0 no mask is drawn, but the scores still are
        (dict(heads=512, model_dim=512, ff_dim=1, layers=1, dropout=0.0), 16, 490, None,
         (16, 512, 490, 490), f"{PRETRAIN} or encoder.heads"),
        (dict(heads=16), 40, 512, 128, (40, 16, 512, 512), f"{REFINE} or encoder.heads"),
        # the packed rows, which the heads do not size
        (dict(heads=1, model_dim=3072, ff_dim=1, layers=1), 100, 490, None,
         (49000, 3072), f"{PRETRAIN} or encoder.model_dim"),
        # with no block there are no attention scores to blame
        (dict(heads=512, model_dim=20480, ff_dim=1, layers=0), 16, 490, None,
         (7840, 20480), f"{PRETRAIN} or encoder.model_dim"),
        # within the parameter cap, on a gen-data corpus's 21-token rows
        (dict(heads=1, model_dim=8, ff_dim=2_000_000, layers=1), 16, 21, None,
         (336, 2_000_000), f"{PRETRAIN} or encoder.ff_dim"),
        # the MLM head's logits; the corpus sets the vocabulary, no key does
        (dict(vocab_size=40_000), 16, 512, None, (8192, 40_000), PRETRAIN),
        (dict(), 40, 21, 4_000_000, (40, 4_000_000), f"{REFINE} or refine.disc_hidden"),
    ], ids=["heads", "refine-rows", "model-dim", "no-block", "ff-dim", "head-logits",
            "disc-hidden"])
    def test_an_array_over_the_cap_names_the_keys_that_size_it(self, sizes, rows,
                                                                longest, disc, shape,
                                                                keys):
        cfg = EncoderConfig(**{"max_len": 512, "vocab_size": 30, **sizes})
        with pytest.raises(ValueError) as e:
            encoder.check_step(cfg, rows, longest, keys.split(" or ")[0], disc)
        assert str(e.value) == over_the_cap(shape, keys)

    @pytest.mark.parametrize("sizes, rows, longest, disc", [
        # at 12 heads and 512-token rows: (40, 12, 512, 512) is 126M values
        (dict(heads=12, model_dim=768), 40, 512, 128),     # refine's default rows
        (dict(heads=12, model_dim=768), 16, 512, None),    # pretrain's default batch
        # CI's smoke corpus with its long-row overrides: 3.6M values
        (dict(heads=512, model_dim=512, ff_dim=1, layers=1), 16, 21, None),
        (dict(heads=512, model_dim=512, layers=0), 16, 512, None),
    ], ids=["refine-defaults", "pretrain-defaults", "smoke-rows", "no-block"])
    def test_in_range_runs_pass(self, sizes, rows, longest, disc):
        cfg = EncoderConfig(max_len=512, vocab_size=30, **sizes)
        encoder.check_step(cfg, rows, longest, PRETRAIN, disc)

    @pytest.mark.parametrize("dropout", [0.1, 0.0])
    def test_pretrain_checks_its_largest_step_before_its_first(self, small_setup,
                                                               monkeypatch, dropout):
        vocab, cfg, _, _ = small_setup
        cfg = dataclasses.replace(cfg, heads=16, dropout=dropout)
        # rows that fill max_len, so that the first block's attention scores
        # reach the bound, (5, 16, 24, 24), the largest array of a step
        rng = np.random.default_rng(4)
        seqs = [word_row(rng, cfg.max_len, cfg) for _ in range(12)]
        pre = PretrainConfig(epochs=1, batch_size=5, seed=2)
        bound = (5, cfg.heads, cfg.max_len, cfg.max_len)
        cap = math.prod(bound)
        shapes = record_draws(monkeypatch)
        monkeypatch.setattr(encoder, "MAX_STEP_VALUES", cap)
        pretrain_mlm(EncoderModel(cfg, seed=3), seqs, pre, vocab)
        assert (bound in shapes) == (dropout > 0)

        def step(*args, **kwargs):
            raise AssertionError("a step was about to run")

        monkeypatch.setattr(encoder, "mlm_logits_batch", step)
        monkeypatch.setattr(encoder, "MAX_STEP_VALUES", cap - 1)
        shapes.clear()
        model = EncoderModel(cfg, seed=3)
        before = {name: q.data.copy() for name, q in model.named_params()}
        with pytest.raises(ValueError) as e:
            pretrain_mlm(model, seqs, pre, vocab)
        assert str(e.value) == over_the_cap(bound, f"{PRETRAIN} or encoder.heads",
                                            cap - 1)
        assert shapes == []
        assert all(np.array_equal(q.data, before[name]) for name, q in model.named_params())


QUICKSTART_ENCODER = quickstart_config()["encoder"]
# 12 heads on rows of up to 512 tokens: one row's attention scores hold
# 12·L·L values, so 64 rows of 490 tokens (184M values) are over the cap
LONG_ROWS = dict(layers=1, heads=12, model_dim=12, ff_dim=8, max_len=512,
                 vocab_size=30)


class TestEvalBlocks:
    # each eval forward is patched to record its rows and allocate nothing;
    # a block of 64 rows of 490 tokens was over the cap
    def assert_blocks_under_the_cap(self, cfg, blocks, total):
        cap = encoder.MAX_STEP_VALUES // (cfg.heads * 490 * 490)
        assert encoder.block_rows(cfg, 490) == cap < ENCODE_CHUNK
        assert sum(blocks) == total and max(blocks) <= cap
        assert len(blocks) == -(-total // cap)

    def test_encode_keeps_its_blocks_under_the_cap(self, monkeypatch):
        cfg = EncoderConfig(**LONG_ROWS)
        rng = np.random.default_rng(2)
        rows = [word_row(rng, 490, cfg) for _ in range(100)]
        blocks = []

        def forward(model, ids, attention, *args, **kwargs):
            blocks.append(len(ids))
            return Tensor(np.zeros((len(ids), 490, cfg.model_dim)))

        monkeypatch.setattr(encoder, "forward_hidden", forward)
        encode(EncoderModel(cfg, seed=0), rows)
        self.assert_blocks_under_the_cap(cfg, blocks, 100)

    def test_evaluate_keeps_its_blocks_under_the_cap(self, monkeypatch):
        words = [f"w{i}" for i in range(15)]
        vocab = build_vocab([" ".join(words)])
        cfg = EncoderConfig(**{**LONG_ROWS, "vocab_size": len(vocab)})
        # two distinct masked rows per instance, of 490 and 489 tokens
        instances = [SchemaInstance(f"{words[i % 15]} {words[i // 15]} "
                                    + "w0 " * 483 + "_ .", "w1 w2", "w3", 1)
                     for i in range(60)]
        blocks = []

        def forward(model, ids, rows, *args, **kwargs):
            blocks.append(len(ids))
            return Tensor(np.zeros((np.count_nonzero(rows), cfg.vocab_size)))

        monkeypatch.setattr(ev, "mlm_logits_batch", forward)
        ev.evaluate(EncoderModel(cfg, seed=0), vocab, instances)
        self.assert_blocks_under_the_cap(cfg, blocks, 120)

    def test_evaluate_keeps_its_slot_logits_under_the_cap(self, monkeypatch):
        # a block's head builds (slots, vocab_size) logits: at 10**6 words a
        # block holds 134 slots, 19 instances of a 3- and a 4-token
        # candidate, not the 32 instances of its 64 rows
        words = [f"w{i}" for i in range(12)]
        vocab = build_vocab([" ".join(words)])
        cfg = EncoderConfig(layers=1, heads=1, model_dim=2, ff_dim=2, max_len=80,
                            vocab_size=10**6)
        instances = [SchemaInstance(f"{words[i % 12]} {words[i // 12]} _ .",
                                    "w1 w2 w3", "w4 w5 w6 w7", 1) for i in range(40)]
        blocks = []

        def head(model, ids, rows, *args, **kwargs):
            blocks.append(np.count_nonzero(rows))
            return Tensor(np.zeros((blocks[-1], len(vocab))))

        monkeypatch.setattr(ev, "mlm_logits_batch", head)
        model = EncoderModel(cfg, seed=0)
        assert encoder.block_rows(cfg, 9) == ENCODE_CHUNK
        ev.evaluate(model, vocab, instances)
        assert blocks == [133, 133, 14]
        assert max(blocks) * cfg.vocab_size <= encoder.MAX_STEP_VALUES

        # an instance whose own 70 + 71 slots pass the cap fails before its
        # head runs
        blocks.clear()
        wide = SchemaInstance("w1 w2 _ .", " ".join(["w3"] * 70),
                              " ".join(["w4"] * 71), 1)
        with pytest.raises(ValueError) as e:
            ev.evaluate(model, vocab, [wide])
        assert str(e.value) == over_the_cap((141, 10**6), "encoder.max_len",
                                            what="an eval forward")
        assert blocks == []

    @pytest.mark.parametrize("case", ["slots", "rows"])
    def test_evaluate_checks_every_block_before_its_first_forward(self, monkeypatch, case):
        # 40 short instances take more than one block; then one instance is
        # over a cap on its own: its 70 + 71 slot logits at 10**6 words, or
        # the attention scores of two rows of 512 tokens at 512 heads. No
        # head runs before the error
        words = [f"w{i}" for i in range(12)]
        vocab = build_vocab([" ".join(words)])
        if case == "slots":
            cfg = EncoderConfig(layers=1, heads=1, model_dim=2, ff_dim=2, max_len=80,
                                vocab_size=10**6)
            last = SchemaInstance("w1 w2 _ .", " ".join(["w3"] * 70),
                                  " ".join(["w4"] * 71), 1)
            message = over_the_cap((141, 10**6), "encoder.max_len",
                                   what="an eval forward")
        else:
            cfg = EncoderConfig(**{**LONG_ROWS, "heads": 512, "model_dim": 512,
                                   "vocab_size": len(vocab)})
            last = SchemaInstance("w0 " * 507 + "_ .", "w1", "w2 w3", 1)
            message = over_the_cap((2, 512, 512, 512), "encoder.max_len or encoder.heads",
                                   what="an eval forward")
        instances = [SchemaInstance(f"{words[i % 12]} {words[i // 12]} _ .",
                                    "w1 w2 w3", "w4 w5 w6 w7", 1) for i in range(40)]
        calls = []

        def head(model, ids, rows, *args, **kwargs):
            calls.append(np.count_nonzero(rows))
            return Tensor(np.zeros((calls[-1], len(vocab))))

        monkeypatch.setattr(ev, "mlm_logits_batch", head)
        model = EncoderModel(cfg, seed=0)
        ev.evaluate(model, vocab, instances)
        assert len(calls) >= 1
        calls.clear()
        with pytest.raises(ValueError) as e:
            ev.evaluate(model, vocab, instances + [last])
        assert str(e.value) == message
        assert calls == []

    @pytest.mark.parametrize("sizes, longest, least, shape", [
        # one row's scores hold 268M values
        (dict(heads=1024, model_dim=1024), 512, 1, (1, 1024, 512, 512)),
        # 2**27 values: one row fits, an instance's two do not
        (dict(heads=512, model_dim=512), 512, 2, (2, 512, 512, 512)),
    ], ids=["one-row", "two-rows"])
    def test_a_block_of_the_fewest_rows_over_the_cap_fails_with_one_error(
            self, sizes, longest, least, shape):
        cfg = EncoderConfig(**{**LONG_ROWS, **sizes})
        with pytest.raises(ValueError) as e:
            encoder.block_rows(cfg, longest, least)
        assert str(e.value) == over_the_cap(shape, "encoder.max_len or encoder.heads",
                                            what="an eval forward")
        if least == 2:
            assert encoder.block_rows(cfg, longest) == 1

    @pytest.mark.parametrize("sizes, longest, rows", [
        # the README quickstart and CI's smoke config keep their 64 rows
        (dict(QUICKSTART_ENCODER, vocab_size=191), 24, 64),
        (dict(layers=2, heads=2, model_dim=16, ff_dim=32, vocab_size=60), 24, 64),
        # the bench's wide vocabulary
        (dict(QUICKSTART_ENCODER, vocab_size=8400), 24, 64),
        # 12 heads, model_dim 768 on 512-token rows: 42 rows, whatever the
        # vocabulary, as no eval forward runs the head on every row
        (dict(heads=12, model_dim=768, ff_dim=3072, vocab_size=30000), 512, 42),
    ], ids=["quickstart", "smoke", "wide-vocab", "base-size"])
    def test_blocks_that_fit_keep_their_rows(self, sizes, longest, rows):
        cfg = EncoderConfig(**{**LONG_ROWS, **sizes})
        assert encoder.block_rows(cfg, longest) == rows


def drawn_keep(rate, rng, shape, dtype):
    """Inverted dropout's keep mask at ``shape``, as the encoder draws it."""
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def row_keep(rate, rng, keep, d, dtype):
    """The keep mask a packed forward draws for its (T, d) rows at the true
    entries of the (B, n) mask ``keep``, scattered into a (B, n, d) grid of
    ones."""
    grid = np.ones(keep.shape + (d,), dtype=dtype)
    grid[keep] = drawn_keep(rate, rng, (np.count_nonzero(keep), d), dtype)
    return grid


def weight_keep(rate, rng, queries, heads, dtype):
    """The keep mask ``T.attention`` draws for the weights of the queries at
    the true entries of the (B, n) mask ``queries``, its (B, heads, m, n)
    slot rows scattered into a (B, heads, n, n) grid of ones at the query
    positions."""
    B, n = queries.shape
    counts = np.count_nonzero(queries, axis=1)
    m = min(n, max(2, int(counts.max(initial=0))))
    slots = np.arange(m) < counts[:, None]
    keep = drawn_keep(rate, rng, (B, heads, m, n), dtype).transpose(0, 2, 1, 3)
    grid = np.ones((B, n, heads, n), dtype=dtype)
    grid[queries] = keep[slots]
    return grid.transpose(0, 2, 1, 3)


def padded_dropout(x, rate, rng, real):
    if rate <= 0.0:
        return x
    return T.mul(x, row_keep(rate, rng, real, x.data.shape[-1], x.data.dtype))


def padded_attention(h, mask_bias, real, cfg, p, i, rate, rng):
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
    if rate > 0.0:
        attn = T.mul(attn, weight_keep(rate, rng, real, heads, attn.data.dtype))
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (B * L, d))
    out = T.add(T.matmul(ctx, p[f"l{i}.attn.wo"]), p[f"l{i}.attn.wo_b"])
    return T.reshape(out, (B, L, d))


def padded_forward_hidden(model, ids, attention_mask, rng=None):
    """``forward_hidden`` as it was before packing: every layer runs on all
    B·n positions of the trimmed batch and the pad rows are zeroed at the
    end. Each dropout mask is the packed forward's, scattered into the
    padded grid."""
    cfg, p = model.config, model.params
    B, L = ids.shape
    rate = 0.0 if rng is None else cfg.dropout
    d = cfg.model_dim
    mask = np.asarray(attention_mask, dtype=p["tok_emb"].data.dtype)
    n = int(np.flatnonzero(mask.any(axis=0)).max(initial=0)) + 1
    ids, mask = ids[:, :n], mask[:, :n]
    real = mask > 0
    mask_bias = Tensor(((1.0 - mask) * -1e9).reshape(B, 1, 1, n))

    pos = T.reshape(T.take(p["pos_emb"], np.arange(n)), (1, n, d))
    x = padded_dropout(T.add(T.embedding_lookup(p["tok_emb"], ids), pos), rate, rng, real)
    for i in range(cfg.layers):
        h1 = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"])
        a = padded_attention(h1, mask_bias, real, cfg, p, i, rate, rng)
        x = T.add(x, padded_dropout(a, rate, rng, real))
        h2 = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"])
        flat = T.reshape(h2, (B * n, d))
        ff = T.gelu(T.add(T.matmul(flat, p[f"l{i}.ff.w1"]), p[f"l{i}.ff.b1"]))
        ff = T.add(T.matmul(ff, p[f"l{i}.ff.w2"]), p[f"l{i}.ff.b2"])
        x = T.add(x, padded_dropout(T.reshape(ff, (B, n, d)), rate, rng, real))
    x = T.layer_norm(x, p["final_ln.g"], p["final_ln.b"])
    return T.add(T.mul(x, mask.reshape(B, n, 1)), 0.0)


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
        rows = np.zeros_like(mask)
        rows.flat[rng.choice(np.flatnonzero(mask), size=20, replace=False)] = True
        targets = rng.integers(0, cfg.vocab_size, size=20)

        runs = []
        for forward in (forward_hidden, padded_forward_hidden):
            model = EncoderModel(cfg, seed=12)
            p = model.params
            stream = np.random.default_rng(4) if dropout is not None else None
            hidden = forward(model, ids, mask, rng=stream)
            picked = T.take(T.reshape(hidden, (-1, cfg.model_dim)),
                            np.flatnonzero(rows[:, :hidden.shape[1]]))
            logits = T.add(T.matmul(picked, T.transpose(p["tok_emb"], (1, 0))),
                           p["mlm_bias"])
            loss = T.cross_entropy(logits, targets)
            T.backward(loss)
            runs.append((hidden.data, loss.data,
                         {name: q.grad for name, q in model.named_params()}))
        (packed, loss, grads), (padded, want_loss, want_grads) = runs

        assert packed.dtype == np.dtype(dtype)
        assert packed.shape == padded.shape == (len(ids), longest, cfg.model_dim)
        mask = mask[:, :longest]
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


def unfused_attention(h, queries, trimmed, cfg, p, i, rate, rng):
    """``_attention`` as it was before ``T.attention``: about twenty tape
    nodes, with q, k and v scattered into (B, n, H, dh) grids and the core
    read through their (B, H, n, dh) views. The dropout mask is
    ``T.attention``'s, scattered into the weights' (B, H, n, n) grid."""
    B, n = trimmed.shape
    d = h.data.shape[1]
    heads = cfg.heads
    dh = d // heads
    mask_bias = Tensor(((1.0 - trimmed) * -1e9).reshape(B, 1, 1, n))

    def project(w, rows, keep):
        flat = T.linear(rows, p[f"l{i}.attn.{w}"], p[f"l{i}.attn.{w}_b"])
        grid = T.reshape(T.scatter_rows(flat, keep), (B, n, heads, dh))
        return T.transpose(grid, (0, 2, 1, 3))

    sel = queries[trimmed]
    q = project("wq", h if sel.all() else T.gather_rows(h, sel), queries)
    k, v = project("wk", h, trimmed), project("wv", h, trimmed)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    scores = T.mul(scores, 1.0 / np.sqrt(dh))
    attn = T.softmax(T.add(scores, mask_bias))
    if rate > 0.0:
        attn = T.mul(attn, weight_keep(rate, rng, queries, heads, attn.data.dtype))
    ctx = T.transpose(T.matmul(attn, v), (0, 2, 1, 3))
    ctx = T.reshape(T.gather_rows(ctx, queries), (-1, d))
    return T.linear(ctx, p[f"l{i}.attn.wo"], p[f"l{i}.attn.wo_b"])


def assert_fused_matches_unfused(cfg, trimmed, queries, dropout, rng):
    """``_attention`` and ``unfused_attention`` on the same rows give the
    same bytes: output, rows' gradient, the block's gradients and the next
    draw of the rng. ``rng`` draws the rows and the output weights."""
    x = rng.normal(size=(np.count_nonzero(trimmed), cfg.model_dim))
    w = rng.normal(size=(np.count_nonzero(queries), cfg.model_dim))
    runs = []
    for attend in (_attention, unfused_attention):
        model = EncoderModel(cfg, seed=13)
        p = model.params
        rows = Tensor(x, requires_grad=True)
        # an interior node, as the block's layer norm is: it borrows its
        # first gradient and sums the others
        h = T.layer_norm(rows, p["l0.ln1.g"], p["l0.ln1.b"])
        stream = np.random.default_rng(6)
        rate = cfg.dropout if dropout is not None else 0.0
        out = attend(h, queries, trimmed, cfg, p, 0, rate, stream)
        T.backward(T.tsum(T.mul(out, w)))
        grads = {name: q.grad.tobytes() for name, q in model.named_params()
                 if name.startswith(("l0.attn.", "l0.ln1."))}
        runs.append((out.data.tobytes(), rows.grad.tobytes(), grads, stream.random()))
    (out, rows_grad, grads, drawn), want = runs
    assert out == want[0]
    assert rows_grad == want[1]
    assert len(grads) == 10 and grads == want[2]
    assert drawn == want[3]


def slot_layout(name, rng):
    """(trimmed, queries) of one of the query layouts the slot grid packs:
    rows with at most one query, a row with none, and eval's 1-3 slots per
    row among about 14 columns, at B 40 and at B 1 with one query (a
    one-token candidate)."""
    B = {"eval-b1": 1, "eval-b40": 40}.get(name, 6)
    lengths = rng.integers(3, 15, size=B)
    lengths[0] = 14
    trimmed = np.arange(14) < lengths[:, None]
    queries = np.zeros_like(trimmed)
    for b, length in enumerate(lengths):
        if name == "one-query-rows":
            c = int(rng.integers(0, 2))
        elif name == "a-row-without-queries":
            c = 0 if b == 2 else int(rng.integers(1, min(6, length + 1)))
        else:
            c = 1 if name == "eval-b1" else int(rng.integers(1, 4))
        queries[b, rng.choice(length, c, replace=False)] = True
    if name == "one-query-rows":        # one row with a query, one without
        queries[:2] = False
        queries[0, 5] = True
    return trimmed, queries


class TestFusedAttention:
    """The attention core as one node keeps every bit of the unfused ops:
    the output, the gradients of the projections and of the rows fed to
    them, and the random stream."""

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dropout", [None, 0.0, 0.1],
                             ids=["eval", "train-dropout-0", "train-dropout-0.1"])
    @pytest.mark.parametrize("some", [False, True], ids=["all-queries", "some-queries"])
    def test_bit_equal_to_the_unfused_ops(self, dtype, dropout, some):
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, dropout=dropout or 0.0)
        rng = np.random.default_rng(21)
        lengths = np.array([15, 4, 11, 1, 9])
        trimmed = np.arange(15) < lengths[:, None]
        trimmed[0, 2] = False                       # a mask that is not a prefix
        queries = trimmed & (rng.random(trimmed.shape) < 0.4) if some else trimmed
        assert queries.any() and (queries != trimmed).any() == some
        assert_fused_matches_unfused(cfg, trimmed, queries, dropout, rng)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("dropout", [None, 0.1], ids=["eval", "train-dropout-0.1"])
    @pytest.mark.parametrize("layout", ["one-query-rows", "a-row-without-queries",
                                        "eval-b1", "eval-b40"])
    @pytest.mark.parametrize("dims", [(4, 32), (4, 96)], ids=["dh-8", "dh-24"])
    def test_query_slots_keep_the_full_grids_bits(self, dtype, dropout, layout, dims):
        # a batch whose rows hold at most one query still gets two slots:
        # with one, the products would leave gemm and round otherwise
        T.set_dtype(dtype)
        heads, d = dims
        cfg = dataclasses.replace(TRIM_CFG, heads=heads, model_dim=d, ff_dim=d,
                                  dropout=dropout or 0.0)
        rng = np.random.default_rng(len(layout))
        trimmed, queries = slot_layout(layout, rng)
        most = np.count_nonzero(queries, axis=1).max()
        assert most == 1 if layout == "one-query-rows" else 1 <= most <= 5
        assert (~queries.any(axis=1)).any() == (layout in ("one-query-rows",
                                                          "a-row-without-queries"))
        assert_fused_matches_unfused(cfg, trimmed, queries, dropout, rng)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_attention_core_multiplies_strided_grids(dtype, rate, monkeypatch):
    # BLAS may round a product by its operands' strides, so the bit-equality
    # tests above hold for this layout only: q, k and v are views of C-order
    # (B, m or n, H, dh) grids, and the weights a C-order (B, H, m, n) array
    T.set_dtype(dtype)
    B, n, heads, dh = 3, 5, 2, 4
    rng = np.random.default_rng(2)
    trimmed = np.arange(n) < np.array([5, 4, 2])[:, None]
    queries = trimmed & (np.arange(n) < 3)     # at most 3 queries a row: m 3 < n
    operands = []
    matmul = T.matmul

    def spy(a, b):
        operands.append((a.data, b.data))
        return matmul(a, b)

    monkeypatch.setattr(T, "matmul", spy)
    rows = [Tensor(rng.normal(size=(np.count_nonzero(keep), heads * dh)))
            for keep in (queries, trimmed, trimmed)]
    T.attention(*rows, trimmed, queries, heads, rate, np.random.default_rng(3))
    (q, kt), (weights, v) = operands
    m = 3
    for grid, shape, order in ((q, (B, heads, m, dh), (0, 2, 1, 3)),
                               (kt, (B, heads, dh, n), (0, 3, 1, 2)),
                               (v, (B, heads, n, dh), (0, 2, 1, 3))):
        assert grid.shape == shape and grid.dtype == dtype
        assert not grid.flags.c_contiguous
        assert grid.transpose(order).flags.c_contiguous
    assert weights.shape == (B, heads, m, n) and weights.flags.c_contiguous


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
    hidden = forward_hidden(model, ids, mask, rng=np.random.default_rng(6))
    weights = rng.normal(size=hidden.shape).astype(dtype)
    T.backward(T.tsum(T.mul(hidden, weights)))
    want = np.zeros_like(p["pos_emb"].data)
    np.add.at(want, np.nonzero(mask)[1], p["tok_emb"].grad[ids[mask]])
    assert p["pos_emb"].grad.dtype == dtype
    assert p["pos_emb"].grad.tobytes() == want.tobytes()


def widths_batch(seqs, cfg):
    """2·ENCODE_CHUNK + 5 corpus rows, the last one a longer row of words
    that is still short of max_len, so only the last chunk reaches the
    batch's longest row: (rows, row lengths)."""
    rows = [seqs[i % len(seqs)] for i in range(2 * ENCODE_CHUNK + 4)]
    longest = max(int(row_masks(row)[0].sum()) for row in rows) + 2
    assert longest < cfg.max_len
    rows.append(word_row(np.random.default_rng(4), longest, cfg))
    return rows, [int(row_masks(row)[0].sum()) for row in rows]


def full_width_reference(model, rows):
    """Eval-mode hidden states of each row, forwarded beside a max_len row,
    so every stack is max_len wide: (N, max_len, d)."""
    full = word_row(np.random.default_rng(5), model.config.max_len, model.config)
    return np.stack([eval_hidden(model, [row, full])[0] for row in rows])


class TestStackWidth:
    """A stack is exactly as wide as its longest row, and each of its rows
    holds the bits a full-width forward gives that row."""

    @pytest.mark.parametrize("make", ["encode_batch", "encode", "select"])
    def test_as_wide_as_the_longest_row(self, small_setup, make):
        _, cfg, model, seqs = small_setup
        rows, lengths = widths_batch(seqs, cfg)
        picked = np.arange(len(rows))
        if make == "encode_batch":
            stack = encode_batch(model.detached(), rows)
        elif make == "encode":
            stack = encode(model, rows)
        else:
            # every row but the longest, unsorted and repeated
            picked = np.array([7, 2, ENCODE_CHUNK + 3, 7, 2 * ENCODE_CHUNK + 1])
            stack = encode(model, rows).select(picked)
        n = max(lengths[i] for i in picked)
        if make == "select":
            assert n < max(lengths)
        assert stack.hidden.shape == (len(picked), n, cfg.model_dim)
        np.testing.assert_array_equal(
            stack.content_mask, row_masks(np.stack(rows))[1][picked, :n])
        want = full_width_reference(model, [rows[i] for i in picked])
        assert stack.hidden.data.tobytes() == want[:, :n].tobytes()

    def test_encode_pads_its_narrower_chunks_with_positive_zeros(self, small_setup):
        _, cfg, model, seqs = small_setup
        rows, lengths = widths_batch(seqs, cfg)
        hidden = encode(model, rows).hidden.data
        for start in (0, ENCODE_CHUNK):
            width = max(lengths[start:start + ENCODE_CHUNK])
            assert width < hidden.shape[1]
            extra = hidden[start:start + ENCODE_CHUNK, width:]
            assert (extra == 0).all() and not np.signbit(extra).any()

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_logits_of_rows_of_different_lengths_match_one_row_calls(self, dtype):
        # each call asks the real positions of one row, so the head's
        # matmul has as many rows in the batched call as in the one-row call
        T.set_dtype(dtype)
        model = biased_model(TRIM_CFG, seed=11)
        rng = np.random.default_rng(12)
        lengths = (9, 17, 13)
        ids = np.stack([word_row(rng, n, TRIM_CFG) for n in lengths])
        assert max(lengths) < TRIM_CFG.max_len
        view = model.detached()
        for b, length in enumerate(lengths):
            asked = np.zeros(ids.shape, dtype=bool)
            asked[b, :length] = True
            batched = mlm_logits_batch(view, ids, asked).data
            alone = mlm_logits_batch(view, ids[b:b + 1], asked[b:b + 1]).data
            assert batched.dtype == dtype
            assert batched.tobytes() == alone.tobytes(), b


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
        corrupted, select, targets = apply_mlm_masking(batch, vocab, 0.5, rng)
        logits = mlm_logits_batch(model, corrupted, select, rng=rng)
        T.backward(T.cross_entropy(logits, targets))
        for name, p in model.named_params():
            assert np.linalg.norm(p.grad) > 0, f"dead parameter {name}"


def full_logits(model, ids, mask):
    """(B*L, V) logits at every position, hidden states times the head, the
    token table transposed; a position past the stack's width is a pad."""
    hidden = forward_hidden(model, ids, mask).data
    B, n, d = hidden.shape
    full = np.zeros((B, model.config.max_len, d), dtype=hidden.dtype)
    full[:, :n] = hidden
    flat = full.reshape(-1, d)
    return flat @ model.params["tok_emb"].data.T + model.params["mlm_bias"].data


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


def tiny_model(vocab):
    return biased_model(EncoderConfig(layers=1, heads=2, model_dim=8, ff_dim=16,
                                      max_len=8, vocab_size=len(vocab), dropout=0.0),
                        seed=4)


class TestHeadRows:
    def test_rows_match_the_full_head(self, small_setup):
        vocab, cfg, _, seqs = small_setup
        model = biased_model(cfg, seed=6)
        batch = seqs[:3]
        ids = np.stack(batch)
        mask = row_masks(ids)[0]
        # rows from all three sequences
        rows = np.zeros(ids.shape, dtype=bool)
        rows[[2, 0, 1, 0, 1, 2], [3, 5, 1, 0, 7, cfg.max_len - 1]] = True
        got = mlm_logits_batch(model.detached(), ids, rows).data
        want = full_logits(model, ids, mask)[np.flatnonzero(rows)]
        assert got.shape == (np.count_nonzero(rows), cfg.vocab_size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_zero_layer_head_is_the_normed_embeddings_times_the_table(self, dtype):
        # with no block, the final norm runs on the asked real rows only; a
        # pad row asked for past the longest row reads the bias alone
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, layers=0)
        rng = np.random.default_rng(8)
        ids = np.stack([word_row(rng, n, cfg) for n in (7, 12, 4)])
        model = EncoderModel(cfg, seed=8)
        p = {name: q.data for name, q in model.params.items()}
        for name in ("final_ln.g", "final_ln.b", "mlm_bias"):
            p[name][:] = rng.normal(0, 0.5, size=p[name].shape)
        rows = np.zeros(ids.shape, dtype=bool)
        rows[[0, 0, 1, 2, 1], [0, 6, 11, 3, 15]] = True     # (1, 15): a pad row
        got = mlm_logits_batch(model.detached(), ids, rows).data
        b, j = np.nonzero(rows)
        real = row_masks(ids)[0][b, j]
        assert list(real) == [True, True, True, False, True]
        x = p["tok_emb"][ids[b, j]] + p["pos_emb"][j]
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        normed = ((x - mu) / np.sqrt(var + T.LAYER_NORM_EPS) * p["final_ln.g"]
                  + p["final_ln.b"])
        want = normed @ p["tok_emb"].T + p["mlm_bias"]
        assert got.shape == (5, cfg.vocab_size) and got.dtype == dtype
        np.testing.assert_allclose(got[real], want[real], rtol=0,
                                   atol=1e-5 if dtype == "float32" else 1e-12)
        assert got[3].tobytes() == p["mlm_bias"].tobytes()

    def test_gradients_match_finite_differences(self, tiny_world):
        vocab, ids, _ = tiny_world
        model = tiny_model(vocab)
        rows = np.zeros(ids.shape, dtype=bool)
        rows[[1, 0, 0, 1], [1, 1, 3, 4]] = True
        targets = np.random.default_rng(2).integers(0, len(vocab), size=4)
        check_grads(lambda: T.cross_entropy(mlm_logits_batch(model, ids, rows),
                                            targets),
                    [model.params[n] for n in ("tok_emb", "mlm_bias", "pos_emb")])

    @pytest.mark.parametrize("rows", [[0, 16], [-1], np.array([1.0, 2.0]),
                                      np.array([[1, 2]]), np.array([True, False]),
                                      np.ones((2, 7), dtype=bool),
                                      np.ones((1, 8), dtype=bool),
                                      np.ones((2, 8), dtype=np.int64),
                                      np.ones((2, 8))],
                             ids=["out-of-range", "negative", "float", "2-d", "bool",
                                  "short-mask", "one-row-mask", "int-mask",
                                  "float-mask"])
    def test_bad_rows_rejected(self, tiny_world, rows):
        vocab, ids, _ = tiny_world
        model = tiny_model(vocab)
        with pytest.raises(T.ShapeError, match="rows"):
            mlm_logits_batch(model, ids, rows)

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
        opt = AdamW(ref.named_params(), lr=pre.lr, weight_decay=pre.weight_decay,
                    warmup_steps=pre.warmup_steps)
        losses = []
        order = np.arange(len(seqs))
        for _ in range(pre.epochs):
            rng.shuffle(order)
            for start in range(0, len(seqs), pre.batch_size):
                batch = [seqs[i] for i in order[start:start + pre.batch_size]]
                corrupted, select, targets = apply_mlm_masking(
                    batch, vocab, pre.mask_prob, rng)
                if targets.size == 0:
                    continue
                mask = row_masks(np.stack(batch))[0]
                with last_block_drawn_as_asked(cfg, mask, select):
                    hidden = forward_hidden(ref, corrupted, mask, rng=rng)
                flat = T.reshape(hidden, (-1, cfg.model_dim))
                logits = T.add(T.matmul(flat, T.transpose(p["tok_emb"], (1, 0))),
                               p["mlm_bias"])
                picked = np.flatnonzero(select[:, :hidden.shape[1]])
                loss = T.cross_entropy(T.take(logits, picked), targets)
                T.backward(loss)
                opt.step()
                losses.append(loss.item())

        assert len(history) == len(losses) > 0
        np.testing.assert_allclose([h["loss"] for h in history], losses,
                                   rtol=0, atol=1e-10)
        for name, param in model.named_params():
            np.testing.assert_allclose(param.data, p[name].data, rtol=0, atol=1e-9,
                                       err_msg=name)


@contextlib.contextmanager
def last_block_drawn_as_asked(cfg, mask, rows):
    """Inside the block, a forward over every row of the (B, L) ``mask``
    draws its last block's three dropout masks as a forward that reads only
    the true entries of the (B, L) mask ``rows`` does, at the shapes of the
    asked queries' weights and rows, and scatters them into the masks it
    asks for: the weights' at every real query's slot, the rows' at every
    real row, ones where no asked row is."""
    real = np.asarray(mask, dtype=bool)
    B, L = real.shape
    n = int(np.flatnonzero(real.any(axis=0)).max(initial=0)) + 1
    queries = (real & rows)[:, :n]
    trimmed = real[:, :n]
    counts = np.count_nonzero(trimmed, axis=1)
    slots = np.arange(min(n, max(2, int(counts.max(initial=0))))) < counts[:, None]
    first = 1 + 3 * (cfg.layers - 1)        # the embeddings', then three a block
    calls = itertools.count(-first)
    drawn = T._keep_mask

    def keep_mask(rate, rng, shape, dtype):
        k = next(calls)
        if rate <= 0.0 or not cfg.layers or not 0 <= k < 3:
            return drawn(rate, rng, shape, dtype)
        if k == 0:
            # at the asked queries' positions, then at the full forward's slots
            grid = weight_keep(rate, rng, queries, cfg.heads, dtype).transpose(0, 2, 1, 3)
            full = np.ones((B, slots.shape[1], cfg.heads, n), dtype=dtype)
            full[slots] = grid[trimmed]
            return full.transpose(0, 2, 1, 3)
        return row_keep(rate, rng, queries[trimmed][None], shape[1], dtype)[0]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "_keep_mask", keep_mask)
        yield


def full_stack_logits(model, ids, mask, rows, rng=None):
    """Logits at the (B, L) mask ``rows`` from a forward that runs every row
    through the last block, then the head over the picked rows. Its dropout
    masks are those of ``mlm_logits_batch``'s forward, which reads only
    ``rows``."""
    p = model.params
    with last_block_drawn_as_asked(model.config, mask, rows):
        hidden = forward_hidden(model, ids, mask, rng=rng)
    picked = T.take(T.reshape(hidden, (-1, model.config.model_dim)),
                    np.flatnonzero(rows[:, :hidden.shape[1]]))
    return T.linear(picked, T.transpose(p["tok_emb"], (1, 0)), p["mlm_bias"])


def asked_batch(cfg):
    """Rows of 9, 24 and 13 tokens, then an all-pad row: (ids, mask)."""
    rng = np.random.default_rng(21)
    ids = np.stack([word_row(rng, n, cfg) for n in (9, 24, 13)]
                   + [np.full(cfg.max_len, PAD_ID, dtype=np.int64)])
    return ids, row_masks(ids)[0]


L_TRIM = TRIM_CFG.max_len
# the (sequence, position) entries each asked-rows case sets in its mask
ASKED_ROWS = {
    # rows from every sequence, with a pad row and two of the all-pad sequence
    "scattered": ([2, 0, 1, 0, 1, 2, 3, 3], [3, 5, 1, 0, 7, L_TRIM - 1, 0, L_TRIM - 1]),
    "one-real-row": ([1], [4]),
    "no-real-row": ([0, 3, 3, 2], [12, 0, 5, 20]),
    "every-row": (slice(None), slice(None)),
}


def asked_rows(name):
    """The (B, L) mask of ``asked_batch``'s rows that case ``name`` asks for."""
    rows = np.zeros((4, L_TRIM), dtype=bool)
    rows[ASKED_ROWS[name]] = True
    return rows


@pytest.mark.parametrize("dtype, rtol", [("float32", 1e-5), ("float64", 1e-12)])
class TestAskedRows:
    """The last block runs on the rows the caller reads; they come out as
    the full stack gives them, and every other row is zero."""

    @pytest.mark.parametrize("layers", [2, 0])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("rows", list(ASKED_ROWS))
    def test_logits_match_the_full_stack(self, dtype, rtol, train, rows, layers):
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, layers=layers)
        ids, mask = asked_batch(cfg)
        rows = asked_rows(rows)
        model = EncoderModel(cfg, seed=5)
        model.params["mlm_bias"].data = np.random.default_rng(5).normal(
            0, 0.1, size=cfg.vocab_size).astype(dtype)
        streams = [np.random.default_rng(4) if train else None for _ in range(3)]
        view = model.detached()
        got = mlm_logits_batch(view, ids, rows, rng=streams[0]).data
        want = full_stack_logits(view, ids, mask, rows, rng=streams[1]).data
        hidden = forward_hidden(view, ids, mask, rng=streams[2],
                                rows=rows).data.reshape(-1, cfg.model_dim)
        assert got.shape == (np.count_nonzero(rows), cfg.vocab_size)
        assert got.dtype == dtype
        assert np.abs(got - want).max() <= rtol * np.abs(want).max()
        asked = (rows & mask).reshape(-1)
        assert (hidden[~asked] == 0).all() and not np.signbit(hidden[~asked]).any()
        assert (hidden[asked] != 0).any(axis=-1).all()

    @pytest.mark.parametrize("rate", [0.1, 0.0])
    @pytest.mark.parametrize("rows", [None, "scattered", "one-real-row"])
    def test_training_draws_each_mask_at_the_shape_it_scales(self, dtype, rtol, rows,
                                                              rate, monkeypatch):
        # the embeddings' (T, d) rows, then in each block the (B, heads, m, n)
        # attention weights and the rows of its two row dropouts; the last
        # block's queries and rows are the real rows asked for
        T.set_dtype(dtype)
        cfg = dataclasses.replace(TRIM_CFG, layers=3, dropout=rate)
        ids, mask = asked_batch(cfg)
        rows = None if rows is None else asked_rows(rows)
        model = EncoderModel(cfg, seed=6)
        B, n, d = len(ids), cfg.max_len, cfg.model_dim      # a row is max_len long
        last = mask if rows is None else mask & rows
        want = [(np.count_nonzero(mask), d)]
        for queries in [mask] * (cfg.layers - 1) + [last]:
            m = max(2, np.count_nonzero(queries, axis=1).max())
            want += [(B, cfg.heads, m, n)] + [(np.count_nonzero(queries), d)] * 2
        shapes = record_draws(monkeypatch)
        forward_hidden(model, ids, mask, rng=np.random.default_rng(8), rows=rows)
        assert shapes == (want if rate else [])
        monkeypatch.undo()
        stream, drawn = np.random.default_rng(8), np.random.default_rng(8)
        forward_hidden(model, ids, mask, rng=stream, rows=rows)
        drawn.random(sum(map(math.prod, want)) if rate else 0)
        assert stream.bit_generator.state == drawn.bit_generator.state

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
        corrupted, select, targets = apply_mlm_masking(
            batch, vocab, 0.3, np.random.default_rng(4))
        assert targets.size >= 64
        mask = row_masks(batch)[0]
        runs = []
        for full_stack in (False, True):
            model = EncoderModel(cfg, seed=9)
            rng = np.random.default_rng(5)
            if full_stack:
                logits = full_stack_logits(model, corrupted, mask, select, rng=rng)
            else:
                logits = mlm_logits_batch(model, corrupted, select, rng=rng)
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
        rows = asked_rows("scattered")
        seen = []
        gelu = T.gelu

        def spy(x):
            seen.append(x.data.shape[0])
            return gelu(x)

        monkeypatch.setattr(T, "gelu", spy)
        model = EncoderModel(TRIM_CFG, seed=7)
        mlm_logits_batch(model, ids, rows, rng=np.random.default_rng(1))
        asked = np.count_nonzero(rows & mask)
        assert asked == 5
        assert seen == [int(mask.sum())] * (TRIM_CFG.layers - 1) + [asked]


class TestMasking:
    def test_masking_fraction_monte_carlo(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(42)
        selected = total = 0
        batch = seqs[:16]
        eligible = int(row_masks(np.stack(batch))[1].sum())
        rounds = int(np.ceil(10000 / eligible))
        for _ in range(rounds):
            _, select, _ = apply_mlm_masking(batch, vocab, 0.15, rng)
            selected += np.count_nonzero(select)
            total += eligible
        assert total >= 10000
        assert abs(selected / total - 0.15) < 0.01

    def test_corruption_split(self, small_setup):
        # among selected positions: ~80% [MASK], ~10% random, ~10% unchanged
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(7)
        n_mask = n_same = n_total = 0
        batch = seqs[:16]
        orig = np.stack(batch)
        for _ in range(200):
            corrupted, select, targets = apply_mlm_masking(batch, vocab, 0.15, rng)
            n_mask += int((corrupted[select] == MASK_ID).sum())
            n_same += int((corrupted[select] == orig[select]).sum())
            n_total += np.count_nonzero(select)
        assert abs(n_mask / n_total - 0.80) < 0.02
        # "unchanged" also catches random draws that hit the original token
        assert 0.08 < n_same / n_total < 0.14

    def test_selected_positions_are_content_only(self, small_setup):
        vocab, cfg, model, seqs = small_setup
        rng = np.random.default_rng(9)
        batch = seqs[:8]
        content = row_masks(np.stack(batch))[1]
        for _ in range(20):
            _, select, _ = apply_mlm_masking(batch, vocab, 0.3, rng)
            assert content[select].all()

    @pytest.mark.parametrize("mask_prob", [0.15, 0.5, 1.0])
    def test_corruption_keeps_the_attention_mask(self, small_setup, mask_prob):
        # mlm_logits_batch reads the attention mask off the corrupted ids,
        # so pretraining attends to the clean batch's tokens only if no
        # corruption writes or overwrites a [PAD]
        vocab, cfg, model, seqs = small_setup
        batch = np.stack(seqs)
        attention = row_masks(batch)[0]
        assert not attention.all()
        for seed in range(200):
            corrupted, select, _ = apply_mlm_masking(
                batch, vocab, mask_prob, np.random.default_rng(seed))
            assert select.any()
            assert (row_masks(corrupted)[0] == attention).all(), seed


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
