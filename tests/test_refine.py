import dataclasses
import math

import numpy as np
import pytest

import winoref.refine
from winoref import encoder
import winoref.tensor as T
from winoref.encoder import (EmbeddingStack, EncoderConfig, EncoderModel,
                             PretrainConfig, encode, encode_batch, pretrain_mlm)
from winoref.optim import AdamW
from winoref.refine import (N_KINDS, Discriminator, LossWeights, RefinementConfig,
                            contrastive_loss, contrastive_pairs, diversity_loss,
                            generated_row, reconstruction_loss, refine,
                            _TERM_BOUND)
from winoref.scoring import ScoreConfig, windowed_bertscore
from winoref.synthetic import make_perturbation_corpus
from winoref.tensor import Tensor
from winoref.text import (FIRST_WORD_ID, KIND_INDEX, PERTURBATION_KINDS,
                          PerturbationKind, PerturbedGroup, build_vocab,
                          corpus_sentences, load_perturbation_corpus, tokenize)

from conftest import kind_probe_accuracy, min_same_kind_distance, record_draws
from test_scoring import batch_of, make_stack, random_stack


# ---------------------------------------------------------------------------
# independent scalar oracles (plain numpy + python loops)
# ---------------------------------------------------------------------------


def oracle_windowed_score(a_rows, b_rows, w):
    def norm(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        return np.where(n > 0, x / np.where(n > 0, n, 1.0), 0.0)

    sim = norm(a_rows) @ norm(b_rows).T
    na, nb = sim.shape
    p_terms = []
    for i in range(na):
        js = [j for j in range(nb) if abs(i - j) <= w]
        p_terms.append(max(sim[i, j] for j in js) if js else 0.0)
    r_terms = []
    for j in range(nb):
        is_ = [i for i in range(na) if abs(i - j) <= w]
        r_terms.append(max(sim[i, j] for i in is_) if is_ else 0.0)
    p, r = np.mean(p_terms), np.mean(r_terms)
    if p <= 0 or r <= 0:   # F1 is defined for positive P and R only
        return 0.0
    return 2 * p * r / (p + r)


def rows(stack, i):
    return stack.hidden.data[i][stack.content_mask[i]]


def oracle_reconstruction(targets, generated, alpha, w):
    return -alpha * sum(oracle_windowed_score(rows(targets, i), rows(generated, i), w)
                        for i in range(generated.hidden.shape[0]))


def oracle_contrastive(samples, kinds, stack, beta, w):
    total = 0.0
    for i in range(len(samples)):
        for j in range(len(samples)):
            if i != j and samples[i] != samples[j] and kinds[i] == kinds[j]:
                total += oracle_windowed_score(rows(stack, i), rows(stack, j), w)
    return beta * total


def oracle_diversity_eval_mode(stack, kinds, disc, gamma):
    p = {k: v.data for k, v in disc.params.items()}
    total = 0.0
    for i, kind in enumerate(kinds):
        pooled = rows(stack, i).mean(axis=0)
        h = pooled @ p["w1"] + p["b1"]
        h = (h - disc.running_mean) / np.sqrt(disc.running_var + T.LAYER_NORM_EPS)
        h = p["bn.g"] * h + p["bn.b"]
        h = np.where(h > 0, h, p["prelu.a"] * h)
        logits = h @ p["w2"] + p["b2"]
        k = KIND_INDEX[kind]
        others = np.concatenate([logits[:k], logits[k + 1:]])
        m = others.max()
        term = logits[k] - (m + np.log(np.exp(others - m).sum()))
        total += np.clip(term, -_TERM_BOUND, _TERM_BOUND)
    return -gamma * total


def zeroed_discriminator(dim, hidden=16):
    disc = Discriminator(dim, hidden, dropout=0.0, seed=0)
    for p in disc.params.values():
        p.data[...] = 0.0
    return disc


def entries_for(rng, n_samples, kinds=PERTURBATION_KINDS, d=8, requires_grad=False):
    """(samples, kinds, stack): one stack row per (sample, kind), each with
    3 to 6 content positions."""
    row_samples, row_kinds, stacks = [], [], []
    for i in range(n_samples):
        for kind in kinds:
            row_samples.append(i)
            row_kinds.append(kind)
            stacks.append(random_stack(rng, int(rng.integers(3, 7)), d=d))
    return row_samples, row_kinds, batch_of(stacks, requires_grad=requires_grad)


def ids_of(kinds):
    """The ``KIND_INDEX`` ids of a list of perturbation kinds."""
    return [KIND_INDEX[kind] for kind in kinds]


def random_batch(rng, n, requires_grad=False):
    return batch_of([random_stack(rng, int(rng.integers(3, 8))) for _ in range(n)],
                    requires_grad=requires_grad)


class TestReconstructionLoss:
    def test_perfect_pairs_give_minus_alpha_n_kinds(self):
        rng = np.random.default_rng(0)
        alpha, n = 2.5, 3
        stack = batch_of([random_stack(rng, 5) for _ in range(n * len(PERTURBATION_KINDS))])
        loss = reconstruction_loss(stack, stack, alpha, ScoreConfig(window_radius=2))
        assert loss.item() == pytest.approx(-alpha * n * 8, abs=1e-9)

    def test_zero_alpha_gives_zero(self):
        rng = np.random.default_rng(1)
        a, b = random_stack(rng, 4), random_stack(rng, 4)
        assert reconstruction_loss(a, b, 0.0, ScoreConfig()).item() == 0.0

    def test_matches_independent_double_loop(self):
        rng = np.random.default_rng(2)
        for w in (0, 2, 50):
            targets, generated = random_batch(rng, 6), random_batch(rng, 6)
            got = reconstruction_loss(targets, generated, 1.7,
                                      ScoreConfig(window_radius=w)).item()
            want = oracle_reconstruction(targets, generated, 1.7, w)
            assert got == pytest.approx(want, abs=1e-9)

    def test_empty_pairs_rejected(self):
        rng = np.random.default_rng(12)
        empty = EmbeddingStack(hidden=T.Tensor(np.zeros((0, 6, 8))),
                               content_mask=np.zeros((0, 6), dtype=bool))
        with pytest.raises(ValueError, match="at least one"):
            reconstruction_loss(empty, empty, 1.0, ScoreConfig())
        with pytest.raises(ValueError, match="targets"):
            reconstruction_loss(random_batch(rng, 2), random_batch(rng, 3), 1.0,
                                ScoreConfig())


def ordered_contrastive_loss(stack, samples, kind_ids, beta, score_cfg):
    """The contrastive loss as it was before each pair was scored once:
    ``beta`` times the scores of both orders (i, j) and (j, i) of every
    cross-sample, same-kind pair."""
    samples, kind_ids = np.asarray(samples), np.asarray(kind_ids)
    same = ((kind_ids[:, None] == kind_ids[None, :])
            & (samples[:, None] != samples[None, :]))
    ia, ib = np.nonzero(same)
    if beta == 0 or len(ia) == 0:
        return Tensor(0.0)
    return T.mul(T.tsum(windowed_bertscore(stack, stack, ia, ib, score_cfg)), beta)


class TestContrastiveLoss:
    def test_pairs_are_cross_sample_same_kind(self):
        samples = [0, 0, 1, 1, 2]
        kinds = [PerturbationKind.TENSE, PerturbationKind.SYNONYM,
                 PerturbationKind.TENSE, PerturbationKind.TENSE,
                 PerturbationKind.SYNONYM]
        ia, ib = contrastive_pairs(samples, ids_of(kinds))
        want = [(i, j) for i in range(5) for j in range(i + 1, 5)
                if samples[i] != samples[j] and kinds[i] == kinds[j]]
        assert want == [(0, 2), (0, 3), (1, 4)]
        assert list(zip(ia.tolist(), ib.tolist())) == want

    def test_single_sample_is_zero(self):
        rng = np.random.default_rng(3)
        samples, kinds, stack = entries_for(rng, 1)
        pairs = contrastive_pairs(samples, ids_of(kinds))
        assert contrastive_loss(stack, pairs, 0.5, ScoreConfig()).item() == 0.0

    def test_identical_stacks_contribute_twice_beta(self):
        rng = np.random.default_rng(4)
        s = random_stack(rng, 5)
        kinds = [PerturbationKind.TENSE, PerturbationKind.TENSE]
        beta = 0.5
        loss = contrastive_loss(batch_of([s, s]),
                                contrastive_pairs([0, 1], ids_of(kinds)),
                                beta, ScoreConfig(window_radius=2))
        assert loss.item() == pytest.approx(2 * beta * 1.0, abs=1e-9)

    def test_matches_independent_double_loop(self):
        rng = np.random.default_rng(5)
        samples, kinds, stack = entries_for(rng, 3, kinds=PERTURBATION_KINDS[:2])
        w = 2
        got = contrastive_loss(stack, contrastive_pairs(samples, ids_of(kinds)), 0.8,
                               ScoreConfig(window_radius=w)).item()
        want = oracle_contrastive(samples, kinds, stack, 0.8, w)
        assert got == pytest.approx(want, abs=1e-9)

    def test_zero_beta_gives_zero(self):
        rng = np.random.default_rng(6)
        samples, kinds, stack = entries_for(rng, 2)
        pairs = contrastive_pairs(samples, ids_of(kinds))
        assert contrastive_loss(stack, pairs, 0.0, ScoreConfig()).item() == 0.0

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-6), ("float64", 1e-12)])
    def test_matches_the_ordered_pair_loss(self, dtype, tol):
        # each unordered pair at 2 beta against both orders at beta: the
        # loss and the gradient of the stack agree to rounding
        T.set_dtype(dtype)
        rng = np.random.default_rng(61)
        for case in range(6):
            n_samples = int(rng.integers(2, 7))
            kinds = rng.integers(0, 3, 4 * n_samples)
            samples = np.repeat(np.arange(n_samples), 4)
            stacks = [make_stack(rng.normal(size=(int(rng.integers(1, 8)), 8))
                                 + rng.uniform(0.0, 1.5))
                      for _ in samples]
            cfg = ScoreConfig(window_radius=int(rng.integers(0, 4)))
            ours, theirs = (batch_of(stacks, requires_grad=True) for _ in range(2))
            got = contrastive_loss(ours, contrastive_pairs(samples, kinds), 0.7, cfg)
            want = ordered_contrastive_loss(theirs, samples, kinds, 0.7, cfg)
            T.backward(got)
            T.backward(want)
            got, want = got.item(), want.item()
            got_grad, want_grad = ours.hidden.grad, theirs.hidden.grad
            assert got_grad.dtype == dtype
            assert want != 0.0 and np.abs(want_grad).max() > 0
            assert abs(got - want) <= tol * abs(want)
            assert np.abs(got_grad - want_grad).max() <= tol * np.abs(want_grad).max()


class TestDiversityLoss:
    def test_uniform_discriminator_value(self):
        # all-zero discriminator -> uniform probabilities -> each term log 7
        rng = np.random.default_rng(7)
        n, gamma = 3, 2.5
        _, kinds, stack = entries_for(rng, n)
        disc = zeroed_discriminator(8)
        loss = diversity_loss(stack, ids_of(kinds), disc, gamma)
        want = gamma * n * 8 * np.log(7.0)
        assert loss.item() == pytest.approx(want, abs=1e-9)

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(8)
        _, kinds, stack = entries_for(rng, 4)
        disc = Discriminator(8, 16, dropout=0.0, seed=1)
        disc.running_mean = rng.normal(size=16) * 0.1
        disc.running_var = rng.uniform(0.5, 2.0, size=16)
        got = diversity_loss(stack, ids_of(kinds), disc, 1.3).item()
        want = oracle_diversity_eval_mode(stack, kinds, disc, 1.3)
        assert got == pytest.approx(want, abs=1e-9)

    def test_confident_prediction_is_clamped(self):
        rng = np.random.default_rng(9)
        disc = zeroed_discriminator(8)
        disc.params["b2"].data[0] = 100.0   # q(kind 0) ~ 1
        loss = diversity_loss(random_stack(rng, 4), [0], disc, 2.0)
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(-2.0 * _TERM_BOUND, abs=1e-9)

    def test_zero_gamma_gives_zero(self):
        rng = np.random.default_rng(10)
        _, kinds, stack = entries_for(rng, 2)
        assert diversity_loss(stack, ids_of(kinds), zeroed_discriminator(8),
                              0.0).item() == 0.0

    def test_gradients_reach_encoder_and_discriminator(self):
        rng = np.random.default_rng(11)
        _, kinds, stack = entries_for(rng, 2, kinds=PERTURBATION_KINDS[:3],
                                      requires_grad=True)
        disc = Discriminator(8, 16, dropout=0.0, seed=2)
        loss = diversity_loss(stack, ids_of(kinds), disc, 1.0,
                              rng=np.random.default_rng(0))
        T.backward(loss)
        for row_grad in stack.hidden.grad:
            assert np.linalg.norm(row_grad) > 0
        for name, p in disc.named_params():
            assert np.linalg.norm(p.grad) > 0, name


class TestTrainingForward:
    def drawn_discriminator(self, rng):
        """A dropout-0 discriminator, 8 -> 16, whose parameters are all drawn
        at O(1)."""
        disc = Discriminator(8, 16, dropout=0.0, seed=3)
        for name, p in disc.params.items():
            p.data[...] = (rng.uniform(0.1, 0.4, size=p.shape) if name == "prelu.a"
                           else rng.normal(size=p.shape))
        return disc

    def test_matches_batch_norm_then_prelu_and_updates_running_statistics(self):
        rng = np.random.default_rng(12)
        disc = self.drawn_discriminator(rng)
        mean0, var0 = rng.normal(size=16), rng.uniform(0.5, 2.0, size=16)
        disc.running_mean[...], disc.running_var[...] = mean0, var0
        x = rng.normal(size=(6, 8))
        got = disc.forward(Tensor(x), rng=np.random.default_rng(0)).data
        p = {k: v.data for k, v in disc.params.items()}
        h = x @ p["w1"] + p["b1"]
        mu, var = h.mean(axis=0), ((h - h.mean(axis=0)) ** 2).mean(axis=0)
        h = p["bn.g"] * (h - mu) / np.sqrt(var + T.LAYER_NORM_EPS) + p["bn.b"]
        h = np.where(h > 0, h, p["prelu.a"] * h)
        np.testing.assert_allclose(got, h @ p["w2"] + p["b2"], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(disc.running_mean, 0.9 * mean0 + 0.1 * mu,
                                   rtol=1e-14, atol=1e-14)
        np.testing.assert_allclose(disc.running_var, 0.9 * var0 + 0.1 * var,
                                   rtol=1e-14, atol=1e-14)

    def test_one_row_batch_gives_the_prelu_of_the_shift(self):
        rng = np.random.default_rng(13)
        disc = self.drawn_discriminator(rng)
        p = disc.params
        b, a = p["bn.b"].data, p["prelu.a"].data
        x = Tensor(rng.normal(size=(1, 8)))
        got = disc.forward(x, rng=np.random.default_rng(0)).data
        want = T.linear(Tensor(np.where(b > 0, b, a * b)[None]), p["w2"], p["b2"]).data
        assert got.tobytes() == want.tobytes()
        # at a shift of 0 every normalized entry is 0, where PReLU's slope is
        # a: the shift's gradient is a times the gradient reaching the
        # activation
        b[...] = 0.0
        w = rng.normal(size=N_KINDS)
        T.backward(T.tsum(T.mul(disc.forward(x, rng=np.random.default_rng(0)), w)))
        np.testing.assert_allclose(p["bn.b"].grad, a * (p["w2"].data @ w),
                                   rtol=1e-14, atol=0)


@pytest.fixture(scope="module")
def tiny_world():
    groups = make_perturbation_corpus(8, seed=21)
    vocab = build_vocab(corpus_sentences(groups))
    cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                        vocab_size=len(vocab), dropout=0.1)
    return groups, vocab, cfg


def _refine_cfg(**kw):
    base = dict(epochs=2, batch_size=4, perturbations_per_sample=3,
                lr=1e-3, warmup_steps=4, weight_decay=0.01,
                seed=13, target_mode="frozen-init", disc_hidden=16,
                disc_dropout=0.2)
    base.update(kw)
    return RefinementConfig(**base)


class TestRefineTargets:
    """What ``refine`` hands its loss terms, seen through the loss calls."""

    @staticmethod
    def _run(monkeypatch, model, groups, vocab, **cfg_kw):
        steps = []
        real_recon = winoref.refine.reconstruction_loss
        real_div = winoref.refine.diversity_loss

        def recon(targets, generated, alpha, score_cfg):
            # "live": the model as this step's targets were encoded
            steps.append({"targets": targets, "generated": generated,
                          "live": model.clone()})
            return real_recon(targets, generated, alpha, score_cfg)

        def div(stack, kind_ids, disc, gamma, rng=None):
            steps[-1]["kinds"] = [PERTURBATION_KINDS[k] for k in kind_ids]
            return real_div(stack, kind_ids, disc, gamma, rng=rng)

        monkeypatch.setattr(winoref.refine, "reconstruction_loss", recon)
        monkeypatch.setattr(winoref.refine, "diversity_loss", div)
        disc = Discriminator(model.config.model_dim, 16, dropout=0.2, seed=0)
        refine(model, disc, groups, LossWeights(1.0, 0.5, 0.5), _refine_cfg(**cfg_kw),
               ScoreConfig(window_radius=2), vocab)
        return steps

    @classmethod
    def _synonym_run(cls, monkeypatch, **cfg_kw):
        """Three single-group steps drawing both kinds of a group with one
        synonym variant; returns (steps, group, vocab, the model before
        training, the model after)."""
        group = PerturbedGroup(
            sample_id="g1",
            base="the trophy does not fit in the suitcase because it is too big .",
            variants={PerturbationKind.SYNONYM:
                      "the medal does not fit in the valise because it is too big ."})
        vocab = build_vocab([group.base, group.variants[PerturbationKind.SYNONYM]])
        cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                            max_len=24, vocab_size=len(vocab), dropout=0.0)
        model = EncoderModel(cfg, seed=1)
        init = model.clone()
        steps = cls._run(monkeypatch, model, [group], vocab, epochs=3, batch_size=1,
                         perturbations_per_sample=2, **cfg_kw)
        assert len(steps) == 3
        return steps, group, vocab, init, model

    @staticmethod
    def _encode_text(model, text, vocab):
        return encode(model, [tokenize(text, vocab, model.config.max_len)]).hidden.data[0]

    def test_identity_target_is_the_base_sentence(self, monkeypatch):
        steps, group, vocab, init, _ = self._synonym_run(monkeypatch)
        base = self._encode_text(init, group.base, vocab)
        for step in steps:
            assert not step["targets"].hidden.requires_grad
            assert step["generated"].hidden.requires_grad
            row = step["kinds"].index(PerturbationKind.IDENTICAL)
            np.testing.assert_array_equal(step["targets"].hidden.data[row], base)

    def test_variant_target_is_the_variant_sentence(self, monkeypatch):
        steps, group, vocab, init, _ = self._synonym_run(monkeypatch)
        want = self._encode_text(init, group.variants[PerturbationKind.SYNONYM], vocab)
        for step in steps:
            row = step["kinds"].index(PerturbationKind.SYNONYM)
            np.testing.assert_array_equal(step["targets"].hidden.data[row], want)
            # the generated side reads the base sentence after the
            # perturbation token, so it keeps the word count
            assert (step["generated"].content_mask[row].sum()
                    == step["targets"].content_mask[row].sum())

    def test_frozen_targets_ignore_training(self, monkeypatch):
        steps, group, vocab, init, model = self._synonym_run(monkeypatch)
        assert np.abs(model.params["tok_emb"].data - init.params["tok_emb"].data).max() > 0
        moved = self._encode_text(model, group.base, vocab)
        for step in steps:
            row = step["kinds"].index(PerturbationKind.IDENTICAL)
            assert np.abs(step["targets"].hidden.data[row] - moved).max() > 0

    def test_current_targets_follow_training(self, monkeypatch):
        steps, group, vocab, init, _ = self._synonym_run(
            monkeypatch, target_mode="stop-gradient-current")
        for step in steps:
            assert not step["targets"].hidden.requires_grad
            for row, kind in enumerate(step["kinds"]):
                want = self._encode_text(step["live"], group.variant_text(kind), vocab)
                np.testing.assert_array_equal(step["targets"].hidden.data[row], want)
        # two updates later the live model no longer gives the init targets
        for row, kind in enumerate(steps[-1]["kinds"]):
            frozen = self._encode_text(init, group.variant_text(kind), vocab)
            assert np.abs(steps[-1]["targets"].hidden.data[row] - frozen).max() > 0

    def test_frozen_targets_of_groups_sharing_an_id(self, tmp_path, monkeypatch):
        # an explicit id equal to the next line's number: both groups load
        # with id "2", and each must still be trained against its own variants
        path = tmp_path / "c.jsonl"
        path.write_text(
            '{"id": "2", "base": "the trophy is big .", '
            '"variants": {"SYNONYM": "the medal is big ."}}\n'
            '{"base": "a dog ran home .", "variants": {"TENSE": "a dog runs home ."}}\n')
        groups = load_perturbation_corpus(path)
        assert [g.sample_id for g in groups] == ["2", "2"]
        vocab = build_vocab(corpus_sentences(groups))
        cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=12,
                            vocab_size=len(vocab), dropout=0.0)
        model = EncoderModel(cfg, seed=1)
        init = model.clone()
        steps = self._run(monkeypatch, model, groups, vocab, epochs=2, batch_size=2,
                          perturbations_per_sample=2)
        want = sorted(self._encode_text(init, g.variant_text(kind), vocab).tobytes()
                      for g in groups for kind in g.available_kinds())
        assert len(set(want)) == 4
        for step in steps:
            got = sorted(row.tobytes() for row in step["targets"].hidden.data)
            assert got == want

    def test_only_available_kinds_are_drawn(self, tiny_world, monkeypatch):
        groups, vocab, cfg = tiny_world
        bare = PerturbedGroup(sample_id="x", base=groups[0].base, variants={})
        steps = self._run(monkeypatch, EncoderModel(cfg, seed=0), [bare, groups[1]],
                          vocab, epochs=2, batch_size=2, perturbations_per_sample=8)
        want = sorted(bare.available_kinds() + groups[1].available_kinds(),
                      key=KIND_INDEX.__getitem__)
        for step in steps:
            assert sorted(step["kinds"], key=KIND_INDEX.__getitem__) == want


class TestStepBudget:
    @pytest.mark.parametrize("dropout, disc_hidden, bound, key", [
        # the attention scores of the generated rows
        (0.1, 16, (11, 2, 24, 24), "encoder.heads"),
        # the encoder draws no mask; the discriminator's hidden is the largest
        (0.0, 2048, (11, 2048), "refine.disc_hidden"),
    ], ids=["heads", "disc-hidden"])
    def test_refine_checks_its_largest_step_before_the_first(
            self, tiny_world, monkeypatch, dropout, disc_hidden, bound, key):
        groups, vocab, cfg = tiny_world
        cfg = dataclasses.replace(cfg, dropout=dropout)
        # groups of 1, 2, 5 and 6 kinds; a step samples up to 4 of each, so
        # the one batch of all four forwards 1 + 2 + 4 + 4 rows. Each base
        # has 21 words, so its generated rows, with their kind token, fill
        # max_len 24
        base = " ".join(vocab.token(FIRST_WORD_ID + i) for i in range(21))
        groups = [dataclasses.replace(g, base=base,
                                      variants=dict(list(g.variants.items())[:k]))
                  for g, k in zip(groups, (0, 1, 4, 5))]
        r_cfg = _refine_cfg(epochs=1, batch_size=4, perturbations_per_sample=4)

        def run(model):
            disc = Discriminator(cfg.model_dim, disc_hidden, dropout=0.2, seed=0)
            refine(model, disc, groups, LossWeights(), r_cfg, ScoreConfig(), vocab)

        cap = math.prod(bound)
        shapes = record_draws(monkeypatch)
        monkeypatch.setattr(encoder, "MAX_STEP_VALUES", cap)
        run(EncoderModel(cfg, seed=0))
        assert bound in shapes     # drawn at the shape of what it scales

        def encode_batch(*args, **kwargs):
            raise AssertionError("a step was about to run")

        monkeypatch.setattr(winoref.refine, "encode_batch", encode_batch)
        monkeypatch.setattr(encoder, "MAX_STEP_VALUES", cap - 1)
        shapes.clear()
        model = EncoderModel(cfg, seed=0)
        before = {name: q.data.copy() for name, q in model.named_params()}
        with pytest.raises(ValueError) as e:
            run(model)
        assert str(e.value) == (
            f"a training step would build an array of shape {bound}, over the cap of "
            f"{cap - 1} values: lower refine.batch_size, "
            f"refine.perturbations_per_sample or {key}")
        assert shapes == []
        assert all(np.array_equal(q.data, before[name]) for name, q in model.named_params())

    def test_discriminator_over_the_parameter_cap_is_rejected_before_any_draw(
            self, monkeypatch):
        # it used to draw w1 at (16, 10**12) and end in a MemoryError
        def default_rng(*args, **kwargs):
            raise AssertionError("a parameter was about to be drawn")

        monkeypatch.setattr(np.random, "default_rng", default_rng)
        count = (16 + 4 + N_KINDS) * 10**12 + N_KINDS
        with pytest.raises(ValueError) as e:
            Discriminator(16, 10**12, dropout=0.2, seed=0)
        assert str(e.value) == (f"the discriminator would hold {count} parameters, over "
                                f"the cap of {encoder.MAX_PARAMS}: lower refine.disc_hidden")

    @pytest.mark.parametrize("input_dim, hidden_dim", [(16, 8), (3, 1), (96, 128)])
    def test_discriminator_at_the_parameter_cap_is_built(self, monkeypatch, input_dim,
                                                         hidden_dim):
        # the cap counts every parameter the discriminator builds
        disc = Discriminator(input_dim, hidden_dim, dropout=0.2, seed=0)
        count = sum(p.data.size for _, p in disc.named_params())
        monkeypatch.setattr(winoref.refine, "MAX_PARAMS", count)
        Discriminator(input_dim, hidden_dim, dropout=0.2, seed=0)
        monkeypatch.setattr(winoref.refine, "MAX_PARAMS", count - 1)
        with pytest.raises(ValueError) as e:
            Discriminator(input_dim, hidden_dim, dropout=0.2, seed=0)
        assert str(e.value) == (f"the discriminator would hold {count} parameters, over "
                                f"the cap of {count - 1}: lower refine.disc_hidden")

    def test_default_batches_run_at_eight_heads_and_the_longest_rows(self,
                                                                      monkeypatch):
        # pretrain forwards 16 rows per step and refine 10 groups of 4 kinds;
        # their attention scores with every row max_len long bound the masks
        # drawn
        groups = make_perturbation_corpus(10, seed=21)
        vocab = build_vocab(corpus_sentences(groups))
        cfg = EncoderConfig(layers=1, heads=8, model_dim=16, ff_dim=16,
                            max_len=encoder.MAX_LEN, vocab_size=len(vocab))
        model = EncoderModel(cfg, seed=0)
        shapes = record_draws(monkeypatch)
        rows = [tokenize(t, vocab, cfg.max_len) for t in corpus_sentences(groups)]
        pretrain_mlm(model, rows, PretrainConfig(epochs=1), vocab)
        assert shapes and max(map(math.prod, shapes)) <= 16 * 8 * 512 * 512
        shapes.clear()
        disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
        history = refine(model, disc, groups, LossWeights(), RefinementConfig(epochs=1),
                         ScoreConfig(), vocab)
        assert len(history) == 1
        assert shapes and max(map(math.prod, shapes)) <= 40 * 8 * 512 * 512


class TestRefine:
    def test_all_zero_weights_rejected(self, tiny_world):
        groups, vocab, cfg = tiny_world
        model = EncoderModel(cfg, seed=0)
        disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
        with pytest.raises(ValueError, match="zero"):
            refine(model, disc, groups, LossWeights(0, 0, 0), _refine_cfg(),
                   ScoreConfig(), vocab)

    def test_corpus_without_variants_rejected(self, tiny_world):
        groups, vocab, cfg = tiny_world
        model = EncoderModel(cfg, seed=0)
        disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
        bare = [PerturbedGroup(sample_id="x", base="the coin fits .", variants={})]
        with pytest.raises(ValueError, match="variant"):
            refine(model, disc, bare, LossWeights(), _refine_cfg(), ScoreConfig(),
                   vocab)

    def test_history_rows_and_loss_fields(self, tiny_world):
        groups, vocab, cfg = tiny_world
        model = EncoderModel(cfg, seed=0)
        disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
        history = refine(model, disc, groups, LossWeights(1.0, 0.5, 0.5),
                         _refine_cfg(), ScoreConfig(window_radius=2), vocab)
        steps_per_epoch = int(np.ceil(len(groups) / 4))
        assert len(history) == 2 * steps_per_epoch
        for row in history:
            total = row["loss_recon"] + row["loss_contrast"] + row["loss_diversity"]
            assert row["loss_total"] == pytest.approx(total, abs=1e-9)

    def test_fixed_seed_bit_identical(self, tiny_world):
        groups, vocab, cfg = tiny_world
        results = []
        for _ in range(2):
            model = EncoderModel(cfg, seed=0)
            disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
            refine(model, disc, groups, LossWeights(2.0, 0.5, 0.5), _refine_cfg(),
                   ScoreConfig(window_radius=2), vocab)
            results.append({k: p.data.tobytes() for k, p in model.params.items()})
        assert results[0] == results[1]

    def test_seed_change_changes_result(self, tiny_world):
        groups, vocab, cfg = tiny_world
        outs = []
        for seed in (1, 2):
            model = EncoderModel(cfg, seed=0)
            disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
            refine(model, disc, groups, LossWeights(2.0, 0.5, 0.5),
                   _refine_cfg(seed=seed), ScoreConfig(window_radius=2), vocab)
            outs.append(model.params["tok_emb"].data.copy())
        assert np.abs(outs[0] - outs[1]).max() > 0

    def test_total_loss_gradient_matches_finite_differences(self, tiny_world):
        # deterministic eval-mode losses, spot-checked parameter coordinates
        groups, vocab, cfg = tiny_world
        model = EncoderModel(cfg, seed=4)
        disc = Discriminator(cfg.model_dim, 16, dropout=0.0, seed=4)
        score_cfg = ScoreConfig(window_radius=2)
        batch = groups[:3]
        kinds = [PerturbationKind.IDENTICAL, PerturbationKind.TENSE]
        # targets are stop-gradient by contract; pin them to a frozen snapshot
        # so the finite differences see the same constants the tape does
        snapshot = model.clone()

        samples, row_kinds, gen_seqs, target_seqs = [], [], [], []
        for bi, g in enumerate(batch):
            for kind in kinds:
                samples.append(bi)
                row_kinds.append(kind)
                gen_seqs.append(generated_row(g, kind, vocab, cfg.max_len))
                target_seqs.append(tokenize(g.variant_text(kind), vocab, cfg.max_len))
        targets = encode_batch(snapshot.detached(), target_seqs)
        pairs = contrastive_pairs(samples, ids_of(row_kinds))

        def total_loss():
            generated = encode_batch(model, gen_seqs)
            lr_ = reconstruction_loss(targets, generated, 2.0, score_cfg)
            lc = contrastive_loss(generated, pairs, 0.7, score_cfg)
            ld = diversity_loss(generated, ids_of(row_kinds), disc, 1.1)
            return T.add(T.add(lr_, lc), ld)

        loss = total_loss()
        T.backward(loss)
        h = 1e-5
        for pname, owner in (("l0.attn.wq", model.params),
                             ("tok_emb", model.params),
                             ("w1", disc.params)):
            p = owner[pname]
            analytic = p.grad
            rng = np.random.default_rng(0)
            flat = rng.choice(p.data.size, size=4, replace=False)
            for f in flat:
                idx = np.unravel_index(f, p.data.shape)
                orig = p.data[idx]
                p.data[idx] = orig + h
                up = total_loss().item()
                p.data[idx] = orig - h
                down = total_loss().item()
                p.data[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(1.0, abs(numeric))
                assert abs(analytic[idx] - numeric) / denom < 1e-4, \
                    f"{pname}[{idx}]: {analytic[idx]} vs {numeric}"


    def test_tape_size_does_not_grow_with_pairs(self, monkeypatch):
        # every loss term is one batched computation, so a step's tape has
        # the same node count whether the batch holds 2 samples or 10
        groups = make_perturbation_corpus(10, seed=23)
        vocab = build_vocab(corpus_sentences(groups))
        cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                            vocab_size=len(vocab))
        real_backward = T.backward

        def tape_nodes(loss):
            seen, stack, nodes = {id(loss)}, [loss], 0
            while stack:
                node = stack.pop()
                nodes += node._backward_fn is not None
                for parent in node._parents:
                    if parent.requires_grad and id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            return nodes

        counts = {}
        for batch_size in (2, 10):
            seen_counts = counts.setdefault(batch_size, [])

            def counting_backward(loss, seen_counts=seen_counts):
                seen_counts.append(tape_nodes(loss))
                real_backward(loss)

            monkeypatch.setattr(T, "backward", counting_backward)
            model = EncoderModel(cfg, seed=0)
            disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
            # all kinds per sample, so every batch has cross-sample pairs
            refine(model, disc, groups, LossWeights(1.0, 0.5, 0.5),
                   _refine_cfg(epochs=1, batch_size=batch_size,
                               perturbations_per_sample=8),
                   ScoreConfig(window_radius=2), vocab)
        assert len(counts[2]) == 5 and len(counts[10]) == 1
        assert set(counts[2]) == set(counts[10]), counts


def lazy_cache_refine(model, disc, groups, weights, cfg, score_cfg, vocab):
    """The refinement loop as it was before its row tables: rows built per
    step, and targets from a lazy cache of one-row encodes of a clone of the
    init model (``frozen-init``) or one-row encodes of the live model."""
    max_len = model.config.max_len
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params() + disc.named_params(), lr=cfg.lr,
                weight_decay=cfg.weight_decay, warmup_steps=cfg.warmup_steps)
    target_model = model.clone() if cfg.target_mode == "frozen-init" else model
    target_cache = {}

    def target_for(gi, kind):
        if (gi, kind) in target_cache:
            return target_cache[gi, kind]
        stack = encode(target_model,
                       [tokenize(groups[gi].variant_text(kind), vocab, max_len)])
        if target_model is not model:
            target_cache[gi, kind] = stack
        return stack

    def sample_kinds(group):
        kinds = group.available_kinds()
        k = min(cfg.perturbations_per_sample, len(kinds))
        return [kinds[i] for i in rng.choice(len(kinds), size=k, replace=False)]

    history = []
    order = np.arange(len(groups))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(groups), cfg.batch_size):
            chosen = [(gi, kind) for gi in order[start:start + cfg.batch_size]
                      for kind in sample_kinds(groups[gi])]
            samples = [gi for gi, _ in chosen]
            kinds = [KIND_INDEX[kind] for _, kind in chosen]
            generated = encode_batch(
                model, [generated_row(groups[gi], kind, vocab, max_len)
                        for gi, kind in chosen], rng=rng)
            parts = [target_for(gi, kind) for gi, kind in chosen]
            # one-row stacks are as wide as their row: zero-pad them to the
            # longest, as a stack of all of them would be
            n = max(t.hidden.shape[1] for t in parts)

            def widen(a, n=n):
                return np.pad(a, [(0, 0), (0, n - a.shape[1])] + [(0, 0)] * (a.ndim - 2))

            hidden = np.concatenate([widen(t.hidden.data) for t in parts])
            targets = EmbeddingStack(
                hidden=Tensor(hidden, dtype=hidden.dtype),
                content_mask=np.concatenate([widen(t.content_mask) for t in parts]))
            loss_r = reconstruction_loss(targets, generated, weights.alpha, score_cfg)
            loss_c = contrastive_loss(generated, contrastive_pairs(samples, kinds),
                                      weights.beta, score_cfg)
            loss_d = diversity_loss(generated, kinds, disc, weights.gamma, rng=rng)
            total = T.add(T.add(loss_r, loss_c), loss_d)
            T.backward(total)
            opt.step()
            history.append([loss_r.item(), loss_c.item(), loss_d.item(),
                            total.item(), opt.effective_lr()])
    return history


class TestRowTables:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("target_mode", ["frozen-init", "stop-gradient-current"])
    @pytest.mark.parametrize("per_sample", [1, 3, 8])
    def test_bit_equal_to_the_lazy_cache_loop(self, dtype, target_mode, per_sample):
        T.set_dtype(dtype)
        groups = make_perturbation_corpus(9, seed=29)
        # 1 to 5 kinds per group, so per_sample 3 is below some counts and
        # above others
        for gi, g in enumerate(groups):
            g.variants = dict(list(g.variants.items())[:gi % 5])
        assert len({len(g.available_kinds()) for g in groups}) == 5
        vocab = build_vocab(corpus_sentences(groups))
        cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                            vocab_size=len(vocab), dropout=0.1)
        refine_cfg = _refine_cfg(epochs=2, batch_size=4,
                                 perturbations_per_sample=per_sample,
                                 target_mode=target_mode)
        runs = []
        for loop in (refine, lazy_cache_refine):
            model = EncoderModel(cfg, seed=2)
            disc = Discriminator(cfg.model_dim, 16, dropout=0.2, seed=0)
            history = loop(model, disc, groups, LossWeights(1.0, 0.5, 0.5), refine_cfg,
                           ScoreConfig(window_radius=2), vocab)
            if loop is refine:
                history = [[h["loss_recon"], h["loss_contrast"], h["loss_diversity"],
                            h["loss_total"], h["lr"]] for h in history]
            params = {k: p.data.tobytes()
                      for k, p in model.named_params() + disc.named_params()}
            runs.append((history, params))
        assert len(runs[0][0]) == 2 * 3
        assert runs[0] == runs[1]


class TestProbes:
    def test_probe_separates_separable_clusters(self):
        rng = np.random.default_rng(0)
        centers = rng.normal(size=(8, 12)) * 3.0
        feats, labels = [], []
        for k in range(8):
            for _ in range(25):
                feats.append(centers[k] + rng.normal(size=12) * 0.1)
                labels.append(k)
        acc = kind_probe_accuracy(np.array(feats), np.array(labels), seed=1)
        assert acc > 0.9

    def test_probe_near_chance_on_noise(self):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(400, 12))
        labels = rng.integers(0, 8, size=400)
        acc = kind_probe_accuracy(feats, labels, seed=1)
        assert acc < 0.3

    def test_min_same_kind_distance(self):
        feats = np.array([[0.0, 0], [3, 4], [1, 1]])
        labels = np.array([0, 0, 1])
        samples = ["a", "b", "c"]
        assert min_same_kind_distance(feats, labels, samples) == pytest.approx(5.0)
        # same sample never counts
        assert min_same_kind_distance(feats[:2], np.array([0, 0]),
                                      ["a", "a"]) == np.inf
