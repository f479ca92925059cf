"""Self-supervised refinement: reconstruction, contrastive and diversity
losses jointly minimized over the encoder and a perturbation discriminator.

For every corpus sample the encoder sees the base sentence conditioned on a
perturbation-type token and is trained so its embedding stack matches the
stack of the actually-perturbed sentence (reconstruction), stays apart from
other samples generated with the same perturbation type (contrastive), and
remains classifiable by perturbation type (diversity).
"""

import math
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import tensor as T
from .config import check_choice, check_count, check_real, internal
from .encoder import (MAX_PARAMS, check_cap, check_step, draw_params, encode,
                      encode_batch)
from .optim import AdamW, check_finite_loss
from .scoring import windowed_bertscore
from .tensor import Tensor
from .text import (KIND_INDEX, PERTURBATION_KINDS, corpus_rows, encode_tokens,
                   row_masks, tokenize, word_tokens)

N_KINDS = len(PERTURBATION_KINDS)

# probability clamp inside the diversity ratio; keeps the loss bounded
PROB_CLAMP = 1e-7
_TERM_BOUND = float(np.log((1.0 - PROB_CLAMP) / PROB_CLAMP))


@dataclass
class LossWeights:
    alpha: float = 130.0
    beta: float = 0.5
    gamma: float = 2.5

    def __post_init__(self):
        for f in fields(self):
            check_real(f"refine.{f.name}", getattr(self, f.name), 0)

    def all_zero(self):
        return not any(astuple(self))

    def to_dict(self):
        return asdict(self)


@dataclass
class RefinementConfig:
    epochs: int = 10
    batch_size: int = 10
    perturbations_per_sample: int = 4
    lr: float = 5e-5
    warmup_steps: int = 500
    weight_decay: float = 0.01
    seed: int = internal(0)
    target_mode: str = "frozen-init"
    disc_hidden: int = 128
    disc_dropout: float = 0.2

    def __post_init__(self):
        check_count("refine.epochs", self.epochs, 0)
        check_count("refine.batch_size", self.batch_size, 1)
        check_count("refine.perturbations_per_sample", self.perturbations_per_sample, 1)
        check_real("refine.lr", self.lr, 0, low_open=True)
        check_count("refine.warmup_steps", self.warmup_steps, 0)
        check_real("refine.weight_decay", self.weight_decay, 0)
        check_count("refine.seed", self.seed, 0)
        check_choice("refine.target_mode", self.target_mode,
                     ("frozen-init", "stop-gradient-current"))
        check_count("refine.disc_hidden", self.disc_hidden, 1)
        check_real("refine.disc_dropout", self.disc_dropout, 0, 1, high_open=True)


class Discriminator:
    """Two fully connected layers with batch norm, PReLU and dropout,
    mapping a pooled embedding stack to one logit per perturbation type.
    It exists only inside the diversity term, so its one forward is the
    training forward: batch norm on the batch's statistics, and dropout.
    The sizes, rate and seed come from ``RefinementConfig``. Like the
    encoder, it holds at most ``MAX_PARAMS`` parameters, checked before any
    array is drawn."""

    def __init__(self, input_dim, hidden_dim, dropout, seed):
        # (name, shape, fill) in draw order; a fill of None draws N(0, INIT_SCALE)
        table = [("w1", (input_dim, hidden_dim), None), ("b1", (hidden_dim,), 0.0),
                 ("bn.g", (hidden_dim,), 1.0), ("bn.b", (hidden_dim,), 0.0),
                 ("prelu.a", (hidden_dim,), 0.25), ("w2", (hidden_dim, N_KINDS), None),
                 ("b2", (N_KINDS,), 0.0)]
        count = sum(math.prod(shape) for _, shape, _ in table)
        if count > MAX_PARAMS:
            raise ValueError(f"the discriminator would hold {count} parameters, over "
                             f"the cap of {MAX_PARAMS}: lower refine.disc_hidden")
        self.dropout = dropout
        self.params = draw_params(table, seed)

    def named_params(self):
        return [(f"disc.{k}", v) for k, v in self.params.items()]

    def forward(self, x, rng):
        """x: (M, input_dim) tensor -> (M, n_kinds) logits, the training
        forward: batch norm on the batch's statistics, which is layer norm
        over the batch axis, and dropout drawn from ``rng``."""
        p = self.params
        h = T.linear(x, p["w1"], p["b1"])
        rows = len(h.data)
        h = T.transpose(T.layer_norm(T.transpose(h, (1, 0)), Tensor(np.ones(rows)),
                                     Tensor(np.zeros(rows))), (1, 0))
        h = T.add(T.mul(h, p["bn.g"]), p["bn.b"])
        # PReLU; the clip passes the gradient at 0, so there the slope is a
        neg = T.clip(h, -np.inf, 0.0)
        h = T.add(T.sub(h, neg), T.mul(p["prelu.a"], neg))
        h = T.dropout(h, self.dropout, rng)
        return T.linear(h, p["w2"], p["b2"])


def pooled_stack(stack):
    """Masked mean of each row of an embedding stack over its word
    positions, (N, model_dim)."""
    counts = stack.content_mask.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("cannot pool a stack with no word positions")
    weights = (stack.content_mask / counts)[:, :, None]
    return T.tsum(T.mul(stack.hidden, weights), axis=1)


def contrastive_pairs(samples, kind_ids):
    """Index arrays (ia, ib), ``ia < ib``, of the row pairs that come from
    different samples and share a kind id, each unordered pair once. The
    windowed F1 is symmetric, so a pair scored once at twice the weight
    (``contrastive_loss``) counts both of its orders."""
    samples, kind_ids = np.asarray(samples), np.asarray(kind_ids)
    same = ((kind_ids[:, None] == kind_ids[None, :])
            & (samples[:, None] != samples[None, :]))
    return np.nonzero(np.triu(same, 1))


def reconstruction_loss(targets, generated, alpha, score_cfg):
    """Negative weighted sum of the windowed scores of each generated row
    against the target row at the same index."""
    n = generated.hidden.shape[0]
    if n == 0:
        raise ValueError("reconstruction loss needs at least one pair")
    if targets.hidden.shape[0] != n:
        raise ValueError(f"reconstruction loss: {targets.hidden.shape[0]} targets "
                         f"for {n} generated rows")
    if alpha == 0:
        return Tensor(0.0)
    rows = np.arange(n)
    return T.mul(T.tsum(windowed_bertscore(targets, generated, rows, rows, score_cfg)),
                 -alpha)


def contrastive_loss(stack, pairs, beta, score_cfg):
    """``2 * beta`` times the sum of the windowed scores of the row pairs
    ``(ia, ib)`` of one stack, normally the unordered ``contrastive_pairs``.
    F1 is symmetric, so this is ``beta`` times the sum over both orders of
    every pair; minimizing it repels same-type stacks of different samples."""
    ia, ib = pairs
    if beta == 0 or len(ia) == 0:
        return Tensor(0.0)
    return T.mul(T.tsum(windowed_bertscore(stack, stack, ia, ib, score_cfg)), 2 * beta)


def diversity_loss(stack, kind_ids, disc, gamma, rng):
    """Perturbation-classification loss over the rows of a generated stack,
    ``kind_ids[i]`` being the ``KIND_INDEX`` id of row i's perturbation kind.

    For each row the discriminator's softmax probability of the true kind
    is compared against the total probability of all other kinds; the log of
    that ratio (clamped so it stays finite) is summed and negated. Gradients
    reach both the encoder (through the pooled stacks) and the discriminator,
    whose forward is always its training forward, its dropout drawn from
    ``rng``.
    """
    if gamma == 0:
        return Tensor(0.0)
    if len(kind_ids) == 0:
        raise ValueError("diversity loss needs at least one row")
    logits = disc.forward(pooled_stack(stack), rng=rng)
    onehot = np.eye(N_KINDS, dtype=logits.data.dtype)[kind_ids]
    logit_true = T.tsum(T.mul(logits, onehot), axis=1)
    # log sum over the other kinds, computed by pushing the true kind to -inf
    lse_rest = T.logsumexp(T.add(logits, Tensor(onehot * -1e9)))
    ratio_log = T.clip(T.sub(logit_true, lse_rest), -_TERM_BOUND, _TERM_BOUND)
    return T.mul(T.tsum(ratio_log), -gamma)


def _sample_kinds(n_kinds, count, rng):
    """Positions of ``count`` of a group's ``n_kinds`` kinds (all of them if
    it has fewer), drawn without replacement."""
    return rng.choice(n_kinds, size=min(count, n_kinds), replace=False)


def generated_row(group, kind, vocab, max_len):
    """The id row the encoder is trained on: the base sentence conditioned
    on the perturbation token, [CLS] [KIND] base words [SEP]."""
    return encode_tokens([kind.token] + word_tokens(group.base), vocab, max_len)


def _row_tables(groups, vocab, max_len):
    """Per (group, kind) pair of a corpus, in ``corpus_rows`` order, its group
    position and ``KIND_INDEX`` id, ``(P,)`` each, and its generated and target
    id rows, ``(P, max_len)`` each; an overflowing row names its sample and kind."""
    def row(gi, g, kind):
        return (gi, KIND_INDEX[kind], generated_row(g, kind, vocab, max_len),
                tokenize(g.variant_text(kind), vocab, max_len))

    group_ids, kind_ids, generated, targets = zip(*corpus_rows(groups, row))
    return np.array(group_ids), np.array(kind_ids), np.stack(generated), np.stack(targets)


def _score_arrays(kinds, generated, targets, dim):
    """(shape, key) of the largest arrays the loss terms of a step build
    beside the encoder's, its groups drawing ``kinds`` kinds each, no
    generated row over ``generated`` words and no target over ``targets``:
    ``contrastive_pairs``' (N, N) masks, the contrastive pairs' (P,
    generated, dim) row gathers and (P, generated, generated) cosine grid,
    and the reconstruction pairs' (N, targets, generated) grid. The pairs
    peak when every group draws the same kinds, the j-th shared by the
    groups that draw more than j."""
    rows = int(kinds.sum())
    shared = np.count_nonzero(kinds[:, None] > np.arange(kinds.max()), axis=0)
    pairs = int((shared * (shared - 1) // 2).sum())
    return [((rows, rows), None), ((pairs, generated, dim), "encoder.model_dim"),
            ((pairs, generated, generated), None), ((rows, targets, generated), None)]


def refine(model, disc, groups, weights, cfg, score_cfg, vocab):
    """Joint training loop; mutates ``model`` and ``disc`` in place.

    Every id row is built before the first update. Per batch: sample
    ``perturbations_per_sample`` kinds per group (without replacement,
    identity always eligible), encode their generated rows in one graph,
    evaluate the three loss terms and take one AdamW step over encoder plus
    discriminator parameters. Returns per-step history rows. A non-finite
    total loss raises ValueError before its step updates the model.
    """
    if weights.all_zero():
        raise ValueError("all loss weights are zero; nothing to optimize")
    if not groups:
        raise ValueError("refinement corpus is empty")
    if not any(g.variants for g in groups):
        raise ValueError("refinement corpus has no perturbation variants")
    if (weights.alpha == 0 and weights.gamma == 0
            and min(cfg.batch_size, len(groups)) < 2):
        raise ValueError(f"only the contrastive loss is weighted, and no batch can "
                         f"hold the two samples it compares (refine.batch_size "
                         f"{cfg.batch_size}, {len(groups)} corpus groups)")

    # a step picks rows of these tables: the n_kinds[gi] kinds of group gi
    # are rows first[gi] onwards; the largest step takes the groups with the
    # most kinds
    group_ids, kind_ids, gen_ids, target_ids = _row_tables(groups, vocab,
                                                           model.config.max_len)
    n_kinds = np.bincount(group_ids, minlength=len(groups))
    first = np.cumsum(n_kinds) - n_kinds
    most = np.sort(np.minimum(n_kinds, cfg.perturbations_per_sample))[-cfg.batch_size:]
    # the most real tokens and the most words of a generated and a target row
    (gen_real, gen_words), (target_real, target_words) = (
        [int(m.sum(1).max()) for m in row_masks(ids)] for ids in (gen_ids, target_ids))
    keys = "refine.batch_size, refine.perturbations_per_sample"
    check_step(model.config, int(most.sum()), max(gen_real, target_real), keys,
               disc_hidden=len(disc.params["b1"].data))
    check_cap(_score_arrays(most, gen_words, target_words, model.config.model_dim), keys)
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params() + disc.named_params(), lr=cfg.lr,
                weight_decay=cfg.weight_decay, warmup_steps=cfg.warmup_steps)
    # frozen-init targets are the stacks of the model before its first update
    frozen = encode(model, target_ids) if cfg.target_mode == "frozen-init" else None

    history = []
    order = np.arange(len(groups))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(groups), cfg.batch_size):
            idx = np.concatenate([
                first[gi] + _sample_kinds(n_kinds[gi], cfg.perturbations_per_sample, rng)
                for gi in order[start:start + cfg.batch_size]])
            generated = encode_batch(model, gen_ids[idx], rng=rng)
            targets = (frozen.select(idx) if frozen is not None
                       else encode(model, target_ids[idx]))

            loss_r = reconstruction_loss(targets, generated, weights.alpha, score_cfg)
            pairs = contrastive_pairs(group_ids[idx], kind_ids[idx])
            loss_c = contrastive_loss(generated, pairs, weights.beta, score_cfg)
            loss_d = diversity_loss(generated, kind_ids[idx], disc, weights.gamma,
                                    rng=rng)
            total = T.add(T.add(loss_r, loss_c), loss_d)
            value = total.item()
            check_finite_loss("refinement", value, opt.step_count + 1)
            T.backward(total)
            opt.step()
            history.append({"step": opt.step_count, "lr": opt.effective_lr(),
                            "loss_recon": loss_r.item(),
                            "loss_contrast": loss_c.item(),
                            "loss_diversity": loss_d.item(),
                            "loss_total": value})
    return history
