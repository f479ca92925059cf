"""Self-supervised refinement: reconstruction, contrastive and diversity
losses jointly minimized over the encoder and a perturbation discriminator.

For every corpus sample the encoder sees the base sentence conditioned on a
perturbation-type token and is trained so its embedding stack matches the
stack of the actually-perturbed sentence (reconstruction), stays apart from
other samples generated with the same perturbation type (contrastive), and
remains classifiable by perturbation type (diversity).
"""

import itertools
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .config import check_choice, check_count, check_real
from .encoder import EmbeddingStack, encode, encode_batch
from .optim import AdamW
from .scoring import windowed_bertscore
from .tensor import Tensor
from .text import KIND_INDEX, PERTURBATION_KINDS, prepend_perturbation, tokenize

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
        for key in ("alpha", "beta", "gamma"):
            check_real(f"refine.{key}", getattr(self, key), 0)

    def all_zero(self):
        return self.alpha == 0 and self.beta == 0 and self.gamma == 0

    def to_dict(self):
        return asdict(self)


@dataclass
class RefinementConfig:
    epochs: int = 10
    batch_size: int = 10
    perturbations_per_sample: int = 4
    lr: float = 5e-5
    adam_eps: float = 1e-8
    warmup_steps: int = 500
    weight_decay: float = 0.01
    seed: int = 0
    target_mode: str = "frozen-init"
    disc_hidden: int = 128
    disc_dropout: float = 0.2

    def __post_init__(self):
        check_count("refine.epochs", self.epochs, 0)
        check_count("refine.batch_size", self.batch_size, 1)
        check_count("refine.perturbations_per_sample", self.perturbations_per_sample, 1)
        check_real("refine.lr", self.lr, 0, low_open=True)
        check_real("refine.adam_eps", self.adam_eps, 0, low_open=True)
        check_count("refine.warmup_steps", self.warmup_steps, 0)
        check_real("refine.weight_decay", self.weight_decay, 0)
        check_count("refine.seed", self.seed, 0)
        check_choice("refine.target_mode", self.target_mode,
                     ("frozen-init", "stop-gradient-current"))
        check_count("refine.disc_hidden", self.disc_hidden, 1)
        check_real("refine.disc_dropout", self.disc_dropout, 0, 1, high_open=True)

    @property
    def effective_batch_size(self):
        """Sentences per batch times perturbations sampled per sentence."""
        return self.batch_size * self.perturbations_per_sample

    def to_dict(self):
        return asdict(self)


class Discriminator:
    """Two fully connected layers with batch norm, PReLU and 20% dropout,
    mapping a pooled embedding stack to one logit per perturbation type."""

    def __init__(self, input_dim, hidden_dim=128, dropout=0.2, seed=0):
        rng = np.random.default_rng(seed)
        self.dropout = dropout
        self.params = {
            "w1": Tensor(rng.normal(0.0, 0.02, (input_dim, hidden_dim)), requires_grad=True),
            "b1": Tensor(np.zeros(hidden_dim), requires_grad=True),
            "bn.g": Tensor(np.ones(hidden_dim), requires_grad=True),
            "bn.b": Tensor(np.zeros(hidden_dim), requires_grad=True),
            "prelu.a": Tensor(np.full(hidden_dim, 0.25), requires_grad=True),
            "w2": Tensor(rng.normal(0.0, 0.02, (hidden_dim, N_KINDS)), requires_grad=True),
            "b2": Tensor(np.zeros(N_KINDS), requires_grad=True),
        }
        self.running_mean = np.zeros(hidden_dim)
        self.running_var = np.ones(hidden_dim)
        self.bn_momentum = 0.1
        self.bn_eps = 1e-5

    def named_params(self):
        return [(f"disc.{k}", v) for k, v in self.params.items()]

    def forward(self, x, train=False, rng=None):
        """x: (M, input_dim) tensor -> (M, n_kinds) logits."""
        p = self.params
        h = T.add(T.matmul(x, p["w1"]), p["b1"])
        if train:
            mu = T.tmean(h, axis=0)
            centered = T.sub(h, mu)
            var = T.tmean(T.mul(centered, centered), axis=0)
            self.running_mean *= 1.0 - self.bn_momentum
            self.running_mean += self.bn_momentum * mu.data
            self.running_var *= 1.0 - self.bn_momentum
            self.running_var += self.bn_momentum * var.data
            h = T.div(centered, T.sqrt(T.add(var, self.bn_eps)))
        else:
            h = (h - Tensor(self.running_mean)) * Tensor(
                1.0 / np.sqrt(self.running_var + self.bn_eps))
        h = T.add(T.mul(h, p["bn.g"]), p["bn.b"])
        pos = T.relu(h)
        h = T.add(pos, T.mul(p["prelu.a"], T.sub(h, pos)))
        if train and self.dropout > 0:
            keep = (rng.random(h.data.shape) >= self.dropout).astype(h.data.dtype)
            h = T.mul(h, keep / (1.0 - self.dropout))
        return T.add(T.matmul(h, p["w2"]), p["b2"])


def pooled_stack(stack):
    """Masked mean of each row of an embedding stack over its word
    positions, (N, model_dim)."""
    counts = stack.content_mask.sum(axis=1, keepdims=True)
    if not counts.all():
        raise ValueError("cannot pool a stack with no eligible positions")
    weights = (stack.content_mask / counts)[:, :, None]
    return T.tsum(T.mul(stack.hidden, weights), axis=1)


def contrastive_pairs(samples, kinds):
    """Index arrays (ia, ib) of the ordered row pairs that come from
    different samples and share a perturbation kind."""
    samples = np.asarray(samples)
    kind_ids = np.array([KIND_INDEX[kind] for kind in kinds])
    same = ((kind_ids[:, None] == kind_ids[None, :])
            & (samples[:, None] != samples[None, :]))
    return np.nonzero(same)


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
    """Weighted sum of the windowed scores of the row pairs ``(ia, ib)`` of
    one stack, normally ``contrastive_pairs``; minimizing it repels
    same-type stacks of different samples."""
    ia, ib = pairs
    if beta == 0 or len(ia) == 0:
        return Tensor(0.0)
    return T.mul(T.tsum(windowed_bertscore(stack, stack, ia, ib, score_cfg)), beta)


def diversity_loss(stack, kinds, disc, gamma, train=False, rng=None):
    """Perturbation-classification loss over the rows of a generated stack,
    ``kinds[i]`` being the perturbation kind of row i.

    For each row the discriminator's softmax probability of the true kind
    is compared against the total probability of all other kinds; the log of
    that ratio (clamped so it stays finite) is summed and negated. Gradients
    reach both the encoder (through the pooled stacks) and the discriminator.
    """
    if gamma == 0:
        return Tensor(0.0)
    if not kinds:
        raise ValueError("diversity loss needs at least one row")
    logits = disc.forward(pooled_stack(stack), train=train, rng=rng)
    kind_ids = np.array([KIND_INDEX[kind] for kind in kinds])
    onehot = np.eye(N_KINDS, dtype=logits.data.dtype)[kind_ids]
    logit_true = T.tsum(T.mul(logits, onehot), axis=1)
    # log sum over the other kinds, computed by pushing the true kind to -inf
    lse_rest = T.logsumexp(T.add(logits, Tensor(onehot * -1e9)), axis=-1)
    ratio_log = T.clip(T.sub(logit_true, lse_rest), -_TERM_BOUND, _TERM_BOUND)
    return T.mul(T.tsum(ratio_log), -gamma)


def _sample_kinds(group, count, rng):
    kinds = group.available_kinds()
    k = min(count, len(kinds))
    picked = rng.choice(len(kinds), size=k, replace=False)
    return [kinds[i] for i in picked]


def refine(model, disc, groups, weights, cfg, score_cfg, vocab):
    """Joint training loop; mutates ``model`` and ``disc`` in place.

    Per batch: sample ``perturbations_per_sample`` kinds per group (without
    replacement, identity always eligible), encode every generated sequence
    in one graph, evaluate the three loss terms and take one AdamW step over
    encoder plus discriminator parameters. Returns per-step history rows.
    """
    if weights.all_zero():
        raise ValueError("all loss weights are zero; nothing to optimize")
    if not groups:
        raise ValueError("refinement corpus is empty")
    if not any(g.variants for g in groups):
        raise ValueError("refinement corpus has no perturbation variants")

    max_len = model.config.max_len
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params() + disc.named_params(), lr=cfg.lr,
                eps=cfg.adam_eps, weight_decay=cfg.weight_decay,
                warmup_steps=cfg.warmup_steps)

    target_model = model.clone() if cfg.target_mode == "frozen-init" else None
    target_cache = {}

    def target_for(group, kind):
        if cfg.target_mode == "frozen-init":
            key = (group.sample_id, kind)
            if key not in target_cache:
                seq = tokenize(group.variant_text(kind), vocab, max_len)
                with T.no_grad():
                    target_cache[key] = encode(target_model, seq)
            return target_cache[key]
        seq = tokenize(group.variant_text(kind), vocab, max_len)
        with T.no_grad():
            return encode(model, seq)

    history = []
    order = np.arange(len(groups))
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(groups), cfg.batch_size):
            batch = [groups[i] for i in order[start:start + cfg.batch_size]]
            chosen = [(bi, g, kind) for bi, g in enumerate(batch)
                      for kind in _sample_kinds(g, cfg.perturbations_per_sample, rng)]
            samples = [bi for bi, _, _ in chosen]
            kinds = [kind for _, _, kind in chosen]
            gen_seqs = [prepend_perturbation(tokenize(g.base, vocab, max_len), kind, vocab)
                        for _, g, kind in chosen]
            generated = encode_batch(model, gen_seqs, train=True, rng=rng)
            targets = EmbeddingStack.concat([target_for(g, kind) for _, g, kind in chosen])

            loss_r = reconstruction_loss(targets, generated, weights.alpha, score_cfg)
            loss_c = contrastive_loss(generated, contrastive_pairs(samples, kinds),
                                      weights.beta, score_cfg)
            loss_d = diversity_loss(generated, kinds, disc, weights.gamma,
                                    train=True, rng=rng)
            total = T.add(T.add(loss_r, loss_c), loss_d)
            T.backward(total)
            opt.step()
            history.append({"step": opt.step_count, "epoch": epoch,
                            "lr": opt.effective_lr(),
                            "loss_recon": loss_r.item(),
                            "loss_contrast": loss_c.item(),
                            "loss_diversity": loss_d.item(),
                            "loss_total": total.item()})
    return history


# ---------------------------------------------------------------------------
# no-collapse probes
# ---------------------------------------------------------------------------


def pooled_kind_dataset(model, groups, vocab, max_len):
    """Pooled generated stacks plus kind labels and sample ids, eval mode."""
    seqs, kinds, samples = [], [], []
    for g in groups:
        for kind in g.available_kinds():
            seqs.append(prepend_perturbation(tokenize(g.base, vocab, max_len), kind, vocab))
            kinds.append(KIND_INDEX[kind])
            samples.append(g.sample_id)
    with T.no_grad():
        feats = pooled_stack(encode_batch(model, seqs)).data
    return feats, np.array(kinds), samples


def kind_probe_accuracy(feats, labels, seed=0, holdout=0.25, epochs=300, lr=0.5):
    """Held-out accuracy of a fresh softmax-regression probe predicting the
    perturbation kind from pooled stacks. Plain numpy, independent of the
    training tape."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    order = rng.permutation(n)
    n_test = max(1, int(n * holdout))
    test, train = order[:n_test], order[n_test:]
    x = feats - feats.mean(axis=0)
    scale = x.std(axis=0)
    x = x / np.where(scale > 0, scale, 1.0)
    w = np.zeros((feats.shape[1], N_KINDS))
    b = np.zeros(N_KINDS)
    y = labels
    for _ in range(epochs):
        z = x[train] @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(train)), y[train]] -= 1.0
        w -= lr * (x[train].T @ p / len(train) + 1e-4 * w)
        b -= lr * p.mean(axis=0)
    pred = (x[test] @ w + b).argmax(axis=1)
    return float((pred == y[test]).mean())


def min_same_kind_distance(feats, labels, samples):
    """Smallest L2 distance between pooled stacks of different samples that
    share a perturbation kind; zero signals sample collapse."""
    best = np.inf
    for kind in range(N_KINDS):
        idx = np.nonzero(labels == kind)[0]
        for a, b in itertools.combinations(idx, 2):
            if samples[a] != samples[b]:
                best = min(best, float(np.linalg.norm(feats[a] - feats[b])))
    return best
