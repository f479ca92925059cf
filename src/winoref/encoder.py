"""Transformer encoder with a masked-LM head.

Pre-norm architecture: embeddings -> N blocks of (layer-norm, multi-head
self-attention, residual) and (layer-norm, feed-forward, residual) -> final
layer norm. The final-layer hidden states form the embedding stack consumed
by the similarity metric; padded rows are zeroed so downstream code never
sees pad content.
"""

import copy
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .config import check_choice, check_count, check_real, internal
from .optim import AdamW
from .tensor import Tensor


@dataclass
class EncoderConfig:
    layers: int = 4
    heads: int = 4
    model_dim: int = 128
    ff_dim: int = 512
    max_len: int = 48
    vocab_size: int = internal(0)
    dropout: float = 0.1
    tie_mlm_head: bool = True
    layer_norm_eps: float = internal(1e-5)
    init_scale: float = internal(0.02)

    def __post_init__(self):
        check_count("encoder.layers", self.layers, 0)   # 0: normed embeddings
        for key in ("heads", "model_dim", "ff_dim"):
            check_count(f"encoder.{key}", getattr(self, key), 1)
        check_count("encoder.max_len", self.max_len, 3)   # [CLS] word [SEP]
        check_count("encoder.vocab_size", self.vocab_size, 0)
        check_real("encoder.dropout", self.dropout, 0, 1, high_open=True)
        check_choice("encoder.tie_mlm_head", self.tie_mlm_head, (True, False))
        check_real("encoder.layer_norm_eps", self.layer_norm_eps, 0, low_open=True)
        check_real("encoder.init_scale", self.init_scale, 0)
        if self.model_dim % self.heads != 0:
            raise ValueError(f"encoder.model_dim must be divisible by encoder.heads "
                             f"{self.heads}, got {self.model_dim}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


class EncoderModel:
    """Parameter container plus config; all parameters are trainable leaves."""

    def __init__(self, config, seed=0):
        if config.vocab_size <= 0:
            raise ValueError("vocab_size must be set before building a model")
        self.config = config
        self.params = {}
        rng = np.random.default_rng(seed)
        s = config.init_scale
        d, f, v, L = config.model_dim, config.ff_dim, config.vocab_size, config.max_len

        def param(name, shape, init="normal"):
            if init == "normal":
                data = rng.normal(0.0, s, size=shape)
            elif init == "zeros":
                data = np.zeros(shape)
            elif init == "ones":
                data = np.ones(shape)
            self.params[name] = Tensor(data, requires_grad=True)

        param("tok_emb", (v, d))
        param("pos_emb", (L, d))
        for i in range(config.layers):
            for w in ("wq", "wk", "wv", "wo"):
                param(f"l{i}.attn.{w}", (d, d))
                param(f"l{i}.attn.{w}_b", (d,), "zeros")
            param(f"l{i}.ln1.g", (d,), "ones")
            param(f"l{i}.ln1.b", (d,), "zeros")
            param(f"l{i}.ff.w1", (d, f))
            param(f"l{i}.ff.b1", (f,), "zeros")
            param(f"l{i}.ff.w2", (f, d))
            param(f"l{i}.ff.b2", (d,), "zeros")
            param(f"l{i}.ln2.g", (d,), "ones")
            param(f"l{i}.ln2.b", (d,), "zeros")
        param("final_ln.g", (d,), "ones")
        param("final_ln.b", (d,), "zeros")
        param("mlm_bias", (v,), "zeros")
        if not config.tie_mlm_head:
            param("mlm_w", (d, v))

    def named_params(self):
        return list(self.params.items())

    def param_arrays(self):
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, named):
        for name, p in self.params.items():
            if name not in named:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if tuple(named[name].shape) != p.data.shape:
                raise ValueError(f"parameter {name!r}: checkpoint shape "
                                 f"{named[name].shape} != model shape {p.data.shape}")
            p.data = named[name].astype(p.data.dtype, copy=True)

    def clone(self):
        other = EncoderModel.__new__(EncoderModel)
        other.config = copy.deepcopy(self.config)
        other.params = {name: Tensor(p.data.copy(), requires_grad=True)
                        for name, p in self.params.items()}
        return other


@dataclass
class EmbeddingStack:
    """Final-layer hidden states for a batch of sequences, with their masks."""
    hidden: Tensor                 # (N, max_len, model_dim)
    attention_mask: np.ndarray     # (N, max_len) real-token positions
    content_mask: np.ndarray       # (N, max_len) ordinary word positions

    def eligible(self, include_special=False):
        """(N, max_len) mask of the positions that take part in similarity
        matching."""
        return self.attention_mask if include_special else self.content_mask

    @classmethod
    def concat(cls, stacks):
        """The rows of several stacks as one constant stack; no gradient
        flows back to the parts."""
        hidden = np.concatenate([s.hidden.data for s in stacks])
        return cls(hidden=Tensor(hidden, dtype=hidden.dtype),
                   attention_mask=np.concatenate([s.attention_mask for s in stacks]),
                   content_mask=np.concatenate([s.content_mask for s in stacks]))


def _dropout(x, rate, rng):
    if rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate).astype(x.data.dtype)
    return T.mul(x, keep / (1.0 - rate))


def _attention(h, mask_bias, cfg, p, i, train, rate, rng):
    B, L, d = h.data.shape
    heads = cfg.heads
    dh = d // heads

    def project(w):
        flat = T.matmul(T.reshape(h, (B * L, d)), p[f"l{i}.attn.{w}"])
        flat = T.add(flat, p[f"l{i}.attn.{w}_b"])
        per_head = T.reshape(flat, (B, L, heads, dh))
        return T.transpose(per_head, (0, 2, 1, 3))  # (B, H, L, dh)

    q, k, v = project("wq"), project("wk"), project("wv")
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    scores = T.mul(scores, 1.0 / np.sqrt(dh))
    scores = T.add(scores, mask_bias)            # -inf-ish at padded keys
    attn = T.softmax(scores, axis=-1)
    if train:
        attn = _dropout(attn, rate, rng)
    ctx = T.matmul(attn, v)                       # (B, H, L, dh)
    ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (B * L, d))
    out = T.add(T.matmul(ctx, p[f"l{i}.attn.wo"]), p[f"l{i}.attn.wo_b"])
    return T.reshape(out, (B, L, d))


def forward_hidden(model, ids, attention_mask, train=False, rng=None):
    """Hidden states for a batch: ids (B, L) ints, attention_mask (B, L) bool.

    Returns a (B, L, model_dim) tensor with padded rows zeroed.
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise T.ShapeError(f"forward expects a (batch, length) id array, got {ids.shape}")
    B, L = ids.shape
    if L != cfg.max_len:
        raise T.ShapeError(f"sequence length {L} does not match max_len {cfg.max_len}")
    if train and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")
    rate = cfg.dropout

    mask = np.asarray(attention_mask, dtype=p["tok_emb"].data.dtype).reshape(B, L)
    mask_bias = Tensor(((1.0 - mask) * -1e9).reshape(B, 1, 1, L))

    x = T.embedding_lookup(p["tok_emb"], ids)
    pos = T.reshape(p["pos_emb"], (1, L, cfg.model_dim))
    x = T.add(x, pos)
    if train:
        x = _dropout(x, rate, rng)

    for i in range(cfg.layers):
        h1 = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"], cfg.layer_norm_eps)
        a = _attention(h1, mask_bias, cfg, p, i, train, rate, rng)
        if train:
            a = _dropout(a, rate, rng)
        x = T.add(x, a)
        h2 = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"], cfg.layer_norm_eps)
        flat = T.reshape(h2, (B * L, cfg.model_dim))
        ff = T.add(T.matmul(flat, p[f"l{i}.ff.w1"]), p[f"l{i}.ff.b1"])
        ff = T.gelu(ff)
        ff = T.add(T.matmul(ff, p[f"l{i}.ff.w2"]), p[f"l{i}.ff.b2"])
        ff = T.reshape(ff, (B, L, cfg.model_dim))
        if train:
            ff = _dropout(ff, rate, rng)
        x = T.add(x, ff)

    x = T.layer_norm(x, p["final_ln.g"], p["final_ln.b"], cfg.layer_norm_eps)
    # zero pad rows so the stack is invariant to pad content
    return T.mul(x, mask.reshape(B, L, 1))


def _check_ids(model, ids):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= model.config.vocab_size):
        raise ValueError(f"token id out of range [0, {model.config.vocab_size}): "
                         f"max seen {ids.max()}")
    return ids


def encode_batch(model, seqs, train=False, rng=None):
    """Embedding stack of a list of TokenSequences, one row each, computed
    in one graph."""
    ids = _check_ids(model, np.stack([s.ids for s in seqs]))
    mask = np.stack([s.attention_mask for s in seqs])
    hidden = forward_hidden(model, ids, mask, train=train, rng=rng)
    return EmbeddingStack(hidden=hidden, attention_mask=mask,
                          content_mask=np.stack([s.content_mask for s in seqs]))


def encode(model, seq, train=False, rng=None):
    """One-row embedding stack for one sequence (deterministic in eval mode)."""
    return encode_batch(model, [seq], train=train, rng=rng)


def mlm_logits_batch(model, ids, attention_mask, train=False, rng=None):
    """Per-position vocabulary logits, (B, L, V)."""
    ids = _check_ids(model, ids)
    cfg = model.config
    hidden = forward_hidden(model, ids, attention_mask, train=train, rng=rng)
    B, L, d = hidden.data.shape
    flat = T.reshape(hidden, (B * L, d))
    if cfg.tie_mlm_head:
        w = T.transpose(model.params["tok_emb"], (1, 0))
    else:
        w = model.params["mlm_w"]
    logits = T.add(T.matmul(flat, w), model.params["mlm_bias"])
    return T.reshape(logits, (B, L, cfg.vocab_size))


def mlm_logits(model, seq):
    """Eval-mode logits for a single sequence, (L, V)."""
    with T.no_grad():
        out = mlm_logits_batch(model, seq.ids[None, :], seq.attention_mask[None, :])
    return T.reshape(out, (model.config.max_len, model.config.vocab_size))


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    warmup_steps: int = 50
    weight_decay: float = 0.01
    adam_eps: float = 1e-8
    mask_prob: float = 0.15
    seed: int = internal(0)

    def __post_init__(self):
        check_count("pretrain.epochs", self.epochs, 0)
        check_count("pretrain.batch_size", self.batch_size, 1)
        check_real("pretrain.lr", self.lr, 0, low_open=True)
        check_count("pretrain.warmup_steps", self.warmup_steps, 0)
        check_real("pretrain.weight_decay", self.weight_decay, 0)
        check_real("pretrain.adam_eps", self.adam_eps, 0, low_open=True)
        check_real("pretrain.mask_prob", self.mask_prob, 0, 1)
        check_count("pretrain.seed", self.seed, 0)

    def to_dict(self):
        return asdict(self)


def apply_mlm_masking(seqs, vocab, mask_prob, rng):
    """BERT-style corruption of a batch.

    Each content position is selected independently with ``mask_prob``;
    selected positions become [MASK] with p=0.8, a random word token with
    p=0.1, or stay unchanged with p=0.1. Returns (corrupted ids array,
    flat indices of selected positions, their original token ids).
    """
    ids = np.stack([s.ids for s in seqs])
    content = np.stack([s.content_mask for s in seqs])
    select = (rng.random(ids.shape) < mask_prob) & content
    flat_idx = np.nonzero(select.reshape(-1))[0]
    targets = ids.reshape(-1)[flat_idx].copy()

    corrupted = ids.copy()
    roll = rng.random(flat_idx.shape)
    pool = vocab.word_ids()
    randoms = pool[rng.integers(0, len(pool), size=flat_idx.shape)]
    flat = corrupted.reshape(-1)
    flat[flat_idx[roll < 0.8]] = vocab.mask_id
    swap = (roll >= 0.8) & (roll < 0.9)
    flat[flat_idx[swap]] = randoms[swap]
    return corrupted, flat_idx, targets


def pretrain_mlm(model, seqs, cfg, vocab):
    """Masked-LM training on a fixed set of sequences.

    Returns a history list of {"step", "lr", "loss"} rows, one per optimizer
    step. Deterministic for a fixed seed.
    """
    if not seqs:
        raise ValueError("pretraining corpus is empty")
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params(), lr=cfg.lr, eps=cfg.adam_eps,
                weight_decay=cfg.weight_decay, warmup_steps=cfg.warmup_steps)
    history = []
    order = np.arange(len(seqs))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(seqs), cfg.batch_size):
            batch = [seqs[i] for i in order[start:start + cfg.batch_size]]
            corrupted, flat_idx, targets = apply_mlm_masking(
                batch, vocab, cfg.mask_prob, rng)
            if flat_idx.size == 0:
                continue
            mask = np.stack([s.attention_mask for s in batch])
            logits = mlm_logits_batch(model, corrupted, mask, train=True, rng=rng)
            B, L, V = logits.data.shape
            picked = T.take(T.reshape(logits, (B * L, V)), flat_idx, axis=0)
            loss = T.cross_entropy(picked, targets)
            T.backward(loss)
            opt.step()
            history.append({"step": opt.step_count,
                            "lr": opt.effective_lr(),
                            "loss": loss.item()})
    return history


def masked_token_accuracy(model, seqs, vocab, limit=None, seed=0, batch_size=64):
    """Fraction of content positions whose token the model recovers when that
    single position is masked. ``limit`` caps the number of probed positions."""
    probes = []
    for s in seqs:
        for pos in np.nonzero(s.content_mask)[0]:
            probes.append((s, int(pos)))
    if limit is not None and len(probes) > limit:
        rng = np.random.default_rng(seed)
        keep = rng.choice(len(probes), size=limit, replace=False)
        probes = [probes[i] for i in sorted(keep)]
    correct = 0
    for start in range(0, len(probes), batch_size):
        chunk = probes[start:start + batch_size]
        ids = np.stack([s.ids for s, _ in chunk])
        truth = np.array([s.ids[pos] for s, pos in chunk])
        for r, (_, pos) in enumerate(chunk):
            ids[r, pos] = vocab.mask_id
        mask = np.stack([s.attention_mask for s, _ in chunk])
        with T.no_grad():
            logits = mlm_logits_batch(model, ids, mask)
        rows = logits.data[np.arange(len(chunk)), [pos for _, pos in chunk]]
        correct += int((rows.argmax(axis=1) == truth).sum())
    return correct / len(probes) if probes else 0.0
