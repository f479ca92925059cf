"""Transformer encoder with a masked-LM head.

Pre-norm architecture: embeddings -> N blocks of (layer-norm, multi-head
self-attention, residual) and (layer-norm, feed-forward, residual) -> final
layer norm. The final-layer hidden states form the embedding stack consumed
by the similarity metric. The layers run on the real tokens only and pad
rows of the stack are zero, so downstream code never sees pad content.
"""

import copy
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .config import check_choice, check_count, check_real, internal
from .optim import AdamW
from .tensor import Tensor
from .text import FIRST_WORD_ID, MASK_ID, row_masks


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
        """The config a checkpoint's ``encoder_config`` object holds; a key
        that is not a field is rejected."""
        if not isinstance(d, dict):
            raise ValueError(f"encoder_config must be an object, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"encoder_config has unknown keys {unknown}")
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
        extra = sorted(set(named) - set(self.params))
        if extra:
            raise ValueError(f"checkpoint has parameters the model does not: {extra}")
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

    def select(self, rows):
        """Rows ``rows`` as a constant stack; no gradient flows back."""
        hidden = self.hidden.data[rows]
        return EmbeddingStack(hidden=Tensor(hidden, dtype=hidden.dtype),
                              attention_mask=self.attention_mask[rows],
                              content_mask=self.content_mask[rows])


def _dropout(x, rate, rng, shape, index):
    """Inverted dropout. The mask is drawn at ``shape``, the untrimmed,
    unpacked shape of ``x``, and ``index`` picks ``x``'s entries from it, so
    the random stream and every kept entry do not depend on how far the
    batch was trimmed or how many of its positions are pads."""
    if rate <= 0.0:
        return x
    keep = (rng.random(shape)[index] >= rate).astype(x.data.dtype)
    return T.mul(x, keep / (1.0 - rate))


def _attention(h, queries, trimmed, mask_bias, cfg, p, i, train, rate, rng):
    """Self-attention over packed rows ``h`` (T, d), the real tokens of the
    (B, n) mask ``trimmed``, for the query rows at the true entries of
    ``queries``, a subset of them. The attention core runs on the
    (B, H, n, dh) grid: q, k and v are scattered into it, zero at the
    positions they do not cover, and the context is gathered back at the
    query rows."""
    B, n = trimmed.shape
    d = h.data.shape[1]
    heads = cfg.heads
    dh = d // heads

    def project(w, rows, keep):
        flat = T.linear(rows, p[f"l{i}.attn.{w}"], p[f"l{i}.attn.{w}_b"])
        grid = T.reshape(T.scatter_rows(flat, keep), (B, n, heads, dh))
        return T.transpose(grid, (0, 2, 1, 3))  # (B, H, n, dh)

    q = project("wq", _pick(h, queries[trimmed]), queries)
    k, v = project("wk", h, trimmed), project("wv", h, trimmed)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2)))
    scores = T.mul(scores, 1.0 / np.sqrt(dh))
    scores = T.add(scores, mask_bias)            # -inf-ish at padded keys
    attn = T.softmax(scores)
    if train:
        attn = _dropout(attn, rate, rng, (B, heads, cfg.max_len, cfg.max_len),
                        np.s_[:, :, :n, :n])
    ctx = T.transpose(T.matmul(attn, v), (0, 2, 1, 3))   # (B, n, H, dh)
    ctx = T.reshape(T.gather_rows(ctx, queries), (-1, d))
    return T.linear(ctx, p[f"l{i}.attn.wo"], p[f"l{i}.attn.wo_b"])


def _pick(x, sel):
    """The packed rows of ``x`` that the boolean ``sel`` picks; ``x`` itself
    when it picks them all."""
    return x if sel.all() else T.gather_rows(x, sel)


def forward_hidden(model, ids, attention_mask, train=False, rng=None, rows=None):
    """Hidden states for a batch: ids (B, L) ints, attention_mask (B, L) bool.

    Returns a (B, L, model_dim) tensor whose pad rows are zero. Every layer
    but the attention core runs on the T real-token rows of the batch only,
    packed into one (T, model_dim) stream in row-major order; the final rows
    are scattered into a zero stack, so pad content never reaches the output.
    The attention core runs on the first n columns, n one past the last
    column any row attends to: a later column is a masked key everywhere,
    and its weight is exactly zero. Softmax adds its keys in order, so in
    eval mode a row's bits depend neither on n nor on the other rows.

    ``rows``, flat indices into the B*L positions (row-major), are the rows
    the caller reads; None reads them all. The last block needs every real
    row for its keys and values only, so its queries and all its row-wise
    work after the attention core run on the real rows among ``rows``, and
    every other row of the result is zero, like a pad row.
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
    full = (B, L, cfg.model_dim)

    real = np.asarray(attention_mask, dtype=bool).reshape(B, L)
    out = real
    if rows is not None:
        out = np.zeros(B * L, dtype=bool)
        out[rows] = True
        out = real & out.reshape(B, L)
    n = int(np.flatnonzero(real.any(axis=0)).max(initial=0)) + 1
    trimmed = real[:, :n]
    mask = trimmed.astype(p["tok_emb"].data.dtype)
    mask_bias = Tensor(((1.0 - mask) * -1e9).reshape(B, 1, 1, n))

    # the position rows are added on the (B, L, d) grid: the backward sums
    # its batch axis in order, the bits np.add.at gives over the packed rows
    x = T.add(T.scatter_rows(T.embedding_lookup(p["tok_emb"], ids[real]), real),
              p["pos_emb"])
    x = T.gather_rows(x, real)
    if train:
        x = _dropout(x, rate, rng, full, real)

    for i in range(cfg.layers):
        # the last block runs on the rows the caller reads; its keys and
        # values still come from every real row
        keep = out if i == cfg.layers - 1 else real
        h1 = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"], cfg.layer_norm_eps)
        a = _attention(h1, keep[:, :n], trimmed, mask_bias, cfg, p, i,
                       train, rate, rng)
        if train:
            a = _dropout(a, rate, rng, full, keep)
        x = T.add(_pick(x, keep[real]), a)
        h2 = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"], cfg.layer_norm_eps)
        ff = T.gelu(T.linear(h2, p[f"l{i}.ff.w1"], p[f"l{i}.ff.b1"]))
        ff = T.linear(ff, p[f"l{i}.ff.w2"], p[f"l{i}.ff.b2"])
        if train:
            ff = _dropout(ff, rate, rng, full, keep)
        x = T.add(x, ff)

    if not cfg.layers:
        x = _pick(x, out[real])    # with no block, the final norm narrows
    x = T.layer_norm(x, p["final_ln.g"], p["final_ln.b"], cfg.layer_norm_eps)
    return T.scatter_rows(x, out)


def encode_batch(model, rows, train=False, rng=None):
    """Embedding stack of a list of id rows, one stack row each, computed
    in one graph."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    hidden = forward_hidden(model, ids, attention, train=train, rng=rng)
    return EmbeddingStack(hidden=hidden, attention_mask=attention,
                          content_mask=content)


# rows per forward in ``encode``; bounds its memory on a large corpus
ENCODE_CHUNK = 64


def encode(model, rows):
    """Eval-mode embedding stack of a batch of id rows, built without a tape
    and forwarded ``ENCODE_CHUNK`` rows at a time."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    with T.no_grad():
        hidden = np.concatenate([
            forward_hidden(model, ids[i:i + ENCODE_CHUNK],
                           attention[i:i + ENCODE_CHUNK]).data
            for i in range(0, len(ids), ENCODE_CHUNK)])
    return EmbeddingStack(hidden=Tensor(hidden, dtype=hidden.dtype),
                          attention_mask=attention, content_mask=content)


def _check_rows(rows, n):
    rows = np.asarray(rows)
    if rows.ndim != 1 or rows.dtype.kind not in "iu":
        raise ValueError(f"rows must be a 1-d integer array, got {rows.dtype} "
                         f"of shape {rows.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError(f"rows out of range [0, {n}): min {rows.min()}, "
                         f"max {rows.max()}")
    return rows.astype(np.int64, copy=False)


def mlm_logits_batch(model, ids, attention_mask, rows, train=False, rng=None):
    """Vocabulary logits at the given rows, (len(rows), V).

    ``rows`` are flat indices into the B*L positions of ``ids`` (row-major,
    so position j of sequence b is b*L + j). The forward runs its last
    block on those rows only, and only they go through the head, so the
    (d, V) projection and its backward cost R rows, not B*L.
    """
    rows = _check_rows(rows, np.size(ids))
    cfg = model.config
    hidden = forward_hidden(model, ids, attention_mask, train=train, rng=rng,
                            rows=rows)
    B, L, d = hidden.data.shape
    picked = T.take(T.reshape(hidden, (B * L, d)), rows)
    if cfg.tie_mlm_head:
        w = T.transpose(model.params["tok_emb"], (1, 0))
    else:
        w = model.params["mlm_w"]
    return T.linear(picked, w, model.params["mlm_bias"])


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


def apply_mlm_masking(rows, vocab, mask_prob, rng):
    """BERT-style corruption of a batch of id rows.

    Each content position is selected independently with ``mask_prob``;
    selected positions become [MASK] with p=0.8, a random word token with
    p=0.1, or stay unchanged with p=0.1. Returns (corrupted ids array,
    flat indices of selected positions, their original token ids).
    """
    ids = np.stack(rows)
    select = (rng.random(ids.shape) < mask_prob) & row_masks(ids)[1]
    flat_idx = np.nonzero(select.reshape(-1))[0]
    targets = ids.reshape(-1)[flat_idx].copy()

    corrupted = ids.copy()
    roll = rng.random(flat_idx.shape)
    pool = np.arange(FIRST_WORD_ID, len(vocab))
    randoms = pool[rng.integers(0, len(pool), size=flat_idx.shape)]
    flat = corrupted.reshape(-1)
    flat[flat_idx[roll < 0.8]] = MASK_ID
    swap = (roll >= 0.8) & (roll < 0.9)
    flat[flat_idx[swap]] = randoms[swap]
    return corrupted, flat_idx, targets


def pretrain_mlm(model, rows, cfg, vocab):
    """Masked-LM training on a fixed list of id rows.

    Returns a history list of {"step", "lr", "loss"} rows, one per optimizer
    step. Deterministic for a fixed seed.
    """
    if len(rows) == 0:
        raise ValueError("pretraining corpus is empty")
    rows = np.stack(rows)
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params(), lr=cfg.lr, eps=cfg.adam_eps,
                weight_decay=cfg.weight_decay, warmup_steps=cfg.warmup_steps)
    history = []
    order = np.arange(len(rows))
    for _ in range(cfg.epochs):
        rng.shuffle(order)
        for start in range(0, len(rows), cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            corrupted, flat_idx, targets = apply_mlm_masking(
                batch, vocab, cfg.mask_prob, rng)
            if flat_idx.size == 0:
                continue
            logits = mlm_logits_batch(model, corrupted, row_masks(batch)[0], flat_idx,
                                      train=True, rng=rng)
            loss = T.cross_entropy(logits, targets)
            T.backward(loss)
            opt.step()
            history.append({"step": opt.step_count,
                            "lr": opt.effective_lr(),
                            "loss": loss.item()})
    return history
