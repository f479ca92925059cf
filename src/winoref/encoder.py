"""Transformer encoder with a masked-LM head tied to its token embeddings.

Pre-norm architecture: embeddings -> N blocks of (layer-norm, multi-head
self-attention, residual) and (layer-norm, feed-forward, residual) -> final
layer norm. The final-layer hidden states form the embedding stack consumed
by the similarity metric. The layers run on the real tokens only and pad
rows of the stack are zero, so downstream code never sees pad content. A
stack is as wide as its longest row, so no column past it costs any work.
"""

import copy
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .config import check_count, check_real, internal
from .optim import AdamW, check_finite_loss
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
    layer_norm_eps: float = internal(1e-5)
    init_scale: float = internal(0.02)

    def __post_init__(self):
        check_count("encoder.layers", self.layers, 0)   # 0: normed embeddings
        for key in ("heads", "model_dim", "ff_dim"):
            check_count(f"encoder.{key}", getattr(self, key), 1)
        check_count("encoder.max_len", self.max_len, 3)   # [CLS] word [SEP]
        check_count("encoder.vocab_size", self.vocab_size, 0)
        check_real("encoder.dropout", self.dropout, 0, 1, high_open=True)
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

    def __init__(self, config, seed):
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

    def named_params(self):
        return list(self.params.items())

    def param_arrays(self):
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, named):
        """Set every parameter from ``named``, cast to the model's dtype. A
        missing, extra, misshapen, non-float or non-finite parameter is
        rejected, and the error names it."""
        extra = sorted(set(named) - set(self.params))
        if extra:
            raise ValueError(f"checkpoint has parameters the model does not: {extra}")
        for name, p in self.params.items():
            if name not in named:
                raise ValueError(f"checkpoint missing parameter {name!r}")
            if tuple(named[name].shape) != p.data.shape:
                raise ValueError(f"parameter {name!r}: checkpoint shape "
                                 f"{named[name].shape} != model shape {p.data.shape}")
            if named[name].dtype.kind != "f":
                raise ValueError(f"parameter {name!r}: checkpoint dtype "
                                 f"{named[name].dtype} is not a floating-point type")
            data = named[name].astype(p.data.dtype, copy=True)
            if not np.isfinite(data).all():
                raise ValueError(f"parameter {name!r} holds a NaN or infinite value")
            p.data = data

    def clone(self):
        other = EncoderModel.__new__(EncoderModel)
        other.config = copy.deepcopy(self.config)
        other.params = {name: Tensor(p.data.copy(), requires_grad=True)
                        for name, p in self.params.items()}
        return other


@dataclass
class EmbeddingStack:
    """Final-layer hidden states for a batch of sequences, with the mask of
    their word positions, the ones similarity matching reads."""
    hidden: Tensor                 # (N, n, model_dim), n one past the longest row
    content_mask: np.ndarray       # (N, n) ordinary word positions

    def select(self, rows):
        """Rows ``rows`` as a constant stack, (len(rows), n, model_dim) with n
        one past the longest of them; no gradient flows back. A column past
        it holds only pads, zero states that are no word of any row."""
        content = self.content_mask[rows]
        hidden = self.hidden.data[rows]
        n = _width(content | hidden.any(axis=2))
        return EmbeddingStack(hidden=Tensor(hidden[:, :n], dtype=hidden.dtype),
                              content_mask=content[:, :n])


def _width(used):
    """One past the last column of the (B, L) mask ``used`` that any row
    uses; 1 when none does."""
    return int(np.flatnonzero(used.any(axis=0)).max(initial=0)) + 1


def _keep_mask(rate, rng, shape, index, dtype):
    """Inverted dropout's keep mask, scaled by 1/(1 - rate); None when
    ``rate`` drops nothing. The mask is drawn at ``shape``, the untrimmed,
    unpacked shape of what it scales, and ``index`` picks the entries, so
    the random stream and every kept entry do not depend on how far the
    batch was trimmed or how many of its positions are pads."""
    if rate <= 0.0:
        return None
    keep = (rng.random(shape)[index] >= rate).astype(dtype)
    return keep / (1.0 - rate)


def _dropout(x, rate, rng, shape, index):
    """Inverted dropout of ``x`` with the mask of ``_keep_mask``."""
    keep = _keep_mask(rate, rng, shape, index, x.data.dtype)
    return x if keep is None else T.mul(x, keep)


def _attention(h, queries, trimmed, mask_bias, cfg, p, i, train, rate, rng):
    """Self-attention over packed rows ``h`` (T, d), the real tokens of the
    (B, n) mask ``trimmed``, for the query rows at the true entries of
    ``queries``, a subset of them: the q, k, v and output projections
    around ``T.attention``, which holds the core as one tape node. Its
    forward reuses ``T.matmul``, ``T.mul``, ``T.add`` and ``T.softmax``, and
    its backward reproduces theirs, on the (B, n, H, dh) grids the separate
    ops used, because BLAS may round another layout's products differently;
    so every bit is theirs. Attention dropout's mask is drawn here, at
    (B, heads, max_len, max_len)."""
    B, n = trimmed.shape

    def project(w, rows):
        return T.linear(rows, p[f"l{i}.attn.{w}"], p[f"l{i}.attn.{w}_b"])

    drop = None
    if train:
        drop = _keep_mask(rate, rng, (B, cfg.heads, cfg.max_len, cfg.max_len),
                          np.s_[:, :, :n, :n], h.data.dtype)
    ctx = T.attention(project("wq", _pick(h, queries[trimmed])), project("wk", h),
                      project("wv", h), trimmed, queries, cfg.heads, mask_bias, drop)
    return project("wo", ctx)


def _pick(x, sel):
    """The packed rows of ``x`` that the boolean ``sel`` picks; ``x`` itself
    when it picks them all."""
    return x if sel.all() else T.gather_rows(x, sel)


def forward_hidden(model, ids, attention_mask, train=False, rng=None, rows=None):
    """Hidden states for a batch: ids (B, L) ints, attention_mask (B, L) bool.

    Returns a (B, n, model_dim) tensor whose pad rows are zero, n one past
    the last column any row attends to, the length of the longest row. Every
    layer but the attention core runs on the T real-token rows of the batch
    only, packed into one (T, model_dim) stream in row-major order; the
    final rows are scattered into a zero stack, so pad content never reaches
    the output. The attention core runs on the first n columns too: a later
    column is a masked key everywhere, and its weight is exactly zero.
    Softmax adds its keys in order, so in eval mode a row's bits depend
    neither on n nor on the other rows.

    ``rows``, flat indices into the B*L positions (row-major), are the rows
    the caller reads; None reads them all. The last block needs every real
    row for its keys and values only, so its queries and all its row-wise
    work after the attention core run on the real rows among ``rows``, and
    every other row of the result is zero, like a pad row. The stack then
    also spans the columns of ``rows``, so a pad row asked for past the
    longest row is in it.
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
    n = _width(real)
    out, width = real, n
    if rows is not None:
        rows = np.asarray(rows)
        asked = np.zeros(B * L, dtype=bool)
        asked[rows] = True
        out = real & asked.reshape(B, L)
        width = max(n, int((rows % L).max(initial=-1)) + 1)
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
    return T.scatter_rows(x, out[:, :width])


def encode_batch(model, rows, train=False, rng=None):
    """Embedding stack of a list of id rows, one stack row each, computed
    in one graph: (N, n, model_dim), n one past the longest row."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    hidden = forward_hidden(model, ids, attention, train=train, rng=rng)
    return EmbeddingStack(hidden=hidden, content_mask=content[:, :hidden.shape[1]])


# rows per forward in ``encode``, and distinct masked rows per forward in
# ``evaluate.evaluate``; bounds their memory on a large corpus or benchmark
ENCODE_CHUNK = 64


def encode(model, rows):
    """Eval-mode embedding stack of a batch of id rows, built without a tape
    and forwarded ``ENCODE_CHUNK`` rows at a time: (N, n, model_dim), n one
    past the longest row of the whole batch. A chunk narrower than that is
    padded with +0.0, as a pad row of a wider forward is."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    n = _width(attention)

    def chunk(i):
        h = forward_hidden(model, ids[i:i + ENCODE_CHUNK],
                           attention[i:i + ENCODE_CHUNK]).data
        return np.pad(h, ((0, 0), (0, n - h.shape[1]), (0, 0)))

    with T.no_grad():
        hidden = np.concatenate([chunk(i) for i in range(0, len(ids), ENCODE_CHUNK)])
    return EmbeddingStack(hidden=Tensor(hidden, dtype=hidden.dtype),
                          content_mask=content[:, :n])


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
    """Vocabulary logits at the given rows, (len(rows), V). The head is the
    token embedding table transposed, plus one bias per token.

    ``rows`` are flat indices into the B*L positions of ``ids`` (row-major,
    so position j of sequence b is b*L + j). The forward runs its last
    block on those rows only, and only they go through the head, so the
    (d, V) projection and its backward cost R rows, not B*L. Its (B, n, d)
    stack holds position j of sequence b at b*n + j.
    """
    rows = _check_rows(rows, np.size(ids))
    hidden = forward_hidden(model, ids, attention_mask, train=train, rng=rng,
                            rows=rows)
    B, n, d = hidden.data.shape
    L = model.config.max_len
    picked = T.take(T.reshape(hidden, (B * n, d)), rows - rows // L * (L - n))
    w = T.transpose(model.params["tok_emb"], (1, 0))
    return T.linear(picked, w, model.params["mlm_bias"])


@dataclass
class PretrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    warmup_steps: int = 50
    weight_decay: float = 0.01
    mask_prob: float = 0.15
    seed: int = internal(0)

    def __post_init__(self):
        check_count("pretrain.epochs", self.epochs, 0)
        check_count("pretrain.batch_size", self.batch_size, 1)
        check_real("pretrain.lr", self.lr, 0, low_open=True)
        check_count("pretrain.warmup_steps", self.warmup_steps, 0)
        check_real("pretrain.weight_decay", self.weight_decay, 0)
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
    step. Deterministic for a fixed seed. A non-finite loss raises
    ValueError before its step updates the model.
    """
    if len(rows) == 0:
        raise ValueError("pretraining corpus is empty")
    rows = np.stack(rows)
    rng = np.random.default_rng(cfg.seed)
    opt = AdamW(model.named_params(), lr=cfg.lr, weight_decay=cfg.weight_decay,
                warmup_steps=cfg.warmup_steps)
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
            value = loss.item()
            check_finite_loss("pretraining", value, opt.step_count + 1)
            T.backward(loss)
            opt.step()
            history.append({"step": opt.step_count,
                            "lr": opt.effective_lr(),
                            "loss": value})
    return history
