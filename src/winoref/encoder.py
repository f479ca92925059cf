"""Transformer encoder with a masked-LM head tied to its token embeddings.

Pre-norm architecture: embeddings -> N blocks of (layer-norm, multi-head
self-attention, residual) and (layer-norm, feed-forward, residual) -> final
layer norm. The final-layer hidden states form the embedding stack consumed
by the similarity metric. The layers run on the real tokens only and pad
rows of the stack are zero, so downstream code never sees pad content. A
stack is as wide as its longest row, so no column past it costs any work.
"""

import copy
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import tensor as T
from .config import check_count, check_real, internal
from .optim import AdamW, check_finite_loss
from .tensor import Tensor
from .text import FIRST_WORD_ID, MASK_ID, row_masks


# the largest encoder, checked before any array is allocated, as training
# holds four float64 copies of the parameters (1.6 GB at the cap); the most
# values one array of a training step may hold, 1 GiB as float64, checked
# before each phase's first step from its real rows (``check_step``)
MAX_PARAMS = 50_000_000
MAX_LEN = 512
MAX_STEP_VALUES = 2**27
# the standard deviation of every drawn weight, the encoder's and the
# discriminator's, as in BERT
INIT_SCALE = 0.02


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
    init_scale: float = internal(INIT_SCALE)

    def __post_init__(self):
        check_count("encoder.layers", self.layers, 0)   # 0: normed embeddings
        for key in ("heads", "model_dim", "ff_dim"):
            check_count(f"encoder.{key}", getattr(self, key), 1)
        check_count("encoder.max_len", self.max_len, 3)   # [CLS] word [SEP]
        check_real("encoder.max_len", self.max_len, 3, MAX_LEN)
        check_count("encoder.vocab_size", self.vocab_size, 0)
        check_real("encoder.dropout", self.dropout, 0, 1, high_open=True)
        check_real("encoder.layer_norm_eps", self.layer_norm_eps, 0, low_open=True)
        check_real("encoder.init_scale", self.init_scale, 0)
        if self.model_dim % self.heads != 0:
            raise ValueError(f"encoder.model_dim must be divisible by encoder.heads "
                             f"{self.heads}, got {self.model_dim}")
        # the table without blocks, plus every block the size of block 0
        outer, one = (sum(math.prod(shape) for _, shape, _ in _param_table(self, b))
                      for b in ((), (0,)))
        count = outer + self.layers * (one - outer)
        if count > MAX_PARAMS:
            raise ValueError(f"the encoder would hold {count} parameters, over the cap "
                             f"of {MAX_PARAMS}: lower encoder.model_dim, "
                             f"encoder.ff_dim or encoder.layers")

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


def _param_table(cfg, blocks):
    """(name, shape, fill) of each parameter of ``cfg``'s encoder with blocks
    ``blocks``, in draw order; a fill of None is a draw from N(0, init_scale)."""
    d, f, v = cfg.model_dim, cfg.ff_dim, cfg.vocab_size
    table = [("tok_emb", (v, d), None), ("pos_emb", (cfg.max_len, d), None)]
    for i in blocks:
        for w in ("wq", "wk", "wv", "wo"):
            table += [(f"l{i}.attn.{w}", (d, d), None), (f"l{i}.attn.{w}_b", (d,), 0.0)]
        table += [(f"l{i}.ln1.g", (d,), 1.0), (f"l{i}.ln1.b", (d,), 0.0),
                  (f"l{i}.ff.w1", (d, f), None), (f"l{i}.ff.b1", (f,), 0.0),
                  (f"l{i}.ff.w2", (f, d), None), (f"l{i}.ff.b2", (d,), 0.0),
                  (f"l{i}.ln2.g", (d,), 1.0), (f"l{i}.ln2.b", (d,), 0.0)]
    return table + [("final_ln.g", (d,), 1.0), ("final_ln.b", (d,), 0.0),
                    ("mlm_bias", (v,), 0.0)]


def draw_params(table, scale, seed):
    """Trainable parameters from a (name, shape, fill) table, in its order; a
    fill of None is a draw from N(0, ``scale``) of the generator of ``seed``."""
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(0.0, scale, size=shape) if fill is None
                         else np.full(shape, fill), requires_grad=True)
            for name, shape, fill in table}


class EncoderModel:
    """Parameter container plus config; all parameters are trainable leaves."""

    def __init__(self, config, seed):
        if config.vocab_size <= 0:
            raise ValueError("vocab_size must be set before building a model")
        self.config = config
        self.params = draw_params(_param_table(config, range(config.layers)),
                                  config.init_scale, seed)

    def named_params(self):
        return list(self.params.items())

    def param_arrays(self):
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, named):
        """Set every parameter from ``named``, cast to the model's dtype, by
        writing into the parameter's own array, so an optimizer's views of
        it stay bound. A missing, extra, misshapen, non-float or non-finite
        parameter is rejected, naming it, before any parameter is written."""
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
            with np.errstate(over="ignore"):   # an overflow is rejected below
                cast = named[name].astype(p.data.dtype, copy=False)
            if not np.isfinite(cast).all():
                raise ValueError(f"parameter {name!r} holds a NaN or infinite value")
        for name, p in self.params.items():
            p.data[...] = named[name]

    def detached(self):
        """The model with each parameter a constant that shares its array, no
        copy and no gradient buffer: a forward of it builds no tape."""
        view = copy.copy(self)
        view.params = {name: Tensor(p.data, dtype=p.data.dtype)
                       for name, p in self.params.items()}
        return view

    def clone(self):
        other = EncoderModel.__new__(EncoderModel)
        other.config = copy.deepcopy(self.config)
        other.params = {name: Tensor(p.data.copy(), requires_grad=True,
                                     dtype=p.data.dtype)
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


def _encoder_arrays(cfg, rows, longest):
    """(shape, key) of the largest arrays an encoder forward and backward of
    ``rows`` id rows, none over ``longest`` real tokens, builds before any
    head, each sized by its key: each block's attention scores and
    feed-forward hidden, and the packed rows. Each grows linearly with
    ``rows``."""
    tokens = rows * longest
    arrays = [((tokens, cfg.model_dim), "encoder.model_dim")]
    if cfg.layers:
        arrays = [((rows, cfg.heads, longest, longest), "encoder.heads"), *arrays,
                  ((tokens, cfg.ff_dim), "encoder.ff_dim")]
    return arrays


def check_cap(arrays, batch, what="a training step"):
    """Reject the first (shape, key) of ``arrays`` over ``MAX_STEP_VALUES``
    values that ``what`` would build, naming ``batch``, the keys that set
    its rows, and its key."""
    for shape, key in arrays:
        if math.prod(shape) > MAX_STEP_VALUES:
            keys = f"{batch} or {key}" if key else batch
            raise ValueError(f"{what} would build an array of shape {shape}, "
                             f"over the cap of {MAX_STEP_VALUES} values: lower {keys}")


def check_step(cfg, rows, longest, batch, disc_hidden=None):
    """Reject a training phase whose steps of ``rows`` id rows (set by the keys
    ``batch``), none over ``longest`` real tokens, could build an array of
    over ``MAX_STEP_VALUES`` values, at any dropout rate: the encoder's
    (``_encoder_arrays``), or pretraining's head logits or, given
    ``disc_hidden``, refine's discriminator hidden."""
    head = (((rows * longest, cfg.vocab_size), None) if disc_hidden is None
            else ((rows, disc_hidden), "refine.disc_hidden"))
    check_cap([*_encoder_arrays(cfg, rows, longest), head], batch)


def _attention(h, queries, trimmed, cfg, p, i, rate, rng):
    """Self-attention over packed rows ``h`` (T, d), the real tokens of the
    (B, n) mask ``trimmed``, for the query rows at the true entries of
    ``queries``, a subset of them: the q, k, v and output projections
    around ``T.attention``, which holds the core as one tape node. Its
    forward reuses ``T.matmul`` and ``T.softmax``, scaling and masking the
    scores in place between them, and its backward reproduces the separate
    ops', on grids laid out as theirs were, because BLAS may round another
    layout's products differently.
    Each row's queries fill the first of at least two query slots, so the
    last block, whose queries are a few of its rows, attends from those
    slots only; two, because one slot would send the products to routines
    that round otherwise. ``T.attention`` also draws the dropout mask of the
    attention weights, at ``rate``."""

    def project(w, rows):
        return T.linear(rows, p[f"l{i}.attn.{w}"], p[f"l{i}.attn.{w}_b"])

    ctx = T.attention(project("wq", _pick(h, queries[trimmed])), project("wk", h),
                      project("wv", h), trimmed, queries, cfg.heads, rate, rng)
    return project("wo", ctx)


def _pick(x, sel):
    """The packed rows of ``x`` that the boolean ``sel`` picks; ``x`` itself
    when it picks them all."""
    return x if sel.all() else T.gather_rows(x, sel)


def forward_hidden(model, ids, attention_mask, rng=None, rows=None):
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

    ``rows``, a (B, L) bool mask, marks the rows the caller reads; None
    reads them all. The last block needs every real row for its keys and
    values only, so its queries and all its row-wise work after the
    attention core run on the real rows among ``rows``, and every other row
    of the result is zero, like a pad row. Its attention core attends from
    query slots, each row's queries first, as many as the most any row has
    but at least two (``T.attention``), not from all n columns. The stack
    then also spans the columns of ``rows``, so a pad row asked for past
    the longest row is in it.

    Given ``rng``, a training forward draws each dropout mask from it at
    the shape of the packed rows or attention weights it scales, so neither
    outgrows the step's real rows, which ``check_step`` bounds before a
    training phase's first step.
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2:
        raise T.ShapeError(f"forward expects a (batch, length) id array, got {ids.shape}")
    B, L = ids.shape
    if L != cfg.max_len:
        raise T.ShapeError(f"sequence length {L} does not match max_len {cfg.max_len}")
    rate = 0.0 if rng is None else cfg.dropout

    real = np.asarray(attention_mask, dtype=bool).reshape(B, L)
    asked = real if rows is None else np.asarray(rows)
    if asked.shape != (B, L) or asked.dtype != bool:
        raise T.ShapeError(f"rows must be a bool mask of shape {(B, L)}, got "
                           f"{asked.dtype} of shape {asked.shape}")
    out = real & asked
    n, width = _width(real), _width(real | asked)
    trimmed = real[:, :n]

    x = T.add(T.embedding_lookup(p["tok_emb"], ids[real]),
              T.embedding_lookup(p["pos_emb"], np.nonzero(real)[1]))
    x = T.dropout(x, rate, rng)

    for i in range(cfg.layers):
        # the last block runs on the rows the caller reads; its keys and
        # values still come from every real row
        keep = out if i == cfg.layers - 1 else real
        h1 = T.layer_norm(x, p[f"l{i}.ln1.g"], p[f"l{i}.ln1.b"], cfg.layer_norm_eps)
        a = _attention(h1, keep[:, :n], trimmed, cfg, p, i, rate, rng)
        a = T.dropout(a, rate, rng)
        x = T.add(_pick(x, keep[real]), a)
        h2 = T.layer_norm(x, p[f"l{i}.ln2.g"], p[f"l{i}.ln2.b"], cfg.layer_norm_eps)
        ff = T.gelu(T.linear(h2, p[f"l{i}.ff.w1"], p[f"l{i}.ff.b1"]))
        ff = T.linear(ff, p[f"l{i}.ff.w2"], p[f"l{i}.ff.b2"])
        ff = T.dropout(ff, rate, rng)
        x = T.add(x, ff)

    if not cfg.layers:
        x = _pick(x, out[real])    # with no block, the final norm narrows
    x = T.layer_norm(x, p["final_ln.g"], p["final_ln.b"], cfg.layer_norm_eps)
    return T.scatter_rows(x, out[:, :width])


def encode_batch(model, rows, rng=None):
    """Embedding stack of id rows in one graph, a training forward given
    ``rng``: (N, n, model_dim), n one past the longest row."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    hidden = forward_hidden(model, ids, attention, rng=rng)
    return EmbeddingStack(hidden=hidden, content_mask=content[:, :hidden.shape[1]])


# the most rows per forward in ``encode``, and distinct masked rows per
# forward in ``evaluate.evaluate``; bounds their memory on a large corpus or
# benchmark
ENCODE_CHUNK = 64


def block_rows(cfg, longest, least=1):
    """Rows per eval forward of rows none over ``longest`` real tokens: at
    most ``ENCODE_CHUNK``, and no more than keep each of the encoder's
    arrays that ``check_step`` bounds under ``MAX_STEP_VALUES``. A block of
    ``least`` rows over that cap fails as ``check_step`` does."""
    check_cap(_encoder_arrays(cfg, least, longest), "encoder.max_len",
              "an eval forward")
    one = max(1, *(math.prod(shape) for shape, _ in _encoder_arrays(cfg, 1, longest)))
    return min(ENCODE_CHUNK, MAX_STEP_VALUES // one)


def encode(model, rows):
    """Eval-mode embedding stack of a batch of id rows, forwarded on
    ``model.detached()``, so without a tape, ``block_rows`` rows at a time:
    (N, n, model_dim), n one past the longest row of the whole batch. A block
    narrower than that is padded with +0.0, as a pad row of a wider forward is."""
    ids = np.stack(rows)
    attention, content = row_masks(ids)
    n = _width(attention)
    size = block_rows(model.config, n)
    view = model.detached()

    def chunk(i):
        h = forward_hidden(view, ids[i:i + size], attention[i:i + size]).data
        return np.pad(h, ((0, 0), (0, n - h.shape[1]), (0, 0)))

    hidden = np.concatenate([chunk(i) for i in range(0, len(ids), size)])
    return EmbeddingStack(hidden=Tensor(hidden, dtype=hidden.dtype),
                          content_mask=content[:, :n])


def mlm_logits_batch(model, ids, rows, rng=None):
    """Vocabulary logits at the true entries of the (B, L) bool mask
    ``rows``, in row-major order, (R, V), attending to the real tokens of
    ``ids``; the head is the token table transposed plus a bias, and the
    forward a training forward given ``rng``. The forward runs its last
    block on those rows only, and only they go through the head, so the
    (d, V) projection and its backward cost R rows, not B*L. A ``rows``
    mask of another shape or dtype is a ShapeError."""
    rows = np.asarray(rows)
    hidden = forward_hidden(model, ids, row_masks(ids)[0], rng=rng, rows=rows)
    B, n, d = hidden.data.shape
    picked = T.take(T.reshape(hidden, (B * n, d)), np.flatnonzero(rows[:, :n]))
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
    (B, L) bool mask of the selected positions, their original token ids
    in row-major order).
    """
    ids = np.stack(rows)
    select = (rng.random(ids.shape) < mask_prob) & row_masks(ids)[1]
    targets = ids[select]
    roll = rng.random(targets.shape)
    pool = np.arange(FIRST_WORD_ID, len(vocab))
    randoms = pool[rng.integers(0, len(pool), size=targets.shape)]
    corrupted = ids.copy()
    corrupted[select] = np.where(roll < 0.8, MASK_ID,
                                 np.where(roll < 0.9, randoms, targets))
    return corrupted, select, targets


def check_pretrain(cfg, rows, pre):
    """Reject pretraining an encoder of config ``cfg`` on the id ``rows``
    under the ``PretrainConfig`` ``pre`` before any array is built: an empty
    corpus, or a step over ``check_step``'s budget."""
    if len(rows) == 0:
        raise ValueError("pretraining corpus is empty")
    check_step(cfg, min(pre.batch_size, len(rows)),
               int(row_masks(rows)[0].sum(1).max()), "pretrain.batch_size")


def pretrain_mlm(model, rows, cfg, vocab):
    """Masked-LM training on a fixed list of id rows.

    Returns a history list of {"step", "lr", "loss"} rows, one per optimizer
    step. Deterministic for a fixed seed. A non-finite loss raises
    ValueError before its step updates the model.
    """
    check_pretrain(model.config, rows, cfg)
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
            corrupted, select, targets = apply_mlm_masking(
                batch, vocab, cfg.mask_prob, rng)
            if targets.size == 0:
                continue
            logits = mlm_logits_batch(model, corrupted, select, rng=rng)
            loss = T.cross_entropy(logits, targets)
            value = loss.item()
            check_finite_loss("pretraining", value, opt.step_count + 1)
            T.backward(loss)
            opt.step()
            history.append({"step": opt.step_count,
                            "lr": opt.effective_lr(),
                            "loss": value})
    return history
