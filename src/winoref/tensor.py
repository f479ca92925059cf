"""Dense tensors with reverse-mode automatic differentiation.

A small tape-based autodiff engine on top of numpy. Every differentiable
operation builds a node that knows how to push its output gradient back to
its parents; ``backward`` walks the tape in reverse topological order.

Precision is a process-global setting (``set_dtype``): 64-bit for gradient
checks and oracles, 32-bit allowed for training runs.

Buffer contract. ``backward`` passes gradients by reference, not by copy:
an interior node keeps the first gradient it receives as given (it is
*borrowed*, and may be a parent's or a sibling's buffer, or a view of one)
and allocates a fresh sum only when a second contribution arrives; owned
and leaf gradients accumulate in place. So no backward function may write
into its incoming ``g``, or into any array it did not allocate itself; a
backward that adds into a parent's gradient in place first makes the
parent own it (``_add_rows``). A kernel may reuse its own temporaries
with ``out=``, including those its forward saved for the backward,
because ``backward`` runs once per tape; it never writes into a node's
``data``. What only the tape held is freed
as ``backward`` walks it; leaf gradients, and the nodes the caller holds,
stay (see ``backward``). An off-tape kernel, one none of whose parents
requires grad (``_taped``), as every kernel of a forward of a detached
model is, keeps nothing for a backward: ``gelu`` and ``layer_norm`` write
each step of their forward over the one before, so the output is their
one fresh array. Every in-place kernel keeps the floating-point
operations, and their order, of the plain formula, so results are bit for
bit those of the allocating form, on the tape or off.
The plain formula sums along the last axis in one ``np.einsum`` pass per
row, a product in the same pass (``_row_sum``), so a row's sum depends on
that row alone.
Softmax's forward alone adds its keys one after another, so the zero-weight
keys of a padded batch never change a row, which einsum does not promise.

Hot kernels are laid out for numpy's fast paths. ``linear`` multiplies a
weight that is a row-major table transposed, as the tied MLM head's is, in
the layout that is faster for its row count: below ``PACK_TABLE_ROWS`` rows
in the table's own layout, so BLAS packs the few rows and not the table,
and from there on as ``x @ w``, because packing the table then costs less
than writing the product transposed into C-order logits. It takes that
weight's gradient in the table's layout at every row count.
``softmax`` reduces over key slabs, a contiguous copy with the keys along
its leading axis. ``take`` and ``embedding_lookup`` share one backward,
``_add_rows``: it sums repeated indices in ``np.add.at``'s order (the rows
are gathered once, rank-major, and each rank is one contiguous add), then
adds each distinct row once into the parent's own gradient, so a gather's
backward costs its rows, not its parent.

``attention`` is multi-head attention as one node over packed rows. Each
batch row's queries fill the first of m query slots, m the most queries in
any row but at least two, so a block that reads few rows (pretraining's
last block, evaluation) attends from (B, heads, m, n), not from every
position. The floor of two keeps the bits: with one slot, numpy's matmul
leaves gemm, and its other routines sum in another order. Its forward runs
``matmul`` and ``softmax`` untaped, on views laid out as the unfused ops'
are, and scales and masks the scores in place between them, as ``mul`` and
``add`` would; its hand-written backward repeats the unfused backwards
operation for operation, so both keep the unfused ops' bits on the full
grid at the head widths where BLAS rounds a row the same in a product of
any row count (see ``attention``).

Dropout draws each keep mask at the shape of what it scales: ``dropout``
at its input's, ``attention`` at its (B, heads, m, n) weights'.
"""

import numpy as np

_DTYPE = np.float64

# the element precisions by name, as ``runtime.precision`` spells them
DTYPES = {"float32": np.float32, "float64": np.float64}

# ``linear`` multiplies a transposed table as ``x @ w`` from this many rows of
# ``x``. Measured in float32 with one BLAS thread at width 96, the table's own
# layout is faster up to about 56 rows against an 8192-row table and 40 rows
# against a 191-row one; ``x @ w`` from 64 rows on, in float64 too.
PACK_TABLE_ROWS = 64

# the epsilon ``layer_norm`` adds to each row's variance, as in BERT
LAYER_NORM_EPS = 1e-5


class ShapeError(ValueError):
    """Raised when operand shapes are not conformable."""


class MissingGradError(RuntimeError):
    """Raised when a trainable parameter has no gradient buffer."""


def set_dtype(name):
    """Set the global element precision, by its name in ``DTYPES``."""
    global _DTYPE
    if name not in DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected one of {sorted(DTYPES)}")
    _DTYPE = DTYPES[name]


class Tensor:
    """A dense array plus optional gradient buffer and tape node.

    Leaf tensors created with ``requires_grad=True`` get a zero-filled
    gradient buffer immediately, so a parameter that never participates in
    a graph reads back an exactly-zero gradient. Interior nodes borrow the
    first gradient they receive during backward (see the module docstring),
    and keep it once ``backward`` has dropped their closure and parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran", "_grad_borrowed")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward_fn = None
        self._backward_ran = False
        self._grad_borrowed = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.asarray(g, dtype=self.data.dtype)
            self._grad_borrowed = True
        elif self._grad_borrowed:
            # the value ``+=`` on a copy would give, in a fresh buffer
            self.grad = (self.grad + g).astype(self.data.dtype, copy=False)
            self._grad_borrowed = False
        else:
            self.grad += g


def astensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _taped(parents):
    """Whether a node of ``parents`` joins the tape: some parent requires grad."""
    return any(p.requires_grad for p in parents)


def _node(data, parents, backward_fn):
    """Create an interior tensor, on the tape when ``_taped(parents)``."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_ran = False
    out._grad_borrowed = False
    if _taped(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward_fn = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward_fn = None
    return out


def _unbroadcast(g, shape):
    """Reduce a gradient back to the shape it was broadcast from."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def backward(loss):
    """Populate gradients of all trainable ancestors of a scalar loss. The
    pass consumes the tape: a node whose backward has run drops its closure,
    with the temporaries its forward saved, and its parents, so what only
    the tape held is freed as the walk passes it. Leaf gradients stay, and
    each node the caller holds keeps its ``data`` and ``grad``.

    A node whose backward has run is spent, and a pass from it or through
    it again is rejected: its tape is gone, and reuse would silently
    double-accumulate. A leaf or a constant has no tape and is never spent,
    so a pass from a scalar leaf adds to its gradient each time it runs.
    """
    loss = astensor(loss)
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise RuntimeError("backward already ran on this graph; re-run the forward pass first")
    if not loss.requires_grad:
        return

    # Iterative topological order; graphs can hold thousands of nodes.
    topo = []
    seen = {id(loss)}
    stack = [(loss, iter(loss._parents))]
    while stack:
        node, it = stack[-1]
        advanced = False
        for parent in it:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            topo.append(node)
            stack.pop()

    if any(node._backward_ran for node in topo):
        raise RuntimeError("backward already ran through part of this graph; "
                           "re-run the forward pass first")
    nodes = [node for node in topo if node._backward_fn is not None]
    del topo                        # no node is held past its turn
    loss._accum(np.ones_like(loss.data))
    while nodes:
        node = nodes.pop()
        node._backward_ran = True
        node._backward_fn(node.grad)
        node._backward_fn, node._parents = None, ()


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _broadcast(ufunc, a, b, opname):
    """``ufunc(a.data, b.data)``; numpy's broadcast error becomes a ShapeError."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} "
                         f"are not broadcast-compatible") from None


def add(a, b):
    a, b = astensor(a), astensor(b)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(_broadcast(np.add, a, b, "add"), (a, b), bw)


def sub(a, b):
    a, b = astensor(a), astensor(b)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(_broadcast(np.subtract, a, b, "sub"), (a, b), bw)


def mul(a, b):
    a, b = astensor(a), astensor(b)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(_broadcast(np.multiply, a, b, "mul"), (a, b), bw)


def div(a, b):
    a, b = astensor(a), astensor(b)

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            # -g * a / b**2, or -(g * a / b) / b where b * b is not normal
            with np.errstate(over="ignore", under="ignore"):
                sq = b.data * b.data
            odd = (sq < np.finfo(sq.dtype).tiny) | (sq > np.finfo(sq.dtype).max)
            gb = -g * a.data / np.where(odd, b.data, sq) / np.where(odd, b.data, 1.0)
            b._accum(_unbroadcast(gb, b.data.shape))

    return _node(_broadcast(np.divide, a, b, "div"), (a, b), bw)


def clip(a, lo, hi):
    """Hard clamp; gradient passes inside [lo, hi], zero outside."""
    a = astensor(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        a._accum(g * inside)

    return _node(np.clip(a.data, lo, hi), (a,), bw)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = astensor(a)
    src_shape = a.data.shape

    def bw(g):
        a._accum(g.reshape(src_shape))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a, axes):
    a = astensor(a)

    def bw(g):
        a._accum(g.transpose(np.argsort(axes)))

    return _node(a.data.transpose(axes), (a,), bw)


def _index_sum(index, rows, dtype):
    """``(ids, sums)``: the distinct values of the 1-d ``index`` and, for each,
    the sum in ``dtype`` of the ``rows`` at its positions. Each sum adds its
    rows onto zeros in index order, as ``np.add.at`` does, so its bits are
    ``np.add.at``'s. The rows are gathered once, rank-major: rank r holds the
    r-th row of every id that has more than r rows, the ids with most rows
    first, so adding a rank is one contiguous ``sums[:n_r] += block``, and
    the passes are as many as the most repeated id has rows."""
    order = np.argsort(index, kind="stable")        # by id, each in index order
    ranked = index[order]
    # each id's run in ``ranked`` starts and ends at a true entry
    edge = np.empty(ranked.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    # the ids with most rows first; n_r of them have a row of rank r
    by_count = np.argsort(-counts, kind="stable")
    n_r = np.searchsorted(-counts[by_count], -np.arange(counts.max(initial=0)))
    offsets = np.concatenate(([0], np.cumsum(n_r)))
    # sorted entry i is row ``rank`` of its id, the ``place``-th id by
    # count, so it goes to ``offsets[rank] + place`` in the rank-major block
    run = np.repeat(np.arange(starts.size), counts)
    rank = np.arange(ranked.size) - starts[run]
    place = np.empty_like(by_count)
    place[by_count] = np.arange(by_count.size)
    gather = np.empty_like(order)
    gather[offsets[rank] + place[run]] = order
    block = rows[gather]
    sums = np.zeros((starts.size,) + rows.shape[1:], dtype=dtype)
    for start, n in zip(offsets.tolist(), n_r.tolist()):
        sums[:n] += block[start:start + n]
    return ranked[starts[by_count]], sums


def _add_rows(a, index, g):
    """The backward of a gather of ``a``'s rows at ``index``: each distinct
    row's ``_index_sum`` of ``g`` added once, in place, into a gradient that
    ``a`` owns. A parent with no gradient yet gets zeros of its own, and a
    borrowed gradient is copied first."""
    ids, sums = _index_sum(index.reshape(-1), g.reshape((-1,) + a.data.shape[1:]),
                           a.data.dtype)
    if a.grad is None:
        a.grad = np.zeros_like(a.data)
    elif a._grad_borrowed:
        a.grad = a.grad.copy()
    a._grad_borrowed = False
    a.grad[ids] += sums


def take(a, rows):
    """The rows of ``a`` at the 1-d index ``rows``; backward adds them back."""
    a = astensor(a)
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take: index must be 1-d, got shape {idx.shape}")
    return _node(np.take(a.data, idx, axis=0), (a,), lambda g: _add_rows(a, idx, g))


def _scatter(rows, keep):
    """``rows`` placed at the true entries of ``keep``, zeros elsewhere; a
    reshape, not a copy, when every entry is kept."""
    kept = np.count_nonzero(keep)
    if rows.shape[0] != kept:
        raise ShapeError(f"scatter_rows: {rows.shape[0]} rows for {kept} kept entries")
    shape = keep.shape + rows.shape[1:]
    if kept == keep.size:
        return rows.reshape(shape)
    out = np.zeros(shape, dtype=rows.dtype)
    out[keep] = rows
    return out


def _gather(a, keep):
    """The entries of ``a`` where ``keep`` is true, one row each, in row-major
    order; a reshape, not a copy, when every entry is kept."""
    if a.shape[:keep.ndim] != keep.shape:
        raise ShapeError(f"gather_rows: mask shape {keep.shape} does not lead "
                         f"{a.shape}")
    if np.count_nonzero(keep) == keep.size:
        return a.reshape((keep.size,) + a.shape[keep.ndim:])
    return a[keep]


def gather_rows(a, keep):
    """The rows of ``a`` at the true entries of the boolean mask ``keep``,
    which covers ``a``'s leading axes: ``(T,) + a.shape[keep.ndim:]``.
    Each index is taken once, so the backward is ``scatter_rows``."""
    a = astensor(a)
    keep = np.asarray(keep, dtype=bool)

    def bw(g):
        a._accum(_scatter(g, keep))

    return _node(_gather(a.data, keep), (a,), bw)


def scatter_rows(a, keep):
    """The ``T`` rows of ``a`` placed at the true entries of the boolean mask
    ``keep``, zero rows elsewhere: ``keep.shape + a.shape[1:]``. The inverse
    of ``gather_rows``, whose forward is this op's backward."""
    a = astensor(a)
    keep = np.asarray(keep, dtype=bool)

    def bw(g):
        a._accum(_gather(g, keep))

    return _node(_scatter(a.data, keep), (a,), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _row_sum(*ops):
    """The sum along the last axis of ``ops[0]``, or of ``ops[0] * ops[1]``,
    kept as a length-1 axis: one ``np.einsum`` pass per unit-stride row (a
    strided one is copied first, as einsum would sum it in another order)."""
    ops = [o if o.strides[-1] == o.itemsize else np.ascontiguousarray(o) for o in ops]
    return np.einsum(("...i,...i" if len(ops) == 2 else "...i") + "->...", *ops)[..., None]


def tsum(a, axis=None):
    a = astensor(a)

    def bw(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis), (a,), bw)


def tmax(a, axis):
    """Max along an axis, read at the (first) argmax element, which is also
    where the gradient goes."""
    a = astensor(a)
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    out_data = np.take_along_axis(a.data, idx, axis=axis).squeeze(axis)

    def bw(g):
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, idx, np.expand_dims(g, axis), axis=axis)
        a._accum(buf)

    return _node(out_data, (a,), bw)


# ---------------------------------------------------------------------------
# neural-net ops
# ---------------------------------------------------------------------------


def matmul(a, b):
    a, b = astensor(a), astensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} not conformable")
    try:
        out_data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: shapes {a.data.shape} and {b.data.shape} "
                         f"have incompatible batch dimensions") from None

    def bw(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accum(_unbroadcast(gb, b.data.shape))

    return _node(out_data, (a, b), bw)


def linear(x, w, b):
    """``x @ w + b`` for rows ``x`` (N, k), weights ``w`` (k, m) and bias
    ``b`` (m,), as one node. For a row-major ``w`` these are the bits of
    ``add(matmul(x, w), b)``. Any other ``w``, such as the tied MLM head's
    row-major table transposed, is multiplied in the faster layout for N:
    below ``PACK_TABLE_ROWS`` rows in the layout of ``w.T``, as
    ``(w.T @ x.T).T`` written into C-order logits, so BLAS packs the few rows
    of ``x``, not the whole table; from ``PACK_TABLE_ROWS`` rows on, as
    ``x @ w`` plus the bias in place, because writing the (m, N) product
    transposed then costs more than packing the table. The weight's gradient
    is taken in ``w.T``'s layout at every N. The two layouts may round a
    logit differently, as the BLAS build decides."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != (w.data.shape[1],)):
        raise ShapeError(f"linear: shapes {x.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} not conformable")
    dtype = np.result_type(x.data, w.data)
    if w.data.flags.c_contiguous or x.data.shape[0] >= PACK_TABLE_ROWS:
        out_data = x.data @ w.data
        out_data += b.data
    else:
        out_data = np.empty((x.data.shape[0], w.data.shape[1]), dtype=dtype)
        np.add((w.data.T @ x.data.T).T, b.data, out=out_data)

    def bw(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            # in w.T's layout too, so a table's gradient gets a contiguous add
            w._accum((x.data.T @ g) if w.data.flags.c_contiguous else (g.T @ x.data).T)
        if b.requires_grad:
            b._accum(g.sum(axis=0))

    return _node(out_data, (x, w, b), bw)


def softmax(x):
    """Softmax along the last axis, computed over key slabs: a contiguous
    copy with the keys along its leading axis, so the max and the sum over
    the keys are each one elementwise pass per key. The sum adds the keys
    one after another, so keys whose weight is exactly zero, appended at the
    end of the axis, do not change the other weights' bits."""
    x = astensor(x)
    out_data = np.empty(x.data.shape, dtype=x.data.dtype)
    slabs = np.swapaxes(x.data, 0, -1).copy(order="C")
    with np.errstate(over="ignore"):    # a spread past the range: exp gives 0
        slabs -= slabs.max(axis=0)
    np.exp(slabs, out=slabs)
    if slabs.size == slabs.shape[0]:
        # a lone row: numpy sums a vector pairwise, cumsum in order
        total = np.cumsum(slabs, axis=0)[-1]
    else:
        # numpy adds the slabs of a contiguous array in order along axis 0
        total = slabs.sum(axis=0)
    slabs /= total
    np.copyto(out_data, np.swapaxes(slabs, 0, -1))

    def bw(g):
        gx = g - _row_sum(g, out_data)
        gx *= out_data
        x._accum(gx)

    return _node(out_data, (x,), bw)


def _keep_mask(rate, rng, shape, dtype):
    """Inverted dropout's keep mask, drawn from ``rng`` at ``shape`` and
    scaled by 1/(1 - rate); None, with nothing drawn, when ``rate`` drops
    nothing."""
    if rate <= 0.0:
        return None
    return (rng.random(shape) >= rate).astype(dtype) / (1.0 - rate)


def dropout(x, rate, rng):
    """Inverted dropout of ``x`` at ``rate``, its keep mask drawn at ``x``'s
    own shape; ``x`` itself at rate 0."""
    x = astensor(x)
    keep = _keep_mask(rate, rng, x.data.shape, x.data.dtype)
    return x if keep is None else mul(x, keep)


def attention(q_rows, k_rows, v_rows, trimmed, queries, heads, rate, rng):
    """Multi-head softmax attention as one node. ``k_rows`` and ``v_rows``
    (T, d) are the projected rows at the true entries of the (B, n) mask
    ``trimmed``, ``q_rows`` (Tq, d) those at the true entries of ``queries``,
    a subset of them (a query outside ``trimmed`` is a ShapeError); the
    result is the (Tq, d) context rows of the queries.
    A key outside ``trimmed`` gets -1e9 in the rows' dtype added to its
    scores, a real key -0.0. Attention dropout at ``rate`` multiplies the
    weights by a keep mask drawn from ``rng`` at their (B, heads, m, n)
    shape; at rate 0 nothing is drawn.

    Each batch row's queries, in order, fill the first of m query slots,
    m = max(2, most queries in any row) but at most n, so the scores,
    softmax, dropout and context products, and their backward, run on
    (B, heads, m, n), not on every position's row. The floor of two keeps
    the bits: with one slot, numpy's matmul sends the row-side products to
    gemv and the slot-summing ones off BLAS, and both sum in another order
    than gemm. The slots, keys and values are scattered into zero
    (B, m or n, heads, dh) grids, which the core reads as (B, heads, m or n,
    dh) views. The forward runs this module's ``matmul`` and ``softmax`` on
    those views, untaped, and scales and masks the scores between them in
    place, by the operations ``mul`` and ``add`` would run; the backward is
    the softmax attention one, dS = P ∘ (dP − rowsum(dP ∘ P)) / √dh, written as
    those nodes' backwards run, operation for operation and on operands of
    the same layouts. An empty slot, like a position that is no query, adds
    exact zeros to the slot-summing products. So the bits are those of the
    unfused ops on the full (B, heads, n, n) grid wherever BLAS rounds a
    product's row the same whatever the row count and the row's place in
    it. OpenBLAS 0.3.31's Haswell kernels do at every head width dh from 2
    to 31 in float32, and in float64 at those that leave 0 or 4-7 over a
    multiple of 8, the quickstart's 24 and the tests' 8 among them; at
    width 1, from 32 on, and at the other float64 widths, some slot rows
    round otherwise than the full grid's rows did. A contiguous
    (B, heads, n, dh) grid would hand BLAS other strides, which a BLAS
    build may round differently too."""
    q_rows, k_rows, v_rows = astensor(q_rows), astensor(k_rows), astensor(v_rows)
    trimmed = np.asarray(trimmed, dtype=bool)
    queries = np.asarray(queries, dtype=bool)
    d = k_rows.data.shape[-1]
    if (q_rows.data.ndim != 2 or k_rows.data.ndim != 2 or v_rows.data.ndim != 2
            or q_rows.data.shape[1] != d or v_rows.data.shape[1] != d
            or trimmed.ndim != 2 or queries.shape != trimmed.shape):
        raise ShapeError(f"attention: rows {q_rows.data.shape}, {k_rows.data.shape} "
                         f"and {v_rows.data.shape} with masks {queries.shape} and "
                         f"{trimmed.shape} not conformable")
    if heads < 1 or d % heads:
        raise ShapeError(f"attention: row width {d} is not a multiple of {heads} heads")
    stray = np.count_nonzero(queries & ~trimmed)
    if stray:
        raise ShapeError(f"attention: {stray} query positions outside the key mask")
    for name, rows, keep in (("query", q_rows, queries), ("key", k_rows, trimmed),
                             ("value", v_rows, trimmed)):
        if rows.data.shape[0] != np.count_nonzero(keep):
            raise ShapeError(f"attention: {rows.data.shape[0]} {name} rows for "
                             f"{np.count_nonzero(keep)} positions")
    B, n = trimmed.shape
    dh = d // heads
    counts = np.count_nonzero(queries, axis=1)
    m = min(n, max(2, int(counts.max(initial=0))))
    slots = np.arange(m) < counts[:, None]

    def grid(rows, keep):
        return _scatter(rows.data, keep).reshape(B, -1, heads, dh).transpose(0, 2, 1, 3)

    def packed(g, keep):
        # the rows of a (B, heads, m or n, dh) grid at ``keep``, as (T, d)
        return _gather(g.transpose(0, 2, 1, 3), keep).reshape(-1, d)

    def const(a):
        # an untaped operand, in its own dtype
        return Tensor(a, dtype=a.dtype)

    q, k, v = grid(q_rows, slots), grid(k_rows, trimmed), grid(v_rows, trimmed)
    kt = k.transpose(0, 1, 3, 2)
    scale = np.asarray(1.0 / np.sqrt(dh), dtype=k.dtype)
    drop = _keep_mask(rate, rng, (B, heads, m, n), k.dtype)
    bias = ((1.0 - trimmed.astype(k.dtype)) * -1e9).reshape(B, 1, 1, n)
    s = matmul(const(q), const(kt)).data   # a fresh array: scaled and masked in place
    s *= scale
    s += bias
    p = softmax(const(s)).data
    a = p if drop is None else mul(const(p), const(drop)).data
    ctx = matmul(const(a), const(v)).data

    def bw(g):
        gc = _scatter(g.reshape(-1, heads, dh), slots).transpose(0, 2, 1, 3)
        if v_rows.requires_grad:
            v_rows._accum(packed(np.swapaxes(a, -1, -2) @ gc, trimmed))
        gs = gc @ np.swapaxes(v, -1, -2)
        if drop is not None:
            gs *= drop
        gs -= _row_sum(gs, p)               # softmax: (g - sum(g * P)) * P
        gs *= p
        gs *= scale
        if q_rows.requires_grad:
            q_rows._accum(packed(gs @ np.swapaxes(kt, -1, -2), slots))
        if k_rows.requires_grad:
            gkt = np.swapaxes(q, -1, -2) @ gs
            k_rows._accum(packed(gkt.transpose(0, 1, 3, 2), trimmed))

    return _node(packed(ctx, slots), (q_rows, k_rows, v_rows), bw)


def logsumexp(x):
    """Log of the sum of exponentials along the last axis, max-shifted."""
    x = astensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    with np.errstate(over="ignore"):    # a spread past the range: exp gives 0
        e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out_data = np.squeeze(np.log(s) + m, axis=-1)
    soft = e / s

    def bw(g):
        x._accum(np.expand_dims(g, -1) * soft)

    return _node(out_data, (x,), bw)


def layer_norm(x, gain, bias):
    """Normalize the last axis to zero mean / unit variance, with
    ``LAYER_NORM_EPS`` added to the variance, then scale and shift. Each
    row is centred on its first entry first, so a constant row maps to
    exactly ``bias`` and a large offset stays out of the mean.

    For every finite row the normalized entries, before gain and bias, are
    finite and within sqrt(n - 1) of zero, and the gradient is finite. A
    row whose centred sum of squares is not finite is first divided by the
    power of two at or below its largest magnitude, as ``l2_normalize``
    scales, and its gradient by the same power; every other row keeps a
    scale of exactly 1, and its bits."""
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError(f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
                         f"do not match feature dim of {x.data.shape}")
    n = x.data.shape[-1]

    def centred(y):
        c = y - y[..., :1]
        c -= _row_sum(c) / n
        return c

    with np.errstate(over="ignore", invalid="ignore"):   # caught below
        xhat = centred(x.data)
        sumsq = _row_sum(xhat, xhat)
    scale = 1.0
    if not np.isfinite(sumsq).all():
        big = np.abs(x.data).max(axis=-1, keepdims=True)
        scale = np.where(np.isfinite(sumsq), 1.0,
                         np.ldexp(np.ones_like(big), np.frexp(big)[1] - 1))
        xhat = centred(x.data / scale)
        sumsq = _row_sum(xhat, xhat)
    # (x - mean) / sqrt(var + eps), taken on x / s, where eps is eps / s^2
    inv = 1.0 / np.sqrt(sumsq / n + LAYER_NORM_EPS / scale / scale)
    xhat *= inv
    # off the tape no backward reads xhat, so the output is written over it
    out_data = np.multiply(xhat, gain.data, out=None if _taped((x, gain, bias)) else xhat)
    out_data += bias.data

    def bw(g):
        tmp = g * xhat                # gain's gradient term, then x's gradient
        if gain.requires_grad:
            gain._accum(tmp.reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = _row_sum(gx) / n
            m2 = _row_sum(gx, xhat) / n
            gx -= m1
            np.multiply(xhat, m2, out=tmp)
            gx -= tmp
            gx *= inv / scale
            x._accum(gx)

    return _node(out_data, (x, gain, bias), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))
# past this |x| gelu's tanh is already ±1 in float32 and float64 (from
# about 5.42 and 7.19)
_GELU_BOUND = 8.0


def gelu(x):
    """Gaussian error linear unit (tanh approximation). Finite for every
    finite input, forward and backward: past |x| = 8 the tanh is ±1, so the
    value is x or -0.0 and the derivative exactly 1 or 0."""
    x = astensor(x)
    # off the tape no backward reads sq, t or half, so each step is written
    # over the one before, and the output is the first step's array
    taped = _taped((x,))
    sq = np.clip(x.data, -_GELU_BOUND, _GELU_BOUND)   # squared, it never overflows
    sq *= sq
    # t = tanh(x * (C + C * 0.044715 * sq)); past the bound the product is
    # at least 24.6 in size, or ±inf where it overflows, and tanh is ±1
    t = np.multiply(sq, _GELU_C * 0.044715, out=None if taped else sq)
    t += _GELU_C
    with np.errstate(over="ignore"):
        t *= x.data
    np.tanh(t, out=t)
    half = np.multiply(t, 0.5, out=None if taped else t)   # 0.5 * (1 + t)
    half += 0.5
    out_data = np.multiply(x.data, half, out=None if taped else half)

    def bw(g):
        # g * (0.5 * (1 + t) + x * (1 - t^2) * (0.5 * C + 1.5 * C * 0.044715 * x^2)),
        # written over the forward's t and sq
        sech2 = np.multiply(t, t, out=t)
        np.subtract(1.0, sech2, out=sech2)
        gx = np.multiply(sq, 1.5 * _GELU_C * 0.044715, out=sq)
        gx += 0.5 * _GELU_C
        gx *= sech2
        gx *= x.data
        gx += half
        gx *= g
        x._accum(gx)

    return _node(out_data, (x,), bw)


def embedding_lookup(table, ids):
    """Select rows of an embedding table by integer id."""
    table = astensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range [0, {table.data.shape[0]}), "
                         f"got min={ids.min()} max={ids.max()}")

    return _node(table.data[ids], (table,), lambda g: _add_rows(table, ids, g))


def cross_entropy(logits, targets):
    """Mean negative log-likelihood of integer targets under softmax(logits).

    logits: (N, V); targets: (N,) int. Log-sum-exp stabilized.
    """
    logits = astensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy: logits must be 2-d, got {logits.data.shape}")
    if targets.shape != (logits.data.shape[0],):
        raise ShapeError(f"cross_entropy: targets shape {targets.shape} does not match "
                         f"logits rows {logits.data.shape[0]}")
    n, _ = logits.data.shape
    m = logits.data.max(axis=1, keepdims=True)
    with np.errstate(over="ignore"):    # a spread past the range: exp gives 0
        e = logits.data - m
    np.exp(e, out=e)
    z = _row_sum(e)
    # log-probabilities at the targets only, by the same operations in the
    # same order as the full (n, V) matrix would take them
    logp = logits.data[np.arange(n), targets] - m[:, 0] - np.log(z[:, 0])
    out_data = np.asarray(0.0 - logp.mean())   # a zero loss is +0.0, not -0.0

    def bw(g):
        soft = np.divide(e, z, out=e)           # written over e
        soft[np.arange(n), targets] -= 1.0
        soft *= g
        soft /= n
        logits._accum(soft)

    return _node(out_data, (logits,), bw)


def l2_normalize(x):
    """Scale vectors along the last axis to unit norm; zero vectors stay
    zero and receive exactly zero gradient.

    A vector whose nonzero squares underflow, or whose sum of squares
    overflows, is first divided by the power of two at or below its largest
    magnitude, as the BLAS ``nrm2`` scales (Anderson, "Algorithm 978: Safe
    scaling in the Level 1 BLAS", TOMS 2017), so tiny and huge vectors
    normalize too. Dividing by a power of two is exact; every other vector
    keeps a scale of exactly 1.
    """
    x = astensor(x)
    y = x.data
    fi = np.finfo(y.dtype)
    with np.errstate(over="ignore"):          # an overflow is caught below
        sumsq = _row_sum(y, y)
        small = (y * y < fi.tiny) & (y != 0)  # a nonzero square that underflows
    unsafe = sumsq > fi.max
    if small.any():
        unsafe |= small.any(axis=-1, keepdims=True)
    scale = 1.0
    if unsafe.any():
        big = np.abs(y).max(axis=-1, keepdims=True)
        scale = np.where(unsafe, np.ldexp(np.ones_like(big), np.frexp(big)[1] - 1), 1.0)
        y = y / scale
        sumsq = _row_sum(y, y)
    norm = np.sqrt(sumsq)
    safe = np.where(norm > 0, norm, 1.0)
    zero = ~(norm > 0)[..., 0]                # +0.0 there, after each division
    out_data = y / safe
    out_data[zero] = 0.0

    def bw(g):
        gx = out_data * _row_sum(g, out_data)  # (g - out * dot) / safe / scale
        np.subtract(g, gx, out=gx)
        gx /= safe
        gx /= scale
        gx[zero] = 0.0
        x._accum(gx)

    return _node(out_data, (x,), bw)
