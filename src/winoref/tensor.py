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
into its incoming ``g``, or into any array it did not allocate itself. A
kernel may reuse its own temporaries with ``out=``, including those its
forward saved for the backward, because ``backward`` runs once per tape;
it never writes into a node's ``data``. Every in-place kernel keeps the
floating-point operations, and their order, of the plain formula, so
results are bit for bit those of the allocating form. One order is fixed
beyond numpy's: softmax's forward adds the keys one after another, not
pairwise, so the zero-weight keys of a padded batch never change a row.

Hot kernels are laid out for numpy's fast paths. ``linear`` multiplies a
weight that is a row-major table transposed, as the tied MLM head's is, in
the table's own layout, and takes its gradient in that layout too.
``softmax`` reduces over key slabs, a contiguous copy with the keys along
its leading axis. The backwards of ``take`` and ``embedding_lookup`` sum
repeated indices in ``np.add.at``'s order, one vectorized pass per repeat.

``attention`` is multi-head attention as one node over packed rows. Its
forward runs ``matmul``, ``mul``, ``add`` and ``softmax`` untaped, on the
same views the unfused ops read, and its hand-written backward repeats their
backwards operation for operation, so both keep the unfused ops' bits.
"""

import contextlib

import numpy as np

_DTYPE = np.float64
_GRAD_ENABLED = True

# the element precisions by name, as ``runtime.precision`` spells them
DTYPES = {"float32": np.float32, "float64": np.float64}


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


@contextlib.contextmanager
def no_grad():
    """Disable tape construction inside the block (pure inference)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense array plus optional gradient buffer and tape node.

    Leaf tensors created with ``requires_grad=True`` get a zero-filled
    gradient buffer immediately, so a parameter that never participates in
    a graph reads back an exactly-zero gradient. Interior nodes borrow the
    first gradient they receive during backward (see the module docstring).
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


def _node(data, parents, backward_fn):
    """Create an interior tensor; skips the tape when grads are disabled."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_ran = False
    out._grad_borrowed = False
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
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
    """Populate gradients of all trainable ancestors of a scalar loss.

    Re-running backward on the same root is rejected: the tape is consumed
    by the first pass and reuse would silently double-accumulate. So is a
    pass through a node that an earlier pass from another root went
    through, because kernels overwrite the temporaries their forward saved.
    """
    loss = astensor(loss)
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar, got shape {loss.data.shape}")
    if loss._backward_ran:
        raise RuntimeError("backward already ran on this graph; re-run the forward pass first")
    loss._backward_ran = True
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

    nodes = [node for node in topo if node._backward_fn is not None]
    if any(node._backward_ran for node in nodes if node is not loss):
        raise RuntimeError("backward already ran through part of this graph; "
                           "re-run the forward pass first")
    loss._accum(np.ones_like(loss.data))
    for node in reversed(nodes):
        node._backward_ran = True
        node._backward_fn(node.grad)


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
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(_broadcast(np.divide, a, b, "div"), (a, b), bw)


def sqrt(a):
    a = astensor(a)
    out_data = np.sqrt(a.data)

    def bw(g):
        if a.requires_grad:
            a._accum(g * 0.5 / out_data)

    return _node(out_data, (a,), bw)


def relu(a):
    a = astensor(a)
    keep = a.data > 0

    def bw(g):
        if a.requires_grad:
            a._accum(g * keep)

    return _node(np.where(keep, a.data, 0.0), (a,), bw)


def clip(a, lo, hi):
    """Hard clamp; gradient passes inside [lo, hi], zero outside."""
    a = astensor(a)
    inside = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        if a.requires_grad:
            a._accum(g * inside)

    return _node(np.clip(a.data, lo, hi), (a,), bw)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape):
    a = astensor(a)
    src_shape = a.data.shape

    def bw(g):
        if a.requires_grad:
            a._accum(g.reshape(src_shape))

    return _node(a.data.reshape(shape), (a,), bw)


def transpose(a, axes):
    a = astensor(a)

    def bw(g):
        if a.requires_grad:
            a._accum(g.transpose(np.argsort(axes)))

    return _node(a.data.transpose(axes), (a,), bw)


def _index_sum(index, rows, dtype):
    """``(ids, sums)``: the distinct values of the 1-d ``index`` and, for each,
    the sum in ``dtype`` of the ``rows`` at its positions. Each sum adds its
    rows onto zeros in index order, as ``np.add.at`` does, so its bits are
    ``np.add.at``'s. A pass adds one row to every sum that has one left, its
    first row, then its second, and so on, so the passes are as many as the
    most repeated id has rows, not as many as the rows."""
    order = np.argsort(index, kind="stable")        # by id, each in index order
    ranked = index[order]
    # each id's run in ``ranked`` starts and ends at a true entry
    edge = np.empty(ranked.size + 1, dtype=bool)
    edge[0] = edge[-1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=edge[1:-1])
    bounds = np.flatnonzero(edge)
    starts = bounds[:-1]
    counts = bounds[1:] - starts
    # the ids with most rows first, so the sums a pass adds to lead
    by_count = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_count], counts[by_count]
    sums = np.zeros((starts.size,) + rows.shape[1:], dtype=dtype)
    for r, n in enumerate(np.searchsorted(-counts, -np.arange(counts.max(initial=0)))):
        sums[:n] += rows[order[starts[:n] + r]]
    return ranked[starts], sums


def take(a, rows):
    """The rows of ``a`` at the 1-d index ``rows``; backward scatter-adds."""
    a = astensor(a)
    idx = np.asarray(rows, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"take: index must be 1-d, got shape {idx.shape}")

    def bw(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            ids, sums = _index_sum(idx, g, buf.dtype)
            buf[ids] = sums
            a._accum(buf)

    return _node(np.take(a.data, idx, axis=0), (a,), bw)


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
        if a.requires_grad:
            a._accum(_scatter(g, keep))

    return _node(_gather(a.data, keep), (a,), bw)


def scatter_rows(a, keep):
    """The ``T`` rows of ``a`` placed at the true entries of the boolean mask
    ``keep``, zero rows elsewhere: ``keep.shape + a.shape[1:]``. The inverse
    of ``gather_rows``, whose forward is this op's backward."""
    a = astensor(a)
    keep = np.asarray(keep, dtype=bool)

    def bw(g):
        if a.requires_grad:
            a._accum(_gather(g, keep))

    return _node(_scatter(a.data, keep), (a,), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a, axis=None):
    a = astensor(a)

    def bw(g):
        if a.requires_grad:
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis), (a,), bw)


def tmean(a, axis=None):
    a = astensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / n)


def tmax(a, axis):
    """Max along an axis, read at the (first) argmax element, which is also
    where the gradient goes."""
    a = astensor(a)
    idx = np.expand_dims(np.argmax(a.data, axis=axis), axis)
    out_data = np.take_along_axis(a.data, idx, axis=axis).squeeze(axis)

    def bw(g):
        if a.requires_grad:
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
    row-major table transposed, is multiplied in the layout of ``w.T``, as
    ``(w.T @ x.T).T``: BLAS then packs the few rows of ``x``, not the whole
    table. Those bits depend on the BLAS build."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or b.data.shape != (w.data.shape[1],)):
        raise ShapeError(f"linear: shapes {x.data.shape}, {w.data.shape} and "
                         f"{b.data.shape} not conformable")
    if w.data.flags.c_contiguous:
        out_data = x.data @ w.data
        out_data += b.data
    else:
        out_data = np.empty((x.data.shape[0], w.data.shape[1]),
                            dtype=np.result_type(x.data, w.data))
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
        if x.requires_grad:
            gx = g * out_data
            dot = gx.sum(axis=-1, keepdims=True)
            np.subtract(g, dot, out=gx)
            gx *= out_data
            x._accum(gx)

    return _node(out_data, (x,), bw)


def attention(q_rows, k_rows, v_rows, trimmed, queries, heads, mask_bias, drop):
    """Multi-head softmax attention as one node. ``k_rows`` and ``v_rows``
    (T, d) are the projected rows at the true entries of the (B, n) mask
    ``trimmed``, ``q_rows`` (Tq, d) those at the true entries of ``queries``,
    a subset of them (a query outside ``trimmed`` is a ShapeError); the
    result is the (Tq, d) context rows of the queries.
    ``mask_bias``, broadcast to (B, heads, n, n), is added to the scores, and
    ``drop``, attention dropout's keep mask already scaled by 1/(1 - rate),
    or None, multiplies the weights.

    The rows are scattered into zero (B, n, heads, dh) grids, which the core
    reads as (B, heads, n, dh) views. The forward runs this module's
    ``matmul``, ``mul``, ``add`` and ``softmax`` on those views, untaped, so
    its bits are those ops' as tape nodes. The backward is the softmax
    attention one, dS = P ∘ (dP − rowsum(dP ∘ P)) / √dh, written as those
    nodes' backwards run, operation for operation and on operands of the
    same layouts, so its bits are theirs too. A contiguous (B, heads, n, dh)
    grid would hand BLAS other strides, which a BLAS build may round
    differently."""
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

    def grid(rows, keep):
        return _scatter(rows.data, keep).reshape(B, n, heads, dh).transpose(0, 2, 1, 3)

    def packed(g, keep):
        # the rows of a (B, heads, n, dh) grid at ``keep``, as (T, d)
        return _gather(g.transpose(0, 2, 1, 3), keep).reshape(-1, d)

    def const(a):
        # an untaped operand, in its own dtype
        return Tensor(a, dtype=a.dtype)

    q, k, v = grid(q_rows, queries), grid(k_rows, trimmed), grid(v_rows, trimmed)
    kt = k.transpose(0, 1, 3, 2)
    scale = astensor(1.0 / np.sqrt(dh))
    drop = None if drop is None else astensor(drop)
    s = mul(matmul(const(q), const(kt)), scale)
    p = softmax(add(s, mask_bias)).data
    a = p if drop is None else mul(const(p), drop).data
    ctx = matmul(const(a), const(v)).data

    def bw(g):
        gc = _scatter(g.reshape(-1, heads, dh), queries).transpose(0, 2, 1, 3)
        if v_rows.requires_grad:
            v_rows._accum(packed(np.swapaxes(a, -1, -2) @ gc, trimmed))
        if not (q_rows.requires_grad or k_rows.requires_grad):
            return
        gs = gc @ np.swapaxes(v, -1, -2)
        if drop is not None:
            gs *= drop.data
        gp = gs * p                         # softmax: (g - sum(g * P)) * P
        dot = gp.sum(axis=-1, keepdims=True)
        np.subtract(gs, dot, out=gp)
        gp *= p
        gp *= scale.data
        if q_rows.requires_grad:
            q_rows._accum(packed(gp @ np.swapaxes(kt, -1, -2), queries))
        if k_rows.requires_grad:
            gkt = np.swapaxes(q, -1, -2) @ gp
            k_rows._accum(packed(gkt.transpose(0, 1, 3, 2), trimmed))

    return _node(packed(ctx, queries), (q_rows, k_rows, v_rows), bw)


def logsumexp(x):
    """Log of the sum of exponentials along the last axis, max-shifted."""
    x = astensor(x)
    m = x.data.max(axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=-1, keepdims=True)
    out_data = np.squeeze(np.log(s) + m, axis=-1)
    soft = e / s

    def bw(g):
        if x.requires_grad:
            x._accum(np.expand_dims(g, -1) * soft)

    return _node(out_data, (x,), bw)


def layer_norm(x, gain, bias, eps):
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError(f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
                         f"do not match feature dim of {x.data.shape}")
    # np.add.reduce, then /= n: np.mean's arithmetic without its wrapper
    n = x.data.shape[-1]
    mu = np.add.reduce(x.data, axis=-1, keepdims=True)
    mu /= n
    xhat = x.data - mu
    out_data = xhat * xhat
    var = np.add.reduce(out_data, axis=-1, keepdims=True)
    var /= n
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out_data)
    out_data += bias.data

    def bw(g):
        gx = g * xhat                 # gain's gradient term, then x's gradient
        if gain.requires_grad:
            gain._accum(gx.reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            np.multiply(g, gain.data, out=gx)
            m1 = np.add.reduce(gx, axis=-1, keepdims=True)
            m1 /= n
            tmp = gx * xhat
            m2 = np.add.reduce(tmp, axis=-1, keepdims=True)
            m2 /= n
            gx -= m1
            np.multiply(xhat, m2, out=tmp)
            gx -= tmp
            gx *= inv
            x._accum(gx)

    return _node(out_data, (x, gain, bias), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x):
    """Gaussian error linear unit (tanh approximation)."""
    x = astensor(x)
    sq = x.data * x.data
    t = sq * x.data                    # t = tanh(C * (x + 0.044715 * x^3))
    t *= 0.044715
    t += x.data
    t *= _GELU_C
    np.tanh(t, out=t)
    t1 = 1.0 + t
    out_data = 0.5 * x.data
    out_data *= t1

    def bw(g):
        # g * (0.5 * (1 + t) + 0.5 * x * (1 - t^2) * C * (1 + 3 * 0.044715 * x^2)),
        # written over the forward's t1, t and sq
        if x.requires_grad:
            gx = t1
            gx *= 0.5
            sech2 = np.multiply(t, t, out=t)
            np.subtract(1.0, sech2, out=sech2)
            d_inner = np.multiply(sq, 3.0 * 0.044715, out=sq)
            d_inner += 1.0
            d_inner *= _GELU_C
            tmp = 0.5 * x.data
            tmp *= sech2
            tmp *= d_inner
            gx += tmp
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

    def bw(g):
        # sum over the looked-up rows only, then add those rows into the
        # table's gradient
        if table.requires_grad:
            rows, sums = _index_sum(ids.reshape(-1),
                                    g.reshape((-1,) + table.data.shape[1:]),
                                    table.data.dtype)
            if table.grad is None or table._grad_borrowed:
                table._accum(np.zeros_like(table.data))
            table.grad[rows] += sums

    return _node(table.data[ids], (table,), bw)


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
    e = logits.data - m
    np.exp(e, out=e)
    z = e.sum(axis=1, keepdims=True)
    # log-probabilities at the targets only, by the same operations in the
    # same order as the full (n, V) matrix would take them
    logp = logits.data[np.arange(n), targets] - m[:, 0] - np.log(z[:, 0])
    out_data = np.asarray(-logp.mean())

    def bw(g):
        if logits.requires_grad:
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
    with np.errstate(over="ignore"):          # an overflow is caught below
        sq = y * y
        sumsq = np.add.reduce(sq, axis=-1, keepdims=True)
    fi = np.finfo(y.dtype)
    unsafe = ((sq.min(axis=-1, keepdims=True, initial=np.inf, where=y != 0) < fi.tiny)
              | (sumsq > fi.max))
    scale = 1.0
    if unsafe.any():
        big = np.abs(y).max(axis=-1, keepdims=True)
        scale = np.where(unsafe, np.ldexp(np.ones_like(big), np.frexp(big)[1] - 1), 1.0)
        y = y / scale
        sumsq = np.add.reduce(y * y, axis=-1, keepdims=True)
    norm = np.sqrt(sumsq)
    nonzero = norm > 0
    safe = np.where(nonzero, norm, 1.0)
    out_data = np.where(nonzero, y / safe, 0.0)

    def bw(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            gx = np.where(nonzero, (g - out_data * dot) / safe / scale, 0.0)
            x._accum(gx)

    return _node(out_data, (x,), bw)
