"""Dense tensors with reverse-mode automatic differentiation.

A small tape-based autodiff engine on top of numpy. Every differentiable
operation builds a node that knows how to push its output gradient back to
its parents; ``backward`` walks the tape in reverse topological order.

Precision is a process-global setting (``set_dtype``): 64-bit for gradient
checks and oracles, 32-bit allowed for training runs.
"""

import contextlib

import numpy as np

_DTYPE = np.float64
_GRAD_ENABLED = True

_DTYPES = {"float32": np.float32, "float64": np.float64}


class ShapeError(ValueError):
    """Raised when operand shapes are not conformable."""


class MissingGradError(RuntimeError):
    """Raised when a trainable parameter has no gradient buffer."""


def set_dtype(name):
    """Set the global element precision ("float32" or "float64")."""
    global _DTYPE
    if name not in _DTYPES:
        raise ValueError(f"unknown dtype {name!r}, expected one of {sorted(_DTYPES)}")
    _DTYPE = _DTYPES[name]


def get_dtype():
    return _DTYPE


def dtype_name():
    return "float32" if _DTYPE == np.float32 else "float64"


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
    a graph reads back an exactly-zero gradient. Interior nodes allocate
    their buffer lazily during backward.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn",
                 "_backward_ran")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if self.requires_grad else None
        self._parents = ()
        self._backward_fn = None
        self._backward_ran = False

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def numpy(self):
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph plumbing ------------------------------------------------

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0

    def detach(self):
        """Leaf view of this tensor; no gradient flows through it."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def astensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data, parents, backward_fn):
    """Create an interior tensor; skips the tape when grads are disabled."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_ran = False
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
    by the first pass and reuse would silently double-accumulate.
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

    loss._accum(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward_fn is not None:
            node._backward_fn(node.grad)


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------


def _broadcast_check(a, b, opname):
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.data.shape} and {b.data.shape} "
                         f"are not broadcast-compatible") from None


def add(a, b):
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "add")

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b):
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "sub")

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b):
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "mul")

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(a.data * b.data, (a, b), bw)


def div(a, b):
    a, b = astensor(a), astensor(b)
    _broadcast_check(a, b, "div")

    def bw(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _node(a.data / b.data, (a, b), bw)


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
    inv = np.argsort(axes)

    def bw(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return _node(a.data.transpose(axes), (a,), bw)


def take(a, indices, axis=0):
    """Gather slices along an axis; backward scatter-adds."""
    a = astensor(a)
    idx = np.asarray(indices, dtype=np.int64)

    def bw(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            moved = np.moveaxis(buf, axis, 0)
            index_axes = list(range(axis, axis + idx.ndim))
            rows = np.moveaxis(g, index_axes, list(range(idx.ndim))).reshape(
                (idx.size,) + moved.shape[1:])
            # one add per gathered slice, in index order as np.add.at adds;
            # np.add.at is several times slower once slices are whole rows
            for i, row in zip(idx.reshape(-1), rows):
                moved[i] += row
            a._accum(buf)

    return _node(np.take(a.data, idx, axis=axis), (a,), bw)


def stack(tensors, axis=0):
    tensors = [astensor(t) for t in tensors]
    shapes = {t.data.shape for t in tensors}
    if len(shapes) != 1:
        raise ShapeError(f"stack: mismatched shapes {sorted(shapes)}")

    def bw(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accum(np.take(g, i, axis=axis))

    return _node(np.stack([t.data for t in tensors], axis=axis), tuple(tensors), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a, axis=None, keepdims=False):
    a = astensor(a)

    def bw(g):
        if not a.requires_grad:
            return
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a._accum(np.broadcast_to(g, a.data.shape).copy())

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), bw)


def tmean(a, axis=None, keepdims=False):
    a = astensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def tmax(a, axis, keepdims=False):
    """Max along an axis; gradient goes to the (first) argmax element."""
    a = astensor(a)
    idx = np.argmax(a.data, axis=axis)
    out_data = np.max(a.data, axis=axis, keepdims=keepdims)

    def bw(g):
        if not a.requires_grad:
            return
        buf = np.zeros_like(a.data)
        if not keepdims:
            g_full = np.expand_dims(g, axis)
        else:
            g_full = g
        np.put_along_axis(buf, np.expand_dims(idx, axis), g_full, axis=axis)
        a._accum(buf)

    return _node(out_data, (a,), bw)


def add_n(tensors):
    """Sum a list of same-shape tensors (or scalars)."""
    total = astensor(tensors[0])
    for t in tensors[1:]:
        total = add(total, t)
    return total


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


def softmax(x, axis=-1):
    x = astensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accum(out_data * (g - dot))

    return _node(out_data, (x,), bw)


def logsumexp(x, axis=-1):
    x = astensor(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out_data = np.squeeze(np.log(s) + m, axis=axis)
    soft = e / s

    def bw(g):
        if x.requires_grad:
            x._accum(np.expand_dims(g, axis) * soft)

    return _node(out_data, (x,), bw)


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    x, gain, bias = astensor(x), astensor(gain), astensor(bias)
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != (x.data.shape[-1],):
        raise ShapeError(f"layer_norm: gain/bias shapes {gain.data.shape}/{bias.data.shape} "
                         f"do not match feature dim of {x.data.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out_data = xhat * gain.data + bias.data
    n = x.data.shape[-1]

    def bw(g):
        if gain.requires_grad:
            gain._accum((g * xhat).reshape(-1, n).sum(axis=0))
        if bias.requires_grad:
            bias._accum(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            gx = g * gain.data
            m1 = gx.mean(axis=-1, keepdims=True)
            m2 = (gx * xhat).mean(axis=-1, keepdims=True)
            x._accum(inv * (gx - m1 - xhat * m2))

    return _node(out_data, (x, gain, bias), bw)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x):
    """Gaussian error linear unit (tanh approximation)."""
    x = astensor(x)
    sq = x.data * x.data
    inner = _GELU_C * (x.data + 0.044715 * (sq * x.data))
    t = np.tanh(inner)
    out_data = 0.5 * x.data * (1.0 + t)

    def bw(g):
        if x.requires_grad:
            sech2 = 1.0 - t * t
            d_inner = _GELU_C * (1.0 + 3.0 * 0.044715 * sq)
            x._accum(g * (0.5 * (1.0 + t) + 0.5 * x.data * sech2 * d_inner))

    return _node(out_data, (x,), bw)


def embedding_lookup(table, ids):
    """Select rows of an embedding table by integer id."""
    table = astensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ShapeError(f"embedding_lookup: id out of range [0, {table.data.shape[0]}), "
                         f"got min={ids.min()} max={ids.max()}")

    def bw(g):
        if table.requires_grad:
            buf = np.zeros_like(table.data)
            np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
            table._accum(buf)

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
    e = np.exp(logits.data - m)
    z = e.sum(axis=1, keepdims=True)
    logp = logits.data - m - np.log(z)
    out_data = np.asarray(-logp[np.arange(n), targets].mean())

    def bw(g):
        if logits.requires_grad:
            soft = e / z
            soft[np.arange(n), targets] -= 1.0
            logits._accum(g * soft / n)

    return _node(out_data, (logits,), bw)


def l2_normalize(x, axis=-1):
    """Scale vectors along an axis to unit norm; zero vectors stay zero
    and receive exactly zero gradient."""
    x = astensor(x)
    norm = np.linalg.norm(x.data, axis=axis, keepdims=True)
    nonzero = norm > 0
    safe = np.where(nonzero, norm, 1.0)
    out_data = np.where(nonzero, x.data / safe, 0.0)

    def bw(g):
        if x.requires_grad:
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            gx = np.where(nonzero, (g - out_data * dot) / safe, 0.0)
            x._accum(gx)

    return _node(out_data, (x,), bw)
