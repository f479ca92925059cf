"""Seeded, numpy-only fuzz of the numeric functions' documented ranges, in
float32 and float64: the loss terms with values of every magnitude from
1e-30 to 1e30, and every other tape op that gate 1 builds over the whole
finite range, forward and backward, each case's tape consumed by its
backward.

The windowed score's range and symmetry are fuzzed in ``test_scoring.py``
(``TestScoreFuzz``), and softmax's forward also in ``test_tensor.py``.
"""

import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import EmbeddingStack
from winoref.evaluate import log_probs_at_positions
from winoref.refine import _TERM_BOUND, Discriminator, diversity_loss
from winoref.tensor import Tensor
from winoref.text import PERTURBATION_KINDS

CASES = 40


def fuzz_values(rng, shape):
    """Normal draws scaled to 1e-30..1e30: one magnitude per row, or one per
    entry, so a row may span all sixty decades."""
    per_row = rng.random() < 0.5
    scale_shape = shape[:-1] + (1,) if per_row else shape
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-30, 30, scale_shape)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
class TestRangeFuzz:
    def test_cross_entropy_is_nonnegative_and_finite(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(71)
        for case in range(CASES):
            n, v = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            logits = Tensor(fuzz_values(rng, (n, v)), requires_grad=True)
            loss = T.cross_entropy(logits, rng.integers(0, v, size=n))
            T.backward(loss)
            assert loss.data.dtype == dtype
            assert np.isfinite(loss.item()) and loss.item() >= 0.0, f"case {case}"
            assert np.isfinite(logits.grad).all(), f"case {case}"

    def test_log_probs_at_positions_are_at_most_zero(self, dtype):
        rng = np.random.default_rng(72)
        for case in range(CASES):
            length, v = int(rng.integers(1, 13)), int(rng.integers(1, 40))
            logits = fuzz_values(rng, (length, v)).astype(dtype)
            positions = rng.integers(0, length, size=int(rng.integers(1, 4)))
            # a probability that underflows to 0 has the log -inf, which is
            # still a log-probability; NaN or a positive value is not
            with np.errstate(divide="ignore"):
                lp = log_probs_at_positions(logits, rng.integers(0, v, size=len(positions)),
                                            positions)
            assert not np.isnan(lp).any() and (lp <= 0.0).all(), f"case {case}: {lp}"

    def test_layer_norm_of_a_constant_row_is_its_bias(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(73)
        for case in range(CASES):
            rows, d = int(rng.integers(1, 5)), int(rng.integers(1, 129))
            constant = fuzz_values(rng, (rows, 1))
            x = Tensor(np.broadcast_to(constant, (rows, d)).copy(), requires_grad=True)
            gain = Tensor(rng.normal(size=d), requires_grad=True)
            bias = Tensor(rng.normal(size=d), requires_grad=True)
            out = T.layer_norm(x, gain, bias)
            T.backward(T.tsum(T.mul(out, rng.normal(size=(rows, d)))))
            want = np.broadcast_to(bias.data, (rows, d))
            assert out.data.tobytes() == want.tobytes(), f"case {case}"
            assert not gain.grad.any(), f"case {case}"
            assert np.isfinite(x.grad).all(), f"case {case}"

    def test_diversity_term_stays_within_its_bound(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(75)
        L, d = 10, 8
        for case in range(CASES):
            n = int(rng.integers(1, 7))
            hidden = fuzz_values(rng, (n, L, d))
            content = np.zeros((n, L), dtype=bool)
            for r in range(n):
                # one to L - 2 word positions, between [CLS] and [SEP]
                content[r, 1:1 + int(rng.integers(1, L - 1))] = True
            attention = content.copy()
            attention[:, 0] = True
            hidden[~attention] = 0.0
            stack = EmbeddingStack(hidden=Tensor(hidden, requires_grad=True),
                                   content_mask=content)
            kinds = rng.integers(0, len(PERTURBATION_KINDS), size=n)
            disc = Discriminator(d, 16, dropout=0.2, seed=case)
            loss = diversity_loss(stack, kinds, disc, 1.0, rng)
            assert loss.data.dtype == dtype
            assert np.abs(loss.item()) <= n * _TERM_BOUND, f"case {case}: {loss.item()}"


# ---------------------------------------------------------------------------
# every other tape op that gate 1 builds, forward and backward, over the
# finite range: each op on the inputs where its exact results are finite
# ---------------------------------------------------------------------------


def exponent_range(dtype, low=1.0, high=1.0):
    """The binary exponents, as ``np.frexp`` gives them, from ``low`` times
    the least subnormal's to ``high`` times the largest finite value's."""
    fi = np.finfo(dtype)
    return int(np.ceil(low * (fi.minexp - fi.nmant + 1))), int(np.floor(high * fi.maxexp))


def finite_values(rng, shape, dtype, low=1.0, high=1.0):
    """Signed values of ``dtype`` with exponents log-uniform over
    ``exponent_range``. Each row draws one exponent for its largest entry;
    its other entries fall below it by up to a spread drawn per row, from
    none to the whole range, so a row may hold one magnitude or span every
    decade, subnormals included."""
    lo, hi = exponent_range(dtype, low, high)
    shape = tuple(shape)
    rows = shape[:-1] + (1,)
    top = rng.integers(lo, hi + 1, size=rows)
    spread = rng.choice([0, 3, hi - lo], size=rows)
    exp = np.maximum(top - rng.integers(0, spread + 1, size=shape), lo)
    np.put_along_axis(exp, rng.integers(0, shape[-1], size=rows), top, axis=-1)
    mantissa = np.minimum((0.5 + 0.5 * rng.random(shape)).astype(dtype),
                          np.nextafter(dtype(1.0), dtype(0.0)))
    sign = rng.choice(np.array([-1.0, 1.0], dtype=dtype), size=shape)
    return sign * np.ldexp(mantissa, exp.astype(np.int32))


def leaf(values):
    return Tensor(values, requires_grad=True, dtype=values.dtype)


def leaf_grad(g):
    """A leaf's gradient after one contribution ``g``: zeros plus ``g``."""
    return (np.zeros_like(g) + g).tobytes()


def consume(out, rng):
    """Run ``backward`` on ``sum(out * w)`` and check that it consumed the
    tape; return ``w``. Each weight is a signed power of two of at most 1,
    log-uniform from the least subnormal up to the size that keeps
    ``|out * w|`` within 1 / out.size, so the loss is finite and the
    gradient each backward receives spans the range too."""
    data = out.data
    lo, _ = exponent_range(data.dtype)
    bits = int(np.ceil(np.log2(max(data.size, 1))))
    # |out| < 2**e and w = ±2**(exp - 1), so |out * w| < 2**(e + exp - 1)
    top = np.minimum(1, 1 - np.frexp(data)[1] - bits)
    exp = lo + np.floor(rng.random(data.shape) * (top - lo + 1)).astype(np.int32)
    sign = rng.choice(np.array([-1.0, 1.0], dtype=data.dtype), size=data.shape)
    w = sign * np.ldexp(np.full_like(data, 0.5), exp)
    loss = T.tsum(T.mul(out, Tensor(w, dtype=w.dtype)))
    assert np.isfinite(loss.data)
    T.backward(loss)
    assert loss._parents == () and out._parents == ()
    return w


def row_shape(rng):
    return int(rng.integers(1, 5)), int(rng.integers(1, 17))


def elementwise(op):
    """``op`` on operands within half the range, one of them broadcast along
    the rows now and then; the sum, difference and their gradients are
    exact and finite."""
    def case(rng, dtype):
        shape = row_shape(rng)
        a = leaf(finite_values(rng, shape, dtype, high=1 - 1 / 64))
        b_shape = (1, shape[1]) if rng.random() < 0.3 else shape
        b = leaf(finite_values(rng, b_shape, dtype, high=1 - 1 / 64))
        out = getattr(T, op)(a, b)
        w = consume(out, rng)
        ufunc, sign = {"add": (np.add, 1), "sub": (np.subtract, -1)}[op]
        assert out.data.tobytes() == ufunc(a.data, b.data).tobytes()
        assert a.grad.tobytes() == leaf_grad(w)
        want_b = sign * w if b_shape == shape else sign * w.sum(axis=0, keepdims=True)
        assert b.grad.tobytes() == leaf_grad(want_b)
    return case


def fuzz_mul(rng, dtype):
    # operands within the square root of the range: the product is finite
    shape = row_shape(rng)
    a, b = (leaf(finite_values(rng, shape, dtype, low=0.49, high=0.49)) for _ in range(2))
    out = T.mul(a, b)
    w = consume(out, rng)
    assert out.data.tobytes() == (a.data * b.data).tobytes()
    assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()
    assert a.grad.tobytes() == leaf_grad(w * b.data)


def fuzz_div(rng, dtype):
    # dividend and divisor within the square root of the range, the divisor
    # normal: the quotient, the divisor's square and both gradients are
    # finite
    shape = row_shape(rng)
    a = leaf(finite_values(rng, shape, dtype, low=0.45, high=0.45))
    b = leaf(finite_values(rng, shape, dtype, low=0.45, high=0.45))
    out = T.div(a, b)
    consume(out, rng)
    assert out.data.tobytes() == (a.data / b.data).tobytes()
    assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()


def fuzz_clip(rng, dtype):
    shape = row_shape(rng)
    a = leaf(finite_values(rng, shape, dtype))
    lo, hi = np.sort(finite_values(rng, (2,), dtype))
    out = T.clip(a, lo, hi)
    w = consume(out, rng)
    assert ((out.data >= lo) & (out.data <= hi)).all()
    inside = (a.data >= lo) & (a.data <= hi)
    assert (out.data[inside] == a.data[inside]).all()
    assert a.grad.tobytes() == leaf_grad(w * inside)


def fuzz_matmul(rng, dtype):
    # entries within the square root of the range, less some: every product
    # and sum is finite
    n, k, m = (int(rng.integers(1, 9)) for _ in range(3))
    a = leaf(finite_values(rng, (n, k), dtype, low=0.45, high=0.45))
    b = leaf(finite_values(rng, (k, m), dtype, low=0.45, high=0.45))
    out = T.matmul(a, b)
    consume(out, rng)
    assert out.data.tobytes() == (a.data @ b.data).tobytes()
    assert np.isfinite(out.data).all()
    assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()


def fuzz_linear(rng, dtype):
    # as matmul, with a bias; the weight row-major, or a table transposed,
    # as the MLM head's is
    n, k, m = (int(rng.integers(1, 9)) for _ in range(3))
    x = leaf(finite_values(rng, (n, k), dtype, low=0.45, high=0.45))
    w = finite_values(rng, (k, m), dtype, low=0.45, high=0.45)
    w = leaf(w if rng.random() < 0.5 else np.ascontiguousarray(w.T).T)
    b = leaf(finite_values(rng, (m,), dtype, high=0.45))
    out = T.linear(x, w, b)
    consume(out, rng)
    assert np.isfinite(out.data).all()
    for t in (x, w, b):
        assert np.isfinite(t.grad).all()


def fuzz_softmax(rng, dtype):
    # entries within half the range, so a row's spread is finite; keys at
    # -1e9 as attention masks them, a row's every key masked now and then
    shape = row_shape(rng)
    x = finite_values(rng, shape, dtype, high=1.0 - 1 / 64)
    masked = rng.random(shape) < 0.2
    masked[rng.random(shape[0]) < 0.1] = True
    x = leaf(np.where(masked, dtype(-1e9), x))
    out = T.softmax(x)
    consume(out, rng)
    eps = np.finfo(dtype).eps
    assert ((out.data >= 0) & (out.data <= 1)).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=0, atol=4 * shape[1] * eps)
    assert np.isfinite(x.grad).all()


def fuzz_logsumexp(rng, dtype):
    shape = row_shape(rng)
    x = leaf(finite_values(rng, shape, dtype, high=1.0 - 1 / 64))
    out = T.logsumexp(x)
    w = consume(out, rng)
    top = x.data.max(axis=-1)
    assert np.isfinite(out.data).all()
    assert (out.data >= top).all() and (out.data - top <= np.log(shape[1]) + 1e-3).all()
    assert np.isfinite(x.grad).all()
    assert (np.abs(x.grad) <= np.abs(w)[:, None] * (1 + 1e-3)).all()


def fuzz_layer_norm(rng, dtype):
    # every finite row: normalized entries within sqrt(n - 1), a finite
    # gradient (the docstring's promise), and a unit mean square once the
    # row's variance is at least 1, which its spread alone guarantees from
    # sqrt(2n) on
    shape = row_shape(rng)
    n = shape[1]
    x = leaf(finite_values(rng, shape, dtype))
    gain, bias = leaf(np.ones(n, dtype=dtype)), leaf(np.zeros(n, dtype=dtype))
    out = T.layer_norm(x, gain, bias)
    consume(out, rng)
    bound = np.sqrt(n - 1) * (1 + 8 * np.finfo(dtype).eps)
    assert np.isfinite(out.data).all() and (np.abs(out.data) <= bound).all()
    with np.errstate(over="ignore"):
        wide = np.ptp(x.data, axis=-1) >= np.sqrt(2 * n)
    np.testing.assert_allclose((out.data[wide].astype(np.float64) ** 2).mean(axis=-1), 1.0,
                               rtol=1e-3)
    for t in (x, gain, bias):
        assert np.isfinite(t.grad).all()


def fuzz_gelu(rng, dtype):
    # between min(x, 0) and max(x, 0), and above gelu's minimum, -0.1700;
    # the derivative is in [-0.13, 1.13]
    x = leaf(finite_values(rng, row_shape(rng), dtype))
    out = T.gelu(x)
    w = consume(out, rng)
    assert ((out.data >= np.minimum(x.data, 0)) & (out.data >= -0.1701)).all()
    assert (out.data <= np.maximum(x.data, 0)).all()
    assert np.isfinite(x.grad).all() and (np.abs(x.grad) <= 1.13 * np.abs(w)).all()


def fuzz_embedding(rng, dtype):
    v, d = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    table = leaf(finite_values(rng, (v, d), dtype))
    ids = rng.integers(0, v, size=(int(rng.integers(1, 4)), int(rng.integers(1, 7))))
    out = T.embedding_lookup(table, ids)
    w = consume(out, rng)
    assert out.data.tobytes() == table.data[ids].tobytes()
    want = np.zeros_like(table.data)
    np.add.at(want, ids.reshape(-1), w.reshape(-1, d))
    assert table.grad.tobytes() == leaf_grad(want)


def fuzz_take(rng, dtype):
    a = leaf(finite_values(rng, row_shape(rng), dtype))
    idx = rng.integers(0, a.shape[0], size=int(rng.integers(1, 9)))
    out = T.take(a, idx)
    w = consume(out, rng)
    assert out.data.tobytes() == a.data[idx].tobytes()
    want = np.zeros_like(a.data)
    np.add.at(want, idx, w)
    assert a.grad.tobytes() == leaf_grad(want)


def fuzz_l2_normalize(rng, dtype):
    # unit or zero rows; each row's largest entry at least 2**-(maxexp - 8),
    # so the gradient, about w / norm, is finite too
    lo, _ = exponent_range(dtype)
    x = finite_values(rng, row_shape(rng), dtype, low=(np.finfo(dtype).maxexp - 8) / -lo)
    x[rng.random(x.shape[0]) < 0.1] = 0.0
    x = leaf(x)
    out = T.l2_normalize(x)
    consume(out, rng)
    norms = np.sqrt((out.data.astype(np.float64) ** 2).sum(axis=-1))
    zero = ~x.data.any(axis=-1)
    assert (norms[zero] == 0).all() and (x.grad[zero] == 0).all()
    np.testing.assert_allclose(norms[~zero], 1.0, rtol=8 * np.finfo(dtype).eps)
    assert np.isfinite(x.grad).all()


def fuzz_tmax(rng, dtype):
    a = leaf(finite_values(rng, row_shape(rng), dtype))
    out = T.tmax(a, axis=1)
    w = consume(out, rng)
    assert out.data.tobytes() == a.data.max(axis=1).tobytes()
    want = np.zeros_like(a.data)
    want[np.arange(a.shape[0]), a.data.argmax(axis=1)] = w
    assert a.grad.tobytes() == leaf_grad(want)


def fuzz_rows(rng, dtype):
    # gather_rows, scatter_rows, transpose and reshape copy their entries
    b, n, d = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 5))
    keep = rng.random((b, n)) < 0.6
    a = leaf(finite_values(rng, (b, n, d), dtype))
    out = T.reshape(T.transpose(T.gather_rows(a, keep), (1, 0)), (-1,))
    w = consume(out, rng)
    assert out.data.tobytes() == a.data[keep].T.reshape(-1).tobytes()
    want = np.zeros_like(a.data)
    want[keep] = w.reshape(d, -1).T
    assert a.grad.tobytes() == leaf_grad(want)
    r = leaf(finite_values(rng, (int(keep.sum()), d), dtype))
    out = T.scatter_rows(r, keep)
    w = consume(out, rng)
    assert (out.data[~keep] == 0).all() and out.data[keep].tobytes() == r.data.tobytes()
    assert r.grad.tobytes() == leaf_grad(w[keep])


def fuzz_tsum(rng, dtype):
    # entries within the range less the log of their count: the sum is finite
    shape = row_shape(rng)
    _, hi = exponent_range(dtype)
    a = leaf(finite_values(rng, shape, dtype, high=1 - 6 / hi))
    axis = None if rng.random() < 0.5 else 1
    out = T.tsum(a, axis=axis)
    w = consume(out, rng)
    assert np.isfinite(out.data).all()
    assert a.grad.tobytes() == leaf_grad(np.broadcast_to(w if axis is None else w[:, None],
                                                         shape))


def fuzz_dropout(rng, dtype):
    # entries within half the range, so each kept one scaled by 1 / 0.7 is
    # finite; a dropped one is exactly 0, with no gradient
    x = leaf(finite_values(rng, row_shape(rng), dtype, high=1.0 - 1 / 64))
    out = T.dropout(x, 0.3, rng)
    w = consume(out, rng)
    kept = out.data != 0
    assert np.isfinite(out.data).all()
    assert (x.grad[~kept & (x.data != 0)] == 0).all() and np.isfinite(x.grad).all()


def fuzz_attention(rng, dtype, rate=0.0):
    # projected rows within the square root of the range, less some: the
    # scores are finite and their spread too. Each context entry is a
    # weighted mean of its head's values, so within the largest of them
    b, n, heads = int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 3))
    d = heads * int(rng.integers(1, 4))
    trimmed = rng.random((b, n)) < 0.8
    queries = trimmed & (rng.random((b, n)) < 0.7)
    k, v = (leaf(finite_values(rng, (int(trimmed.sum()), d), dtype, low=0.45, high=0.45))
            for _ in range(2))
    q = leaf(finite_values(rng, (int(queries.sum()), d), dtype, low=0.45, high=0.45))
    out = T.attention(q, k, v, trimmed, queries, heads, rate, rng if rate else None)
    if not out.data.size:
        return
    consume(out, rng)
    bound = np.abs(v.data).max(initial=0) / (1 - rate) * (1 + 4 * n * np.finfo(dtype).eps)
    assert np.isfinite(out.data).all() and (np.abs(out.data) <= bound).all()
    for t in (q, k, v):
        assert np.isfinite(t.grad).all()


FUZZ_OPS = {
    "add": elementwise("add"),
    "sub": elementwise("sub"),
    "mul": fuzz_mul,
    "div": fuzz_div,
    "clip": fuzz_clip,
    "matmul": fuzz_matmul,
    "linear": fuzz_linear,
    "softmax": fuzz_softmax,
    "logsumexp": fuzz_logsumexp,
    "layer_norm": fuzz_layer_norm,
    "gelu": fuzz_gelu,
    "embedding": fuzz_embedding,
    "take": fuzz_take,
    "l2_normalize": fuzz_l2_normalize,
    "max": fuzz_tmax,
    "rows": fuzz_rows,
    "tsum": fuzz_tsum,
    "dropout": fuzz_dropout,
    "attention": fuzz_attention,
    "attention_dropout": lambda rng, dtype: fuzz_attention(rng, dtype, rate=0.3),
}


@pytest.mark.parametrize("op", sorted(FUZZ_OPS))
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_tape_op_over_the_finite_range(dtype, op):
    T.set_dtype(dtype)
    rng = np.random.default_rng([81, sorted(FUZZ_OPS).index(op), dtype == "float32"])
    for case in range(CASES):
        try:
            FUZZ_OPS[op](rng, np.dtype(dtype).type)
        except AssertionError as e:
            raise AssertionError(f"case {case}") from e


# breaches the fuzzer found outside the domains above, each pinned by a
# named test


@pytest.mark.parametrize("dtype, a, b, w", [
    ("float32", 2.0**100, 2.0**70, 2.0**-40), ("float32", 2.0**-100, 2.0**-80, 1.0),
    ("float64", 2.0**700, 2.0**600, 2.0**-200), ("float64", 2.0**-700, 2.0**-600, 1.0)],
    ids=["float32-huge", "float32-tiny", "float64-huge", "float64-tiny"])
def test_div_gradient_of_a_divisor_whose_square_is_out_of_range(dtype, a, b, w):
    # a / b, a, b and the divisor's gradient -w * a / b**2 are powers of two
    # in range; b * b is not
    T.set_dtype(dtype)
    x, y = Tensor([a], requires_grad=True), Tensor([b], requires_grad=True)
    T.backward(T.tsum(T.mul(T.div(x, y), np.array([w]))))
    assert y.grad[0] == -w * a / b / b


@pytest.mark.parametrize("op", ["softmax", "logsumexp", "cross_entropy"])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_row_whose_spread_overflows(dtype, op):
    T.set_dtype(dtype)
    big = float(np.finfo(dtype).max)
    x = Tensor([[big, -big, 0.0]], requires_grad=True)
    out = {"softmax": T.softmax, "logsumexp": T.logsumexp,
           "cross_entropy": lambda t: T.cross_entropy(t, [0])}[op](x)
    T.backward(T.tsum(out))
    want = {"softmax": [[1.0, 0.0, 0.0]], "logsumexp": [big], "cross_entropy": 0.0}[op]
    assert out.data.tobytes() == np.array(want, dtype=dtype).tobytes()
