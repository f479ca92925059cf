"""Seeded, numpy-only fuzz of the numeric functions' documented ranges, in
float32 and float64, with values of every magnitude from 1e-30 to 1e30.

The windowed score's range and symmetry are fuzzed in ``test_scoring.py``
(``TestScoreFuzz``), and softmax's in ``test_tensor.py``.
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
                lp = log_probs_at_positions(logits[positions],
                                            rng.integers(0, v, size=len(positions)))
            assert not np.isnan(lp).any() and (lp <= 0.0).all(), f"case {case}: {lp}"

    def test_layer_norm_of_a_constant_row_is_finite(self, dtype):
        T.set_dtype(dtype)
        rng = np.random.default_rng(73)
        for case in range(CASES):
            rows, d = int(rng.integers(1, 5)), int(rng.integers(1, 129))
            constant = fuzz_values(rng, (rows, 1))
            x = Tensor(np.broadcast_to(constant, (rows, d)).copy(), requires_grad=True)
            gain = Tensor(rng.normal(size=d), requires_grad=True)
            bias = Tensor(rng.normal(size=d), requires_grad=True)
            # in float32 the square of a huge row's rounding residue may
            # overflow; the variance is then inf and the row normalizes to 0
            with np.errstate(over="ignore"):
                out = T.layer_norm(x, gain, bias)
                T.backward(T.tsum(T.mul(out, rng.normal(size=(rows, d)))))
            for name, values in (("out", out.data), ("x grad", x.grad),
                                 ("gain grad", gain.grad)):
                assert np.isfinite(values).all(), f"case {case}: {name}"

    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_diversity_term_stays_within_its_bound(self, dtype, train):
        T.set_dtype(dtype)
        rng = np.random.default_rng(74 + train)
        L, d = 10, 8
        for case in range(CASES):
            n = int(rng.integers(1 + train, 7))
            hidden = fuzz_values(rng, (n, L, d))
            content = np.zeros((n, L), dtype=bool)
            for r in range(n):
                # one to L - 2 word positions, between [CLS] and [SEP]
                content[r, 1:1 + int(rng.integers(1, L - 1))] = True
            attention = content.copy()
            attention[:, 0] = True
            hidden[~attention] = 0.0
            stack = EmbeddingStack(hidden=Tensor(hidden, requires_grad=True),
                                   attention_mask=attention, content_mask=content)
            kinds = [PERTURBATION_KINDS[k] for k in
                     rng.integers(0, len(PERTURBATION_KINDS), size=n)]
            disc = Discriminator(d, 16, dropout=0.2, seed=case)
            # a huge batch's float32 batch-norm variance may overflow to inf,
            # which scales its rows to 0
            with np.errstate(over="ignore"):
                loss = diversity_loss(stack, kinds, disc, 1.0, train=train, rng=rng)
            assert loss.data.dtype == dtype
            assert np.abs(loss.item()) <= n * _TERM_BOUND, f"case {case}: {loss.item()}"
