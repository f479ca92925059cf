"""Windowed token-matching similarity between embedding stacks.

Greedy max-cosine token matching in the style of BERTscore, with matching
restricted to a sliding window centered on each token. Only word tokens
take part: special, perturbation and pad positions are never matched. The
encoder's stacks hold each row's words at its front, so the cosine grids
span words only; any content mask is read the same way.
Precision averages each left-side word's best in-window match, recall
mirrors it, and the two are combined into F1. Every pair of a batch is
scored in one vectorized computation; it is differentiable, and the max
routes gradient to its argmax element.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .config import check_count

# out-of-window penalty; cosines live in [-1, 1] so -4 can never win a max
_WINDOW_PENALTY = -4.0


@dataclass
class ScoreConfig:
    window_radius: int = 2

    def __post_init__(self):
        check_count("score.window_radius", self.window_radius, 0)


def _rows(x, index):
    """The rows of ``x`` at ``index``: ``x`` itself when the index is each
    of its rows in order, as in a reconstruction pair."""
    return x if np.array_equal(index, np.arange(len(x.data))) else T.take(x, index)


def windowed_bertscore(a, b, ia, ib, cfg):
    """F1 of row ``ia[p]`` of stack ``a`` against row ``ib[p]`` of stack
    ``b`` for every pair p, as a differentiable (P,) tensor.

    Words whose window contains no word of the other row contribute 0. As
    in BERTScore, F1 is defined only for positive precision and recall: a
    pair with P <= 0 or R <= 0 scores 0 and passes no gradient. F1 is
    clamped to 1, which a row scored against its equal exceeds by rounding,
    so every score lies in [0, 1].
    """
    ia = np.asarray(ia, dtype=np.int64)
    ib = np.asarray(ib, dtype=np.int64)
    ea = a.content_mask[ia]                              # (P, La)
    eb = b.content_mask[ib]                              # (P, Lb)
    for which, mask in (("first", ea), ("second", eb)):
        if not mask.any(axis=1).all():
            raise ValueError(f"windowed score: {which} stack has no word tokens "
                             f"after special/pad filtering")

    unit_a = T.l2_normalize(a.hidden)
    unit_b = unit_a if b is a else T.l2_normalize(b.hidden)
    rows_a, rows_b = _rows(unit_a, ia), _rows(unit_b, ib)
    sim = T.matmul(rows_a, T.transpose(rows_b, (0, 2, 1)))   # (P, La, Lb) cosines

    # a word's window coordinate is its index among its row's words, which
    # lines a stack conditioned on a perturbation token up with its target
    pa = np.cumsum(ea, axis=1) - 1
    pb = np.cumsum(eb, axis=1) - 1
    in_window = ((np.abs(pa[:, :, None] - pb[:, None, :]) <= cfg.window_radius)
                 & ea[:, :, None] & eb[:, None, :])
    masked = T.add(sim, np.where(in_window, 0.0, _WINDOW_PENALTY))

    # rows/cols with an empty window contribute 0 and receive no gradient;
    # the weights also average over each side's words only
    row_w = in_window.any(axis=2) / ea.sum(axis=1, keepdims=True)
    col_w = in_window.any(axis=1) / eb.sum(axis=1, keepdims=True)
    precision = T.tsum(T.mul(T.tmax(masked, axis=2), row_w), axis=1)
    recall = T.tsum(T.mul(T.tmax(masked, axis=1), col_w), axis=1)

    # a pair with P <= 0 or R <= 0 is scaled by 0 over a denominator
    # shifted to 1: F1 0, no gradient. A row against its equal rounds up to
    # 2 ulps above 1 (its cosines with itself do), so F1 is clamped to 1
    total = precision.data + recall.data
    ok = (precision.data > 0) & (recall.data > 0)
    f1 = T.div(T.mul(T.mul(precision, recall), np.where(ok, 2.0, 0.0)),
               T.add(T.add(precision, recall), np.where(ok, 0.0, 1.0 - total)))
    return T.clip(f1, 0.0, 1.0)
