import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import EmbeddingStack
from winoref.scoring import ScoreConfig, windowed_bertscore
from winoref.tensor import Tensor

from conftest import check_grads, finite_difference_grad, rel_err


def make_stack(rows, pad_extra=2, special_rows=None):
    """One-row stack with content positions 1..n (position 0 stands in for
    [CLS], n+1 for [SEP]); optional extra pad positions are zeroed like the
    encoder does."""
    rows = np.asarray(rows, dtype=float)
    n, d = rows.shape
    L = n + 2 + pad_extra
    hidden = np.zeros((1, L, d))
    rng = np.random.default_rng(0)
    hidden[0, 0] = special_rows[0] if special_rows is not None else rng.normal(size=d)
    hidden[0, 1:n + 1] = rows
    hidden[0, n + 1] = special_rows[1] if special_rows is not None else rng.normal(size=d)
    attention = np.zeros((1, L), dtype=bool)
    attention[0, :n + 2] = True
    content = np.zeros((1, L), dtype=bool)
    content[0, 1:n + 1] = True
    return EmbeddingStack(hidden=Tensor(hidden), attention_mask=attention,
                          content_mask=content)


def random_stack(rng, n, d=8, requires_grad=False):
    stack = make_stack(rng.normal(size=(n, d)))
    if requires_grad:
        stack.hidden.requires_grad = True
        stack.hidden.grad = np.zeros_like(stack.hidden.data)
    return stack


def batch_of(stacks, requires_grad=False):
    """One stack holding the rows of ``stacks``, zero-padded to a common
    length, as a fresh leaf."""
    L = max(s.hidden.shape[1] for s in stacks)

    def pad(x):
        return np.pad(x, [(0, 0), (0, L - x.shape[1])] + [(0, 0)] * (x.ndim - 2))

    return EmbeddingStack(
        hidden=Tensor(np.concatenate([pad(s.hidden.data) for s in stacks]),
                      requires_grad=requires_grad),
        attention_mask=np.concatenate([pad(s.attention_mask) for s in stacks]),
        content_mask=np.concatenate([pad(s.content_mask) for s in stacks]))


def pair_score(a, b, cfg):
    """Score of row 0 of ``a`` against row 0 of ``b`` as a scalar tensor."""
    return T.tsum(windowed_bertscore(a, b, [0], [0], cfg))


def brute_force_unwindowed(a_rows, b_rows):
    """Independent greedy-matching oracle over raw content rows."""
    def normalize(x):
        n = np.linalg.norm(x, axis=1, keepdims=True)
        return np.where(n > 0, x / np.where(n > 0, n, 1.0), 0.0)

    sim = normalize(a_rows) @ normalize(b_rows).T
    p = sim.max(axis=1).mean()
    r = sim.max(axis=0).mean()
    if p <= 0 or r <= 0:   # F1 is defined for positive P and R only
        return 0.0
    return 2 * p * r / (p + r)


def content_rows(stack, row=0):
    return stack.hidden.data[row][stack.content_mask[row]]


def oracle_pair_score(a, i, b, j, cfg):
    """Independent double loop over row i of ``a`` and row j of ``b``, for
    either alignment and either eligibility rule."""
    ea = np.nonzero(a.eligible(cfg.include_special)[i])[0]
    eb = np.nonzero(b.eligible(cfg.include_special)[j])[0]

    def unit(v):
        n = np.linalg.norm(v)
        return v / n if n > 0 else v * 0.0

    va = [unit(a.hidden.data[i, k]) for k in ea]
    vb = [unit(b.hidden.data[j, k]) for k in eb]
    pos_a = list(range(len(ea))) if cfg.alignment == "compact" else list(ea)
    pos_b = list(range(len(eb))) if cfg.alignment == "compact" else list(eb)
    w = cfg.window_radius
    p_terms = []
    for x in range(len(va)):
        sims = [float(va[x] @ vb[y]) for y in range(len(vb)) if abs(pos_a[x] - pos_b[y]) <= w]
        p_terms.append(max(sims) if sims else 0.0)
    r_terms = []
    for y in range(len(vb)):
        sims = [float(va[x] @ vb[y]) for x in range(len(va)) if abs(pos_a[x] - pos_b[y]) <= w]
        r_terms.append(max(sims) if sims else 0.0)
    p, r = np.mean(p_terms), np.mean(r_terms)
    if p <= 0 or r <= 0:   # F1 is defined for positive P and R only
        return 0.0
    return 2 * p * r / (p + r)


class TestScore:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        stack = random_stack(rng, 6)
        for w in (0, 1, 5, 100):
            got = pair_score(stack, stack, ScoreConfig(window_radius=w)).item()
            assert got == pytest.approx(1.0, abs=1e-6)

    def test_wide_window_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            na, nb = rng.integers(2, 9, size=2)
            a, b = random_stack(rng, int(na)), random_stack(rng, int(nb))
            got = pair_score(a, b, ScoreConfig(window_radius=64)).item()
            want = brute_force_unwindowed(content_rows(a), content_rows(b))
            assert got == pytest.approx(want, abs=1e-9), f"trial {trial}"

    def test_orthogonal_stacks_score_zero(self):
        a = make_stack(np.eye(8)[:3])
        b = make_stack(np.eye(8)[4:7])
        got = pair_score(a, b, ScoreConfig(window_radius=10)).item()
        assert got == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_stack(rng, 5), random_stack(rng, 7)
            cfg = ScoreConfig(window_radius=int(rng.integers(0, 5)))
            ab = pair_score(a, b, cfg).item()
            ba = pair_score(b, a, cfg).item()
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_monotone_in_window_radius(self):
        # per-position maxima are monotone in the radius; with positive
        # precision/recall (the regime real stacks live in) F1 follows
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = make_stack(rng.normal(size=(6, 8)) + 1.2)
            b = make_stack(rng.normal(size=(6, 8)) + 1.2)
            scores = [pair_score(a, b, ScoreConfig(window_radius=w)).item()
                      for w in (0, 1, 2, 4, 8)]
            assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(scores, scores[1:])), scores

    def test_precision_recall_maxima_monotone_on_raw_stacks(self):
        # the underlying claim holds for any stacks: each position's best
        # in-window match can only improve as the window grows
        rng = np.random.default_rng(14)
        for _ in range(20):
            ra, rb = rng.normal(size=(6, 8)), rng.normal(size=(6, 8))

            def norm(x):
                return x / np.linalg.norm(x, axis=1, keepdims=True)

            sim = norm(ra) @ norm(rb).T
            prev_p = prev_r = -np.inf
            for w in (0, 1, 2, 4, 8):
                mask = np.abs(np.arange(6)[:, None] - np.arange(6)[None, :]) <= w
                p = np.where(mask, sim, -4.0).max(axis=1).mean()
                r = np.where(mask, sim, -4.0).max(axis=0).mean()
                assert p >= prev_p - 1e-12 and r >= prev_r - 1e-12
                prev_p, prev_r = p, r

    def test_pad_invariance(self):
        rng = np.random.default_rng(5)
        rows_a, rows_b = rng.normal(size=(5, 8)), rng.normal(size=(6, 8))
        cfg = ScoreConfig(window_radius=2)
        base = pair_score(make_stack(rows_a, pad_extra=0),
                                  make_stack(rows_b, pad_extra=0), cfg).item()
        padded = pair_score(make_stack(rows_a, pad_extra=7),
                                    make_stack(rows_b, pad_extra=3), cfg).item()
        assert base == pytest.approx(padded, abs=1e-12)

    def test_special_row_content_irrelevant_by_default(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(4, 8))
        cfg = ScoreConfig(window_radius=2)
        a1 = make_stack(rows, special_rows=np.ones((2, 8)))
        a2 = make_stack(rows, special_rows=-np.ones((2, 8)) * 9.0)
        b = random_stack(rng, 5)
        s1 = pair_score(a1, b, cfg).item()
        s2 = pair_score(a2, b, cfg).item()
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_include_special_changes_the_matching(self):
        rng = np.random.default_rng(7)
        a, b = random_stack(rng, 4), random_stack(rng, 4)
        narrow = pair_score(a, b, ScoreConfig(window_radius=2)).item()
        wide = pair_score(
            a, b, ScoreConfig(window_radius=2, include_special=True)).item()
        assert narrow != pytest.approx(wide, abs=1e-9)

    def test_empty_side_rejected(self):
        rng = np.random.default_rng(8)
        stack = random_stack(rng, 3)
        empty = make_stack(rng.normal(size=(2, 8)))
        empty.content_mask[:] = False
        with pytest.raises(ValueError, match="second"):
            pair_score(stack, empty, ScoreConfig())
        with pytest.raises(ValueError, match="first"):
            pair_score(empty, stack, ScoreConfig())
        # one empty row among scorable ones still fails the batch
        batch = batch_of([stack, empty, random_stack(rng, 4)])
        with pytest.raises(ValueError, match="second"):
            windowed_bertscore(batch, batch, [0, 2], [2, 1], ScoreConfig())

    def test_positions_with_empty_window_contribute_zero(self):
        rng = np.random.default_rng(9)
        rows_a, rows_b = rng.normal(size=(6, 8)), rng.normal(size=(2, 8))
        a, b = make_stack(rows_a), make_stack(rows_b)
        w = 1
        got = pair_score(a, b, ScoreConfig(window_radius=w)).item()

        def norm(x):
            return x / np.linalg.norm(x, axis=1, keepdims=True)

        sim = norm(rows_a) @ norm(rows_b).T
        p_terms = []
        for i in range(6):
            js = [j for j in range(2) if abs(i - j) <= w]
            p_terms.append(max(sim[i, j] for j in js) if js else 0.0)
        p = np.mean(p_terms)
        r_terms = []
        for j in range(2):
            is_ = [i for i in range(6) if abs(i - j) <= w]
            r_terms.append(max(sim[i, j] for i in is_) if is_ else 0.0)
        r = np.mean(r_terms)
        want = 2 * p * r / (p + r)
        assert got == pytest.approx(want, abs=1e-12)

    def test_compact_alignment_absorbs_leading_shift(self):
        # same content rows, but one stack has them shifted one position
        # later (as after prepending a conditioning token)
        rng = np.random.default_rng(10)
        rows = rng.normal(size=(5, 8))
        a = make_stack(rows)
        L = a.hidden.shape[1] + 1
        hidden = np.zeros((L, 8))
        hidden[0] = rng.normal(size=8)      # [CLS]
        hidden[1] = rng.normal(size=8)      # conditioning token row
        hidden[2:7] = rows
        hidden[7] = rng.normal(size=8)      # [SEP]
        attention = np.zeros(L, dtype=bool)
        attention[:8] = True
        content = np.zeros(L, dtype=bool)
        content[2:7] = True
        shifted = EmbeddingStack(hidden=Tensor(hidden[None]),
                                 attention_mask=attention[None],
                                 content_mask=content[None])
        compact = pair_score(a, shifted, ScoreConfig(window_radius=0)).item()
        raw = pair_score(
            a, shifted, ScoreConfig(window_radius=0, alignment="raw")).item()
        assert compact == pytest.approx(1.0, abs=1e-9)
        assert raw < 1.0 - 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ScoreConfig(window_radius=-1)
        with pytest.raises(ValueError):
            ScoreConfig(alignment="sideways")

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_stack(rng, 5, requires_grad=True)
        b = random_stack(rng, 6, requires_grad=True)
        cfg = ScoreConfig(window_radius=2)
        loss = pair_score(a, b, cfg)
        T.backward(loss)
        for stack in (a, b):
            numeric = finite_difference_grad(
                lambda: pair_score(a, b, cfg).item(), stack.hidden.data)
            err = rel_err(stack.hidden.grad, numeric)
            assert err < 1e-4, f"rel err {err:.2e}"

    def test_result_in_unit_interval_on_random_stacks(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_stack(rng, 5), random_stack(rng, 4)
            s = pair_score(a, b, ScoreConfig(window_radius=2)).item()
            assert -1.0 - 1e-9 <= s <= 1.0 + 1e-9

    def test_nonpositive_recall_scores_zero_with_no_gradient(self):
        # one row against two rows at cosines 0.1 and -0.29: P = 0.1 and
        # R = -0.095, where 2PR / (P + R) would give -3.8
        e = np.eye(3)
        a = make_stack(e[:1])
        b = make_stack([0.1 * e[0] + np.sqrt(1 - 0.1 ** 2) * e[1],
                        -0.29 * e[0] + np.sqrt(1 - 0.29 ** 2) * e[2]])
        for stack in (a, b):
            stack.hidden.requires_grad = True
            stack.hidden.grad = np.zeros_like(stack.hidden.data)
        score = pair_score(a, b, ScoreConfig(window_radius=2))
        assert score.item() == 0.0
        T.backward(score)
        assert not a.hidden.grad.any() and not b.hidden.grad.any()

    def test_every_score_in_unit_interval_on_random_batches(self):
        # short rows in three dimensions and narrow windows make negative
        # precision or recall common
        rng = np.random.default_rng(12)
        stack = batch_of([make_stack(rng.normal(size=(int(n), 3)))
                          for n in rng.integers(1, 5, size=12)])
        n = stack.hidden.shape[0]
        ia, ib = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n)))
        for radius in (0, 1, 2):
            scores = windowed_bertscore(stack, stack, ia, ib,
                                        ScoreConfig(window_radius=radius)).data
            assert ((scores >= 0.0) & (scores <= 1.0 + 1e-12)).all()


class TestBatchedScore:
    """The batched op against a per-pair double loop over the same rows."""

    @staticmethod
    def _batch(rng):
        # rows of different lengths, so short-against-long pairs have
        # positions with an empty window at radius 0; rows 0 and 1 hold
        # mutually orthogonal content, so their pairs have P + R = 0
        eye = np.eye(8)
        stacks = [make_stack(eye[:3]), make_stack(eye[4:7])]
        stacks += [random_stack(rng, int(n)) for n in (2, 5, 7, 3)]
        stacks.append(make_stack(rng.normal(size=(4, 8)) + 1.2, pad_extra=5))
        return batch_of(stacks, requires_grad=True)

    @pytest.mark.parametrize("alignment", ["compact", "raw"])
    @pytest.mark.parametrize("include_special", [False, True])
    @pytest.mark.parametrize("radius", [0, 1, 64])
    def test_matches_per_pair_double_loop(self, alignment, include_special, radius):
        rng = np.random.default_rng(40)
        stack = self._batch(rng)
        n = stack.hidden.shape[0]
        ia, ib = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n)))
        cfg = ScoreConfig(window_radius=radius, include_special=include_special,
                          alignment=alignment)
        got = windowed_bertscore(stack, stack, ia, ib, cfg).data
        want = [oracle_pair_score(stack, i, stack, j, cfg) for i, j in zip(ia, ib)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        if not include_special:
            orthogonal = (ia + ib == 1)
            assert (got[orthogonal] == 0.0).all()

    def test_two_stacks_of_different_lengths(self):
        rng = np.random.default_rng(41)
        a = batch_of([random_stack(rng, int(n)) for n in (3, 6, 4)])
        b = batch_of([random_stack(rng, int(n)) for n in (5, 2)])
        b = batch_of([b, make_stack(rng.normal(size=(6, 8)), pad_extra=9)])
        ia, ib = np.array([0, 1, 2, 2, 1]), np.array([1, 0, 2, 1, 2])
        for alignment in ("compact", "raw"):
            cfg = ScoreConfig(window_radius=1, alignment=alignment)
            got = windowed_bertscore(a, b, ia, ib, cfg).data
            want = [oracle_pair_score(a, i, b, j, cfg) for i, j in zip(ia, ib)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_degenerate_pair_passes_no_gradient(self):
        rng = np.random.default_rng(42)
        stack = self._batch(rng)
        ia, ib = np.array([0, 2, 3]), np.array([1, 3, 5])
        scores = windowed_bertscore(stack, stack, ia, ib, ScoreConfig(window_radius=2))
        assert scores.data[0] == 0.0 and (scores.data[1:] != 0.0).all()
        T.backward(T.tsum(T.mul(scores, np.array([1.0, 0.0, 0.0]))))
        assert not stack.hidden.grad.any()

    @pytest.mark.parametrize("alignment", ["compact", "raw"])
    def test_gradient_matches_finite_differences(self, alignment):
        rng = np.random.default_rng(43)
        stack = batch_of([random_stack(rng, int(n)) for n in (4, 6, 3)],
                         requires_grad=True)
        ia, ib = np.array([0, 1, 2, 0, 2]), np.array([1, 0, 0, 2, 1])
        weights = rng.normal(size=5)
        cfg = ScoreConfig(window_radius=1, alignment=alignment)
        check_grads(lambda: T.tsum(T.mul(windowed_bertscore(stack, stack, ia, ib, cfg),
                                         weights)), [stack.hidden])


class TestScoreFuzz:
    """Seeded numpy-only fuzz over the float range: the score is symmetric
    in its two rows and stays in [0, 1]."""

    MAX_LEN = 12

    @classmethod
    def _fuzz_stack(cls, rng, rows=6, d=4):
        # each row attends to 1..max_len positions; its content is either
        # every attended position or the ones between [CLS] and [SEP], so
        # 1..max_len positions are eligible under either rule. Every token
        # vector has its own magnitude in 1e-30..1e30, a few are exactly
        # zero, and pads are zero as the encoder leaves them
        L = cls.MAX_LEN
        attention = np.zeros((rows, L), dtype=bool)
        content = np.zeros((rows, L), dtype=bool)
        for r in range(rows):
            m = int(rng.integers(1, L + 1))
            attention[r, :m] = True
            content[r, :m] = True
            if m >= 3 and rng.random() < 0.5:
                content[r, [0, m - 1]] = False
        hidden = rng.normal(size=(rows, L, d)) * 10.0 ** rng.uniform(-30, 30, (rows, L, 1))
        hidden[rng.random((rows, L)) < 0.05] = 0.0
        hidden[~attention] = 0.0
        # a repeated row pairs a row with its own copy
        hidden[-1], attention[-1], content[-1] = hidden[0], attention[0], content[0]
        return EmbeddingStack(hidden=Tensor(hidden), attention_mask=attention,
                              content_mask=content)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_symmetric_and_in_unit_interval(self, dtype):
        T.set_dtype(dtype)
        eps = np.finfo(dtype).eps
        rng = np.random.default_rng(60)
        for case in range(25):
            stack = self._fuzz_stack(rng)
            assert stack.hidden.data.dtype == dtype
            n = stack.hidden.shape[0]
            ia, ib = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n)))
            for alignment in ("compact", "raw"):
                for include_special in (False, True):
                    for radius in range(4):
                        cfg = ScoreConfig(window_radius=radius, alignment=alignment,
                                          include_special=include_special)
                        scores = windowed_bertscore(stack, stack, ia, ib, cfg).data
                        where = f"case {case}, {cfg}"
                        assert np.isfinite(scores).all(), where
                        # a row against its equal is clamped to 1, not
                        # rounded above it
                        assert ((scores >= 0.0) & (scores <= 1.0)).all(), \
                            f"{where}: range {scores.min()}..{scores.max()}"
                        swapped = scores.reshape(n, n).T.ravel()
                        assert np.abs(scores - swapped).max() <= 4 * eps, where
