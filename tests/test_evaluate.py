import ast
import ctypes
import dataclasses
import inspect
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import winoref.evaluate as ev
import winoref.tensor as T
from winoref.checkpoint import params_hash
from winoref.cli import refine_and_evaluate
from winoref.config import load_config
from winoref.encoder import ENCODE_CHUNK, EncoderConfig, EncoderModel, encode, encode_batch
from winoref.evaluate import evaluate, log_probs_at_positions, resolve, score_candidate
from winoref.refine import LossWeights
from winoref.synthetic import make_benchmark, make_perturbation_corpus
from winoref.text import (CLS_ID, MASK_ID, PAD_ID, SEP_ID, SchemaInstance,
                          benchmark_texts, build_vocab, corpus_sentences, row_masks,
                          tokenize, word_tokens)

from conftest import make_null_benchmark


def hand_layout(prefix, m, suffix, vocab, max_len):
    """[CLS] prefix [MASK] x m suffix [SEP], padded, built position by
    position: (ids, attention, slot positions)."""
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    pos = 1
    for tok in prefix:
        ids[pos] = vocab.id(tok)
        pos += 1
    slots = np.arange(pos, pos + m)
    ids[slots] = MASK_ID
    pos += m
    for tok in suffix:
        ids[pos] = vocab.id(tok)
        pos += 1
    ids[pos] = SEP_ID
    attention = np.arange(max_len) <= pos
    return ids, attention, slots


def masked_ids(inst, which, vocab, max_len):
    """(ids, candidate token ids) of candidate ``which`` of ``inst``, as
    scoring builds its row, padded to max_len; None if the row overflows
    max_len."""
    built = ev._instance_rows(inst, vocab, max_len)[which - 1]
    if built is None:
        return None
    row, cand = built
    return np.array(row + (PAD_ID,) * (max_len - len(row))), np.array(cand)


def one_score(model, vocab, inst, which):
    """Candidate ``which``'s CandidateScore, as ``resolve`` scores ``inst``."""
    return resolve(model, vocab, inst)[1][which - 1]


def brute_force_logprob(logits_row, token_id):
    """Independent full-softmax enumeration at one position."""
    m = logits_row.max()
    e = np.exp(logits_row - m)
    probs = e / e.sum()
    return np.log(probs)[token_id]


@pytest.fixture(scope="module")
def world():
    groups = make_perturbation_corpus(10, seed=31)
    bench = make_benchmark(12, seed=32)
    vocab = build_vocab(corpus_sentences(groups) + benchmark_texts(bench))
    cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=24,
                        vocab_size=len(vocab))
    model = EncoderModel(cfg, seed=8)
    return groups, bench, vocab, cfg, model


def rig_logits(monkeypatch, vocab, max_len, row_probs):
    """Make every forward return the asked rows of hand-set (max_len, V)
    logits, the same for every id row of the batch: row_probs maps
    position -> probability vector over the vocabulary."""
    out = np.zeros((max_len, len(vocab)))
    with np.errstate(divide="ignore"):   # a hand-set probability 0 is -inf
        for pos, probs in row_probs.items():
            out[pos] = np.log(probs)

    def fake(model, ids, rows, rng=None):
        from winoref.tensor import Tensor
        return Tensor(out[np.nonzero(rows)[1]])

    monkeypatch.setattr(ev, "mlm_logits_batch", fake)


class TestScoreCandidate:
    def test_hand_set_single_token_candidates(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        inst = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                              candidate2="suitcase", label=1)
        # slot at position 2: [CLS] the _ ...
        probs = np.full(len(vocab), 0.1 / (len(vocab) - 2))
        probs[vocab.id("trophy")] = 0.7
        probs[vocab.id("suitcase")] = 0.2
        rig_logits(monkeypatch, vocab, cfg.max_len, {2: probs})
        s1 = one_score(model, vocab, inst, 1)
        s2 = one_score(model, vocab, inst, 2)
        assert s1.avg_log_prob == pytest.approx(np.log(0.7), abs=1e-9)
        assert s2.avg_log_prob == pytest.approx(np.log(0.2), abs=1e-9)
        choice, _ = resolve(model, vocab, inst)
        assert choice == 1

    def test_two_token_candidate_probability_half(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        inst = SchemaInstance(sentence="the _ fits .", candidate1="red trophy",
                              candidate2="suitcase", label=1)
        # two masked positions (2 and 3), each giving the true token p = 0.5
        def half_at(token):
            probs = np.full(len(vocab), 0.5 / (len(vocab) - 1))
            probs[vocab.id(token)] = 0.5
            return probs

        rig_logits(monkeypatch, vocab, cfg.max_len,
                   {2: half_at("red"), 3: half_at("trophy")})
        s1 = one_score(model, vocab, inst, 1)
        ids = masked_ids(inst, 1, vocab, cfg.max_len)[0]
        assert list(np.flatnonzero(ids == MASK_ID)) == [2, 3]
        assert s1.avg_log_prob == pytest.approx(np.log(0.5), abs=1e-12)

    def test_exact_equality_with_brute_force_enumeration(self, world):
        groups, bench, vocab, cfg, model = world
        from winoref.encoder import mlm_logits_batch
        for inst in bench[:6]:
            for which in (1, 2):
                got = one_score(model, vocab, inst, which)
                ids, cand_ids = masked_ids(inst, which, vocab, cfg.max_len)
                logits = mlm_logits_batch(model.detached(), ids[None, :],
                                          ids[None, :] == MASK_ID).data
                want = np.mean([brute_force_logprob(row, t)
                                for row, t in zip(logits, cand_ids)])
                assert got.avg_log_prob == want  # bit-exact in 64-bit

    def test_core_scorer_matches_oracle_on_random_logits(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            logits = rng.normal(0, 3, size=(9, 40))
            positions = rng.choice(9, size=3, replace=False)
            tokens = rng.integers(0, 40, size=3)
            got = log_probs_at_positions(logits, tokens, positions)
            want = [brute_force_logprob(logits[p], t)
                    for p, t in zip(positions, tokens)]
            np.testing.assert_array_equal(got, want)

    def test_overflowing_candidate_scores_minus_inf_and_is_marked(self, world):
        groups, bench, vocab, cfg, model = world
        # [CLS] the [MASK] x m fits . [SEP] fills max_len exactly at m = fit
        fit = cfg.max_len - 5
        for m in (1, fit, fit + 1, 30):
            inst = SchemaInstance(sentence="the _ fits .",
                                  candidate1=" ".join(["trophy"] * m),
                                  candidate2="suitcase", label=1)
            # the report counts an overflow; scoring warns of none
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                choice, (s, _) = resolve(model, vocab, inst)
            if m <= fit:
                ids, _ = masked_ids(inst, 1, vocab, cfg.max_len)
                want = hand_layout(["the"], m, ["fits", "."], vocab, cfg.max_len)
                np.testing.assert_array_equal(ids, want[0])
                np.testing.assert_array_equal(row_masks(ids)[0], want[1])
                np.testing.assert_array_equal(np.flatnonzero(ids == MASK_ID), want[2])
                assert np.isfinite(s.avg_log_prob) and not s.overflows
                continue
            assert masked_ids(inst, 1, vocab, cfg.max_len) is None
            assert s.avg_log_prob == float("-inf") and s.overflows
        assert choice == 2

    def test_report_counts_the_candidates_that_overflow(self, world):
        groups, bench, vocab, cfg, model = world
        long = " ".join(["trophy"] * cfg.max_len)
        instances = [SchemaInstance(sentence="the _ fits .", candidate1=c1,
                                    candidate2=c2, label=1)
                     for c1, c2 in (("trophy", "suitcase"), (long, "suitcase"),
                                    ("trophy", long), (long, long + " box"))]
        assert evaluate(model, vocab, instances).overflows == 4

    def test_an_underflowing_score_is_not_an_overflow(self, world, monkeypatch):
        # the candidate's probability is 0, so it scores -inf though its row
        # fits max_len; the report counts no overflow
        groups, bench, vocab, cfg, model = world
        inst = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                              candidate2="suitcase", label=2)
        probs = np.full(len(vocab), 1.0 / (len(vocab) - 1))
        probs[vocab.id("trophy")] = 0.0
        rig_logits(monkeypatch, vocab, cfg.max_len, {2: probs})
        with warnings.catch_warnings():   # nor does np.log of 0 warn
            warnings.simplefilter("error")
            report = evaluate(model, vocab, [inst])
        assert report.decisions[0]["score1"] == float("-inf")
        assert report.accuracy == 1.0 and report.overflows == 0

    def test_score_depends_only_on_text(self, world):
        groups, bench, vocab, cfg, model = world
        a = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                           candidate2="trophy suitcase", label=1)
        b = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                           candidate2="anything", label=2)
        sa = one_score(model, vocab, a, 1)
        sb = one_score(model, vocab, b, 1)
        assert sa.avg_log_prob == sb.avg_log_prob


class TestResolve:
    def test_argmax_and_tie_rule(self, world):
        groups, bench, vocab, cfg, model = world
        # identical candidate texts give identical scores; ties pick 1
        inst = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                              candidate2="trophy", label=2)
        choice, (s1, s2) = resolve(model, vocab, inst)
        assert s1.avg_log_prob == s2.avg_log_prob
        assert choice == 1

    def test_flipping_candidates_flips_choice(self, world):
        groups, bench, vocab, cfg, model = world
        inst = bench[0]
        c, (s1, s2) = resolve(model, vocab, inst)
        if s1.avg_log_prob == s2.avg_log_prob:
            pytest.skip("tied scores on this instance")
        flipped = SchemaInstance(sentence=inst.sentence,
                                 candidate1=inst.candidate2,
                                 candidate2=inst.candidate1, label=inst.label)
        c2, _ = resolve(model, vocab, flipped)
        assert {c, c2} == {1, 2}

    def test_invariant_under_retokenization(self, world):
        groups, bench, vocab, cfg, model = world
        inst = bench[1]
        noisy = SchemaInstance(sentence="  " + inst.sentence.upper().replace(" ", "   "),
                               candidate1=inst.candidate1.upper(),
                               candidate2="  " + inst.candidate2,
                               label=inst.label)
        assert resolve(model, vocab, inst)[0] == resolve(model, vocab, noisy)[0]


def count_forwards(monkeypatch):
    """Record the id rows of every forward that scoring makes."""
    calls = []
    real = ev.mlm_logits_batch

    def counted(model, ids, *args, **kwargs):
        calls.append(ids.copy())
        return real(model, ids, *args, **kwargs)

    monkeypatch.setattr(ev, "mlm_logits_batch", counted)
    return calls


def bits(score):
    return np.float64(score.avg_log_prob).tobytes()


class TestRowMemo:
    def test_candidates_of_one_token_count_share_one_forward(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        calls = count_forwards(monkeypatch)
        for inst in bench[:4]:
            assert (len(word_tokens(inst.candidate1))
                    == len(word_tokens(inst.candidate2)))
            calls.clear()
            _, scores = resolve(model, vocab, inst)
            assert len(calls) == 1
            _, fresh = resolve(model, vocab, inst)
            assert len(calls) == 2   # each resolve forwards once
            assert [bits(s) for s in scores] == [bits(s) for s in fresh]
            # outside a block there is no score to read
            for which in (1, 2):
                with pytest.raises(LookupError, match="resolve scores one instance"):
                    score_candidate(model, vocab, inst, which)
            assert len(calls) == 2

    def test_candidates_of_two_token_counts_share_one_forward(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        inst = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                              candidate2="red trophy", label=1)
        calls = count_forwards(monkeypatch)
        _, scores = resolve(model, vocab, inst)
        # one forward of the two distinct rows
        assert len(calls) == 1 and len(calls[0]) == 2
        assert not np.array_equal(calls[0][0], calls[0][1])
        fresh = [one_score(model, vocab, inst, which) for which in (1, 2)]
        assert [bits(s) for s in scores] == [bits(s) for s in fresh]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_block_of_shared_and_unshared_rows(self, world, dtype, monkeypatch):
        # one log-softmax runs over the block's slot logits, yet each
        # candidate scores as its own row's slot logits alone would: a row
        # two candidates share, and a one-token and a two-token candidate's
        groups, bench, vocab, cfg, _ = world
        T.set_dtype(dtype)
        model = EncoderModel(cfg, seed=4)
        shared = bench[0]
        assert (len(word_tokens(shared.candidate1))
                == len(word_tokens(shared.candidate2)))
        unshared = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                                  candidate2="red trophy", label=1)
        forwards = []
        real = ev.mlm_logits_batch

        def recorded(view, ids, slots):
            logits = real(view, ids, slots)
            forwards.append((ids.copy(), logits.data.copy()))
            return logits

        monkeypatch.setattr(ev, "mlm_logits_batch", recorded)
        report = evaluate(model, vocab, [shared, unshared])
        assert len(forwards) == 1
        ids, logits = forwards[0]
        assert len(ids) == 3 and logits.dtype == dtype
        counts = (ids == MASK_ID).sum(axis=1)
        starts = np.cumsum(counts) - counts
        for inst, d in zip((shared, unshared), report.decisions):
            for which in (1, 2):
                row, cand = masked_ids(inst, which, vocab, cfg.max_len)
                i = next(i for i, r in enumerate(ids) if np.array_equal(r, row))
                own = logits[starts[i]:starts[i] + counts[i]]
                want = log_probs_at_positions(own, cand, np.arange(len(cand))).mean()
                assert np.float64(d[f"score{which}"]).tobytes() == np.float64(want).tobytes()

    def test_memo_does_not_outlive_its_instance(self, world):
        groups, bench, vocab, cfg, model = world
        model = EncoderModel(cfg, seed=9)   # its own, to change in place
        inst = bench[0]
        _, before = resolve(model, vocab, inst)
        model.params["mlm_bias"].data[vocab.id(word_tokens(inst.candidate1)[0])] += 1.0
        _, after = resolve(model, vocab, inst)
        fresh = [one_score(model, vocab, inst, which) for which in (1, 2)]
        assert [bits(s) for s in after] == [bits(s) for s in fresh]
        assert bits(after[0]) != bits(before[0])

    def test_overflowing_candidate_beside_a_fitting_one(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        inst = SchemaInstance(sentence="the _ fits .",
                              candidate1=" ".join(["trophy"] * cfg.max_len),
                              candidate2="suitcase", label=2)
        calls = count_forwards(monkeypatch)
        choice, (s1, s2) = resolve(model, vocab, inst)
        assert s1.avg_log_prob == float("-inf") and s1.overflows
        assert not s2.overflows and len(calls) == 1
        assert bits(s2) == bits(one_score(model, vocab, inst, 2))
        assert choice == 2


@pytest.fixture(scope="module")
def block_world():
    """70 benchmark instances, more than one block's rows, and a
    vocabulary that holds their words."""
    bench = make_benchmark(70, seed=33)
    return bench, build_vocab(benchmark_texts(bench))


def block_model(vocab, dtype, seed=8):
    T.set_dtype(dtype)
    return EncoderModel(EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                                      max_len=24, vocab_size=len(vocab)), seed=seed)


def row_blocks(instances, vocab, max_len):
    """The number of blocks of at most ENCODE_CHUNK distinct masked rows
    that the instances fill, walked in file order."""
    blocks, rows = 1, set()
    for inst in instances:
        new = {masked_ids(inst, which, vocab, max_len)[0].tobytes()
               for which in (1, 2)}
        if len(rows | new) > ENCODE_CHUNK:
            blocks, rows = blocks + 1, set()
        rows |= new
    return blocks


def scores(report):
    return [(d["score1"], d["score2"]) for d in report.decisions]


class TestBlockForward:
    def test_twenty_instances_make_one_forward(self, block_world, monkeypatch):
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        calls = count_forwards(monkeypatch)
        evaluate(model, vocab, bench[:20])
        assert len(calls) == 1
        # one id row per distinct masked row
        want = {masked_ids(inst, which, vocab, 24)[0].tobytes()
                for inst in bench[:20] for which in (1, 2)}
        assert sorted(ids.tobytes() for ids in calls[0]) == sorted(want)

    def test_one_forward_per_block_of_distinct_rows(self, block_world, monkeypatch):
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        blocks = row_blocks(bench, vocab, 24)
        assert blocks >= 2
        calls = count_forwards(monkeypatch)
        evaluate(model, vocab, bench)
        assert len(calls) == blocks
        assert all(len(ids) <= ENCODE_CHUNK for ids in calls)

    def test_each_instances_rows_are_built_once_per_walk(self, block_world, monkeypatch):
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        # once in the walk that checks every block's caps and once in the
        # walk that scores
        built = []
        real = ev._instance_rows

        def counted(instance, *args):
            built.append(instance)
            return real(instance, *args)

        monkeypatch.setattr(ev, "_instance_rows", counted)
        evaluate(model, vocab, bench[:20])
        assert built == list(bench[:20]) * 2

    def test_each_block_is_stacked_once(self, block_world, monkeypatch):
        # the walk that checks the caps yields its rows unstacked; only the
        # walk that scores pads and stacks them
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        stacked = []

        class CountedNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def array(self, *args, **kwargs):
                stacked.append(args)
                return np.array(*args, **kwargs)

        monkeypatch.setattr(ev, "np", CountedNumpy())
        calls = count_forwards(monkeypatch)
        evaluate(model, vocab, bench)
        assert len(stacked) == len(calls) == row_blocks(bench, vocab, 24)

    @pytest.mark.parametrize("dtype,tol", [("float32", 1e-5), ("float64", 1e-12)])
    def test_decisions_equal_resolve(self, block_world, dtype, tol):
        bench, vocab = block_world
        model = block_model(vocab, dtype)
        report = evaluate(model, vocab, bench)
        for inst, d in zip(bench, report.decisions):
            choice, (s1, s2) = resolve(model, vocab, inst)
            assert d["chosen"] == choice
            assert d["score1"] == pytest.approx(s1.avg_log_prob, rel=0, abs=tol)
            assert d["score2"] == pytest.approx(s2.avg_log_prob, rel=0, abs=tol)

    @pytest.mark.parametrize("kind", ["equal-counts", "unequal-counts", "overflow"])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_resolve_is_evaluate_on_one_instance(self, block_world, dtype, kind):
        bench, vocab = block_world
        model = block_model(vocab, dtype)
        inst = bench[0]
        assert (len(word_tokens(inst.candidate1))
                == len(word_tokens(inst.candidate2)))
        if kind == "unequal-counts":
            inst = dataclasses.replace(inst, candidate2=f"{inst.candidate1} "
                                                        f"{inst.candidate2}")
        elif kind == "overflow":
            inst = dataclasses.replace(inst, candidate1=" ".join([inst.candidate1] * 24))
        _, (s1, s2) = resolve(model, vocab, inst)
        d = evaluate(model, vocab, [inst]).decisions[0]
        assert ([np.float64(d[key]).tobytes() for key in ("score1", "score2")]
                == [bits(s1), bits(s2)])
        assert s1.overflows == (kind == "overflow")

    def test_a_wrapper_of_score_candidate_sees_every_candidate(self, block_world,
                                                               monkeypatch):
        # the benchmark's tracer wraps score_candidate by this name
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        seen = []
        real = ev.score_candidate

        def wrapper(model, vocab, instance, which):
            seen.append((id(instance), which))
            return real(model, vocab, instance, which)

        monkeypatch.setattr(ev, "score_candidate", wrapper)
        evaluate(model, vocab, bench)
        assert seen == [(id(inst), which) for inst in bench for which in (1, 2)]

    def test_score_candidate_reads_only_the_block_of_its_model(self, block_world,
                                                               monkeypatch):
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        other, seen = model.clone(), []
        real = ev.score_candidate

        def wrapper(model, vocab, instance, which):
            with pytest.raises(LookupError, match="resolve scores one instance"):
                real(other, vocab, instance, which)
            seen.append(which)
            return real(model, vocab, instance, which)

        monkeypatch.setattr(ev, "score_candidate", wrapper)
        evaluate(model, vocab, bench[:2])
        assert seen == [1, 2, 1, 2]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_a_file_and_its_reversal_decide_alike(self, block_world, dtype):
        bench, vocab = block_world
        model = block_model(vocab, dtype)
        forward = evaluate(model, vocab, bench).decisions
        backward = evaluate(model, vocab, bench[::-1]).decisions[::-1]
        assert [d["chosen"] for d in forward] == [d["chosen"] for d in backward]

    def test_block_memo_does_not_outlive_its_call(self, block_world):
        bench, vocab = block_world
        model = block_model(vocab, "float64", seed=9)   # its own, to change in place
        before = evaluate(model, vocab, bench[:20])
        assert ev._BLOCK_SCORES.get(None) is None
        model.params["mlm_bias"].data[vocab.id(word_tokens(bench[0].candidate1)[0])] += 1.0
        after = evaluate(model, vocab, bench[:20])
        assert scores(after) == scores(evaluate(model.clone(), vocab, bench[:20]))
        assert scores(after)[0][0] != scores(before)[0][0]

    def test_overflowing_candidate_inside_a_block(self, block_world, monkeypatch):
        bench, vocab = block_world
        model = block_model(vocab, "float64")
        instances = list(bench[:6])
        long = " ".join([instances[2].candidate1] * 24)
        instances[2] = dataclasses.replace(instances[2], candidate1=long)
        calls = count_forwards(monkeypatch)
        report = evaluate(model, vocab, instances)
        assert len(calls) == 1 and report.overflows == 1
        d = report.decisions[2]
        assert d["score1"] == float("-inf") and d["chosen"] == 2
        for inst, d in zip(instances, report.decisions):
            _, (s1, s2) = resolve(model, vocab, inst)
            for got, want in ((d["score1"], s1), (d["score2"], s2)):
                assert got == pytest.approx(want.avg_log_prob, rel=0, abs=1e-12)

    def test_hand_set_logits_reach_every_row_of_a_block(self, world, monkeypatch):
        groups, bench, vocab, cfg, model = world
        # two sentences, so two rows, each with its slot at position 2
        instances = [SchemaInstance(sentence=f"{det} _ fits .", candidate1="trophy",
                                    candidate2="suitcase", label=1)
                     for det in ("the", "it")]
        probs = np.full(len(vocab), 0.1 / (len(vocab) - 2))
        probs[vocab.id("trophy")] = 0.7
        probs[vocab.id("suitcase")] = 0.2
        rig_logits(monkeypatch, vocab, cfg.max_len, {2: probs})
        report = evaluate(model, vocab, instances)
        for d in report.decisions:
            assert d["score1"] == pytest.approx(np.log(0.7), abs=1e-9)
            assert d["score2"] == pytest.approx(np.log(0.2), abs=1e-9)

    def test_peak_memory_does_not_grow_with_the_file(self):
        # each block's rows are built as it is scored, so evaluate's peak,
        # less the report it returns, holds about one block: it grew from
        # 2.6 to 15.2 MB here while the walk planned the whole file first
        bench = make_benchmark(20_000, seed=0)
        vocab = build_vocab(benchmark_texts(bench))
        T.set_dtype("float32")
        model = EncoderModel(EncoderConfig(layers=0, heads=2, model_dim=96, ff_dim=8,
                                           max_len=48, vocab_size=len(vocab)), seed=0)

        def transient_peak(instances):
            tracemalloc.start()
            try:
                report = evaluate(model, vocab, instances)
                retained, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.count == len(instances)
            return peak - retained

        small, large = transient_peak(bench[:2_000]), transient_peak(bench)
        assert large < 1.25 * small, (small, large)


class TestEvaluate:
    def test_forced_correct_dataset_scores_one(self, world):
        groups, bench, vocab, cfg, model = world
        forced = []
        for inst in bench:
            choice, _ = resolve(model, vocab, inst)
            forced.append(SchemaInstance(sentence=inst.sentence,
                                         candidate1=inst.candidate1,
                                         candidate2=inst.candidate2,
                                         label=choice))
        report = evaluate(model, vocab, forced, "forced")
        assert report.accuracy == 1.0

    def test_accuracy_is_exact_ratio(self, world):
        groups, bench, vocab, cfg, model = world
        report = evaluate(model, vocab, bench, "toy")
        correct = sum(d["correct"] for d in report.decisions)
        assert report.accuracy == correct / report.count
        assert report.count == len(bench)

    def test_empty_dataset_rejected(self, world):
        groups, bench, vocab, cfg, model = world
        with pytest.raises(ValueError, match="empty"):
            evaluate(model, vocab, [], "none")

    def test_evaluation_mutates_no_parameters(self, world):
        groups, bench, vocab, cfg, model = world
        before = params_hash(model.param_arrays())
        evaluate(model, vocab, bench, "toy")
        assert params_hash(model.param_arrays()) == before

    def test_random_model_near_half_on_balanced_null(self, world):
        groups, bench, vocab, cfg, _ = world
        null = make_null_benchmark(400, seed=9)
        null_vocab = build_vocab(benchmark_texts(null))
        model = EncoderModel(EncoderConfig(layers=1, heads=2, model_dim=16,
                                           ff_dim=32, max_len=24,
                                           vocab_size=len(null_vocab)), seed=77)
        report = evaluate(model, null_vocab, null, "null")
        assert abs(report.accuracy - 0.5) < 0.08


def test_evaluation_imports_no_training_code():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(ev))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [
                a.name for a in node.names]
            assert not any(name.startswith("winoref") for name in names)
    assert imported == {"encoder", "text"}


def test_scoring_and_target_encoding_build_no_tape(world, monkeypatch):
    # both forward the model's detached view, so no node they make joins a
    # tape; a forward of the model itself does
    groups, bench, vocab, cfg, model = world
    node, taped = T._node, []

    def record(*args):
        out = node(*args)
        taped.extend([out] if out._backward_fn is not None else [])
        return out

    monkeypatch.setattr(T, "_node", record)
    rows = [tokenize(g.base, vocab, cfg.max_len) for g in groups[:4]]
    evaluate(model, vocab, bench[:4])
    resolve(model, vocab, bench[0])
    encode(model, rows)
    assert taped == []
    encode_batch(model, rows)
    assert taped


def _fresh_stdout(code, **env):
    """The stdout of a fresh interpreter that runs ``code`` on this
    checkout's package, with ``env`` over this process's environment; a
    value of None unsets its variable."""
    src = Path(ev.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env}
    done = subprocess.run([sys.executable, "-c", code],
                          env={k: v for k, v in env.items() if v is not None},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _submodules_after(statement):
    """The winoref submodules a fresh interpreter holds after running
    ``statement``."""
    code = (f"{statement}\nimport sys\n"
            f"print(*sorted(m for m in sys.modules if m.startswith('winoref.')))")
    return set(_fresh_stdout(code).split())


def test_package_root_imports_no_submodule():
    assert _submodules_after("import winoref") == set()


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_package_root_pins_one_blas_thread_unless_set():
    # the BLAS thread count decides how a product is summed, so it is part of
    # every artifact's bits: importing winoref, before numpy loads, sets each
    # unset variable to "1", and a variable the caller set keeps its value
    code = ("import os, sys, winoref\nassert 'numpy' not in sys.modules\n"
            f"print(*(os.environ[v] for v in {THREAD_VARS!r}))")
    unset = dict.fromkeys(THREAD_VARS)
    assert _fresh_stdout(code, **unset).split() == ["1", "1", "1"]
    one_set = {**unset, "OMP_NUM_THREADS": "3"}
    assert _fresh_stdout(code, **one_set).split() == ["1", "3", "1"]


def test_tests_run_at_one_blas_thread_unless_set():
    # conftest imports winoref before numpy, so this process's BLAS runs at
    # the one thread of every artifact unless the caller set another count
    if os.environ["OPENBLAS_NUM_THREADS"] != "1":
        pytest.skip("the caller set OPENBLAS_NUM_THREADS")
    libs = sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas*.so"))
    threads = getattr(ctypes.CDLL(str(libs[0])), "scipy_openblas_get_num_threads64_",
                      None) if libs else None
    if threads is None:
        pytest.skip("numpy bundles no scipy-openblas with a thread-count query")
    threads.argtypes, threads.restype = [], ctypes.c_int
    assert threads() == 1


def test_evaluation_loads_no_refinement_scoring_or_command_code():
    # scoring a benchmark needs no refinement, matching or command code
    loaded = _submodules_after("import winoref.evaluate")
    assert "winoref.evaluate" in loaded
    assert not loaded & {"winoref.refine", "winoref.scoring", "winoref.cli",
                         "winoref.synthetic", "winoref.checkpoint"}


class TestAblation:
    """``cli.refine_and_evaluate``, the loop ``ablate`` and ``sweep`` run."""

    def _setup(self):
        groups = make_perturbation_corpus(6, seed=41)
        d1 = make_benchmark(6, seed=42)
        d2 = make_benchmark(6, seed=43)
        vocab = build_vocab(corpus_sentences(groups) + benchmark_texts(d1)
                            + benchmark_texts(d2))
        cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32,
                            max_len=24, vocab_size=len(vocab))
        model = EncoderModel(cfg, seed=3)
        run_cfg = load_config(overrides={
            ("refine", "epochs"): 1, ("refine", "batch_size"): 3,
            ("refine", "perturbations_per_sample"): 2, ("refine", "lr"): 1e-3,
            ("refine", "warmup_steps"): 2, ("runtime", "seed"): 5,
            ("refine", "disc_hidden"): 16})
        full = LossWeights(2.0, 0.5, 0.5)
        runs = [("baseline", LossWeights(0.0, 0.0, 0.0)),
                ("contrastive+diversity", dataclasses.replace(full, alpha=0.0)),
                ("reconstruction+diversity", dataclasses.replace(full, beta=0.0)),
                ("reconstruction+contrastive", dataclasses.replace(full, gamma=0.0)),
                ("full", full)]
        return groups, [("d1", d1), ("d2", d2)], vocab, model, run_cfg, runs

    def test_shape_and_weight_zeroing(self):
        groups, datasets, vocab, model, run_cfg, runs = self._setup()
        results = list(refine_and_evaluate(model, runs, groups, datasets, vocab,
                                           run_cfg))
        assert [r[0] for r in results] == [
            "baseline", "contrastive+diversity", "reconstruction+diversity",
            "reconstruction+contrastive", "full"]
        for _, weights, refined, accs in results:
            assert set(accs) == {"d1", "d2"}
            assert all(0.0 <= acc <= 1.0 for acc in accs.values())
            untrained = params_hash(refined.param_arrays()) == params_hash(
                model.param_arrays())
            assert untrained == weights.all_zero()
        # each zeroed term changes what the run learns
        hashes = {params_hash(r[2].param_arrays()) for r in results}
        assert len(hashes) == len(results)

    def test_deterministic_and_input_model_untouched(self):
        groups, datasets, vocab, model, run_cfg, runs = self._setup()
        before = params_hash(model.param_arrays())

        def summary():
            return [(name, weights, params_hash(m.param_arrays()), accs)
                    for name, weights, m, accs in refine_and_evaluate(
                        model, runs, groups, datasets, vocab, run_cfg)]

        first = summary()
        assert params_hash(model.param_arrays()) == before
        assert summary() == first
