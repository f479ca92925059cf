"""Acceptance suite: one test per release gate, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-gate
lines stream. The end-to-end pieces drive the real CLI commands on a
generated synthetic corpus and stay deliberately inside the stated runtime
budgets.
"""

import json
import time

import numpy as np
import pytest

import winoref.tensor as T
from winoref import checkpoint as ckpt
from winoref import cli
from winoref.encoder import EncoderConfig, EncoderModel
from winoref.evaluate import evaluate, log_probs_at_positions, resolve
from winoref.refine import (Discriminator, contrastive_loss, contrastive_pairs,
                            diversity_loss, reconstruction_loss)
from winoref.scoring import ScoreConfig, windowed_bertscore
from winoref.synthetic import make_benchmark, make_perturbation_corpus
from winoref.text import (MASK_ID, PERTURBATION_KINDS, SchemaInstance, Vocabulary,
                          benchmark_texts, build_vocab, corpus_sentences,
                          load_benchmark, load_perturbation_corpus, save_benchmark,
                          save_perturbation_corpus, tokenize)

from conftest import (check_grads, kind_probe_accuracy, make_null_benchmark,
                      masked_token_accuracy, min_same_kind_distance,
                      pooled_kind_dataset, quickstart_config, read_csv_artifact)
from test_refine import (entries_for, ids_of, oracle_contrastive,
                         oracle_diversity, oracle_reconstruction,
                         zeroed_discriminator)
from test_scoring import (batch_of, brute_force_unwindowed, content_rows,
                          make_stack, pair_score, random_stack)
from test_tensor import randt


def announce(n, name):
    print(f"\nACCEPTANCE {n} {name}: PASS", flush=True)


# ---------------------------------------------------------------------------
# gate 1: gradient suite, < 1 minute, >= 100 random instances
# ---------------------------------------------------------------------------


def test_acceptance_1_gradient_suite():
    t0 = time.monotonic()
    instances = 0

    def op_builders(rng):
        a34 = randt(rng, 3, 4)
        b34 = randt(rng, 3, 4)
        w34 = T.Tensor(rng.normal(size=(3, 4)))
        pos = T.Tensor(rng.uniform(0.3, 2.0, size=(3, 4)), requires_grad=True)
        m1 = randt(rng, 3, 4)
        m2 = randt(rng, 4, 2)
        b2 = randt(rng, 2)
        w32 = T.Tensor(rng.normal(size=(3, 2)))
        emb = randt(rng, 7, 4)
        ids = rng.integers(0, 7, size=(2, 5))
        wemb = T.Tensor(rng.normal(size=(2, 5, 4)))
        logits = randt(rng, 5, 9)
        targets = rng.integers(0, 9, size=5)
        g8, b8 = randt(rng, 4), randt(rng, 4)
        w3 = T.Tensor(rng.normal(size=(3,)))
        w44 = T.Tensor(rng.normal(size=(4, 4)))
        idx = rng.integers(0, 3, size=4)
        vals = rng.normal(size=(3, 4))
        # clear of clip's bounds at +-1.2
        safe = T.Tensor(np.where(np.abs(np.abs(vals) - 1.2) < 0.05, 0.5, vals),
                        requires_grad=True)
        keep = np.array([True, False, True])          # not a prefix
        r24 = randt(rng, 2, 4)
        w24 = T.Tensor(rng.normal(size=(2, 4)))
        # attention over 2 rows of 4 positions, 2 heads of width 2: a key mask
        # that is not a prefix, a strict subset of queries, dropout at 0.3 with
        # the same mask in every pass
        trim = np.array([[True, False, True, True], [True, True, False, False]])
        some = trim & np.array([[False, False, True, False], [True, False, False, True]])
        drop_seed = int(rng.integers(2**31))
        q54, k54, v54, q24 = (randt(rng, *s) for s in ((5, 4), (5, 4), (5, 4), (2, 4)))
        w54 = T.Tensor(rng.normal(size=(5, 4)))
        return [
            ("add", lambda: T.tsum(T.mul(T.add(a34, b34), w34)), [a34, b34]),
            ("sub", lambda: T.tsum(T.mul(T.sub(a34, b34), w34)), [a34, b34]),
            ("mul", lambda: T.tsum(T.mul(T.mul(a34, b34), w34)), [a34, b34]),
            ("div", lambda: T.tsum(T.mul(T.div(a34, pos), w34)), [a34, pos]),
            ("clip", lambda: T.tsum(T.mul(T.clip(safe, -1.2, 1.2), w34)), [safe]),
            ("matmul", lambda: T.tsum(T.mul(T.matmul(m1, m2), w32)), [m1, m2]),
            ("linear", lambda: T.tsum(T.mul(T.linear(m1, m2, b2), w32)), [m1, m2, b2]),
            ("softmax", lambda: T.tsum(T.mul(T.softmax(a34), w34)), [a34]),
            ("logsumexp", lambda: T.tsum(T.mul(T.logsumexp(a34), w3)), [a34]),
            ("layer_norm", lambda: T.tsum(T.mul(T.layer_norm(a34, g8, b8), w34)),
             [a34, g8, b8]),
            ("gelu", lambda: T.tsum(T.mul(T.gelu(a34), w34)), [a34]),
            ("embedding", lambda: T.tsum(T.mul(T.embedding_lookup(emb, ids), wemb)),
             [emb]),
            ("cross_entropy", lambda: T.cross_entropy(logits, targets), [logits]),
            ("l2_normalize", lambda: T.tsum(T.mul(T.l2_normalize(a34), w34)), [a34]),
            ("take", lambda: T.tsum(T.mul(T.take(a34, idx), w44)), [a34]),
            ("gather_rows", lambda: T.tsum(T.mul(T.gather_rows(a34, keep), w24)), [a34]),
            ("scatter_rows", lambda: T.tsum(T.mul(T.scatter_rows(r24, keep), w34)), [r24]),
            ("max", lambda: T.tsum(T.mul(T.tmax(a34, axis=1), w3)), [a34]),
            ("transpose", lambda: T.tsum(T.mul(T.reshape(T.transpose(a34, (1, 0)),
                                                         (3, 4)), w34)), [a34]),
            ("attention", lambda: T.tsum(T.mul(T.attention(
                q54, k54, v54, trim, trim, 2, 0.0, None), w54)), [q54, k54, v54]),
            ("attention_queries", lambda: T.tsum(T.mul(T.attention(
                q24, k54, v54, trim, some, 2, 0.0, None), w24)), [q24, k54, v54]),
            ("dropout", lambda: T.tsum(T.mul(T.dropout(
                a34, 0.3, np.random.default_rng(drop_seed)), w34)), [a34]),
            ("attention_dropout", lambda: T.tsum(T.mul(T.attention(
                q54, k54, v54, trim, trim, 2, 0.3, np.random.default_rng(drop_seed)),
                w54)), [q54, k54, v54]),
        ]

    for seed in range(4):
        rng = np.random.default_rng(1000 + seed)
        for name, build, inputs in op_builders(rng):
            check_grads(build, inputs)
            instances += 1

    # windowed similarity metric: several pairs of one stack, and pairs
    # across two stacks of different lengths
    for seed in range(4):
        rng = np.random.default_rng(2000 + seed)
        cfg = ScoreConfig(window_radius=2)
        one = batch_of([random_stack(rng, n) for n in (5, 6, 4)], requires_grad=True)
        ia, ib = np.array([0, 1, 2, 0]), np.array([1, 2, 0, 2])
        w = rng.normal(size=4)
        check_grads(lambda: T.tsum(T.mul(windowed_bertscore(one, one, ia, ib, cfg), w)),
                    [one.hidden])
        instances += 1
        a = batch_of([random_stack(rng, n) for n in (5, 3)], requires_grad=True)
        b = batch_of([random_stack(rng, n) for n in (6, 2, 4)], requires_grad=True)
        ia, ib = np.array([0, 1, 1]), np.array([2, 0, 1])
        check_grads(lambda: T.tsum(T.mul(windowed_bertscore(a, b, ia, ib, cfg), w[:3])),
                    [a.hidden, b.hidden])
        instances += 1

    # the three loss terms w.r.t. the generated stacks
    for seed in range(4):
        rng = np.random.default_rng(3000 + seed)
        cfg = ScoreConfig(window_radius=2)
        targets = batch_of([random_stack(rng, 4) for _ in range(2)])
        gens = batch_of([random_stack(rng, 4) for _ in range(2)], requires_grad=True)
        check_grads(lambda: reconstruction_loss(targets, gens, 1.3, cfg), [gens.hidden])
        instances += 1

        stack = batch_of([random_stack(rng, 4) for _ in range(4)], requires_grad=True)
        pairs = contrastive_pairs(range(4), [i % 2 for i in range(4)])
        check_grads(lambda: contrastive_loss(stack, pairs, 0.7, cfg), [stack.hidden])
        instances += 1

        _, kinds, dstack = entries_for(rng, 2, kinds=PERTURBATION_KINDS[:3],
                                       requires_grad=True)
        # the discriminator's one forward, on batch statistics: a fixed seed
        # draws the same dropout mask in every pass
        for rate in (0.0, 0.3):
            disc = Discriminator(8, 16, dropout=rate, seed=seed)
            mask_seed = int(rng.integers(2**31))
            check_grads(lambda: diversity_loss(dstack, ids_of(kinds), disc, 1.1,
                                               rng=np.random.default_rng(mask_seed)),
                        [dstack.hidden] + [p for _, p in disc.named_params()])
            instances += 1

    elapsed = time.monotonic() - t0
    assert instances >= 100, f"only {instances} gradient-check instances"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    announce(1, f"gradient suite ({instances} instances, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# gate 2: metric oracle
# ---------------------------------------------------------------------------


def test_acceptance_2_metric_oracle():
    rng = np.random.default_rng(7)
    # wide window == unwindowed greedy matching, 20 random pairs, 1e-9
    for _ in range(20):
        na, nb = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        a, b = random_stack(rng, na), random_stack(rng, nb)
        wide = pair_score(a, b, ScoreConfig(window_radius=64)).item()
        oracle = brute_force_unwindowed(content_rows(a), content_rows(b))
        assert abs(wide - oracle) <= 1e-9
    # self-similarity
    for _ in range(10):
        s = random_stack(rng, int(rng.integers(2, 9)))
        for w in (0, 2, 7):
            assert abs(pair_score(s, s, ScoreConfig(window_radius=w)).item()
                       - 1.0) <= 1e-6
    # monotonicity over 50 random pairs; positively-biased rows keep the
    # precision/recall sums positive as real encoder stacks do, where F1
    # inherits the monotonicity of the per-position maxima
    for _ in range(50):
        a = make_stack(rng.normal(size=(6, 8)) + 1.2)
        b = make_stack(rng.normal(size=(6, 8)) + 1.2)
        scores = [pair_score(a, b, ScoreConfig(window_radius=w)).item()
                  for w in (0, 1, 2, 4, 16)]
        assert all(s2 >= s1 - 1e-12 for s1, s2 in zip(scores, scores[1:]))
    announce(2, "windowed metric vs brute-force oracle")


# ---------------------------------------------------------------------------
# gate 3: loss oracles
# ---------------------------------------------------------------------------


def test_acceptance_3_loss_oracles():
    rng = np.random.default_rng(11)
    w = 2
    cfg = ScoreConfig(window_radius=w)
    for n in (1, 2, 4):
        size = n * len(PERTURBATION_KINDS)
        targets = batch_of([random_stack(rng, int(rng.integers(3, 7))) for _ in range(size)])
        generated = batch_of([random_stack(rng, int(rng.integers(3, 7)))
                              for _ in range(size)])
        got = reconstruction_loss(targets, generated, 1.7, cfg).item()
        assert abs(got - oracle_reconstruction(targets, generated, 1.7, w)) <= 1e-9

        samples, kinds, stack = entries_for(rng, n)
        got = contrastive_loss(stack, contrastive_pairs(samples, ids_of(kinds)), 0.8,
                               cfg).item()
        assert abs(got - oracle_contrastive(samples, kinds, stack, 0.8, w)) <= 1e-9

        disc = Discriminator(8, 16, dropout=0.0, seed=n)
        got = diversity_loss(stack, ids_of(kinds), disc, 1.3, rng).item()
        assert abs(got - oracle_diversity(stack, kinds, disc, 1.3)) <= 1e-9

    # uniform-discriminator closed form: gamma * N * |kinds| * log 7
    n, gamma = 3, 2.5
    _, kinds, stack = entries_for(rng, n)
    got = diversity_loss(stack, ids_of(kinds), zeroed_discriminator(8), gamma, rng).item()
    assert abs(got - gamma * n * 8 * np.log(7.0)) <= 1e-9
    announce(3, "loss terms vs independent double-loop oracles")


# ---------------------------------------------------------------------------
# gate 4: scorer oracle
# ---------------------------------------------------------------------------


def test_acceptance_4_scorer_oracle():
    def enumerate_softmax_logprob(row, token):
        m = row.max()
        e = np.exp(row - m)
        return np.log(e / e.sum())[token]

    rng = np.random.default_rng(13)
    # exact equality against full-softmax enumeration on hand-set logits
    for _ in range(20):
        logits = rng.normal(0, 4, size=(10, 31))
        positions = rng.choice(10, size=3, replace=False)
        tokens = rng.integers(0, 31, size=3)
        got = log_probs_at_positions(logits, tokens, positions)
        want = np.array([enumerate_softmax_logprob(logits[p], t)
                         for p, t in zip(positions, tokens)])
        assert (got == want).all(), "scorer must equal enumeration bit-exactly"

    # two-token candidate at probability one half each -> log 0.5
    vocab = build_vocab(["red trophy suitcase the fits ."])
    cfg = EncoderConfig(layers=1, heads=2, model_dim=16, ff_dim=32, max_len=16,
                        vocab_size=len(vocab))
    model = EncoderModel(cfg, seed=0)
    inst = SchemaInstance(sentence="the _ fits .", candidate1="red trophy",
                          candidate2="suitcase", label=1)
    import test_evaluate as te
    half = np.full(len(vocab), 0.5 / (len(vocab) - 1))

    class _MP:
        def __init__(self):
            self.orig = te.ev.mlm_logits_batch

        def __enter__(self):
            def fake(model, ids, rows, rng=None):
                out = np.zeros((cfg.max_len, len(vocab)))
                p2 = half.copy()
                p2[vocab.id("red")] = 0.5
                p3 = half.copy()
                p3[vocab.id("trophy")] = 0.5
                out[2] = np.log(p2)
                out[3] = np.log(p3)
                # the same logits for every id row: the two candidates'
                # rows go through one forward
                return T.Tensor(out[np.nonzero(rows)[1]])
            te.ev.mlm_logits_batch = fake

        def __exit__(self, *a):
            te.ev.mlm_logits_batch = self.orig

    with _MP():
        _, (s, _) = resolve(model, vocab, inst)
    ids = te.masked_ids(inst, 1, vocab, cfg.max_len)[0]
    assert list(np.flatnonzero(ids == MASK_ID)) == [2, 3]
    assert abs(s.avg_log_prob - np.log(0.5)) <= 1e-12

    # deterministic tie rule: identical texts tie and candidate 1 wins
    tie = SchemaInstance(sentence="the _ fits .", candidate1="trophy",
                         candidate2="trophy", label=2)
    choice, (s1, s2) = resolve(model, vocab, tie)
    assert s1.avg_log_prob == s2.avg_log_prob and choice == 1
    announce(4, "masked-candidate scorer vs full-softmax enumeration")


# ---------------------------------------------------------------------------
# gates 5-8: end-to-end on a synthetic corpus
# ---------------------------------------------------------------------------

SMOKE_GROUPS = 60
SMOKE_SEED = 1


def smoke_config(data, out):
    """The README quickstart's config on the smoke files: only paths differ."""
    cfg = quickstart_config()
    cfg["paths"] = {
        "corpus": str(data / "corpus.jsonl"),
        "benchmarks": [str(data / "bench_a.jsonl"), str(data / "bench_b.jsonl")],
        "vocab": str(out / "vocab.json"),
        "init_checkpoint": str(out / "init.ckpt.json"),
    }
    return cfg


@pytest.fixture(scope="session")
def smoke(tmp_path_factory):
    """End-to-end pipeline, run once and shared by gates 5-7."""
    data = tmp_path_factory.mktemp("smoke_data")
    out = tmp_path_factory.mktemp("smoke_out")
    groups = make_perturbation_corpus(SMOKE_GROUPS, seed=SMOKE_SEED)
    save_perturbation_corpus(data / "corpus.jsonl", groups)
    save_benchmark(data / "bench_a.jsonl", make_benchmark(60, seed=2))
    save_benchmark(data / "bench_b.jsonl", make_benchmark(60, seed=3))
    cfg_path = data / "run.json"
    cfg_path.write_text(json.dumps(smoke_config(data, out)))

    t0 = time.monotonic()
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(out)]) == 0
    pretrain_s = time.monotonic() - t0
    t1 = time.monotonic()
    assert cli.main(["refine", "--config", str(cfg_path), "--out", str(out)]) == 0
    refine_s = time.monotonic() - t1
    return {"data": data, "out": out, "cfg_path": cfg_path, "groups": groups,
            "pretrain_s": pretrain_s, "refine_s": refine_s}


def _load_smoke_model(smoke, name):
    from winoref.cli import _load_model
    vocab_path = smoke["out"] / "vocab.json"
    return _load_model(str(smoke["out"] / name), Vocabulary.load(vocab_path), vocab_path)


def test_acceptance_5_end_to_end_smoke(smoke):
    T.set_dtype("float32")
    out = smoke["out"]
    groups = load_perturbation_corpus(smoke["data"] / "corpus.jsonl")
    assert len(groups) >= 50
    vocab = Vocabulary.load(out / "vocab.json")
    assert len(vocab) <= 500, f"vocabulary {len(vocab)} exceeds toy budget"

    # pretrain quality: masked-token recovery on its own training set
    model = _load_smoke_model(smoke, "init.ckpt.json")
    seqs = [tokenize(t, vocab, model.config.max_len)
            for t in corpus_sentences(groups)]
    acc = masked_token_accuracy(model, seqs)
    assert acc >= 0.95, f"masked-token accuracy {acc:.4f} < 0.95"

    # refinement: total loss down >= 30% from its first-epoch mean
    _, rows, _ = read_csv_artifact(out / "refine_log.csv")
    steps_per_epoch = int(np.ceil(len(groups) / 10))
    totals = [float(r["total"]) for r in rows]
    first = float(np.mean(totals[:steps_per_epoch]))
    last = float(np.mean(totals[-steps_per_epoch:]))
    drop = (first - last) / abs(first)
    assert drop >= 0.30, f"total loss dropped only {drop:.3f} from {first:.1f}"

    # no-collapse probes on the refined model
    refined = _load_smoke_model(smoke, "refined.ckpt.json")
    feats, labels, samples = pooled_kind_dataset(refined, groups, vocab,
                                                 refined.config.max_len)
    probe = kind_probe_accuracy(feats, labels, seed=0)
    assert probe > 1.0 / 8.0 + 0.10, f"kind probe accuracy {probe:.3f}"
    dist = min_same_kind_distance(feats, labels, samples)
    assert dist > 0.0, "same-kind stacks collapsed across samples"

    total_s = smoke["pretrain_s"] + smoke["refine_s"]
    assert total_s < 900, f"smoke pipeline took {total_s:.0f}s"
    announce(5, f"end-to-end smoke (masked acc {acc:.3f}, loss drop {drop:.2f}, "
                f"probe {probe:.2f}, min distance {dist:.3f}, {total_s:.0f}s)")


def test_acceptance_6_ablation_reproducibility(tmp_path):
    data = tmp_path / "data"
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    for d in (data, out1, out2):
        d.mkdir()
    groups = make_perturbation_corpus(12, seed=5)
    save_perturbation_corpus(data / "corpus.jsonl", groups)
    save_benchmark(data / "bench_a.jsonl", make_benchmark(12, seed=6))
    save_benchmark(data / "bench_b.jsonl", make_benchmark(12, seed=7))
    cfg = smoke_config(data, out1)
    cfg["encoder"].update({"layers": 1, "heads": 2, "model_dim": 32, "ff_dim": 64})
    cfg["pretrain"].update({"epochs": 4})
    cfg["refine"].update({"epochs": 2, "batch_size": 6, "disc_hidden": 32})
    cfg_path = data / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(out1)]) == 0

    assert cli.main(["ablate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    # second invocation must be byte-identical
    cfg["paths"]["vocab"] = str(out1 / "vocab.json")
    cfg["paths"]["init_checkpoint"] = str(out1 / "init.ckpt.json")
    assert cli.main(["ablate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "ablation.csv").read_bytes()
    b2 = (out2 / "ablation.csv").read_bytes()
    assert b1 == b2, "ablation CSV not reproducible under a fixed seed"

    header, rows, _ = read_csv_artifact(out1 / "ablation.csv")
    assert [r["config"] for r in rows] == [
        "baseline", "contrastive+diversity", "reconstruction+diversity",
        "reconstruction+contrastive", "full"]
    assert header[4:] == ["bench_a", "bench_b"], "expected one column per dataset"
    announce(6, "ablation table structure and reproducibility")


def test_acceptance_7_zero_shot_purity(smoke, tmp_path):
    T.set_dtype("float32")
    out = smoke["out"]
    # evaluating a checkpoint leaves its file and parameters untouched
    ck_path = out / "refined.ckpt.json"
    before_file = ck_path.read_bytes()
    model = _load_smoke_model(smoke, "refined.ckpt.json")
    vocab = Vocabulary.load(out / "vocab.json")
    before_params = ckpt.params_hash(model.param_arrays())
    bench = make_benchmark(40, seed=23)
    evaluate(model, vocab, bench, "bench")
    assert ckpt.params_hash(model.param_arrays()) == before_params
    assert ck_path.read_bytes() == before_file

    # a random-logit model sits at chance on a balanced 1000-instance set
    T.set_dtype("float64")
    null = make_null_benchmark(1000, seed=29)
    null_vocab = build_vocab(benchmark_texts(null))
    random_model = EncoderModel(
        EncoderConfig(layers=1, heads=2, model_dim=32, ff_dim=64, max_len=24,
                      vocab_size=len(null_vocab)), seed=97)
    report = evaluate(random_model, null_vocab, null, "null")
    assert abs(report.accuracy - 0.5) <= 0.05, f"null accuracy {report.accuracy}"
    announce(7, f"zero-shot purity (null accuracy {report.accuracy:.3f})")


def test_acceptance_8_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    groups = make_perturbation_corpus(10, seed=9)
    save_perturbation_corpus(data / "corpus.jsonl", groups)
    save_benchmark(data / "bench_a.jsonl", make_benchmark(8, seed=10))
    save_benchmark(data / "bench_b.jsonl", make_benchmark(8, seed=11))

    cfg = smoke_config(data, data)   # vocab/init paths filled per run below
    cfg["encoder"].update({"layers": 1, "heads": 2, "model_dim": 32, "ff_dim": 64})
    cfg["pretrain"].update({"epochs": 6})
    cfg["refine"].update({"epochs": 2, "batch_size": 5, "disc_hidden": 32})

    artifacts = []
    for name in ("runA", "runB"):
        out = tmp_path / name
        out.mkdir()
        run_cfg = json.loads(json.dumps(cfg))
        run_cfg["paths"]["vocab"] = str(data / "vocab.json")
        run_cfg["paths"]["init_checkpoint"] = str(data / "init.ckpt.json")
        cfg_path = data / "run.json"       # identical file both times
        cfg_path.write_text(json.dumps(run_cfg))
        assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(data)]) == 0
        assert cli.main(["refine", "--config", str(cfg_path), "--out", str(out)]) == 0
        artifacts.append(((data / "init.ckpt.json").read_bytes(),
                          (out / "refined.ckpt.json").read_bytes()))
    assert artifacts[0][0] == artifacts[1][0], "pretrain checkpoints differ"
    assert artifacts[0][1] == artifacts[1][1], "refined checkpoints differ"
    announce(8, "bit-exact reruns of pretrain and refine")


def test_evaluate_decides_as_resolve_on_the_smoke_models(smoke):
    # evaluate forwards a block's rows together and resolve one instance's
    # rows; on trained models their scores may differ in the last bits,
    # their decisions may not
    T.set_dtype("float32")
    vocab = Vocabulary.load(smoke["out"] / "vocab.json")
    for name in ("init.ckpt.json", "refined.ckpt.json"):
        model = _load_smoke_model(smoke, name)
        for bench in ("bench_a", "bench_b"):
            instances = load_benchmark(smoke["data"] / f"{bench}.jsonl")
            report = evaluate(model, vocab, instances, bench)
            assert ([d["chosen"] for d in report.decisions]
                    == [resolve(model, vocab, inst)[0] for inst in instances]), (name, bench)
