"""One round of a workload: pretrain, evaluate the init checkpoint, refine,
evaluate the refined checkpoint. Closed loop, one caller.

A round calls the library functions the ``pretrain``, ``refine`` and
``evaluate`` commands are built from, on files written from the workload's
seed, and evaluates each checkpoint as soon as it is saved. After each timed
interval (optimizer step, evaluate() call, set-up) it runs the host-speed
kernel of ``hostspeed`` and keeps its time next to the interval's. It keeps
the raw samples; ``run.py`` turns them into metrics.
"""

import contextlib
import math
import os
import statistics
import time

import numpy as np

from winoref import checkpoint, optim, tensor, text
from winoref.encoder import (EncoderConfig, EncoderModel, PretrainConfig,
                             pretrain_mlm)
from winoref.evaluate import evaluate
from winoref.refine import (Discriminator, LossWeights, RefinementConfig,
                            refine)
from winoref.scoring import ScoreConfig

import hostspeed
from workloads import (QUICKSTART_ENCODER, QUICKSTART_PRECISION,
                       QUICKSTART_PRETRAIN, QUICKSTART_REFINE,
                       QUICKSTART_WEIGHTS, filler_words, write_inputs)

# Each phase's set-up runs this many times; set-up time is their median.
SETUP_REPEATS = 3
# Instances per evaluate() call. Each call is timed and calibrated on its
# own, so a change of host speed during eval is caught call by call.
EVAL_CHUNK = 20


class StepClock:
    """Time between consecutive ``AdamW.step`` returns, per optimizer.

    The first interval of an optimizer starts at its construction. After
    each step the host-speed kernel runs outside the intervals. Patches the
    class for the duration of ``installed()`` only.
    """

    def __init__(self):
        self.phases = []          # one list of step seconds per AdamW
        self.kernels = []         # the kernel seconds after each step

    @contextlib.contextmanager
    def installed(self):
        orig_init, orig_step = optim.AdamW.__init__, optim.AdamW.step
        clock = self

        def init(opt, *args, **kwargs):
            orig_init(opt, *args, **kwargs)
            opt._bench_mark = time.perf_counter()
            clock.phases.append([])
            clock.kernels.append([])

        def step(opt):
            orig_step(opt)
            clock.phases[-1].append(time.perf_counter() - opt._bench_mark)
            clock.kernels[-1].append(hostspeed.kernel())
            opt._bench_mark = time.perf_counter()

        optim.AdamW.__init__, optim.AdamW.step = init, step
        try:
            yield self
        finally:
            optim.AdamW.__init__, optim.AdamW.step = orig_init, orig_step


class PhaseFailed(Exception):
    """A phase could not finish; the run stops and reports it."""


def _timed_setup(build):
    """Run a phase's set-up SETUP_REPEATS times; (last result, [(seconds,
    kernel seconds after it)] each)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        result = build()
        samples.append((time.perf_counter() - t0, hostspeed.kernel()))
    return result, samples


def _put_setup(out, phase, samples):
    out["setup_s"][phase] = [s for s, _ in samples]
    out["setup_kernel_s"][phase] = [k for _, k in samples]


def _load_model(path):
    arrays, meta = checkpoint.load(path)
    model = EncoderModel(EncoderConfig.from_dict(meta["encoder_config"]), seed=0)
    model.load_arrays(arrays)
    return model, checkpoint.params_hash(arrays)


def run_workload(workload, seed, seconds, workdir, mark=lambda phase: None):
    """Run one round of ``workload`` sized for ``seconds``; returns the raw
    samples.

    ``mark(phase)`` is called as each phase starts, so a tracer can attribute
    calls to "setup", "pretrain", "refine", "eval" or "checkpoint".
    """
    pre_epochs, ref_epochs = workload.epochs(seconds)
    corpus_path = os.path.join(workdir, "corpus.jsonl")
    bench_path = os.path.join(workdir, "benchmark.jsonl")
    vocab_path = os.path.join(workdir, "vocab.json")
    init_path = os.path.join(workdir, "init.ckpt.json")
    refined_path = os.path.join(workdir, "refined.ckpt.json")
    write_inputs(seed, corpus_path, bench_path)

    tensor.set_dtype(QUICKSTART_PRECISION)
    np.seterr(over="ignore")   # as the CLI does; softmax guards extremes
    out = {"setup_s": {}, "setup_kernel_s": {}, "errors": [], "planned": {},
           "steps_per_epoch": {}}
    clock = StepClock()
    t_start = time.perf_counter()
    with clock.installed():
        try:
            _pipeline(workload, seed, pre_epochs, ref_epochs, corpus_path,
                      bench_path, vocab_path, init_path, refined_path, out,
                      mark)
        except PhaseFailed as e:
            out["errors"].append(str(e))
        except Exception as e:   # a set-up step broke; report, do not crash
            out["errors"].append(f"{type(e).__name__}: {e}")
    elapsed = time.perf_counter() - t_start
    setup_kernels = [k for s in out["setup_kernel_s"].values() for k in s]
    step_kernels = [k for ks in clock.kernels for k in ks]
    kernels = setup_kernels + step_kernels + out.get("eval_kernel_s", [])
    # count set-up once, at its median, like a single CLI invocation would;
    # the kernel runs are the benchmark's, not the program's
    extra = sum(sum(s) - statistics.median(s) for s in out["setup_s"].values())
    out["wall_s"] = elapsed - extra - sum(kernels)
    out["wall_kernel_s"] = statistics.median(kernels) if kernels else float("nan")
    out["step_s"] = dict(zip(("pretrain", "refine"), clock.phases))
    out["step_kernel_s"] = dict(zip(("pretrain", "refine"), clock.kernels))
    return out


def _pipeline(workload, seed, pre_epochs, ref_epochs, corpus_path, bench_path,
              vocab_path, init_path, refined_path, out, mark):
    # -- pretrain (winoref pretrain) ----------------------------------------
    def pretrain_setup():
        groups = text.load_perturbation_corpus(corpus_path)
        instances = text.load_benchmark(bench_path)
        sentences = text.corpus_sentences(groups)
        vocab = text.build_vocab(sentences + text.benchmark_texts(instances))
        for word in filler_words(vocab, workload.vocab_size):
            vocab.add(word)
        vocab.save(vocab_path)
        enc = EncoderConfig(vocab_size=len(vocab), **QUICKSTART_ENCODER)
        model = EncoderModel(enc, seed=seed)
        seqs = [text.tokenize(s, vocab, enc.max_len) for s in sentences]
        return vocab, model, seqs, len(groups), len(instances)

    mark("setup")
    (vocab, model, seqs, n_groups, n_instances), setups = _timed_setup(pretrain_setup)
    _put_setup(out, "pretrain", setups)
    pre_cfg = PretrainConfig(epochs=pre_epochs, seed=seed, **QUICKSTART_PRETRAIN)
    ref_cfg = RefinementConfig(epochs=ref_epochs, seed=seed, **QUICKSTART_REFINE)
    out["steps_per_epoch"] = {
        "pretrain": math.ceil(len(seqs) / pre_cfg.batch_size),
        "refine": math.ceil(n_groups / ref_cfg.batch_size)}
    out["planned"] = {
        "pretrain": pre_epochs * out["steps_per_epoch"]["pretrain"],
        "refine": ref_epochs * out["steps_per_epoch"]["refine"],
        "eval": 2 * n_instances}
    mark("pretrain")
    try:
        history = pretrain_mlm(model, seqs, pre_cfg, vocab)
    except Exception as e:     # the run reports any failure, then stops
        raise PhaseFailed(f"pretrain raised {type(e).__name__}: {e}") from e
    out["pretrain_losses"] = [h["loss"] for h in history]
    # a batch with no masked position is skipped, not attempted
    out["planned"]["pretrain"] = len(history)
    mark("checkpoint")
    init_hash = checkpoint.save(init_path, model.param_arrays(),
                                {"encoder_config": model.config.to_dict()})
    out["checkpoint_bytes"] = os.path.getsize(init_path)
    out["eval_calls"] = []        # (instances, seconds) per evaluate() call
    out["eval_kernel_s"] = []     # the kernel seconds after each call
    out["eval"] = {}
    _evaluate("init", init_path, init_hash, vocab_path, bench_path, out, mark)

    # -- refine (winoref refine) --------------------------------------------
    weights = LossWeights(**QUICKSTART_WEIGHTS)

    def refine_setup():
        groups = text.load_perturbation_corpus(corpus_path)
        vocab = text.Vocabulary.load(vocab_path)
        model, _ = _load_model(init_path)
        disc = Discriminator(model.config.model_dim, ref_cfg.disc_hidden,
                             ref_cfg.disc_dropout, seed=ref_cfg.seed)
        return groups, vocab, model, disc

    mark("setup")
    (groups, vocab, model, disc), setups = _timed_setup(refine_setup)
    _put_setup(out, "refine", setups)
    mark("refine")
    try:
        history = refine(model, disc, groups, weights, ref_cfg, ScoreConfig(), vocab)
    except Exception as e:
        raise PhaseFailed(f"refine raised {type(e).__name__}: {e}") from e
    out["refine_losses"] = [h["loss_total"] for h in history]
    mark("checkpoint")
    out["refined_hash"] = checkpoint.save(
        refined_path, model.param_arrays(), {"encoder_config": model.config.to_dict()})
    _evaluate("refined", refined_path, out["refined_hash"], vocab_path, bench_path, out, mark)


def _evaluate(label, ckpt_path, saved_hash, vocab_path, bench_path, out, mark):
    """winoref evaluate on one checkpoint, as soon as it is saved, in calls
    of EVAL_CHUNK instances."""
    def eval_setup():
        vocab = text.Vocabulary.load(vocab_path)
        instances = text.load_benchmark(bench_path)
        # checkpoint.load verifies the file against its stored content hash
        return vocab, instances, _load_model(ckpt_path)

    mark("setup")
    try:
        (vocab, instances, (model, loaded_hash)), setups = _timed_setup(eval_setup)
    except ValueError as e:
        raise PhaseFailed(f"{label} checkpoint reload failed: {e}") from e
    _put_setup(out, f"eval_{label}", setups)
    if loaded_hash != saved_hash:
        raise PhaseFailed(f"{label} checkpoint reloads with a different content hash")
    mark("eval")
    decisions = []
    for start in range(0, len(instances), EVAL_CHUNK):
        t0 = time.perf_counter()
        report = evaluate(model, vocab, instances[start:start + EVAL_CHUNK], label)
        out["eval_calls"].append((report.count, time.perf_counter() - t0))
        out["eval_kernel_s"].append(hostspeed.kernel())
        decisions += [{**d, "index": start + d["index"]} for d in report.decisions]
    out["eval"][label] = {
        "instances": len(decisions),
        "accuracy": sum(d["correct"] for d in decisions) / len(decisions),
        "decisions": decisions,
        "nonfinite": sum(not (math.isfinite(d["score1"]) and math.isfinite(d["score2"]))
                         for d in decisions)}
