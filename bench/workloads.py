"""The benchmark's workloads and the inputs it generates for them.

Every workload runs the same pipeline on the README quickstart model and
data; they differ only in the vocabulary, so each stresses a different
layer of the same code.
"""

from dataclasses import dataclass

from winoref import synthetic, text

# Run length the work counts below are sized for. A run asked for other
# seconds scales its epoch counts by the ratio; the counts never depend on
# measured speed, so a faster program does the same work in less time.
REFERENCE_SECONDS = 40
# A run does the whole pipeline this many times with the same seed and
# pools the samples; every round must reproduce the first.
ROUNDS = 4

# The README quickstart model, data and optimizer settings.
QUICKSTART_PRECISION = "float32"
QUICKSTART_ENCODER = {"layers": 2, "heads": 4, "model_dim": 96, "ff_dim": 256,
                      "max_len": 24, "dropout": 0.0}
QUICKSTART_PRETRAIN = {"batch_size": 32, "lr": 1.5e-3, "warmup_steps": 50,
                       "weight_decay": 0.0, "mask_prob": 0.3}
QUICKSTART_REFINE = {"batch_size": 10, "perturbations_per_sample": 4,
                     "lr": 1.5e-3, "warmup_steps": 10}
QUICKSTART_WEIGHTS = {"alpha": 130.0, "beta": 0.5, "gamma": 2.5}
QUICKSTART_GROUPS = 60
QUICKSTART_INSTANCES = 200
# Refine epochs per round at REFERENCE_SECONDS. With three, first-epoch
# cache fills are a third of the steps, so the median falls among the other
# steps and the high percentile among the fills, never on the edge between.
REFINE_EPOCHS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # total vocabulary entries after padding with words the corpus never
    # uses; 0 keeps the vocabulary the corpus and benchmark build
    vocab_size: int = 0
    # per round at REFERENCE_SECONDS, sized so a run lasts about that long
    pretrain_epochs: int = 4

    def epochs(self, seconds):
        """(pretrain, refine) epochs per round for a run of ``seconds``."""
        scale = seconds / REFERENCE_SECONDS
        return (max(1, round(self.pretrain_epochs * scale)),
                max(1, round(REFINE_EPOCHS * scale)))


WORKLOADS = {w.name: w for w in [
    Workload(
        name="quickstart",
        why="the README quickstart users are told to run; per-pair windowed "
            "scores and the tape dominate refine, vocabulary work is small"),
    Workload(
        name="wide-vocab",
        why="quickstart with the vocabulary padded to 8192 unused words; the "
            "MLM head, embedding backward, AdamW over the table and eval "
            "softmax dominate",
        vocab_size=8192, pretrain_epochs=1),
]}


def filler_words(vocab, size):
    """Words the corpus never uses, enough to bring ``vocab`` to ``size``."""
    return [f"unused{i:05d}" for i in range(len(vocab), size)]


def write_inputs(seed, corpus_path, bench_path):
    """Generate the corpus and benchmark for ``seed`` and write them as the
    JSON-lines files the CLI reads."""
    groups = synthetic.make_perturbation_corpus(QUICKSTART_GROUPS, seed=seed)
    instances = synthetic.make_benchmark(QUICKSTART_INSTANCES, seed=seed)
    text.save_perturbation_corpus(corpus_path, groups)
    text.save_benchmark(bench_path, instances)
