"""Batch command-line front end.

Commands: pretrain, refine, evaluate, ablate, sweep, score, gen-data.
Every command takes ``--config FILE`` plus flat ``--section.key=value``
overrides, which set every run value, the seed ``runtime.seed`` among them,
and ``--out DIR``, the output root (default ``out``). Every artifact embeds
the resolved config and a content hash, and carries no timestamps, so
identical configs and seeds reproduce identical bytes. Every failure is a
``ValueError`` or an ``OSError``, which ``main`` prints as one ``error:``
line.
"""

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as C
from . import tensor as T
from .encoder import (EncoderConfig, EncoderModel, PretrainConfig, check_pretrain,
                      pretrain_mlm)
from .evaluate import evaluate, resolve
from .refine import Discriminator, LossWeights, RefinementConfig, refine
from .scoring import ScoreConfig
from .synthetic import MAX_GROUPS, make_benchmark, make_perturbation_corpus
from .text import (SchemaInstance, Vocabulary, benchmark_texts, build_vocab,
                   check_words, corpus_rows, corpus_sentences, load_benchmark,
                   load_perturbation_corpus, save_benchmark, save_perturbation_corpus,
                   tokenize)


# the loss weights' names, the sweep's grid axes
WEIGHT_NAMES = [f.name for f in dataclasses.fields(LossWeights)]


def _require(cfg, section, key, hint):
    value = cfg[section][key]
    if not value:
        raise ValueError(f"config value {section}.{key} is required ({hint})")
    return value


def _load_corpus(path):
    return load_perturbation_corpus(path, warn=lambda msg: print(msg, file=sys.stderr))


def _report_names(paths, files, what):
    """The base name of each path without its extension. Reports key their
    rows by it, so two paths with one name are rejected."""
    names, seen = [], {}
    for path in paths:
        name = os.path.splitext(os.path.basename(path))[0]
        if name in seen:
            raise ValueError(f"{files} files {seen[name]} and {path} share the "
                             f"{what} {name!r}")
        seen[name] = path
        names.append(name)
    return names


def _load_datasets(paths, vocab=None):
    """``(name, instances)`` per benchmark file, named by its base name. A
    file with no instance is rejected; with ``vocab``, an instance is
    checked by ``check_words``."""
    names = _report_names(paths, "benchmark", "dataset name")
    datasets = [(name, load_benchmark(path, vocab)) for name, path in zip(names, paths)]
    for path, (_, instances) in zip(paths, datasets):
        if not instances:
            raise ValueError(f"benchmark file {path} holds no instance")
    return datasets


def _save_model(path, model, cfg):
    meta = {"encoder_config": model.config.to_dict(), "config": cfg,
            "config_hash": C.config_hash(cfg)}
    return ckpt.save(path, model.param_arrays(), meta)


def _load_model(path, vocab, vocab_path):
    """The checkpoint's model; its token table must have one row per token
    of ``vocab``, read from ``vocab_path``."""
    arrays, meta = ckpt.load(path)
    try:
        model = EncoderModel(EncoderConfig.from_dict(meta.get("encoder_config")), seed=0)
        model.load_arrays(arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    if model.config.vocab_size != len(vocab):
        raise ValueError(f"checkpoint {path} has {model.config.vocab_size} token ids but "
                         f"vocabulary {vocab_path} has {len(vocab)} tokens")
    return model


def _refine_inputs(cfg):
    """The corpus groups, vocabulary and init model refinement starts from;
    the run config's ``encoder`` section must be the model's."""
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    init_path = _require(cfg, "paths", "init_checkpoint", "pretrained checkpoint")
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    vocab = Vocabulary.load(vocab_path)
    groups, model = _load_corpus(corpus_path), _load_model(init_path, vocab, vocab_path)
    built = model.config.to_dict()
    for key, value in cfg["encoder"].items():
        if value != built[key]:
            raise ValueError(f"checkpoint {init_path} was built with encoder.{key} "
                             f"{built[key]!r}, but the run config sets {value!r}")
    return groups, vocab, model


def _refine(model, groups, weights, cfg, vocab):
    """Refine ``model`` in place under ``weights`` and the run config's
    ``refine`` and ``score`` sections; returns the per-step history."""
    r_cfg = C.build(RefinementConfig, cfg["refine"], seed=cfg["runtime"]["seed"])
    disc = Discriminator(model.config.model_dim, r_cfg.disc_hidden,
                         r_cfg.disc_dropout, seed=r_cfg.seed)
    # a NaN stops refine with an error, so numpy need not warn of it first
    with np.errstate(invalid="ignore"):
        return refine(model, disc, groups, weights, r_cfg,
                      ScoreConfig(**cfg["score"]), vocab)


def _evaluate(model, vocab, name, instances, warned):
    """``evaluate`` on one dataset; a stderr line counts its overflowing
    candidates, unless ``warned``, the lines printed so far, holds it."""
    report = evaluate(model, vocab, instances, name)
    line = (f"{name}: {report.overflows} of {2 * report.count} candidates overflow "
            f"max length {model.config.max_len} and score -inf")
    if report.overflows and line not in warned:
        warned.add(line)
        print(line, file=sys.stderr)
    return report


def refine_and_evaluate(init_model, runs, groups, datasets, vocab, cfg):
    """For each ``(name, LossWeights)`` of ``runs``, refine a fresh clone of
    ``init_model`` (all-zero weights leave it as it is) and evaluate it on
    every ``(name, instances)`` dataset. Yields ``(name, weights, model,
    {dataset: accuracy})`` one run at a time; ``init_model`` is untouched."""
    warned = set()
    for name, weights in runs:
        model = init_model.clone()
        if not weights.all_zero():
            _refine(model, groups, weights, cfg, vocab)
        accs = {d: _evaluate(model, vocab, d, instances, warned).accuracy
                for d, instances in datasets}
        yield name, weights, model, accs


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_pretrain(cfg, out):
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    groups = _load_corpus(corpus_path)
    vocab_texts = corpus_sentences(groups)
    for _, instances in _load_datasets(cfg["paths"]["benchmarks"]):
        vocab_texts.extend(benchmark_texts(instances))
    vocab = build_vocab(vocab_texts)

    enc = EncoderConfig(vocab_size=len(vocab), **cfg["encoder"])
    pre_cfg = C.build(PretrainConfig, cfg["pretrain"], seed=cfg["runtime"]["seed"])
    seqs = corpus_rows(groups, lambda gi, g, kind: tokenize(g.variant_text(kind),
                                                            vocab, enc.max_len))
    check_pretrain(enc, seqs, pre_cfg)   # before the model's arrays are drawn
    model = EncoderModel(enc, seed=cfg["runtime"]["seed"])
    with np.errstate(invalid="ignore"):   # as in _refine
        history = pretrain_mlm(model, seqs, pre_cfg, vocab)

    vocab_path = C.out_file(out, "vocab.json")
    vocab.save(vocab_path)
    ckpt_path = C.out_file(out, "init.ckpt.json")
    _save_model(ckpt_path, model, cfg)
    log_path = C.out_file(out, "pretrain_log.csv")
    C.write_csv_artifact(log_path, cfg, ["step", "lr", "loss"], history)
    final = f", final loss {history[-1]['loss']:.4f}" if history else ""
    print(f"pretrained on {len(seqs)} sentences, {len(history)} steps{final}")
    print(f"wrote {ckpt_path}, {vocab_path}, {log_path}")
    return 0


def cmd_refine(cfg, out):
    groups, vocab, model = _refine_inputs(cfg)
    history = _refine(model, groups, C.build(LossWeights, cfg["refine"]), cfg, vocab)

    ckpt_path = C.out_file(out, "refined.ckpt.json")
    _save_model(ckpt_path, model, cfg)
    log_rows = [{"step": h["step"], "lr": h["lr"], "L_R": h["loss_recon"],
                 "L_C": h["loss_contrast"], "L_D": h["loss_diversity"],
                 "total": h["loss_total"]} for h in history]
    log_path = C.out_file(out, "refine_log.csv")
    C.write_csv_artifact(log_path, cfg, ["step", "lr", "L_R", "L_C", "L_D", "total"],
                         log_rows)
    final = f", final total loss {history[-1]['loss_total']:.4f}" if history else ""
    print(f"refined for {len(history)} steps{final}")
    print(f"wrote {ckpt_path}, {log_path}")
    return 0


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def cmd_evaluate(cfg, out, checkpoints, dataset_paths, emit_json, emit_csv):
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    labels = _report_names(checkpoints, "checkpoint", "report label")
    vocab = Vocabulary.load(vocab_path)
    # load and check every checkpoint and dataset first, so a bad one fails
    # before any evaluation runs
    models = [_load_model(ck_path, vocab, vocab_path) for ck_path in checkpoints]
    datasets = _load_datasets(dataset_paths, vocab)
    rows, warned = [], set()
    for label, model in zip(labels, models):
        for name, instances in datasets:
            report = _evaluate(model, vocab, name, instances, warned)
            # an overflowing candidate scores -inf, which JSON writes as null
            decisions = [{**d, "score1": _finite_or_none(d["score1"]),
                          "score2": _finite_or_none(d["score2"])}
                         for d in report.decisions]
            rows.append({"checkpoint": label, "dataset": name,
                         "count": report.count, "accuracy": report.accuracy,
                         "overflows": report.overflows, "decisions": decisions})
    header = ["checkpoint", "dataset", "count", "accuracy"]
    for row in rows:
        print("  ".join(f"{row[h]}" for h in header))
    if emit_json:
        C.write_json_artifact(C.out_file(out, "eval_report.json"),
                              "eval_report", cfg, rows)
    if emit_csv:
        columns = header + ["overflows"]
        summary = [{h: row[h] for h in columns} for row in rows]
        C.write_csv_artifact(C.out_file(out, "eval_report.csv"), cfg, columns,
                             summary)
    return 0


def cmd_ablate(cfg, out):
    bench_paths = _require(cfg, "paths", "benchmarks", "benchmark files to evaluate on")
    groups, vocab, init_model = _refine_inputs(cfg)
    datasets = _load_datasets(bench_paths, vocab)
    full = C.build(LossWeights, cfg["refine"])
    runs = [("baseline", LossWeights(0.0, 0.0, 0.0)),
            ("contrastive+diversity", dataclasses.replace(full, alpha=0.0)),
            ("reconstruction+diversity", dataclasses.replace(full, beta=0.0)),
            ("reconstruction+contrastive", dataclasses.replace(full, gamma=0.0)),
            ("full", full)]

    rows, csv_rows = [], []
    for name, weights, _, accs in refine_and_evaluate(init_model, runs, groups,
                                                      datasets, vocab, cfg):
        rows.append({"config": name, "weights": weights.to_dict(), **accs})
        csv_rows.append({"config": name, **weights.to_dict(), **accs})
    header = ["config", *WEIGHT_NAMES] + [name for name, _ in datasets]
    path = C.out_file(out, "ablation.csv")
    C.write_csv_artifact(path, cfg, header, csv_rows)
    C.write_json_artifact(C.out_file(out, "ablation.json"), "ablation", cfg, rows)
    for row in csv_rows:
        print("  ".join(str(row[h]) for h in header))
    print(f"wrote {path}")
    return 0


def _parse_grid(tokens):
    grid = {}
    for tok in tokens:
        name, _, raw = tok.partition("=")
        if name not in WEIGHT_NAMES:
            raise ValueError(f"sweep grid axis must be {', '.join(WEIGHT_NAMES[:-1])} or "
                             f"{WEIGHT_NAMES[-1]}, got {name!r}")
        if name in grid:
            raise ValueError(f"sweep grid axis {name!r} is given twice")
        try:
            grid[name] = [float(v) for v in raw.split(",") if v]
        except ValueError:
            raise ValueError(f"bad grid values for {name!r}: {raw!r}")
        if not grid[name]:
            raise ValueError(f"grid axis {name!r} has no values")
    return grid


def cmd_sweep(cfg, out, grid_tokens):
    bench_paths = _require(cfg, "paths", "benchmarks", "benchmark files to rank runs on")
    grid = _parse_grid(grid_tokens)
    axes = [grid.get(name, [cfg["refine"][name]]) for name in WEIGHT_NAMES]
    settings = [(f"run_{i:03d}", LossWeights(*point))
                for i, point in enumerate(itertools.product(*axes))]
    groups, vocab, init_model = _refine_inputs(cfg)
    datasets = _load_datasets(bench_paths, vocab)

    runs = []
    for name, weights, model, accs in refine_and_evaluate(init_model, settings, groups,
                                                          datasets, vocab, cfg):
        run_cfg = json.loads(C.canonical_json(cfg))
        run_cfg["refine"].update(weights.to_dict())
        _save_model(C.out_file(out, "sweep", name, "refined.ckpt.json"), model, run_cfg)
        runs.append({"run": name, "seed": cfg["runtime"]["seed"],
                     "config_hash": C.config_hash(run_cfg), **weights.to_dict(),
                     "mean_accuracy": sum(accs.values()) / len(accs),
                     "accuracies": accs})
    runs.sort(key=lambda r: (-r["mean_accuracy"], r["run"]))
    header = ["run", "seed", "config_hash", *WEIGHT_NAMES, "mean_accuracy"]
    C.write_csv_artifact(C.out_file(out, "sweep_report.csv"), cfg, header, runs)
    C.write_json_artifact(C.out_file(out, "sweep_report.json"), "sweep", cfg, runs)
    best = runs[0]
    print(f"best: {best['run']} alpha={best['alpha']} beta={best['beta']} "
          f"gamma={best['gamma']} mean_accuracy={best['mean_accuracy']:.4f}")
    return 0


def cmd_score(cfg, checkpoint, sentence, candidate1, candidate2):
    inst = SchemaInstance(sentence=sentence, candidate1=candidate1,
                          candidate2=candidate2, label=1)
    inst.check()
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    vocab = Vocabulary.load(vocab_path)
    model = _load_model(checkpoint, vocab, vocab_path)
    check_words(inst, vocab)
    chosen, (s1, s2) = resolve(model, vocab, inst)
    print(f"candidate1 {candidate1!r}: avg_log_prob={s1.avg_log_prob:.6f}")
    print(f"candidate2 {candidate2!r}: avg_log_prob={s2.avg_log_prob:.6f}")
    print(f"chosen: candidate{chosen}")
    return 0


# the most benchmark instances ``gen-data`` writes; it builds them all in
# memory before writing any, 32 MB of objects at the cap
MAX_GEN_INSTANCES = 100_000


def cmd_gen_data(out, n_groups, n_instances, seed):
    """Helper used by the README walkthrough; emits synthetic files."""
    C.check_count("--groups", n_groups, 1)
    C.check_real("--groups", n_groups, 1, MAX_GROUPS)
    C.check_count("--instances", n_instances, 1)
    C.check_real("--instances", n_instances, 1, MAX_GEN_INSTANCES)
    groups = make_perturbation_corpus(n_groups, seed=seed)
    instances = make_benchmark(n_instances, seed=seed)
    corpus_path = C.out_file(out, "corpus.jsonl")
    bench_path = C.out_file(out, "benchmark.jsonl")
    save_perturbation_corpus(corpus_path, groups)
    save_benchmark(bench_path, instances)
    print(f"wrote {corpus_path} ({len(groups)} groups), "
          f"{bench_path} ({len(instances)} instances)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``ValueError``s, so a bad command
    line prints one ``error:`` line, as every other failure does."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="winoref",
        description="Self-supervised refinement of a masked LM for zero-shot "
                    "pronoun disambiguation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default="out",
                       help="output directory, made when a file is written into it "
                            "(default: ./out)")

    common(sub.add_parser("pretrain", help="train the stand-in initial LM"))
    common(sub.add_parser("refine", help="run self-supervised refinement"))

    p_eval = sub.add_parser("evaluate", help="zero-shot benchmark accuracy")
    common(p_eval)
    p_eval.add_argument("--checkpoint", action="append", required=True,
                        help="checkpoint to evaluate (repeatable)")
    p_eval.add_argument("--json", action="store_true", help="write eval_report.json")
    p_eval.add_argument("--csv", action="store_true", help="write eval_report.csv")
    p_eval.add_argument("datasets", nargs="+", help="benchmark JSONL files")

    common(sub.add_parser("ablate", help="baseline plus one run per loss config"))

    p_sweep = sub.add_parser("sweep", help="grid sweep over loss weights")
    common(p_sweep)
    p_sweep.add_argument("--grid", action="append", default=[],
                         help="axis values, e.g. --grid alpha=65,130")

    p_score = sub.add_parser("score", help="score one instance")
    common(p_score)
    p_score.add_argument("--checkpoint", required=True, help="checkpoint to score with")
    p_score.add_argument("--sentence", required=True,
                         help="sentence with a literal _ pronoun slot")
    p_score.add_argument("--candidate1", required=True)
    p_score.add_argument("--candidate2", required=True)

    p_gen = sub.add_parser("gen-data", help="emit a synthetic corpus and benchmark")
    common(p_gen)
    p_gen.add_argument("--groups", type=int, default=60)
    p_gen.add_argument("--instances", type=int, default=200)
    return parser


def _run(argv):
    """Run the command of ``argv``; its exit status."""
    args, extra = _build_parser().parse_known_args(argv)
    overrides = C.parse_overrides(extra)
    cfg = C.load_config(args.config, overrides)
    T.set_dtype(cfg["runtime"]["precision"])
    # a diverging run overflows a matmul before its loss check fails it
    with np.errstate(over="ignore"):
        if args.command == "pretrain":
            return cmd_pretrain(cfg, args.out)
        if args.command == "refine":
            return cmd_refine(cfg, args.out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, args.out, args.checkpoint, args.datasets,
                                args.json, args.csv)
        if args.command == "ablate":
            return cmd_ablate(cfg, args.out)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.out, args.grid)
        if args.command == "score":
            return cmd_score(cfg, args.checkpoint, args.sentence,
                             args.candidate1, args.candidate2)
        # gen-data: argparse has rejected any command that is not a subcommand
        return cmd_gen_data(args.out, args.groups, args.instances, cfg["runtime"]["seed"])


def main(argv=None):
    """Run a command line; a failure prints one ``error:`` line on stderr
    and returns 1. The run's other stderr lines, its notes, are held and
    printed when it succeeds, so a failing run prints its error line
    alone."""
    argv = sys.argv[1:] if argv is None else list(argv)
    notes = io.StringIO()
    try:
        with contextlib.redirect_stderr(notes):
            status = _run(argv)
    except (ValueError, OSError) as e:
        message = str(e).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1
    sys.stderr.write(notes.getvalue())
    return status


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
