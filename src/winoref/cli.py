"""Batch command-line front end.

Commands: pretrain, refine, evaluate, ablate, sweep, score. Every command
takes ``--config FILE`` plus flat ``--section.key=value`` overrides; every
artifact embeds the resolved config and a content hash, and carries no
timestamps, so identical configs and seeds reproduce identical bytes.
"""

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import checkpoint as ckpt
from . import config as C
from . import tensor as T
from .encoder import EncoderConfig, EncoderModel, PretrainConfig, pretrain_mlm
from .evaluate import ablation_run, evaluate, score_candidate
from .refine import Discriminator, LossWeights, RefinementConfig, refine
from .scoring import ScoreConfig
from .synthetic import make_benchmark, make_perturbation_corpus
from .text import (SchemaInstance, Vocabulary, benchmark_texts, build_vocab,
                   corpus_sentences, load_benchmark, load_perturbation_corpus,
                   save_benchmark, save_perturbation_corpus, tokenize)


class CliError(Exception):
    pass


def _require(cfg, section, key, hint):
    value = cfg[section][key]
    if not value:
        raise CliError(f"config value {section}.{key} is required ({hint})")
    return value


def _load_corpus(path):
    if not os.path.exists(path):
        raise CliError(f"corpus file not found: {path}")
    return load_perturbation_corpus(path, warn=lambda msg: print(msg, file=sys.stderr))


def _load_datasets(paths):
    datasets = []
    for path in paths:
        if not os.path.exists(path):
            raise CliError(f"benchmark file not found: {path}")
        name = os.path.splitext(os.path.basename(path))[0]
        datasets.append((name, load_benchmark(path)))
    return datasets


def _score_cfg(cfg):
    return ScoreConfig(window_radius=cfg["score"]["window_radius"],
                       include_special=cfg["score"]["include_special"],
                       alignment=cfg["score"]["alignment"])


def _refine_cfg(cfg):
    r = cfg["refine"]
    return RefinementConfig(
        epochs=r["epochs"], batch_size=r["batch_size"],
        perturbations_per_sample=r["perturbations_per_sample"], lr=r["lr"],
        adam_eps=r["adam_eps"], warmup_steps=r["warmup_steps"],
        weight_decay=r["weight_decay"], seed=r["seed"],
        target_mode=r["target_mode"], disc_hidden=r["disc_hidden"],
        disc_dropout=r["disc_dropout"])


def _weights(cfg):
    r = cfg["refine"]
    return LossWeights(alpha=r["alpha"], beta=r["beta"], gamma=r["gamma"])


def _save_model(path, model, cfg):
    meta = {"encoder_config": model.config.to_dict(), "config": cfg,
            "config_hash": C.config_hash(cfg)}
    return ckpt.save(path, model.param_arrays(), meta)


def _load_model(path):
    if not os.path.exists(path):
        raise CliError(f"checkpoint file not found: {path}")
    arrays, meta = ckpt.load(path)
    enc_cfg = EncoderConfig.from_dict(meta["encoder_config"])
    model = EncoderModel(enc_cfg, seed=0)
    model.load_arrays(arrays)
    return model


def _load_vocab(path):
    if not os.path.exists(path):
        raise CliError(f"vocabulary file not found: {path}")
    return Vocabulary.load(path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_pretrain(cfg, out):
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    groups = _load_corpus(corpus_path)
    texts = corpus_sentences(groups)
    vocab_texts = list(texts)
    for _, instances in _load_datasets(cfg["paths"]["benchmarks"]):
        vocab_texts.extend(benchmark_texts(instances))
    vocab = build_vocab(vocab_texts)

    enc = EncoderConfig(vocab_size=len(vocab), **cfg["encoder"])
    model = EncoderModel(enc, seed=cfg["runtime"]["seed"])
    p = cfg["pretrain"]
    pre_cfg = PretrainConfig(epochs=p["epochs"], batch_size=p["batch_size"],
                             lr=p["lr"], warmup_steps=p["warmup_steps"],
                             weight_decay=p["weight_decay"],
                             adam_eps=p["adam_eps"], mask_prob=p["mask_prob"],
                             seed=cfg["runtime"]["seed"])
    seqs = [tokenize(t, vocab, enc.max_len) for t in texts]
    history = pretrain_mlm(model, seqs, pre_cfg, vocab)

    vocab_path = os.path.join(out, "vocab.json")
    vocab.save(vocab_path)
    ckpt_path = os.path.join(out, "init.ckpt.json")
    _save_model(ckpt_path, model, cfg)
    log_path = os.path.join(out, "pretrain_log.csv")
    C.write_csv_artifact(log_path, cfg, ["step", "lr", "loss"], history)
    final = f", final loss {history[-1]['loss']:.4f}" if history else ""
    print(f"pretrained on {len(seqs)} sentences, {len(history)} steps{final}")
    print(f"wrote {ckpt_path}, {vocab_path}, {log_path}")
    return 0


def cmd_refine(cfg, out):
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    init_path = _require(cfg, "paths", "init_checkpoint", "pretrained checkpoint")
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    groups = _load_corpus(corpus_path)
    vocab = _load_vocab(vocab_path)
    model = _load_model(init_path)

    weights = _weights(cfg)
    r_cfg = _refine_cfg(cfg)
    disc = Discriminator(model.config.model_dim, r_cfg.disc_hidden,
                         r_cfg.disc_dropout, seed=r_cfg.seed)
    history = refine(model, disc, groups, weights, r_cfg, _score_cfg(cfg), vocab)

    ckpt_path = os.path.join(out, "refined.ckpt.json")
    _save_model(ckpt_path, model, cfg)
    log_rows = [{"step": h["step"], "lr": h["lr"], "L_R": h["loss_recon"],
                 "L_C": h["loss_contrast"], "L_D": h["loss_diversity"],
                 "total": h["loss_total"]} for h in history]
    log_path = os.path.join(out, "refine_log.csv")
    C.write_csv_artifact(log_path, cfg, ["step", "lr", "L_R", "L_C", "L_D", "total"],
                         log_rows)
    final = f", final total loss {history[-1]['loss_total']:.4f}" if history else ""
    print(f"refined for {len(history)} steps{final}")
    print(f"wrote {ckpt_path}, {log_path}")
    return 0


def cmd_evaluate(cfg, out, checkpoints, dataset_paths, emit_json, emit_csv):
    if not checkpoints:
        raise CliError("evaluate needs at least one --checkpoint")
    if not dataset_paths:
        raise CliError("evaluate needs at least one dataset path")
    vocab = _load_vocab(_require(cfg, "paths", "vocab", "vocabulary file"))
    datasets = _load_datasets(dataset_paths)
    rows = []
    for ck_path in checkpoints:
        model = _load_model(ck_path)
        label = os.path.splitext(os.path.basename(ck_path))[0]
        for name, instances in datasets:
            report = evaluate(model, vocab, instances, name)
            rows.append({"checkpoint": label, "dataset": name,
                         "count": report.count, "accuracy": report.accuracy,
                         "decisions": report.decisions})
    header = ["checkpoint", "dataset", "count", "accuracy"]
    for row in rows:
        print("  ".join(f"{row[h]}" for h in header))
    if emit_json:
        C.write_json_artifact(os.path.join(out, "eval_report.json"),
                              "eval_report", cfg, rows)
    if emit_csv:
        summary = [{h: row[h] for h in header} for row in rows]
        C.write_csv_artifact(os.path.join(out, "eval_report.csv"), cfg, header,
                             summary)
    return 0


def cmd_ablate(cfg, out):
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    init_path = _require(cfg, "paths", "init_checkpoint", "pretrained checkpoint")
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    if not cfg["paths"]["benchmarks"]:
        raise CliError("ablate needs paths.benchmarks to evaluate on")
    groups = _load_corpus(corpus_path)
    vocab = _load_vocab(vocab_path)
    model = _load_model(init_path)
    datasets = _load_datasets(cfg["paths"]["benchmarks"])

    rows = ablation_run(model, groups, datasets, _weights(cfg), _refine_cfg(cfg),
                        _score_cfg(cfg), vocab)
    names = [name for name, _ in datasets]
    header = ["config", "alpha", "beta", "gamma"] + names
    csv_rows = []
    for row in rows:
        flat = {"config": row["config"], "alpha": row["weights"]["alpha"],
                "beta": row["weights"]["beta"], "gamma": row["weights"]["gamma"]}
        for name in names:
            flat[name] = row[name]
        csv_rows.append(flat)
    path = os.path.join(out, "ablation.csv")
    C.write_csv_artifact(path, cfg, header, csv_rows)
    C.write_json_artifact(os.path.join(out, "ablation.json"), "ablation", cfg, rows)
    for row in csv_rows:
        print("  ".join(str(row[h]) for h in header))
    print(f"wrote {path}")
    return 0


def _parse_grid(tokens):
    grid = {}
    for tok in tokens:
        name, _, raw = tok.partition("=")
        if name not in ("alpha", "beta", "gamma"):
            raise CliError(f"sweep grid axis must be alpha, beta or gamma, got {name!r}")
        try:
            grid[name] = [float(v) for v in raw.split(",") if v]
        except ValueError:
            raise CliError(f"bad grid values for {name!r}: {raw!r}")
        if not grid[name]:
            raise CliError(f"grid axis {name!r} has no values")
    return grid


def cmd_sweep(cfg, out, grid_tokens):
    corpus_path = _require(cfg, "paths", "corpus", "path to the perturbation corpus")
    init_path = _require(cfg, "paths", "init_checkpoint", "pretrained checkpoint")
    vocab_path = _require(cfg, "paths", "vocab", "vocabulary file")
    if not cfg["paths"]["benchmarks"]:
        raise CliError("sweep needs paths.benchmarks to rank runs")
    grid = _parse_grid(grid_tokens)
    base = _weights(cfg).to_dict()
    axes = {name: grid.get(name, [base[name]]) for name in ("alpha", "beta", "gamma")}

    groups = _load_corpus(corpus_path)
    vocab = _load_vocab(vocab_path)
    init_model = _load_model(init_path)
    datasets = _load_datasets(cfg["paths"]["benchmarks"])
    r_cfg = _refine_cfg(cfg)
    s_cfg = _score_cfg(cfg)

    runs = []
    combos = list(itertools.product(axes["alpha"], axes["beta"], axes["gamma"]))
    for run_idx, (alpha, beta, gamma) in enumerate(combos):
        run_cfg = json.loads(C.canonical_json(cfg))
        run_cfg["refine"]["alpha"] = alpha
        run_cfg["refine"]["beta"] = beta
        run_cfg["refine"]["gamma"] = gamma
        run_dir = os.path.join(out, "sweep", f"run_{run_idx:03d}")
        os.makedirs(run_dir, exist_ok=True)
        model = init_model.clone()
        disc = Discriminator(model.config.model_dim, r_cfg.disc_hidden,
                             r_cfg.disc_dropout, seed=r_cfg.seed)
        weights = LossWeights(alpha=alpha, beta=beta, gamma=gamma)
        refine(model, disc, groups, weights, r_cfg, s_cfg, vocab)
        _save_model(os.path.join(run_dir, "refined.ckpt.json"), model, run_cfg)
        accs = {}
        for name, instances in datasets:
            accs[name] = evaluate(model, vocab, instances, name).accuracy
        runs.append({"run": f"run_{run_idx:03d}", "seed": r_cfg.seed,
                     "config_hash": C.config_hash(run_cfg),
                     "alpha": alpha, "beta": beta, "gamma": gamma,
                     "mean_accuracy": sum(accs.values()) / len(accs),
                     "accuracies": accs})
    runs.sort(key=lambda r: (-r["mean_accuracy"], r["run"]))
    header = ["run", "seed", "config_hash", "alpha", "beta", "gamma", "mean_accuracy"]
    C.write_csv_artifact(os.path.join(out, "sweep_report.csv"), cfg, header, runs)
    C.write_json_artifact(os.path.join(out, "sweep_report.json"), "sweep", cfg, runs)
    best = runs[0]
    print(f"best: {best['run']} alpha={best['alpha']} beta={best['beta']} "
          f"gamma={best['gamma']} mean_accuracy={best['mean_accuracy']:.4f}")
    return 0


def cmd_score(cfg, checkpoint, sentence, candidate1, candidate2):
    if not checkpoint:
        raise CliError("score needs --checkpoint")
    vocab = _load_vocab(_require(cfg, "paths", "vocab", "vocabulary file"))
    model = _load_model(checkpoint)
    inst = SchemaInstance(sentence=sentence, candidate1=candidate1,
                          candidate2=candidate2, label=1)
    s1 = score_candidate(model, vocab, inst, 1)
    s2 = score_candidate(model, vocab, inst, 2)
    chosen = 1 if s1.avg_log_prob >= s2.avg_log_prob else 2
    print(f"candidate1 {candidate1!r}: avg_log_prob={s1.avg_log_prob:.6f}")
    print(f"candidate2 {candidate2!r}: avg_log_prob={s2.avg_log_prob:.6f}")
    print(f"chosen: candidate{chosen}")
    return 0


def cmd_gen_data(out, n_groups, n_instances, seed):
    """Helper used by the README walkthrough; emits synthetic files."""
    groups = make_perturbation_corpus(n_groups, seed=seed)
    instances = make_benchmark(n_instances, seed=seed)
    corpus_path = os.path.join(out, "corpus.jsonl")
    bench_path = os.path.join(out, "benchmark.jsonl")
    save_perturbation_corpus(corpus_path, groups)
    save_benchmark(bench_path, instances)
    print(f"wrote {corpus_path} ({len(groups)} groups), "
          f"{bench_path} ({len(instances)} instances)")
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="winoref",
        description="Self-supervised refinement of a masked LM for zero-shot "
                    "pronoun disambiguation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: config runtime.out_dir, $WINOREF_OUT, ./out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override runtime and refinement seeds")

    common(sub.add_parser("pretrain", help="train the stand-in initial LM"))
    common(sub.add_parser("refine", help="run self-supervised refinement"))

    p_eval = sub.add_parser("evaluate", help="zero-shot benchmark accuracy")
    common(p_eval)
    p_eval.add_argument("--checkpoint", action="append", default=[],
                        help="checkpoint to evaluate (repeatable)")
    p_eval.add_argument("--json", action="store_true", help="write eval_report.json")
    p_eval.add_argument("--csv", action="store_true", help="write eval_report.csv")
    p_eval.add_argument("datasets", nargs="*", help="benchmark JSONL files")

    common(sub.add_parser("ablate", help="baseline plus one run per loss config"))

    p_sweep = sub.add_parser("sweep", help="grid sweep over loss weights")
    common(p_sweep)
    p_sweep.add_argument("--grid", action="append", default=[],
                         help="axis values, e.g. --grid alpha=65,130")

    p_score = sub.add_parser("score", help="score one instance")
    common(p_score)
    p_score.add_argument("--checkpoint", default=None)
    p_score.add_argument("--sentence", required=True,
                         help="sentence with a literal _ pronoun slot")
    p_score.add_argument("--candidate1", required=True)
    p_score.add_argument("--candidate2", required=True)

    p_gen = sub.add_parser("gen-data", help="emit a synthetic corpus and benchmark")
    common(p_gen)
    p_gen.add_argument("--groups", type=int, default=60)
    p_gen.add_argument("--instances", type=int, default=200)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = C.parse_overrides(extra)
        cfg = C.load_config(args.config, overrides, seed=args.seed)
        T.set_dtype(cfg["runtime"]["precision"])
        out = C.out_dir(cfg, args.out)
        np.seterr(over="ignore")  # softmax guards handle extremes explicitly
        if args.command == "pretrain":
            return cmd_pretrain(cfg, out)
        if args.command == "refine":
            return cmd_refine(cfg, out)
        if args.command == "evaluate":
            return cmd_evaluate(cfg, out, args.checkpoint, args.datasets,
                                args.json, args.csv)
        if args.command == "ablate":
            return cmd_ablate(cfg, out)
        if args.command == "sweep":
            return cmd_sweep(cfg, out, args.grid)
        if args.command == "score":
            return cmd_score(cfg, args.checkpoint, args.sentence,
                             args.candidate1, args.candidate2)
        if args.command == "gen-data":
            seed = cfg["runtime"]["seed"]
            return cmd_gen_data(out, args.groups, args.instances, seed)
        raise CliError(f"unknown command {args.command!r}")
    except (CliError, C.ConfigError, ValueError, OSError) as e:
        message = str(e).replace("\n", " ")
        print(f"error: {message}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())
