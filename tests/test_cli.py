import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from winoref import cli, encoder
from winoref.checkpoint import (load as load_checkpoint, params_hash,
                                save as save_checkpoint)
from winoref.config import load_config
from winoref.optim import EPS
from winoref.refine import N_KINDS
from winoref.synthetic import make_benchmark, make_perturbation_corpus
from winoref.text import (Vocabulary, corpus_sentences, load_benchmark,
                          load_perturbation_corpus, save_benchmark,
                          save_perturbation_corpus, word_tokens)

from conftest import read_csv_artifact


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    save_perturbation_corpus(d / "corpus.jsonl", make_perturbation_corpus(6, seed=51))
    save_benchmark(d / "bench_a.jsonl", make_benchmark(6, seed=52))
    save_benchmark(d / "bench_b.jsonl", make_benchmark(6, seed=53))
    return d


def _module_env():
    """The environment for a `python -m winoref.cli` subprocess that imports
    this checkout's package."""
    src = Path(cli.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def write_config(path, data_dir, out_dir=None, **refine_overrides):
    refine = {"epochs": 1, "batch_size": 3, "perturbations_per_sample": 2,
              "lr": 1e-3, "warmup_steps": 2, "disc_hidden": 16}
    refine.update(refine_overrides)
    cfg = {
        "runtime": {"seed": 5},
        "paths": {
            "corpus": str(data_dir / "corpus.jsonl"),
            "benchmarks": [str(data_dir / "bench_a.jsonl"),
                           str(data_dir / "bench_b.jsonl")],
            "vocab": str((out_dir or data_dir) / "vocab.json"),
            "init_checkpoint": str((out_dir or data_dir) / "init.ckpt.json"),
        },
        "encoder": {"layers": 1, "heads": 2, "model_dim": 16, "ff_dim": 32,
                    "max_len": 24, "dropout": 0.1},
        "pretrain": {"epochs": 2, "batch_size": 16, "lr": 1e-3,
                     "warmup_steps": 4},
        "refine": refine,
    }
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pretrained(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pretrained")
    cfg_path = out / "run.json"
    write_config(cfg_path, data_dir, out_dir=out)
    rc = cli.main(["pretrain", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 0
    return out, cfg_path


def test_default_config_uses_documented_hyperparameters():
    defaults = load_config()
    r = defaults["refine"]
    assert (r["alpha"], r["beta"], r["gamma"]) == (130.0, 0.5, 2.5)
    assert r["epochs"] == 10
    assert r["lr"] == 5e-5
    assert EPS == 1e-8
    assert r["warmup_steps"] == 500
    assert defaults["score"]["window_radius"] == 2


def test_readme_configuration_table_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in table.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            keys = re.sub(r"\([^)]*\)", "", cells[2])   # drop notes on values
            documented[cells[1].strip().strip("`")] = re.findall(r"`([^`]+)`", keys)
    assert documented == {section: list(keys) for section, keys in load_config().items()}


class TestPretrain:
    def test_outputs_and_log(self, pretrained):
        out, _ = pretrained
        assert (out / "init.ckpt.json").exists()
        assert (out / "vocab.json").exists()
        header, rows, meta = read_csv_artifact(out / "pretrain_log.csv")
        assert header == ["step", "lr", "loss"]
        assert [int(r["step"]) for r in rows] == list(range(1, len(rows) + 1))
        assert "config" in meta and "content_hash" in meta

    def test_byte_identical_reruns(self, data_dir, tmp_path):
        cfg_path = tmp_path / "run.json"
        write_config(cfg_path, data_dir)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            out.mkdir()
            assert cli.main(["pretrain", "--config", str(cfg_path),
                             "--out", str(out), "--seed", "7"]) == 0
            outs.append((out / "init.ckpt.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("base,variant,kind", [
        (36, 3, "IDENTICAL"), (3, 30, "TENSE")], ids=["base", "variant"])
    def test_overflowing_sentence_names_sample_and_kind(self, data_dir, tmp_path, capsys,
                                                        base, variant, kind):
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(
            '{"id": "short", "base": "the cup fits .", '
            '"variants": {"TENSE": "the cup fitted ."}}\n'
            + json.dumps({"id": "long-7", "base": " ".join(["big"] * base),
                          "variants": {"TENSE": " ".join(["small"] * variant)}}) + "\n")
        cfg_path = write_config(tmp_path / "run.json", data_dir)
        run_out = tmp_path / "out"
        run_out.mkdir()
        rc = cli.main(["pretrain", "--config", str(cfg_path), "--out", str(run_out),
                       f"--paths.corpus={corpus}"])
        assert rc == 1
        n = max(base, variant)
        assert capsys.readouterr().err == (
            f"error: corpus sample 'long-7', kind {kind}: sequence of {n} tokens "
            f"overflows max length 24 by {n + 2 - 24} tokens\n")
        assert list(run_out.iterdir()) == []

    def test_missing_corpus_names_path(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"paths": {"corpus": "/nope/missing.jsonl"}}))
        rc = cli.main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "/nope/missing.jsonl" in err


class TestRefine:
    def test_refine_writes_checkpoint_and_loss_curve(self, pretrained, tmp_path):
        out, cfg_path = pretrained
        rout = tmp_path / "refined"
        rout.mkdir()
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(rout)])
        assert rc == 0
        assert (rout / "refined.ckpt.json").exists()
        header, rows, _ = read_csv_artifact(rout / "refine_log.csv")
        assert header == ["step", "lr", "L_R", "L_C", "L_D", "total"]
        assert len(rows) >= 1
        for row in rows:
            total = float(row["L_R"]) + float(row["L_C"]) + float(row["L_D"])
            assert float(row["total"]) == pytest.approx(total, abs=1e-9)

    def test_all_zero_weights_rejected_before_training(self, pretrained, tmp_path, capsys):
        out, cfg_path = pretrained
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--refine.alpha=0", "--refine.beta=0", "--refine.gamma=0"])
        assert rc != 0
        assert "zero" in capsys.readouterr().err

    @pytest.mark.parametrize("override", ["--refine.batch_size=1", "one-group"])
    def test_contrastive_loss_without_pairs_rejected_before_training(
            self, pretrained, data_dir, tmp_path, capsys, override):
        # only beta is weighted, and no batch holds two samples to compare,
        # so every step would be a zero loss and a weight-decay-only update
        out, cfg_path = pretrained
        if override == "one-group":
            corpus = tmp_path / "one.jsonl"
            corpus.write_text((data_dir / "corpus.jsonl").read_text().splitlines()[0]
                              + "\n")
            override = f"--paths.corpus={corpus}"
        run_out = tmp_path / "out"
        run_out.mkdir()
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(run_out),
                       "--refine.alpha=0", "--refine.gamma=0", override])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "contrastive" in err
        assert not any(run_out.iterdir())

    def test_target_mode_override(self, pretrained, tmp_path):
        out, cfg_path = pretrained
        rout = tmp_path / "tm"
        rout.mkdir()
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(rout),
                       "--refine.target_mode=stop-gradient-current"])
        assert rc == 0
        doc = json.loads((rout / "refined.ckpt.json").read_text())
        assert doc["meta"]["config"]["refine"]["target_mode"] == "stop-gradient-current"

    def test_unknown_override_rejected(self, pretrained, tmp_path, capsys):
        out, cfg_path = pretrained
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--refine.bogus=1"])
        assert rc != 0
        assert "refine.bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("words,variant,kind", [
        # the base fills max_len 24 on its own, so its kind token overflows
        (22, 3, "IDENTICAL"),
        (3, 23, "TENSE"),
    ], ids=["base-with-kind-token", "variant"])
    def test_overflowing_row_names_sample_and_kind(self, pretrained, tmp_path, capsys,
                                                   words, variant, kind):
        out, cfg_path = pretrained
        corpus = tmp_path / "long.jsonl"
        corpus.write_text(
            '{"id": "short", "base": "the cup fits .", '
            '"variants": {"TENSE": "the cup fitted ."}}\n'
            + json.dumps({"id": "long-7", "base": " ".join(["big"] * words),
                          "variants": {"TENSE": " ".join(["small"] * variant)}}) + "\n")
        run_out = tmp_path / "out"
        run_out.mkdir()
        rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(run_out),
                       f"--paths.corpus={corpus}"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'long-7'" in err and kind in err and "overflows max length 24" in err
        assert list(run_out.iterdir()) == []


# every resolved key, fed a wrong-type value and, where the key has a range
# or a set of choices, a value outside it; the first ten cases are the
# original count checks
BAD_VALUES = [
    ("pretrain", "epochs", "abc"), ("pretrain", "epochs", "-1"),
    ("pretrain", "epochs", "2.5"), ("pretrain", "epochs", "true"),
    ("pretrain", "batch_size", "0"), ("pretrain", "batch_size", "abc"),
    ("refine", "epochs", "abc"), ("refine", "epochs", "-1"),
    ("refine", "batch_size", "0"), ("refine", "batch_size", "false"),
    ("runtime", "seed", "abc"), ("runtime", "seed", "-1"),
    ("runtime", "precision", "32"), ("runtime", "precision", "float16"),
    ("runtime", "out_dir", "5"),
    ("paths", "corpus", "5"), ("paths", "benchmarks", "x.jsonl"),
    ("paths", "benchmarks", '["a.jsonl", 1]'), ("paths", "vocab", "[]"),
    ("paths", "init_checkpoint", "true"),
    ("encoder", "layers", "abc"), ("encoder", "layers", "-1"),
    ("encoder", "heads", "abc"), ("encoder", "heads", "0"),
    ("encoder", "model_dim", "2.5"), ("encoder", "model_dim", "0"),
    ("encoder", "model_dim", "17"),
    ("encoder", "ff_dim", "true"), ("encoder", "ff_dim", "0"),
    ("encoder", "max_len", "abc"), ("encoder", "max_len", "2"),
    ("encoder", "dropout", "abc"), ("encoder", "dropout", "1.5"),
    ("pretrain", "lr", "abc"), ("pretrain", "lr", "0"),
    ("pretrain", "warmup_steps", "1.5"), ("pretrain", "warmup_steps", "-1"),
    ("pretrain", "weight_decay", "abc"), ("pretrain", "weight_decay", "-0.1"),
    ("pretrain", "mask_prob", "abc"), ("pretrain", "mask_prob", "2"),
    ("score", "window_radius", "abc"), ("score", "window_radius", "-1"),
    ("refine", "alpha", "abc"), ("refine", "alpha", "-1"),
    ("refine", "beta", "NaN"), ("refine", "beta", "-0.5"),
    ("refine", "gamma", "abc"), ("refine", "gamma", "-2"),
    ("refine", "perturbations_per_sample", "abc"),
    ("refine", "perturbations_per_sample", "0"),
    ("refine", "lr", "abc"), ("refine", "lr", "-1e-3"),
    ("refine", "warmup_steps", "abc"), ("refine", "warmup_steps", "-1"),
    ("refine", "weight_decay", "abc"), ("refine", "weight_decay", "-1"),
    ("refine", "target_mode", "2"), ("refine", "target_mode", "bogus"),
    ("refine", "disc_hidden", "abc"), ("refine", "disc_hidden", "0"),
    ("refine", "disc_dropout", "abc"), ("refine", "disc_dropout", "1.5"),
]


def test_seed_flag_sets_the_one_run_seed():
    cfg = load_config(seed=3)
    assert cfg["runtime"]["seed"] == 3
    assert [key for section in cfg.values() for key in section].count("seed") == 1


@pytest.mark.parametrize("where", ["file", "override"])
def test_refine_seed_is_not_a_config_key(pretrained, tmp_path, capsys, where):
    # runtime.seed seeds every command; a second seed key would be a copy
    out, cfg_path = pretrained
    argv = ["refine", "--config", str(cfg_path), "--out", str(tmp_path)]
    if where == "file":
        doc = json.loads(cfg_path.read_text())
        doc["refine"]["seed"] = 5
        (tmp_path / "run.json").write_text(json.dumps(doc))
        argv[2] = str(tmp_path / "run.json")
        expected = f"error: {tmp_path / 'run.json'}: unknown key refine.seed"
    else:
        argv.append("--refine.seed=5")
        expected = "error: unknown override refine.seed"
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == expected + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["run.json"] if where == "file" else [])


@pytest.mark.parametrize("key,value", [("include_special", True), ("alignment", "raw")])
def test_removed_score_switches_are_unknown_keys(pretrained, tmp_path, capsys, key, value):
    # the window matches word tokens at their index among the words, the one
    # rule; a run config that still picks another is rejected, not ignored
    _, cfg_path = pretrained
    doc = json.loads(cfg_path.read_text())
    doc["score"] = {key: value}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["refine", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: unknown key score.{key}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.parametrize("where", ["file", "override"])
@pytest.mark.parametrize("section,key,value", [
    ("encoder", "tie_mlm_head", False), ("pretrain", "adam_eps", 1e-6),
    ("refine", "adam_eps", 1e-6)])
def test_removed_constants_are_unknown_keys(pretrained, tmp_path, capsys, where,
                                            section, key, value):
    # the MLM head is always the token table and AdamW's epsilon is
    # optim.EPS; a run config that still sets either is rejected, not ignored
    assert sum(map(len, load_config().values())) == 32
    _, cfg_path = pretrained
    argv = ["refine", "--config", str(cfg_path), "--out", str(tmp_path)]
    if where == "file":
        doc = json.loads(cfg_path.read_text())
        doc[section][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        argv[2] = str(path)
        expected = f"error: {path}: unknown key {section}.{key}"
    else:
        argv.append(f"--{section}.{key}={json.dumps(value)}")
        expected = f"error: unknown override {section}.{key}"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["run.json"] if where == "file" else [])


@pytest.mark.parametrize("command,overrides", [
    ("pretrain", ["--pretrain.lr=1e30", "--pretrain.epochs=3",
                  "--pretrain.warmup_steps=0"]),
    ("refine", ["--refine.lr=1e30", "--refine.epochs=3", "--refine.warmup_steps=0"]),
])
def test_diverged_run_exits_with_one_error_line_and_no_artifact(
        pretrained, tmp_path, capsys, command, overrides):
    # a NaN loss used to end in "final loss nan", exit 0 and a NaN checkpoint
    _, cfg_path = pretrained
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path),
                   *overrides])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \w+ diverged: the loss is (nan|-?inf) at step \d+\n", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["score", "--checkpoint", "x"], "winoref score: the following arguments are "
                                     "required: --sentence, --candidate1, --candidate2"),
    (["gen-data", "--groups", "abc"], "winoref gen-data: argument --groups: invalid int "
                                      "value: 'abc'"),
    (["bogus"], "winoref: argument command: invalid choice: 'bogus' (choose from "
                "'pretrain', 'refine', 'evaluate', 'ablate', 'sweep', 'score', 'gen-data')"),
], ids=["missing-argument", "bad-int", "unknown-command"])
def test_bad_command_line_exits_with_one_error_line(tmp_path, capsys, monkeypatch,
                                                    argv, message):
    # argparse printed its usage block and a `winoref <cmd>: error:` line,
    # and exited 2
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["score", "--help"])
    assert done.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: winoref score") and captured.err == ""


def test_failing_run_prints_only_its_error_line(pretrained, data_dir, tmp_path, capsys):
    # a one-group corpus whose line holds an unknown variant key: its
    # skipped-variants note printed before the run failed, so the run's
    # stderr was two lines. A run that succeeds prints its notes at its end
    _, cfg_path = pretrained
    line = json.loads((data_dir / "corpus.jsonl").read_text().splitlines()[0])
    line["variants"]["BOGUS"] = line["base"]
    corpus = tmp_path / "one.jsonl"
    corpus.write_text(json.dumps(line) + "\n")
    argv = ["refine", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
            f"--paths.corpus={corpus}"]
    assert cli.main(argv + ["--refine.alpha=0", "--refine.gamma=0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: only the contrastive loss is weighted, and no batch ")
    assert err.count("\n") == 1
    assert cli.main(argv + ["--refine.epochs=0"]) == 0
    assert capsys.readouterr().err == (f"{corpus}: skipped 1 variants with unknown "
                                       f"perturbation keys\n")


def test_pretrain_holds_its_corpus_note_when_a_benchmark_fails(data_dir, tmp_path, capsys):
    # tests/test_cli_fuzz.py's two-field damage found this one: a renamed
    # variant key in the corpus and a benchmark line without its sentence
    # printed the skipped-variants note and then the error line
    lines = (data_dir / "corpus.jsonl").read_text().splitlines()
    group = json.loads(lines[0])
    group["variants"]["TENSEx"] = group["variants"].pop("TENSE")
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join([json.dumps(group)] + lines[1:]) + "\n")
    inst = json.loads((data_dir / "bench_a.jsonl").read_text().splitlines()[0])
    del inst["sentence"]
    bench = tmp_path / "bench.jsonl"
    bench.write_text(json.dumps(inst) + "\n")
    cfg_path = write_config(tmp_path / "run.json", data_dir)
    assert cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                     f"--paths.corpus={corpus}", f"--paths.benchmarks=[\"{bench}\"]"]) == 1
    assert capsys.readouterr().err == f"error: {bench}:1: missing field 'sentence'\n"


def test_bad_values_cover_every_key():
    keys = {(section, key) for section, key, _ in BAD_VALUES}
    cfg = load_config()
    assert keys == {(section, key) for section in cfg for key in cfg[section]}


@pytest.mark.parametrize("section,key,value", BAD_VALUES)
def test_bad_count_exits_with_one_error_line(pretrained, tmp_path, capsys,
                                             section, key, value):
    _, cfg_path = pretrained
    rc = cli.main(["refine", "--config", str(cfg_path), "--out", str(tmp_path),
                   f"--{section}.{key}={value}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {section}.{key} must be ")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []   # rejected before any work


@pytest.mark.parametrize("override,cap,message", [
    ("--encoder.max_len=100000000", None,
     "encoder.max_len must be in [3, 512], got 100000000"),
    ("--encoder.model_dim=100000", None,
     "the encoder would hold 40009900032 parameters, over the cap of 50000000"),
    # the corpus vocabulary's rows are what push this one over
    (None, 3000, "the encoder would hold "),
])
def test_encoder_too_large_to_build_exits_before_any_allocation(
        pretrained, tmp_path, capsys, monkeypatch, override, cap, message):
    # one used to end in a traceback from the first parameter's draw
    def default_rng(*args, **kwargs):
        raise AssertionError("a parameter was about to be drawn")

    _, cfg_path = pretrained
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    if cap is not None:
        monkeypatch.setattr(encoder, "MAX_PARAMS", cap)
    argv = ["pretrain", "--config", str(cfg_path), "--out", str(tmp_path)]
    assert cli.main(argv + ([override] if override else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert "encoder.model_dim" in err or "encoder.max_len" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["long-rows", "ff-dim"])
def test_step_too_large_to_build_exits_with_one_error_line(pretrained, data_dir, tmp_path,
                                                           capsys, monkeypatch, case):
    # every key is in range. With 490-word rows the first step's attention
    # scores would be 15 GiB as float64; at dropout 0 no mask was checked, so
    # they were built, and the run ended in a traceback. The feed-forward
    # hidden of 21-token rows at ff_dim 2e6 was never checked at all. Both
    # are refused before the model is built: at ff_dim 2e6 its parameters
    # alone took 555 MB
    _, cfg_path = pretrained
    run_out = tmp_path / "out"
    argv = ["pretrain", "--config", str(cfg_path), "--out", str(run_out)]
    if case == "long-rows":
        corpus = tmp_path / "long.jsonl"
        corpus.write_text("".join(json.dumps({"base": " ".join([f"w{g}"] * 490)}) + "\n"
                                  for g in range(20)))
        argv += [f"--paths.corpus={corpus}", "--encoder.dropout=0",
                 "--encoder.heads=512", "--encoder.model_dim=512", "--encoder.ff_dim=1",
                 "--encoder.layers=1", "--encoder.max_len=512"]
        shape, key = (16, 512, 492, 492), "encoder.heads"
    else:
        argv += ["--encoder.model_dim=8", "--encoder.heads=1",
                 "--encoder.ff_dim=2000000"]
        texts = corpus_sentences(load_perturbation_corpus(data_dir / "corpus.jsonl"))
        longest = max(len(word_tokens(t)) for t in texts) + 2    # [CLS] ... [SEP]
        shape, key = (16 * longest, 2_000_000), "encoder.ff_dim"

    def build(*args, **kwargs):
        raise AssertionError("the model was about to be built")

    monkeypatch.setattr(encoder.EncoderModel, "__init__", build)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (f"error: a training step would build an array of shape {shape}, "
                   f"over the cap of {encoder.MAX_STEP_VALUES} values: lower "
                   f"pretrain.batch_size or {key}\n")
    assert not run_out.exists()


def test_discriminator_too_large_to_build_exits_with_one_error_line(pretrained, tmp_path,
                                                                   capsys):
    # every key is in range, but w1 alone would hold 1.6e13 values; it used
    # to be drawn and end in a 23-line MemoryError traceback
    _, cfg_path = pretrained
    argv = ["refine", "--config", str(cfg_path), "--out", str(tmp_path),
            "--refine.disc_hidden=1000000000000"]
    assert cli.main(argv) == 1
    count = (16 + 4 + N_KINDS) * 10**12 + N_KINDS
    assert capsys.readouterr().err == (
        f"error: the discriminator would hold {count} parameters, over the cap of "
        f"{encoder.MAX_PARAMS}: lower refine.disc_hidden\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["pretrain", "refine"])
def test_zero_epochs_saves_the_untrained_model(pretrained, tmp_path, capsys, command):
    _, cfg_path = pretrained
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path),
                   f"--{command}.epochs=0"])
    assert rc == 0
    assert "0 steps" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["refine", "evaluate", "score", "ablate", "sweep"])
def test_vocabulary_of_another_checkpoint_exits_with_one_error_line(
        pretrained, data_dir, tmp_path, capsys, command):
    out, cfg_path = pretrained
    ckpt = out / "init.ckpt.json"
    vocab_path = tmp_path / "vocab.json"
    doc = json.loads((out / "vocab.json").read_text())
    vocab_path.write_text(json.dumps({**doc, "tokens": doc["tokens"][:-3]}))
    extra = {"evaluate": ["--checkpoint", str(ckpt), str(data_dir / "bench_a.jsonl")],
             "score": ["--checkpoint", str(ckpt), "--sentence", "the _ fits .",
                       "--candidate1", "trophy", "--candidate2", "suitcase"]}
    run_out = tmp_path / "out"
    run_out.mkdir()
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(run_out),
                   f"--paths.vocab={vocab_path}", *extra.get(command, [])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(ckpt) in err and str(vocab_path) in err
    assert list(run_out.iterdir()) == []


@pytest.mark.parametrize("command", ["refine", "ablate", "sweep"])
@pytest.mark.parametrize("key,value", [("dropout", 0.5), ("dropout", 0.0), ("layers", 2)])
def test_encoder_section_unlike_the_checkpoints_exits_with_one_error_line(
        pretrained, tmp_path, capsys, command, key, value):
    # the run trained the checkpoint's encoder, at its dropout 0.1, while
    # its artifacts recorded the run config's value
    out, cfg_path = pretrained
    run_out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(run_out),
                   f"--encoder.{key}={value}"])
    assert rc == 1
    built = {"dropout": 0.1, "layers": 1}[key]
    assert capsys.readouterr().err == (
        f"error: checkpoint {out / 'init.ckpt.json'} was built with encoder.{key} "
        f"{built!r}, but the run config sets {value!r}\n")
    assert not run_out.exists()


@pytest.mark.parametrize("kind", ["complex", "bool", "int", "str", "datetime"])
def test_checkpoint_parameter_that_is_not_float_exits_with_one_error_line(
        pretrained, data_dir, tmp_path, capsys, kind):
    # such a parameter was cast to the model's dtype: a complex one lost its
    # imaginary part beside numpy's two-line ComplexWarning, the others
    # with no message at all
    out, cfg_path = pretrained
    arrays, meta = load_checkpoint(out / "init.ckpt.json")
    bias = arrays["mlm_bias"]
    arrays["mlm_bias"] = {"complex": bias + 1j, "bool": bias > 0,
                          "int": bias.astype(np.int64),
                          "str": np.full(bias.shape, "1.5"),
                          "datetime": np.zeros(bias.shape, "datetime64[s]")}[kind]
    bad = tmp_path / "bad.ckpt.json"
    save_checkpoint(bad, arrays, meta)
    inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
    rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--checkpoint", str(bad), "--sentence", inst.sentence,
                   "--candidate1", inst.candidate1, "--candidate2", inst.candidate2])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {bad}: parameter 'mlm_bias': checkpoint "
                            f"dtype {arrays['mlm_bias'].dtype} is not a floating-point "
                            f"type\n")
    assert captured.out == ""


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("command", ["evaluate", "score"])
def test_non_finite_checkpoint_exits_with_one_error_line(
        pretrained, data_dir, tmp_path, capsys, command, value):
    # a NaN score loses every comparison, so it would break the tie rule
    out, cfg_path = pretrained
    arrays, meta = load_checkpoint(out / "init.ckpt.json")
    arrays["final_ln.g"][0] = value
    bad = tmp_path / "bad.ckpt.json"
    save_checkpoint(bad, arrays, meta)
    extra = {"evaluate": [str(data_dir / "bench_a.jsonl")],
             "score": ["--sentence", "the _ fits .", "--candidate1", "trophy",
                       "--candidate2", "suitcase"]}[command]
    run_out = tmp_path / "out"
    rc = cli.main([command, "--config", str(cfg_path), "--out", str(run_out),
                   "--checkpoint", str(bad), *extra])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {bad}: parameter 'final_ln.g' "
                            f"holds a NaN or infinite value\n")
    assert captured.out == ""
    assert not run_out.exists()


class TestEvaluate:
    def test_two_checkpoints_two_rows_per_dataset(self, pretrained, data_dir,
                                                  tmp_path, capsys):
        out, cfg_path = pretrained
        rout = tmp_path / "ev"
        rout.mkdir()
        assert cli.main(["refine", "--config", str(cfg_path), "--out", str(rout)]) == 0
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(rout),
                       "--checkpoint", str(out / "init.ckpt.json"),
                       "--checkpoint", str(rout / "refined.ckpt.json"),
                       "--json", "--csv",
                       str(data_dir / "bench_a.jsonl")])
        assert rc == 0
        header, rows, _ = read_csv_artifact(rout / "eval_report.csv")
        assert header == ["checkpoint", "dataset", "count", "accuracy", "overflows"]
        assert [r["checkpoint"] for r in rows] == ["init.ckpt", "refined.ckpt"]
        body = json.loads((rout / "eval_report.json").read_text())["body"]
        # json and csv agree; json additionally carries per-instance decisions
        for jrow, crow in zip(body, rows):
            assert jrow["dataset"] == crow["dataset"]
            assert jrow["accuracy"] == float(crow["accuracy"])
            assert len(jrow["decisions"]) == jrow["count"]
            assert {"index", "chosen", "gold", "correct"} <= set(jrow["decisions"][0])

    @pytest.mark.parametrize("target,damage", [
        ("vocab", lambda doc: "{oops"),
        ("vocab", lambda doc: []),
        ("vocab", lambda doc: {"format_version": 1}),
        ("vocab", lambda doc: {**doc, "tokens": doc["tokens"] + [{"w": 1}]}),
        ("vocab", lambda doc: {**doc, "tokens": doc["tokens"] + doc["tokens"][-1:]}),
        ("checkpoint", lambda doc: "{oops"),
        ("checkpoint", lambda doc: []),
        ("checkpoint", lambda doc: {**doc, "meta": []}),
        ("checkpoint", lambda doc: {**doc, "meta": {}}),
        ("checkpoint", lambda doc: {**doc, "meta": {"encoder_config": {
            **doc["meta"]["encoder_config"], "bogus": 1}}}),
        ("checkpoint", lambda doc: {**doc, "params": {**doc["params"], "tok_emb": []}}),
    ], ids=["vocab-not-json", "vocab-list", "vocab-no-tokens", "vocab-non-string-token",
            "vocab-duplicate-token", "ckpt-not-json", "ckpt-list",
            "ckpt-meta-list", "ckpt-no-encoder-config", "ckpt-unknown-encoder-key",
            "ckpt-param-list"])
    def test_malformed_file_exits_with_one_error_line(self, pretrained, data_dir,
                                                      tmp_path, capsys, target, damage):
        out, cfg_path = pretrained
        files = {"vocab": tmp_path / "vocab.json", "checkpoint": tmp_path / "init.ckpt.json"}
        for name, path in files.items():
            doc = json.loads((out / path.name).read_text())
            doc = damage(doc) if name == target else doc
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       f"--paths.vocab={files['vocab']}",
                       "--checkpoint", str(files["checkpoint"]),
                       str(data_dir / "bench_a.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(files[target]) in err

    def test_mismatched_later_checkpoint_fails_before_any_evaluation(
            self, pretrained, data_dir, tmp_path, capsys, monkeypatch):
        out, cfg_path = pretrained
        good = out / "init.ckpt.json"
        arrays, meta = load_checkpoint(good)
        # one token row more than the vocabulary has
        arrays["tok_emb"] = np.concatenate([arrays["tok_emb"], arrays["tok_emb"][:1]])
        arrays["mlm_bias"] = np.concatenate([arrays["mlm_bias"], [0.0]])
        meta["encoder_config"]["vocab_size"] += 1
        wide = tmp_path / "wide.ckpt.json"
        save_checkpoint(wide, arrays, meta)
        def evaluate(*args, **kwargs):
            raise AssertionError("a checkpoint was evaluated before all were checked")

        monkeypatch.setattr(cli, "evaluate", evaluate)
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(good), "--checkpoint", str(wide),
                       str(data_dir / "bench_a.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(wide) in err

    def test_checkpoint_with_a_parameter_the_model_lacks_exits_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys):
        out, cfg_path = pretrained
        arrays, meta = load_checkpoint(out / "init.ckpt.json")
        # a second block's weights under a one-layer encoder_config
        arrays.update({name.replace("l0.", "l1.", 1): arr for name, arr in arrays.items()
                       if name.startswith("l0.")})
        deep = tmp_path / "deep.ckpt.json"
        save_checkpoint(deep, arrays, meta)
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(deep), str(data_dir / "bench_a.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {deep}: ") and err.count("\n") == 1
        assert "l1.attn.wq" in err

    @pytest.mark.parametrize("command", ["evaluate", "ablate"])
    def test_datasets_with_one_file_name_exit_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys, command):
        out, cfg_path = pretrained
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "benchmark.jsonl")
            paths[-1].write_bytes((data_dir / f"bench_{sub}.jsonl").read_bytes())
        if command == "evaluate":
            argv = ["evaluate", "--checkpoint", str(out / "init.ckpt.json"),
                    *map(str, paths)]
        else:
            argv = ["ablate", f"--paths.benchmarks={json.dumps(list(map(str, paths)))}"]
        rc = cli.main(argv + ["--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not (tmp_path / "ablation.csv").exists()

    def test_checkpoints_with_one_file_name_exit_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys):
        # both rows used to be labelled "init.ckpt", with nothing to tell
        # them apart
        out, cfg_path = pretrained
        paths = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            paths.append(tmp_path / sub / "init.ckpt.json")
            paths[-1].write_bytes((out / "init.ckpt.json").read_bytes())
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(paths[0]), "--checkpoint", str(paths[1]),
                       "--csv", str(data_dir / "bench_a.jsonl")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths[0]) in err and str(paths[1]) in err
        assert not (tmp_path / "eval_report.csv").exists()

    @pytest.mark.parametrize("key,value", [("tie_mlm_head", True),
                                           ("layer_norm_eps", 1e-5),
                                           ("init_scale", 0.02)])
    def test_checkpoint_with_the_removed_head_switch_exits_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys, key, value):
        # written before the head was always tied, or while the layer norm's
        # epsilon and the draw scale were encoder_config keys; regenerate
        # such a file
        out, cfg_path = pretrained
        arrays, meta = load_checkpoint(out / "init.ckpt.json")
        meta["encoder_config"][key] = value
        old = tmp_path / "old.ckpt.json"
        save_checkpoint(old, arrays, meta)
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(old), str(data_dir / "bench_a.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {old}: encoder_config has unknown keys [{key!r}]\n")

    def test_report_with_an_overflowing_candidate_is_strict_json(
            self, pretrained, data_dir, tmp_path, capsys):
        out, cfg_path = pretrained
        instances = load_benchmark(data_dir / "bench_a.jsonl")
        # 30 words cannot fit max_len 24: the candidate scores -inf
        long = dataclasses.replace(instances[0],
                                   candidate2=" ".join([instances[0].candidate2] * 30))
        save_benchmark(tmp_path / "long.jsonl", [long] + instances[1:])
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"), "--json",
                       str(tmp_path / "long.jsonl")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "long: 1 of 12 candidates overflow max length 24 and score -inf\n")

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        with open(tmp_path / "eval_report.json", encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject)
        first = doc["body"][0]["decisions"][0]
        assert first["score2"] is None and first["chosen"] == 1
        assert isinstance(first["score1"], float)

    def test_reports_count_the_overflowing_candidates(self, pretrained, data_dir,
                                                      tmp_path, capsys):
        out, cfg_path = pretrained
        instances = load_benchmark(data_dir / "bench_a.jsonl")
        long = dataclasses.replace(instances[1],
                                   candidate1=" ".join([instances[1].candidate1] * 30))
        save_benchmark(tmp_path / "long.jsonl", [instances[0], long] + instances[2:])
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"), "--json", "--csv",
                       str(data_dir / "bench_a.jsonl"), str(tmp_path / "long.jsonl")])
        assert rc == 0
        assert capsys.readouterr().err == (
            "long: 1 of 12 candidates overflow max length 24 and score -inf\n")
        body = json.loads((tmp_path / "eval_report.json").read_text())["body"]
        _, rows, _ = read_csv_artifact(tmp_path / "eval_report.csv")
        assert [r["overflows"] for r in body] == [0, 1]
        assert [r["overflows"] for r in rows] == ["0", "1"]

    def test_empty_dataset_list_rejected(self, pretrained, tmp_path, capsys):
        out, cfg_path = pretrained
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json")])
        assert rc != 0
        assert "dataset" in capsys.readouterr().err

    def test_checkpoint_file_untouched_by_evaluate(self, pretrained, data_dir,
                                                   tmp_path):
        out, cfg_path = pretrained
        ck = out / "init.ckpt.json"
        before = ck.read_bytes()
        assert cli.main(["evaluate", "--config", str(cfg_path), "--out", str(tmp_path),
                         "--checkpoint", str(ck),
                         str(data_dir / "bench_a.jsonl")]) == 0
        assert ck.read_bytes() == before


@pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep"])
def test_overflows_are_counted_once_per_dataset(pretrained, data_dir, tmp_path, capsys,
                                                command):
    # five instances whose candidates both overflow: ten overflows, which a
    # once-per-message warning filter used to print as one or two lines
    out, cfg_path = pretrained
    instances = load_benchmark(data_dir / "bench_a.jsonl")
    long = [dataclasses.replace(inst, sentence=" ".join(["big"] * 30) + " _ .")
            for inst in instances[:5]]
    paths = [tmp_path / "long.jsonl", data_dir / "bench_b.jsonl"]
    save_benchmark(paths[0], long + instances[5:])
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path)]
    if command == "evaluate":
        # two checkpoints, one line
        copy = tmp_path / "copy.ckpt.json"
        copy.write_bytes((out / "init.ckpt.json").read_bytes())
        argv += ["--checkpoint", str(out / "init.ckpt.json"), "--checkpoint", str(copy),
                 *map(str, paths)]
    else:
        argv.append(f"--paths.benchmarks={json.dumps(list(map(str, paths)))}")
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert cli.main(argv) == 0
    assert capsys.readouterr().err == (
        "long: 10 of 12 candidates overflow max length 24 and score -inf\n")


@pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep"])
def test_out_of_vocabulary_benchmark_candidate_exits_with_one_error_line(
        pretrained, data_dir, tmp_path, capsys, command):
    # the candidate on the file's fourth line, after a blank one, holds a
    # word the vocabulary lacks; the run stops before it refines or scores
    out, cfg_path = pretrained
    instances = load_benchmark(data_dir / "bench_a.jsonl")
    instances[2] = dataclasses.replace(instances[2], candidate2="the qqq")
    path = tmp_path / "unknown.jsonl"
    save_benchmark(path, instances)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0] + "\n" + "".join(lines[1:]))
    run_out = tmp_path / "out"
    run_out.mkdir()
    argv = [command, "--config", str(cfg_path), "--out", str(run_out)]
    if command == "evaluate":
        argv += ["--checkpoint", str(out / "init.ckpt.json"), str(path)]
    else:
        argv.append(f"--paths.benchmarks={json.dumps([str(path)])}")
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}:4: candidate2 'the qqq' holds the word "
                            f"'qqq', which is not in the vocabulary\n")
    assert captured.out == "" and list(run_out.iterdir()) == []


def _benchmark_argv(command, cfg_path, out, run_out, path):
    argv = [command, "--config", str(cfg_path), "--out", str(run_out)]
    if command == "evaluate":
        return argv + ["--checkpoint", str(out / "init.ckpt.json"), str(path)]
    return argv + [f"--paths.benchmarks={json.dumps([str(path)])}"]


@pytest.mark.parametrize("field", ["sentence", "twin"])
@pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep"])
def test_out_of_vocabulary_benchmark_sentence_word_exits_with_one_error_line(
        pretrained, data_dir, tmp_path, capsys, command, field):
    # such a word was read as [UNK], an input no pretraining row holds,
    # and the candidates were scored around it with no message
    out, cfg_path = pretrained
    instances = load_benchmark(data_dir / "bench_a.jsonl")
    text = getattr(instances[2], field) + " qqq"
    instances[2] = dataclasses.replace(instances[2], **{field: text})
    path = tmp_path / "unknown.jsonl"
    save_benchmark(path, instances)
    run_out = tmp_path / "out"
    run_out.mkdir()
    assert cli.main(_benchmark_argv(command, cfg_path, out, run_out, path)) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {path}:3: {field} {text!r} holds the word "
                            f"'qqq', which is not in the vocabulary\n")
    assert captured.out == "" and list(run_out.iterdir()) == []


@pytest.mark.parametrize("command", ["evaluate", "ablate", "sweep"])
def test_benchmark_of_blank_lines_exits_with_one_error_line(pretrained, tmp_path,
                                                            capsys, command):
    out, cfg_path = pretrained
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n\t\n")
    run_out = tmp_path / "out"
    run_out.mkdir()
    assert cli.main(_benchmark_argv(command, cfg_path, out, run_out, path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: benchmark file {path} holds no instance\n"
    assert captured.out == "" and list(run_out.iterdir()) == []


# every input file is read by one reader, so each kind fails each way with
# one error line of one form: path, the line where it is known, the fault
WHOLE_FILES = ("config", "vocabulary", "checkpoint")
LINE_FILES = ("corpus", "benchmark")
BAD_FILES = ([(kind, case) for kind in WHOLE_FILES + LINE_FILES
              for case in ("missing", "not-utf8", "malformed", "duplicate-key", "array")]
             + [(kind, "unknown-key") for kind in LINE_FILES])


def _damaged(data, case, lineno):
    """``data`` with line ``lineno`` damaged by ``case``; the key a
    duplicate-key case gives twice."""
    lines = data.splitlines(keepends=True)
    line = lines[lineno - 1]
    key = next(iter(json.loads(line)))
    lines[lineno - 1] = {
        "not-utf8": line[:9] + b"\xff" + line[9:],
        "malformed": b"{oops\n",
        "duplicate-key": b"{%s: 0, " % json.dumps(key).encode() + line[1:],
        "array": b"[1, 2]\n",
        "unknown-key": b'{"colour": 1, ' + line[1:]}[case]
    return b"".join(lines), key


@pytest.mark.parametrize("kind,case", BAD_FILES,
                         ids=[f"{kind}-{case}" for kind, case in BAD_FILES])
def test_bad_input_file_exits_with_one_error_line(pretrained, data_dir, tmp_path,
                                                  capsys, kind, case):
    out, cfg_path = pretrained
    source = {"config": cfg_path, "vocabulary": out / "vocab.json",
              "checkpoint": out / "init.ckpt.json", "corpus": data_dir / "corpus.jsonl",
              "benchmark": data_dir / "bench_a.jsonl"}[kind]
    path = tmp_path / source.name
    lineno = 1 if kind in WHOLE_FILES else 3
    where = path if kind in WHOLE_FILES else f"{path}:{lineno}"
    key = None
    if case != "missing":
        data, key = _damaged(source.read_bytes(), case, lineno)
        path.write_bytes(data)
    run_out = tmp_path / "out"
    run_out.mkdir()
    common = ["--config", str(cfg_path), "--out", str(run_out)]
    bench = str(data_dir / "bench_a.jsonl")
    init = str(out / "init.ckpt.json")
    argv = {"config": ["refine", "--config", str(path), "--out", str(run_out)],
            "corpus": ["refine", *common, f"--paths.corpus={path}"],
            "benchmark": ["evaluate", *common, "--checkpoint", init, str(path)],
            "vocabulary": ["evaluate", *common, f"--paths.vocab={path}",
                           "--checkpoint", init, bench],
            "checkpoint": ["evaluate", *common, "--checkpoint", str(path), bench]}[kind]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    message = {
        "missing": f"{kind} file not found: {path}",
        "not-utf8": f"{path}:{lineno}: byte 0xff is not UTF-8 (invalid start byte)",
        "malformed": f"{path}:{lineno}: not valid JSON (Expecting property name "
                     f"enclosed in double quotes)",
        "duplicate-key": f"{where}: duplicate key {key!r}",
        "array": f"{where}: expected a JSON object",
        "unknown-key": f"{where}: unknown key 'colour'"}[case]
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(path) in captured.err and "Traceback" not in captured.err
    assert captured.err == f"error: {message}\n"
    assert list(run_out.iterdir()) == []


def test_config_section_with_a_key_given_twice_exits_with_one_error_line(tmp_path,
                                                                         capsys):
    # the last value used to win: this file ran with seed 2
    path = tmp_path / "run.json"
    path.write_text('{"runtime": {"seed": 1, "seed": 2}}')
    assert cli.main(["gen-data", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {path}: duplicate key 'seed'\n"
    assert not (tmp_path / "o").exists()


class TestAblate:
    def test_rows_and_determinism(self, pretrained, tmp_path):
        out, cfg_path = pretrained
        csvs = []
        for name in ("a1", "a2"):
            aout = tmp_path / name
            aout.mkdir()
            rc = cli.main(["ablate", "--config", str(cfg_path), "--out", str(aout)])
            assert rc == 0
            csvs.append((aout / "ablation.csv").read_bytes())
        assert csvs[0] == csvs[1]
        header, rows, _ = read_csv_artifact(tmp_path / "a1" / "ablation.csv")
        assert header[:4] == ["config", "alpha", "beta", "gamma"]
        assert header[4:] == ["bench_a", "bench_b"]
        assert [r["config"] for r in rows] == [
            "baseline", "contrastive+diversity", "reconstruction+diversity",
            "reconstruction+contrastive", "full"]
        # each named setting zeroes one weight of the configured ones
        assert [(r["alpha"], r["beta"], r["gamma"]) for r in rows] == [
            ("0.0", "0.0", "0.0"), ("0.0", "0.5", "2.5"), ("130.0", "0.0", "2.5"),
            ("130.0", "0.5", "0.0"), ("130.0", "0.5", "2.5")]


class TestSweep:
    def test_grid_runs_ranked_with_provenance(self, pretrained, tmp_path):
        out, cfg_path = pretrained
        sout = tmp_path / "sw"
        sout.mkdir()
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(sout),
                       "--grid", "alpha=1,2", "--grid", "beta=0.25,0.5",
                       "--grid", "gamma=0.5,1.0"])
        assert rc == 0
        report = json.loads((sout / "sweep_report.json").read_text())["body"]
        assert len(report) == 8
        assert len({r["run"] for r in report}) == 8
        accs = [r["mean_accuracy"] for r in report]
        assert accs == sorted(accs, reverse=True)
        for r in report:
            assert r["config_hash"].startswith("sha256:")
            assert r["seed"] == 5
            assert os.path.exists(sout / "sweep" / r["run"] / "refined.ckpt.json")

    def test_all_zero_grid_point_is_evaluated_untrained(self, pretrained, tmp_path):
        out, cfg_path = pretrained
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--grid", "alpha=0", "--grid", "beta=0", "--grid", "gamma=0"])
        assert rc == 0
        init = load_checkpoint(out / "init.ckpt.json")[0]
        run = load_checkpoint(tmp_path / "sweep" / "run_000" / "refined.ckpt.json")[0]
        assert params_hash(run) == params_hash(init)

    def test_repeated_grid_axis_rejected(self, pretrained, tmp_path, capsys):
        # the second --grid alpha used to replace the first, silently
        _, cfg_path = pretrained
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--grid", "alpha=1", "--grid", "alpha=2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'alpha'" in err
        assert list(tmp_path.iterdir()) == []

    def test_bad_grid_axis_rejected(self, pretrained, tmp_path, capsys):
        out, cfg_path = pretrained
        rc = cli.main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--grid", "delta=1,2"])
        assert rc != 0
        assert "delta" in capsys.readouterr().err


class TestScoreCommand:
    def test_prints_both_log_probs(self, pretrained, data_dir, tmp_path, capsys):
        out, cfg_path = pretrained
        inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
        rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"),
                       "--sentence", inst.sentence,
                       "--candidate1", inst.candidate1, "--candidate2", inst.candidate2])
        assert rc == 0
        out_text = capsys.readouterr().out
        assert out_text.count("avg_log_prob=") == 2
        assert "chosen: candidate" in out_text

    def test_underflowing_probability_scores_minus_inf_without_a_warning(
            self, pretrained, data_dir, tmp_path):
        # np.log of the probability that underflowed to 0 printed a numpy
        # RuntimeWarning, with its source line, beside the -inf score
        out, cfg_path = pretrained
        inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
        vocab = Vocabulary.load(out / "vocab.json")
        arrays, meta = load_checkpoint(out / "init.ckpt.json")
        arrays["mlm_bias"][[vocab.id(t) for t in word_tokens(inst.candidate1)]] -= 1e4
        low = tmp_path / "low.ckpt.json"
        save_checkpoint(low, arrays, meta)
        done = subprocess.run(
            [sys.executable, "-m", "winoref.cli", "score", "--config", str(cfg_path),
             "--out", str(tmp_path / "out"), "--checkpoint", str(low),
             "--sentence", inst.sentence, "--candidate1", inst.candidate1,
             "--candidate2", inst.candidate2],
            env=_module_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert f"candidate1 {inst.candidate1!r}: avg_log_prob=-inf\n" in done.stdout
        assert done.stderr == ""

    @pytest.mark.parametrize("candidates, which, word", [
        (("zzz", "qqq"), 1, "zzz"), (("qqq", "zzz"), 1, "qqq"),
        (("known", "the qqq"), 2, "qqq")], ids=["both", "both-swapped", "second"])
    def test_out_of_vocabulary_candidate_exits_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys, candidates, which, word):
        # each unknown word was read as [UNK], never a pretraining target,
        # so two unknown candidates tied and candidate 1 won in either order
        out, cfg_path = pretrained
        inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
        candidates = [inst.candidate1 if c == "known" else c for c in candidates]
        rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"),
                       "--sentence", inst.sentence, "--candidate1", candidates[0],
                       "--candidate2", candidates[1]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: candidate{which} {candidates[which - 1]!r} "
                                f"holds the word {word!r}, which is not in the "
                                f"vocabulary\n")
        assert captured.out == ""

    def test_out_of_vocabulary_sentence_word_exits_with_one_error_line(
            self, pretrained, data_dir, tmp_path, capsys):
        # unknown sentence words were read as [UNK]: other unknown words in
        # their place gave the same two scores
        out, cfg_path = pretrained
        inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
        sentence = "the qqq zzz xxx because the _ is too big ."
        rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"),
                       "--sentence", sentence, "--candidate1", inst.candidate1,
                       "--candidate2", inst.candidate2])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: sentence {sentence!r} holds the word 'qqq', "
                                f"which is not in the vocabulary\n")
        assert captured.out == ""

    @pytest.mark.parametrize("sentence,candidates,message", [
        ("the _ fits .", ("Box", "box"), "candidates must be distinct"),
        ("the _ fits .", ("box", "  "), "candidates must be non-empty"),
        ("the box fits .", ("box", "cup"),
         "sentence must contain exactly one '_' slot, found 0"),
        # every word is in the vocabulary, and the word check skips '_' as
        # the slot: score printed a score for '_' read as [UNK]
        ("the coin does not fit in the closet because the _ is too large .",
         ("_", "coin"), "candidate1 '_' holds the slot marker '_'"),
    ])
    def test_instance_rules_of_the_benchmark_loader(self, pretrained, tmp_path, capsys,
                                                    sentence, candidates, message):
        # two candidates that tokenize the same would always tie
        out, cfg_path = pretrained
        rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--checkpoint", str(out / "init.ckpt.json"),
                       "--sentence", sentence, "--candidate1", candidates[0],
                       "--candidate2", candidates[1]])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        # the benchmark loader says the same after its line prefix
        path = tmp_path / "b.jsonl"
        path.write_text(json.dumps({"sentence": sentence, "candidate1": candidates[0],
                                    "candidate2": candidates[1], "label": 1}) + "\n")
        with pytest.raises(ValueError) as raised:
            load_benchmark(path)
        assert str(raised.value) == f"{path}:1: {message}"

    def test_missing_checkpoint_flag(self, pretrained, tmp_path, capsys):
        out, cfg_path = pretrained
        rc = cli.main(["score", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--sentence", "the _ fits .", "--candidate1", "a",
                       "--candidate2", "b"])
        assert rc != 0


class TestGenData:
    def test_emits_loadable_files(self, tmp_path):
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--groups", "12",
                       "--instances", "10"])
        assert rc == 0
        from winoref.text import load_benchmark, load_perturbation_corpus
        assert len(load_perturbation_corpus(tmp_path / "corpus.jsonl")) == 12
        assert len(load_benchmark(tmp_path / "benchmark.jsonl")) == 10

    def test_default_files_keep_their_bytes(self, tmp_path):
        # the README quickstart's input files, at gen-data's default counts:
        # a change to a word pool, a pool size, a default count or the order
        # of the draws shows here
        rc = cli.main(["gen-data", "--out", str(tmp_path), "--seed", "0"])
        assert rc == 0
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("corpus.jsonl", "benchmark.jsonl")}
        assert digests == {
            "corpus.jsonl":
                "ee39060cf470bc3f5800cfb4543d0dd0b18289370084bd066b6b2afb38f10c9a",
            "benchmark.jsonl":
                "85a24065b9a044fc2ab0ef469c543005aed7ded4e15a59138c1563cb95fd97c2",
        }

    def test_counts_below_one_rejected(self, tmp_path, capsys):
        for flag, value in (("--groups", "-3"), ("--instances", "0")):
            assert cli.main(["gen-data", "--out", str(tmp_path), flag, value]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flag} must be >= 1") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_groups_over_what_the_pools_hold_name_the_flag(self, tmp_path, capsys):
        # 3604 groups used to fail with "pools hold only 1080 distinct
        # triples, 1081 requested", which names no flag
        assert len(make_perturbation_corpus(3603)) == 3603
        assert cli.main(["gen-data", "--out", str(tmp_path), "--groups", "3604"]) == 1
        assert capsys.readouterr().err == "error: --groups must be in [1, 3603], got 3604\n"
        assert list(tmp_path.iterdir()) == []

    def test_instances_over_the_cap_rejected_before_any_is_built(self, tmp_path,
                                                                 capsys, monkeypatch):
        # 10**8 instances were all built in memory before any was written,
        # and a MemoryError traceback ended the run
        def make_benchmark(*args, **kwargs):
            raise AssertionError("an instance was about to be built")

        monkeypatch.setattr(cli, "make_benchmark", make_benchmark)
        over = cli.MAX_GEN_INSTANCES + 1
        assert cli.main(["gen-data", "--out", str(tmp_path),
                         "--instances", str(over)]) == 1
        assert capsys.readouterr().err == (f"error: --instances must be in "
                                           f"[1, {cli.MAX_GEN_INSTANCES}], got {over}\n")
        assert list(tmp_path.iterdir()) == []

    def test_module_invocation_runs_the_command(self, tmp_path):
        # `python -m winoref.cli` used to import the module, do nothing and
        # exit 0
        done = subprocess.run(
            [sys.executable, "-m", "winoref.cli", "gen-data", "--out", str(tmp_path),
             "--groups", "3", "--instances", "2"],
            env=_module_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "corpus.jsonl").exists()
        assert (tmp_path / "benchmark.jsonl").exists()


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_output_root_is_made_only_when_a_file_is_written(pretrained, data_dir, tmp_path,
                                                         monkeypatch, json_flag):
    # the README's `winoref score` used to leave an empty ./out behind
    out, cfg_path = pretrained
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WINOREF_OUT", raising=False)
    ckpt = ["--checkpoint", str(out / "init.ckpt.json")]
    inst = load_benchmark(data_dir / "bench_a.jsonl")[0]
    assert cli.main(["score", "--config", str(cfg_path), *ckpt, "--sentence",
                     inst.sentence, "--candidate1", inst.candidate1, "--candidate2",
                     inst.candidate2]) == 0
    assert cli.main(["evaluate", "--config", str(cfg_path), *ckpt, *json_flag,
                     str(data_dir / "bench_a.jsonl")]) == 0
    written = ["out", "out/eval_report.json"] if json_flag else []
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == written


@pytest.mark.parametrize("argv", [["--groups", "3", "--instances", "2"],
                                  ["--instances", "0"]], ids=["written", "refused"])
def test_main_leaves_the_error_state_as_it_found_it(tmp_path, argv):
    # the overflow state the commands run under ends with the command
    with np.errstate(all="warn"):
        before = np.geterr()
        cli.main(["gen-data", "--out", str(tmp_path), *argv])
        assert np.geterr() == before


def test_env_var_output_root(data_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("WINOREF_OUT", str(tmp_path / "envout"))
    rc = cli.main(["gen-data", "--groups", "3", "--instances", "2"])
    assert rc == 0
    assert (tmp_path / "envout" / "corpus.jsonl").exists()


def test_float32_precision_runs(data_dir, tmp_path):
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, data_dir, out_dir=tmp_path)
    rc = cli.main(["pretrain", "--config", str(cfg_path), "--out", str(tmp_path),
                   "--runtime.precision=float32"])
    assert rc == 0
    doc = json.loads((tmp_path / "init.ckpt.json").read_text())
    any_param = next(iter(doc["params"].values()))
    assert any_param["dtype"] == "float32"
