"""A seeded fuzzer of the command line's error contract: a run exits 0, or
exits 1 with exactly one stderr line, which starts ``error: ``.

Each case damages one field of a small valid config, corpus, benchmark,
vocabulary or checkpoint file and runs, in-process, a command that reads
the file. A damage is a type swap, a JSON NaN or Infinity, an empty value,
a duplicate key, a truncation, non-ASCII text, or a huge size, the last
only on keys whose cap is checked before any array is drawn. A checkpoint
is damaged either in its JSON or in one parameter array, saved again with
a matching content hash, so the damage reaches ``load_arrays``.
"""

import json
import time
import warnings

import numpy as np
import pytest

from winoref import checkpoint, cli
from winoref.synthetic import make_benchmark, make_perturbation_corpus
from winoref.text import save_benchmark, save_perturbation_corpus

CASES = 500
SECONDS = 20.0
DAMAGES = ["type", "nan", "infinity", "empty", "duplicate", "truncate", "non-ascii",
           "huge"]
# the commands that read each file
COMMANDS = {"config": ["pretrain", "refine", "evaluate", "score"],
            "corpus": ["pretrain", "refine"], "benchmark": ["evaluate", "pretrain"],
            "vocabulary": ["evaluate", "score", "refine"],
            "checkpoint": ["evaluate", "score", "refine"]}
FILES = {"config": "run.json", "corpus": "corpus.jsonl", "benchmark": "bench.jsonl",
         "vocabulary": "vocab.json", "checkpoint": "init.ckpt.json"}
# keys a cap checks before any array is drawn: the encoder's size, and the
# discriminator's, which counts against the same parameter cap
CAPPED = {"max_len", "model_dim", "ff_dim", "layers", "vocab_size", "disc_hidden"}
SWAPS = [7, 0.5, "7", True, None, [1], {"a": 1}]
NON_ASCII = ["é", "ß", "İ", "ﬁ", "字", "\u00a0", "🙂", "\u2028"]
MARKER = "__duplicate__"


def dump(doc, lines):
    """A file's text: one JSON object, or one per line."""
    if lines:
        return "".join(json.dumps(obj, ensure_ascii=False) + "\n" for obj in doc)
    return json.dumps(doc, ensure_ascii=False) + "\n"


def fields(node, path=()):
    """The key path of every value under ``node``, depth first."""
    out = [path] if path else []
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        out += fields(child, path + (key,))
    return out


def damaged_value(rng, damage, value):
    """``value`` with ``damage``; a truncation of a str, list or object."""
    if damage == "type":
        swaps = [s for s in SWAPS if type(s) is not type(value)]
        return swaps[rng.integers(len(swaps))]
    if damage == "nan":
        return float("nan")
    if damage == "infinity":
        return float("inf") if rng.integers(2) else float("-inf")
    if damage == "empty":
        return type(value)() if value is not None else ""
    if damage == "truncate":
        keep = rng.integers(len(value)) if value else 0
        return dict(list(value.items())[:keep]) if isinstance(value, dict) else value[:keep]
    if damage == "non-ascii":
        text = NON_ASCII[rng.integers(len(NON_ASCII))]
        if isinstance(value, str):
            at = rng.integers(len(value) + 1)
            return value[:at] + text + value[at:]
        return text
    return [10**9, 10**12, 2**63][rng.integers(3)]   # huge


def damage_json(rng, doc, lines):
    """``doc`` serialized with one field damaged: (text, description). A
    truncated number, bool or null cuts the file short instead."""
    paths = fields(doc)
    capped = [p for p in paths if p[-1] in CAPPED]
    damages = DAMAGES if capped else DAMAGES[:-1]
    damage = damages[rng.integers(len(damages))]
    if damage == "duplicate":
        paths = [p for p in paths if isinstance(p[-1], str)]
    elif damage == "huge":
        paths = capped
    path = paths[rng.integers(len(paths))]
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if damage == "duplicate":
        # the key given twice: a marker key is renamed in the text
        parent[MARKER] = value
        return (dump(doc, lines).replace(json.dumps(MARKER), json.dumps(path[-1])),
                f"duplicate key at {list(path)}")
    if damage == "truncate" and not isinstance(value, (str, list, dict)):
        text = dump(doc, lines)
        cut = rng.integers(len(text))
        return text[:cut], f"file cut at character {cut}"
    parent[path[-1]] = damaged_value(rng, damage, value)
    return dump(doc, lines), f"{damage} at {list(path)}"


def damage_arrays(rng, arrays):
    """The parameter arrays with one damaged: (arrays, description)."""
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    name = sorted(arrays)[rng.integers(len(arrays))]
    arr = arrays[name]
    damage = ["nan", "infinity", "dtype", "truncate", "empty"][rng.integers(5)]
    if damage in ("nan", "infinity"):
        arr.flat[rng.integers(arr.size)] = np.nan if damage == "nan" else -np.inf
    elif damage == "dtype":
        dtype = ["int64", "complex128", "float16", "float32", "bool"][rng.integers(5)]
        arrays[name] = arr.astype(dtype)
    elif damage == "truncate":
        arrays[name] = arr[:-1]
    else:
        arrays[name] = arr[:0]
    return arrays, f"array {damage} of {name!r}"


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid files' directory, each file's parsed content, and the
    first benchmark instance."""
    base = tmp_path_factory.mktemp("fuzz")
    save_perturbation_corpus(base / FILES["corpus"], make_perturbation_corpus(3, seed=61))
    save_benchmark(base / FILES["benchmark"], make_benchmark(3, seed=62))
    config = {
        "runtime": {"seed": 3},
        "paths": {"corpus": str(base / FILES["corpus"]),
                  "benchmarks": [str(base / FILES["benchmark"])],
                  "vocab": str(base / FILES["vocabulary"]),
                  "init_checkpoint": str(base / FILES["checkpoint"])},
        "encoder": {"layers": 1, "heads": 2, "model_dim": 8, "ff_dim": 16,
                    "max_len": 24, "dropout": 0.1},
        "pretrain": {"epochs": 1, "batch_size": 8, "lr": 1e-3, "warmup_steps": 2},
        "refine": {"epochs": 1, "batch_size": 2, "perturbations_per_sample": 2,
                   "lr": 1e-3, "warmup_steps": 2, "disc_hidden": 8},
    }
    (base / FILES["config"]).write_text(dump(config, False), encoding="utf-8")
    assert cli.main(["pretrain", "--config", str(base / FILES["config"]),
                     "--out", str(base), "--pretrain.epochs=0"]) == 0
    docs = {}
    for kind, name in FILES.items():
        text = (base / name).read_text(encoding="utf-8")
        docs[kind] = ([json.loads(line) for line in text.splitlines()]
                      if name.endswith(".jsonl") else json.loads(text))
    return base, docs, docs["benchmark"][0]


def case_argv(rng, case, valid, tmp_path):
    """Damage one field of one file for case ``case``; the argv of a
    command that reads it, and a description of the damage."""
    base, docs, inst = valid
    kind = list(FILES)[rng.integers(len(FILES))]
    command = COMMANDS[kind][rng.integers(len(COMMANDS[kind]))]
    where = tmp_path / f"case{case}"
    where.mkdir()
    files = {k: base / name for k, name in FILES.items()}
    files[kind] = where / FILES[kind]
    if kind == "checkpoint" and rng.integers(2):
        arrays, meta = checkpoint.load(base / FILES["checkpoint"])
        arrays, what = damage_arrays(rng, arrays)
        checkpoint.save(files[kind], arrays, meta)
    else:
        text, what = damage_json(rng, docs[kind], FILES[kind].endswith(".jsonl"))
        files[kind].write_text(text, encoding="utf-8")
    if kind != "config":
        config = json.loads(json.dumps(docs["config"]))
        config["paths"] = {"corpus": str(files["corpus"]),
                           "benchmarks": [str(files["benchmark"])],
                           "vocab": str(files["vocabulary"]),
                           "init_checkpoint": str(files["checkpoint"])}
        files["config"] = where / FILES["config"]
        files["config"].write_text(dump(config, False), encoding="utf-8")
    argv = [command, "--config", str(files["config"]), "--out", str(where / "out")]
    if command == "evaluate":
        argv += ["--checkpoint", str(files["checkpoint"]), str(files["benchmark"]),
                 "--json", "--csv"]
    elif command == "score":
        argv += ["--checkpoint", str(files["checkpoint"]), "--sentence", inst["sentence"],
                 "--candidate1", inst["candidate1"], "--candidate2", inst["candidate2"]]
    return argv, f"case {case}: {command} with {kind} {what}"


def breach(rc, err, caught):
    """What a run broke of the contract, or None."""
    if caught:
        return f"warned {[str(w.message) for w in caught]}"
    if "Traceback" in err or "Warning" in err:
        return f"stderr {err!r}"
    if rc == 0:
        return None
    if rc != 1 or not err.startswith("error: ") or err.count("\n") != 1:
        return f"exit {rc}, stderr {err!r}"
    return None


def test_every_damaged_file_exits_zero_or_with_one_error_line(valid, tmp_path, capsys):
    rng = np.random.default_rng(2026)
    start, exits = time.perf_counter(), []
    for case in range(CASES):
        argv, what = case_argv(rng, case, valid, tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(argv)
        broken = breach(rc, capsys.readouterr().err, caught)
        assert broken is None, f"{what}: {broken}"
        exits.append(rc)
    seconds = time.perf_counter() - start
    print(f"{CASES} cases in {seconds:.1f} s, {exits.count(1)} exit 1")
    # the damages reach past the file checks: some runs succeed
    assert 0 < exits.count(0) < CASES
    assert seconds < SECONDS
