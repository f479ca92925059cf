"""A seeded fuzzer of the command line's error contract: a run exits 0, or
exits 1 with exactly one stderr line, which starts ``error: ``.

Each case damages two fields of small valid config, corpus, benchmark,
vocabulary and checkpoint files, both of one file or one each of two, and
runs, in-process, a command that reads every damaged file. So a note that
one damage prints may come before the error of the other. A damage is a
type swap, a JSON NaN or Infinity, an empty value, a duplicate key, a
renamed key, a truncation, non-ASCII text, or a huge size, the last only on
keys whose cap is checked before any array is drawn. A checkpoint is damaged in its JSON
or in a parameter array, saved again with a matching content hash, so the
damage reaches ``load_arrays``.
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
DAMAGES = ["type", "nan", "infinity", "empty", "duplicate", "rename", "truncate",
           "non-ascii", "huge"]
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


def damage_json(rng, doc, lines, count):
    """``doc`` serialized with ``count`` fields damaged, one after another:
    (text, descriptions). A truncated number, bool or null cuts the file
    short instead, once every damage is made."""
    doc, renames, cut, whats = json.loads(json.dumps(doc)), {}, False, []
    for n in range(count):
        paths = fields(doc)
        capped = [p for p in paths if p[-1] in CAPPED]
        damages = DAMAGES if capped else DAMAGES[:-1]
        damage = damages[rng.integers(len(damages))]
        if damage in ("duplicate", "rename"):
            paths = [p for p in paths
                     if isinstance(p[-1], str) and not p[-1].startswith(MARKER)]
        elif damage == "huge":
            paths = capped
        path = paths[rng.integers(len(paths))]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        value = parent[path[-1]]
        if damage == "duplicate":
            # the key given twice: a marker key is renamed in the text
            renames[f"{MARKER}{n}"] = path[-1]
            parent[f"{MARKER}{n}"] = value
            whats.append(f"duplicate key at {list(path)}")
        elif damage == "rename":   # an unknown key, in place of a known one
            parent[f"{path[-1]}x"] = parent.pop(path[-1])
            whats.append(f"renamed key at {list(path)}")
        elif damage == "truncate" and not isinstance(value, (str, list, dict)):
            cut = True
            whats.append("file cut short")
        else:
            parent[path[-1]] = damaged_value(rng, damage, value)
            whats.append(f"{damage} at {list(path)}")
    text = dump(doc, lines)
    for marker, key in renames.items():
        text = text.replace(json.dumps(marker), json.dumps(key))
    if cut:
        at = rng.integers(len(text))
        text = text[:at]
        whats.append(f"cut at character {at}")
    return text, whats


def damage_arrays(rng, arrays, count):
    """The parameter arrays with ``count`` damages, one after another:
    (arrays, descriptions)."""
    arrays, whats = {name: arr.copy() for name, arr in arrays.items()}, []
    for _ in range(count):
        name = sorted(arrays)[rng.integers(len(arrays))]
        arr = arrays[name]
        damage = ["nan", "infinity", "dtype", "truncate", "empty"][rng.integers(5)]
        if damage in ("nan", "infinity") and arr.size:
            arr.flat[rng.integers(arr.size)] = np.nan if damage == "nan" else -np.inf
        elif damage == "dtype":
            dtype = ["int64", "complex128", "float16", "float32", "bool"][rng.integers(5)]
            with np.errstate(invalid="ignore"):   # a NaN damaged before has no int
                arrays[name] = arr.astype(dtype)
        elif damage == "truncate":
            arrays[name] = arr[:-1]
        else:
            arrays[name] = arr[:0]
        whats.append(f"array {damage} of {name!r}")
    return arrays, whats


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
    """Damage two fields, of one file or of two, for case ``case``; the argv
    of a command that reads every damaged file, and a description of the
    damages."""
    base, docs, inst = valid
    kinds = [list(FILES)[i] for i in rng.integers(len(FILES), size=2)]
    commands = [c for c in COMMANDS[kinds[0]] if c in COMMANDS[kinds[1]]]
    command = commands[rng.integers(len(commands))]
    where = tmp_path / f"case{case}"
    where.mkdir()
    files = {k: (where if k in kinds else base) / name for k, name in FILES.items()}
    # the config names the case's files, damaged or not
    files["config"] = where / FILES["config"]
    config = json.loads(json.dumps(docs["config"]))
    config["paths"] = {"corpus": str(files["corpus"]),
                       "benchmarks": [str(files["benchmark"])],
                       "vocab": str(files["vocabulary"]),
                       "init_checkpoint": str(files["checkpoint"])}
    docs, whats = dict(docs, config=config), []
    if "config" not in kinds:
        files["config"].write_text(dump(config, False), encoding="utf-8")
    for kind in dict.fromkeys(kinds):   # each damaged file once
        count, doc = kinds.count(kind), docs[kind]
        if kind == "checkpoint":
            # some of its damages in parameter arrays, saved with a matching hash
            in_arrays = int(rng.integers(count + 1))
            arrays, meta = checkpoint.load(base / FILES[kind])
            arrays, what = damage_arrays(rng, arrays, in_arrays)
            checkpoint.save(files[kind], arrays, meta)
            doc = json.loads(files[kind].read_text(encoding="utf-8"))
            count -= in_arrays
            whats += [f"{kind} {w}" for w in what]
        if count:
            text, what = damage_json(rng, doc, FILES[kind].endswith(".jsonl"), count)
            files[kind].write_text(text, encoding="utf-8")
            whats += [f"{kind} {w}" for w in what]
    argv = [command, "--config", str(files["config"]), "--out", str(where / "out")]
    if command == "evaluate":
        argv += ["--checkpoint", str(files["checkpoint"]), str(files["benchmark"]),
                 "--json", "--csv"]
    elif command == "score":
        argv += ["--checkpoint", str(files["checkpoint"]), "--sentence", inst["sentence"],
                 "--candidate1", inst["candidate1"], "--candidate2", inst["candidate2"]]
    return argv, f"case {case}: {command} with {'; '.join(whats)}"


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
