"""Run configuration: JSON config file, flat CLI overrides, provenance.

A run config is a two-level dict of sections. Every section is the fields
of the config dataclasses it builds (see ``_sections``), which hold the
defaults and the checks. Files supply any subset; the defaults fill the
rest; ``--section.key=value`` tokens override last. Each key has no other
source: the seed is ``runtime.seed`` alone. The fully resolved config is
embedded verbatim in every output artifact together with a content hash,
so artifacts are traceable to their exact configuration. Where a run
writes its files is not part of it: the output root is the command line's
``--out``.
"""

import dataclasses
import hashlib
import io
import json
import math
import numbers
import os

from .tensor import DTYPES


def internal(default):
    """A config dataclass field that code sets and the run config does not
    expose."""
    return dataclasses.field(default=default, metadata={"internal": True})


def check_count(name, value, minimum):
    """Reject a count that is not an integer (bools included) or is below
    ``minimum``; ``name`` is the key as the config spells it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def check_real(name, value, low, high=math.inf, low_open=False, high_open=False):
    """Reject a value that is not a finite real number (bools included) or
    lies outside the interval from ``low`` to ``high``, whose ends are
    closed unless marked open."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if (value < low or value > high or (low_open and value == low)
            or (high_open and value == high)):
        interval = (("(" if low_open else "[") + f"{low}, {high}"
                    + (")" if high_open or high == math.inf else "]"))
        raise ValueError(f"{name} must be in {interval}, got {value}")


def check_choice(name, value, choices):
    """Reject a value that is not one of ``choices``; the type must match
    too, so 1 is not True."""
    if not any(type(value) is type(c) and value == c for c in choices):
        raise ValueError(f"{name} must be one of {', '.join(map(repr, choices))}, "
                         f"got {value!r}")


def check_path(name, value):
    """Reject a value that is neither a path string nor None."""
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{name} must be a path or null, got {value!r}")


@dataclasses.dataclass
class RuntimeConfig:
    seed: int = 0
    precision: str = "float64"

    def __post_init__(self):
        check_count("runtime.seed", self.seed, 0)
        check_choice("runtime.precision", self.precision, tuple(DTYPES))


@dataclasses.dataclass
class PathsConfig:
    corpus: str = None
    benchmarks: list = dataclasses.field(default_factory=list)
    vocab: str = None
    init_checkpoint: str = None

    def __post_init__(self):
        check_path("paths.corpus", self.corpus)
        if not (isinstance(self.benchmarks, list)
                and all(isinstance(p, str) for p in self.benchmarks)):
            raise ValueError(f"paths.benchmarks must be a list of paths, "
                             f"got {self.benchmarks!r}")
        check_path("paths.vocab", self.vocab)
        check_path("paths.init_checkpoint", self.init_checkpoint)


def _sections():
    """Config section -> the dataclasses built from it. Imported here, not
    at the top, because those modules import the checks above."""
    from .encoder import EncoderConfig, PretrainConfig
    from .refine import LossWeights, RefinementConfig
    from .scoring import ScoreConfig
    return {"runtime": [RuntimeConfig], "paths": [PathsConfig],
            "encoder": [EncoderConfig], "pretrain": [PretrainConfig],
            "score": [ScoreConfig], "refine": [LossWeights, RefinementConfig]}


def _keys(cls):
    return [f for f in dataclasses.fields(cls) if not f.metadata.get("internal")]


def _default(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


def build(cls, section, **internal_values):
    """``cls`` from the keys of a resolved section that are its fields,
    plus ``internal_values`` for fields the run config does not expose."""
    return cls(**{f.name: section[f.name] for f in _keys(cls)}, **internal_values)


def _coerce(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def parse_overrides(tokens):
    """['--refine.alpha=1.25', ...] -> {('refine', 'alpha'): 1.25, ...}"""
    out = {}
    for tok in tokens:
        if not tok.startswith("--") or "=" not in tok or "." not in tok.split("=", 1)[0]:
            raise ValueError(f"unrecognized argument {tok!r} "
                             f"(overrides look like --section.key=value)")
        key, _, raw = tok[2:].partition("=")
        section, _, name = key.partition(".")
        out[(section, name)] = _coerce(raw)
    return out


def load_config(path=None, overrides=None):
    """Resolved config dict: defaults <- file <- overrides, where
    ``overrides`` is what ``parse_overrides`` returns. Every key is checked,
    so a bad one fails before any work starts."""
    sections = _sections()
    cfg = {name: {f.name: _default(f) for cls in classes for f in _keys(cls)}
           for name, classes in sections.items()}
    if path:
        for section, values in read_json(path, "config").items():
            if section not in cfg:
                raise ValueError(f"{path}: unknown section {section!r}")
            if not isinstance(values, dict):
                raise ValueError(f"{path}: section {section!r} must be an object")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ValueError(f"{path}: unknown key {section}.{key}")
                cfg[section][key] = value
    for (section, key), value in (overrides or {}).items():
        if section not in cfg or key not in cfg[section]:
            raise ValueError(f"unknown override {section}.{key}")
        cfg[section][key] = value
    for name, classes in sections.items():
        for cls in classes:
            build(cls, cfg[name])
    return cfg


def _read_text(path, kind):
    """The text of the ``kind`` file ("config", "corpus", ...) at ``path``; a
    byte that is not UTF-8 fails naming the path and its line."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{kind} file not found: {path}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError(f"{path}:{_line_of(data[:e.start].decode('utf-8'))}: byte "
                         f"{data[e.start]:#04x} is not UTF-8 ({e.reason})") from None


def _line_of(text):
    """The number of the line ``text`` ends on, as a text-mode ``open`` counts."""
    return len(io.StringIO(text + "?", newline=None).readlines())


def _loads_object(text, path, lineno=None):
    """The JSON object ``text`` holds, line ``lineno`` of ``path`` or the whole
    file when None. Malformed JSON, a duplicate key and any value but an
    object fail naming the path and, where it is known, the line."""
    where = path if lineno is None else f"{path}:{lineno}"

    def reject_dup(pairs):
        obj = {}
        for k, v in pairs:
            if k in obj:
                raise ValueError(f"{where}: duplicate key {k!r}")
            obj[k] = v
        return obj

    try:
        obj = json.loads(text, object_pairs_hook=reject_dup)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}:{lineno or _line_of(text[:e.pos])}: not valid JSON "
                         f"({e.msg})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return obj


def read_json(path, kind):
    """The JSON object of the whole ``kind`` file at ``path``. This and
    ``read_json_lines`` read every input file, so each fails one way."""
    return _loads_object(_read_text(path, kind), path)


def read_json_lines(path, kind):
    """``(lineno, object)`` per line that is not blank, numbered from 1 and
    split as a text-mode ``open`` splits them."""
    lines = io.StringIO(_read_text(path, kind), newline=None)
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            yield lineno, _loads_object(line, path, lineno)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    return "sha256:" + hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def out_file(root, *names):
    """The path of ``names`` under the output root ``root``, with its
    directory made: a root is made only when a file is written into it."""
    path = os.path.join(root, *names)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def write_json_artifact(path, kind, cfg, body):
    """JSON artifact with embedded config and content hash; deterministic.
    A NaN or infinity anywhere raises ValueError before the file is opened,
    because strict JSON has no spelling for it."""
    body_hash = "sha256:" + hashlib.sha256(canonical_json(body).encode()).hexdigest()
    doc = {"kind": kind, "config": cfg, "config_hash": config_hash(cfg),
           "content_hash": body_hash, "body": body}
    text = json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    return body_hash


def write_csv_artifact(path, cfg, header, rows):
    """CSV artifact with config and content hash in comment lines."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    body = "\n".join(lines) + "\n"
    body_hash = "sha256:" + hashlib.sha256(body.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# config_hash: {config_hash(cfg)}\n")
        f.write(f"# config: {canonical_json(cfg)}\n")
        f.write(f"# content_hash: {body_hash}\n")
        f.write(body)
    return body_hash


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)
