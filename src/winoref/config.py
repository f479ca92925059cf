"""Run configuration: JSON config file, flat CLI overrides, provenance.

A run config is a two-level dict of sections. The ``runtime`` and ``paths``
sections are defined here; every other section is the fields of the config
dataclasses it builds (see ``_sections``), which hold the defaults and the
checks. Files supply any subset; the defaults fill the rest;
``--section.key=value`` tokens override last. The fully resolved config is
embedded verbatim in every output artifact together with a content hash, so
artifacts are traceable to their exact configuration.
"""

import copy
import dataclasses
import hashlib
import json
import math
import numbers
import os

RUNTIME_AND_PATHS = {
    "runtime": {
        "seed": 0,
        "precision": "float64",
        "out_dir": None,          # falls back to $WINOREF_OUT, then ./out
    },
    "paths": {
        "corpus": None,
        "benchmarks": [],
        "vocab": None,
        "init_checkpoint": None,
    },
}


class ConfigError(ValueError):
    pass


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


def _sections():
    """Config section -> the dataclasses built from it. Imported here, not
    at the top, because those modules import the checks above."""
    from .encoder import EncoderConfig, PretrainConfig
    from .refine import LossWeights, RefinementConfig
    from .scoring import ScoreConfig
    return {"encoder": [EncoderConfig], "pretrain": [PretrainConfig],
            "score": [ScoreConfig], "refine": [LossWeights, RefinementConfig]}


def _keys(cls):
    return [f for f in dataclasses.fields(cls) if not f.metadata.get("internal")]


def build(cls, section):
    """``cls`` from the keys of a resolved section that are its fields."""
    return cls(**{f.name: section[f.name] for f in _keys(cls)})


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
            raise ConfigError(f"unrecognized argument {tok!r} "
                              f"(overrides look like --section.key=value)")
        key, _, raw = tok[2:].partition("=")
        section, _, name = key.partition(".")
        out[(section, name)] = _coerce(raw)
    return out


def load_config(path=None, overrides=None, seed=None):
    """Resolved config dict: defaults <- file <- overrides <- --seed. Every
    key is checked, so a bad one fails before any work starts."""
    sections = _sections()
    cfg = copy.deepcopy(RUNTIME_AND_PATHS)
    for name, classes in sections.items():
        cfg[name] = {f.name: f.default for cls in classes for f in _keys(cls)}
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            try:
                file_cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e.msg}")
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for section, values in file_cfg.items():
            if section not in cfg:
                raise ConfigError(f"config file {path}: unknown section {section!r}")
            if not isinstance(values, dict):
                raise ConfigError(f"config file {path}: section {section!r} must be "
                                  f"an object")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ConfigError(f"config file {path}: unknown key "
                                      f"{section}.{key}")
                cfg[section][key] = value
    for (section, key), value in (overrides or {}).items():
        if section not in cfg or key not in cfg[section]:
            raise ConfigError(f"unknown override {section}.{key}")
        cfg[section][key] = value
    if seed is not None:
        cfg["runtime"]["seed"] = seed
        cfg["refine"]["seed"] = seed

    check_count("runtime.seed", cfg["runtime"]["seed"], 0)
    check_choice("runtime.precision", cfg["runtime"]["precision"], ("float32", "float64"))
    for section, key in (("runtime", "out_dir"), ("paths", "corpus"),
                         ("paths", "vocab"), ("paths", "init_checkpoint")):
        value = cfg[section][key]
        if value is not None and not isinstance(value, str):
            raise ConfigError(f"{section}.{key} must be a path or null, got {value!r}")
    benchmarks = cfg["paths"]["benchmarks"]
    if not (isinstance(benchmarks, list) and all(isinstance(p, str) for p in benchmarks)):
        raise ConfigError(f"paths.benchmarks must be a list of paths, got {benchmarks!r}")
    for name, classes in sections.items():
        for cls in classes:
            build(cls, cfg[name])
    return cfg


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg):
    return "sha256:" + hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def out_dir(cfg, cli_value=None):
    """Output root: CLI flag, then config, then $WINOREF_OUT, then ./out."""
    path = cli_value or cfg["runtime"]["out_dir"] or os.environ.get("WINOREF_OUT") or "out"
    os.makedirs(path, exist_ok=True)
    return path


def write_json_artifact(path, kind, cfg, body):
    """JSON artifact with embedded config and content hash; deterministic."""
    body_hash = "sha256:" + hashlib.sha256(canonical_json(body).encode()).hexdigest()
    doc = {"kind": kind, "config": cfg, "config_hash": config_hash(cfg),
           "content_hash": body_hash, "body": body}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")
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


def read_csv_artifact(path):
    """(header, rows as string dicts, comment metadata) for our CSV files."""
    meta = {}
    rows = []
    header = None
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                meta[key.strip()] = value.strip()
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return header, rows, meta
