"""Run configuration: JSON config file, flat CLI overrides, provenance.

A run config is a two-level dict of sections. Files supply any subset; the
defaults below fill the rest; ``--section.key=value`` tokens override last.
The fully resolved config is embedded verbatim in every output artifact
together with a content hash, so artifacts are traceable to their exact
configuration.
"""

import copy
import hashlib
import json
import numbers
import os

DEFAULTS = {
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
    "encoder": {
        "layers": 4,
        "heads": 4,
        "model_dim": 128,
        "ff_dim": 512,
        "max_len": 48,
        "dropout": 0.1,
        "tie_mlm_head": True,
    },
    "pretrain": {
        "epochs": 30,
        "batch_size": 16,
        "lr": 1e-3,
        "warmup_steps": 50,
        "weight_decay": 0.01,
        "adam_eps": 1e-8,
        "mask_prob": 0.15,
    },
    "score": {
        "window_radius": 2,
        "include_special": False,
        "alignment": "compact",
    },
    "refine": {
        "alpha": 130.0,
        "beta": 0.5,
        "gamma": 2.5,
        "epochs": 10,
        "batch_size": 10,
        "perturbations_per_sample": 4,
        "lr": 5e-5,
        "adam_eps": 1e-8,
        "warmup_steps": 500,
        "weight_decay": 0.01,
        "seed": 0,
        "target_mode": "frozen-init",
        "disc_hidden": 128,
        "disc_dropout": 0.2,
    },
}


class ConfigError(ValueError):
    pass


def check_count(name, value, minimum):
    """Reject a count that is not an integer (bools included) or is below
    ``minimum``; ``name`` is the key as the config spells it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


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
    """Resolved config dict: defaults <- file <- overrides <- --seed."""
    cfg = copy.deepcopy(DEFAULTS)
    if path:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, "r", encoding="utf-8") as f:
            try:
                file_cfg = json.load(f)
            except json.JSONDecodeError as e:
                raise ConfigError(f"config file {path} is not valid JSON: {e.msg}")
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
