"""The benchmark's copy of the README quickstart agrees with
``configs/quickstart.json``, the one copy that the README, CI and gate 5 run,
and with ``gen-data``'s default counts, the quickstart's data.

``bench/workloads.py`` is only read here: ``runpy`` compiles it from its
source and leaves no file behind.
"""

import runpy
from pathlib import Path

from winoref import cli

from conftest import QUICKSTART, quickstart_config

ROOT = Path(__file__).parents[1]


def bench_workloads():
    return runpy.run_path(str(ROOT / "bench" / "workloads.py"))


def bench_view(config):
    """``section.key`` -> value of each key the benchmark copies from a run
    config: the precision and every encoder, pretrain and refine key but
    the epochs, which the benchmark scales to its run length."""
    flat = {"runtime.precision": config["runtime"]["precision"]}
    for section in ("encoder", "pretrain", "refine"):
        flat.update({f"{section}.{key}": value
                     for key, value in config[section].items() if key != "epochs"})
    return flat


def bench_copy(workloads):
    """``section.key`` -> value of the benchmark's ``QUICKSTART_*`` copy."""
    flat = {"runtime.precision": workloads["QUICKSTART_PRECISION"]}
    for section, name in (("encoder", "QUICKSTART_ENCODER"),
                          ("pretrain", "QUICKSTART_PRETRAIN"),
                          ("refine", "QUICKSTART_REFINE"),
                          ("refine", "QUICKSTART_WEIGHTS")):
        flat.update({f"{section}.{key}": value for key, value in workloads[name].items()})
    return flat


def drift(copy, config):
    """A line per key whose values differ, a float and an int of one number
    among them, or that one side lacks."""
    shown = [{key: repr(value) for key, value in side.items()} for side in (copy, config)]
    return [f"{key}: bench {shown[0].get(key, 'missing')}, "
            f"{QUICKSTART.name} {shown[1].get(key, 'missing')}"
            for key in sorted(shown[0].keys() | shown[1].keys())
            if shown[0].get(key) != shown[1].get(key)]


def test_the_bench_runs_the_quickstart_config():
    assert drift(bench_copy(bench_workloads()), bench_view(quickstart_config())) == []


def test_the_bench_generates_the_quickstart_data():
    # the quickstart's data is gen-data's default counts
    defaults = cli._build_parser().parse_args(["gen-data"])
    workloads = bench_workloads()
    assert {"groups": workloads["QUICKSTART_GROUPS"],
            "instances": workloads["QUICKSTART_INSTANCES"]} == {
        "groups": defaults.groups, "instances": defaults.instances}


def test_the_guard_names_each_key_that_drifted():
    config = {"pretrain.lr": 1.5e-3, "pretrain.weight_decay": 0.0}
    copy = {"pretrain.lr": 2e-3, "pretrain.weight_decay": 0, "refine.extra": 1}
    assert drift(copy, config) == [
        "pretrain.lr: bench 0.002, quickstart.json 0.0015",
        "pretrain.weight_decay: bench 0, quickstart.json 0.0",
        "refine.extra: bench 1, quickstart.json missing"]
