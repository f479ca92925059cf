"""Tests of the benchmark itself, at tiny size.

Run from the root of a checkout: ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

TINY = "1"         # seconds: one epoch of each phase


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", TINY, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _table(stdout):
    """name -> (value, unit) from the report table."""
    rows = {}
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("metric"))
    for line in lines[start + 1:]:
        if line.startswith("check"):
            break
        name, value, unit = line.split()[:3]
        rows[name] = (float(value), unit)
    return rows


def test_workloads_match_spec():
    assert [w["name"] for w in _spec()["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(name):
    proc = _run(name)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == spec
    table = _table(proc.stdout)
    assert {n: unit for n, (_, unit) in table.items()} == {
        n: unit for n, (unit, _) in run.END_TO_END.items()}
    assert table["failed_ops_ratio"][0] == 0
    assert "fingerprint" in proc.stdout


def _refined_hashes(stdout):
    return [line.split()[2] for line in stdout.splitlines()
            if line.startswith("refined checkpoint")]


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("quickstart", trace=1)
    result = _result(proc)
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == spec
    hashes = _refined_hashes(proc.stdout)       # the last round is traced
    assert len(hashes) == workloads.ROUNDS and len(set(hashes)) == 1


def test_same_seed_same_quality_and_checkpoint():
    first, second = _run("quickstart", seed=3), _run("quickstart", seed=3)
    t1, t2 = _table(first.stdout), _table(second.stdout)
    for metric in ("pretrain_loss_final", "refine_loss_final", "eval_accuracy_refined"):
        assert t1[metric] == t2[metric]
    hashes = _refined_hashes(first.stdout)
    assert len(hashes) == workloads.ROUNDS and len(set(hashes)) == 1
    assert _refined_hashes(second.stdout) == hashes


def test_seed_changes_generated_inputs(tmp_path):
    def inputs(seed):
        corpus, bench = tmp_path / f"c{seed}.jsonl", tmp_path / f"b{seed}.jsonl"
        workloads.write_inputs(seed, corpus, bench)
        return corpus.read_bytes(), bench.read_bytes()

    assert inputs(1) == inputs(1)
    one, two = inputs(1), inputs(2)
    assert one[0] != two[0] and one[1] != two[1]


def _fake_round(interval_scale, kernel_s):
    """Raw samples of one round whose timed intervals take ``interval_scale``
    times a fixed base, with the host-speed kernel reading ``kernel_s``."""
    def times(base, n):
        return [base * interval_scale] * n

    return {
        "step_s": {"pretrain": times(0.03, 20), "refine": times(0.15, 12)},
        "step_kernel_s": {"pretrain": [kernel_s] * 20, "refine": [kernel_s] * 12},
        "setup_s": {"pretrain": times(0.02, 3)}, "setup_kernel_s": {"pretrain": [kernel_s] * 3},
        "eval_calls": [(20, 0.04 * interval_scale)] * 10, "eval_kernel_s": [kernel_s] * 10,
        "wall_s": 5.0 * interval_scale, "wall_kernel_s": kernel_s,
        "steps_per_epoch": {"pretrain": 10, "refine": 6},
        "planned": {"pretrain": 20, "refine": 12, "eval": 200},
        "pretrain_losses": [1.0] * 20, "refine_losses": [-1.0] * 12,
        "eval": {"refined": {"accuracy": 0.5, "instances": 200, "nonfinite": 0}},
    }


def test_timings_follow_the_program_not_the_host():
    timings = ["setup_s", "wall_s", "pretrain_step_ms.p50", "refine_step_ms.p50",
               "eval_instances_per_s"]
    ref = run.hostspeed.REFERENCE_KERNEL_S

    def metrics(interval_scale, kernel_s):
        rows = run.end_to_end([_fake_round(interval_scale, kernel_s)] * workloads.ROUNDS)
        return {n: rows[n][0] for n in timings}

    base = metrics(1.0, ref)
    # the host runs 1.6x slower: every interval and the kernel alike
    assert metrics(1.6, 1.6 * ref) == pytest.approx(base)
    # the program runs 1.2x slower on an unchanged host
    slower = metrics(1.2, ref)
    for name in timings:
        factor = 1 / 1.2 if name == "eval_instances_per_s" else 1.2
        assert slower[name] == pytest.approx(base[name] * factor)


def test_wrappers_are_restored():
    tracer = layers.Tracer()
    with tracer.installed():
        patched = list(tracer._saved)
        assert all(getattr(m, a) is not fn for m, a, fn in patched)
    assert all(getattr(m, a) is fn for m, a, fn in patched)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("quickstart", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
