"""Pipeline benchmark for winoref: pretrain -> refine -> evaluate.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quickstart --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the workload's pipeline in ``ROUNDS`` identical rounds,
untraced, and reports the end-to-end metrics. ``--trace 1`` traces the last
round, reports the per-layer metrics and the trace's overhead, and checks
that tracing left the refined checkpoint's bytes alone. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Exit status is 0 only when
every output check passed. Timings are calibrated to a reference host speed;
see ``hostspeed.py``.
"""

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# One caller, so one BLAS thread: it is the fastest setting for the default
# quickstart on a 2-vCPU machine and keeps float arithmetic independent of
# the core count. Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402  (imports numpy)

# Step-time percentiles: the highest q with n * (1 - q) >= 10 on the
# workload with the fewest steps in a 40-second run: 56 pretraining steps on
# wide-vocab, 72 refinement steps on both workloads.
PRETRAIN_HIGH = 82
REFINE_HIGH = 86

# name -> (unit, better); the order is the report's
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "pretrain_step_ms.p50": ("ms", "lower"),
    f"pretrain_step_ms.p{PRETRAIN_HIGH}": ("ms", "lower"),
    "refine_step_ms.p50": ("ms", "lower"),
    f"refine_step_ms.p{REFINE_HIGH}": ("ms", "lower"),
    "eval_instances_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ops_ratio": ("ratio", "lower"),
    "pretrain_loss_final": ("nats", "lower"),
    "refine_loss_final": ("nats", "lower"),
    "eval_accuracy_refined": ("ratio", "higher"),
}


def _fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import winoref from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "winoref", "__init__.py")):
        _fail(f"no winoref sources under {SRC}")
    sys.path.insert(0, SRC)
    import winoref
    if not os.path.abspath(winoref.__file__).startswith(SRC + os.sep):
        _fail(f"winoref imported from {winoref.__file__}, not from {SRC}")


def fingerprint(precision):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version(), "dtype": precision,
            "loadavg_1m": os.getloadavg()[0]}


def _percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def _last_epoch_mean(losses, per_epoch):
    tail = losses[-per_epoch:]
    return sum(tail) / len(tail)


def op_counts(raw):
    """(attempted, failed) of one round: planned steps and instances against
    those that finished with finite outputs."""
    planned = raw["planned"]
    if not planned:
        return 1, 1
    attempted = sum(planned.values())
    losses = raw.get("pretrain_losses", []) + raw.get("refine_losses", [])
    ok = sum(map(math.isfinite, losses))
    ok += sum(e["instances"] - e["nonfinite"] for e in raw.get("eval", {}).values())
    return attempted, attempted - ok


def disagreements(raws):
    """Rounds run the same seed, so each must reproduce the first exactly."""
    first = raws[0]
    out = []
    for i, raw in enumerate(raws[1:], start=2):
        if raw.get("refined_hash") != first.get("refined_hash"):
            out.append(f"round {i} refined checkpoint {raw.get('refined_hash')} "
                       f"!= round 1 {first.get('refined_hash')}")
        if raw.get("eval") != first.get("eval"):
            out.append(f"round {i} evaluation differs from round 1")
    return out


def calibrated(seconds, kernel_s):
    """``seconds`` at the host speed that runs the kernel in its reference
    time; ``kernel_s`` is the kernel time measured next to the interval."""
    return seconds * hostspeed.REFERENCE_KERNEL_S / kernel_s


def _round_wall(raw):
    """One round's wall time, calibrated: each timed interval by the kernel
    run next to it, the rest (checkpoint saves, glue) by the round's median
    kernel time. Each set-up counts once, at its median, as in ``wall_s``."""
    setups = [(statistics.median(raw["setup_s"][p]),
               statistics.median(map(calibrated, raw["setup_s"][p], raw["setup_kernel_s"][p])))
              for p in raw["setup_s"]]
    intervals = [(s, k) for p in raw["step_s"]
                 for s, k in zip(raw["step_s"][p], raw["step_kernel_s"][p])]
    intervals += [(s, k) for (_, s), k in zip(raw["eval_calls"], raw["eval_kernel_s"])]
    rest = raw["wall_s"] - sum(s for s, _ in setups) - sum(s for s, _ in intervals)
    return (sum(c for _, c in setups) + sum(calibrated(s, k) for s, k in intervals)
            + calibrated(rest, raw["wall_kernel_s"]))


def host_speed(raws):
    """Median kernel time over every sample of the run, in seconds."""
    return statistics.median(
        [k for raw in raws for ks in raw["step_kernel_s"].values() for k in ks]
        + [k for raw in raws for k in raw["eval_kernel_s"]]
        + [k for raw in raws for ks in raw["setup_kernel_s"].values() for k in ks])


def end_to_end(raws):
    """name -> (value, samples) for every END_TO_END metric.

    Every timing is calibrated (see ``hostspeed``) and pools every round:
    step percentiles are over all rounds' steps, eval throughput is all
    instances over all calibrated evaluate() time, set-up time sums each
    phase's median and wall time is the median round. Quality metrics come
    from round 1; the other rounds repeat it exactly.
    """
    def steps(phase):
        return [calibrated(s, k) * 1e3 for raw in raws
                for s, k in zip(raw["step_s"][phase], raw["step_kernel_s"][phase])]

    pre_all, ref_all = steps("pretrain"), steps("refine")
    setups = {phase: [calibrated(s, k) for raw in raws
                      for s, k in zip(raw["setup_s"][phase], raw["setup_kernel_s"][phase])]
              for phase in raws[0]["setup_s"]}
    instances = sum(n for raw in raws for n, _ in raw["eval_calls"])
    eval_s = sum(calibrated(s, k) for raw in raws
                 for (_, s), k in zip(raw["eval_calls"], raw["eval_kernel_s"]))
    first = raws[0]
    per = first["steps_per_epoch"]
    attempted, failed = map(sum, zip(*map(op_counts, raws)))
    return {
        "setup_s": (sum(statistics.median(s) for s in setups.values()),
                    sum(map(len, setups.values()))),
        "wall_s": (statistics.median(map(_round_wall, raws)), len(raws)),
        "pretrain_step_ms.p50": (statistics.median(pre_all), len(pre_all)),
        f"pretrain_step_ms.p{PRETRAIN_HIGH}": (_percentile(pre_all, PRETRAIN_HIGH), len(pre_all)),
        "refine_step_ms.p50": (statistics.median(ref_all), len(ref_all)),
        f"refine_step_ms.p{REFINE_HIGH}": (_percentile(ref_all, REFINE_HIGH), len(ref_all)),
        "eval_instances_per_s": (instances / eval_s, instances),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "failed_ops_ratio": (failed / attempted, attempted),
        "pretrain_loss_final": (_last_epoch_mean(first["pretrain_losses"], per["pretrain"]),
                                per["pretrain"]),
        "refine_loss_final": (_last_epoch_mean(first["refine_losses"], per["refine"]),
                              per["refine"]),
        "eval_accuracy_refined": (first["eval"]["refined"]["accuracy"],
                                  first["eval"]["refined"]["instances"]),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    _import_program()
    import layers
    import pipeline
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 caller")
    print("fingerprint " + json.dumps(fingerprint(workloads.QUICKSTART_PRECISION),
                                      sort_keys=True))
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(ROOT, ".bench_work"))
    checks = []
    raws = []
    tracer = layers.Tracer() if args.trace else None
    try:
        for i in range(workloads.ROUNDS):
            traced = tracer is not None and i == workloads.ROUNDS - 1
            round_dir = os.path.join(workdir, f"round{i + 1}")
            os.makedirs(round_dir)
            with tracer.installed() if traced else contextlib.nullcontext():
                raws.append(pipeline.run_workload(
                    workload, args.seed, args.seconds, round_dir,
                    mark=tracer.mark if traced else lambda phase: None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may still use it
            os.rmdir(os.path.dirname(workdir))

    for i, raw in enumerate(raws, start=1):
        print(f"refined checkpoint {raw.get('refined_hash')} round {i}"
              + (" traced" if tracer and i == len(raws) else ""))
        checks += [f"round {i}: {e}" for e in raw["errors"]]
    checks += disagreements(raws)
    if tracer:
        checks += [f"trace missed calls: {m}" for m in tracer.missing()]
    if args.trace == 0:
        rows = end_to_end(raws) if not checks else {}
        if rows:
            kernel_s = host_speed(raws)
            print(f"host speed: kernel median {kernel_s * 1e3:.3f} ms against the reference "
                  f"{hostspeed.REFERENCE_KERNEL_S * 1e3:.3f} ms; timings below are "
                  f"calibrated, {hostspeed.REFERENCE_KERNEL_S / kernel_s:.3f}x the raw ones")
        print(f"{'metric':<28}{'value':>14}  {'unit':<6}{'samples':>8}  better")
        for name, (value, n) in rows.items():
            unit, better = END_TO_END[name]
            print(f"{name:<28}{value:>14.6g}  {unit:<6}{n:>8}  {better}")
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = {n: {"value": rows[n][0], "unit": END_TO_END[n][0]}
                   for n in names if n in rows}
    else:
        rows = tracer.metrics(raws[-1], raws[:-1]) if not checks else {}
        print(f"{'metric':<48}{'value':>14}  {'unit':<6}  better  moves")
        for name, m in rows.items():
            print(f"{name:<48}{m['value']:>14.6g}  {m['unit']:<6}  "
                  f"{layers.better(name):<7} {layers.moves(name)}")
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: rows[n] for n in names if n in rows}

    attempted, failed = map(sum, zip(*map(op_counts, raws)))
    if failed:
        checks.append(f"{failed} of {attempted} steps and instances failed")
    for message in checks:
        print(f"check failed: {message}")
    if not checks:
        print(f"checks passed: {attempted} steps and instances finite, refined "
              f"checkpoint reloads with its content hash")
    correct = not checks
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
