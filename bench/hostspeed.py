"""The host's speed, read from a fixed reference kernel.

The shared VM the benchmark was built on changes speed under its tenants'
load: the same single-threaded numpy loop takes anywhere from 1× to 1.8×
its fastest time, in stretches of a few seconds up to more than a minute,
and the process's CPU time grows with its wall time (it is the CPU that
runs slower, not the process that waits). No choice of rounds or
percentiles inside a run can remove a stretch that covers the whole run.

So the pipeline runs ``kernel()`` right after each timed interval: each
optimizer step, each evaluate() call and each set-up. The kernel does the
same kind of work as the program, small float32 matmuls and elementwise
numpy ops driven from a Python loop, but none of winoref's code, so no
change to the program changes it. ``run.py`` scales each interval by
``REFERENCE_KERNEL_S`` over the kernel time measured next to it: a timing
metric reads what the interval would have taken with the kernel at its
reference time, whatever the host's speed was meanwhile.
"""

import time

import numpy as np

# The kernel's time on the VM the benchmark was built on, in one of its
# fast stretches (Intel Xeon, 2 vCPUs, OpenBLAS, 1 thread). A constant: it
# sets the scale of the calibrated metrics, never depends on a run.
REFERENCE_KERNEL_S = 0.0015

_RNG = np.random.default_rng(0)
# one quickstart pretraining batch of hidden rows, and a square weight
_ROWS = _RNG.standard_normal((32 * 24, 96)).astype(np.float32)
_WEIGHT = (_RNG.standard_normal((96, 96)) / np.sqrt(96)).astype(np.float32)
_ITERATIONS = 6


def kernel():
    """Run the reference kernel once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    h = _ROWS
    for _ in range(_ITERATIONS):
        h = np.tanh(h @ _WEIGHT)
        h = h - h.mean(axis=-1, keepdims=True)
    h.sum()
    return time.perf_counter() - t0
