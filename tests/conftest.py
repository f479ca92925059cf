import numpy as np
import pytest

import winoref.tensor as T
from winoref.synthetic import make_benchmark
from winoref.text import SchemaInstance


@pytest.fixture(autouse=True)
def float64_precision():
    # oracles and gradient checks need 64-bit headroom
    T.set_dtype("float64")
    yield
    T.set_dtype("float64")


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of scalar-valued f() w.r.t. array x,
    perturbing x in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f()
        x[i] = orig - h
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g


def rel_err(analytic, numeric):
    """max |a - n| scaled by max(1, max |n|)."""
    return np.abs(analytic - numeric).max() / max(1.0, np.abs(numeric).max())


def check_grads(build, inputs, tol=1e-4, h=1e-5):
    """Compare tape gradients of ``build() -> scalar Tensor`` against central
    finite differences for every Tensor in ``inputs``."""
    for inp in inputs:
        inp.grad[...] = 0
    loss = build()
    T.backward(loss)
    analytic = [inp.grad.copy() for inp in inputs]
    for inp, a in zip(inputs, analytic):
        n = finite_difference_grad(lambda: build().item(), inp.data, h=h)
        err = rel_err(a, n)
        assert err < tol, f"gradient mismatch: rel err {err:.3e} for shape {inp.shape}"


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


def make_null_benchmark(n_instances, seed=0):
    """Balanced benchmark whose labels are coin flips: any label-independent
    scorer sits at 50% accuracy in expectation."""
    rng = np.random.default_rng(seed)
    base = make_benchmark(n_instances, seed=seed + 1, with_twins=False)
    labels = np.array([1] * (n_instances // 2) + [2] * (n_instances - n_instances // 2))
    rng.shuffle(labels)
    out = []
    for inst, label in zip(base, labels):
        out.append(SchemaInstance(sentence=inst.sentence, candidate1=inst.candidate1,
                                  candidate2=inst.candidate2, label=int(label)))
    return out
