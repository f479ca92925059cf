import itertools
from pathlib import Path

# winoref before numpy: importing it pins one BLAS thread unless the caller
# set one, and OpenBLAS reads the variables once, when numpy loads it
import winoref.tensor as T

import numpy as np
import pytest

from winoref.config import read_json
from winoref.encoder import encode, mlm_logits_batch
from winoref.refine import N_KINDS, _row_tables, pooled_stack
from winoref.synthetic import make_benchmark
from winoref.text import MASK_ID, SchemaInstance, row_masks

# the README quickstart's run config, which CI and gate 5 run and the
# benchmark's workloads copy (tests/test_quickstart.py holds them to it)
QUICKSTART = Path(__file__).parents[1] / "configs" / "quickstart.json"


def quickstart_config():
    """A fresh copy of the README quickstart's run config."""
    return read_json(QUICKSTART, "config")


@pytest.fixture(autouse=True)
def float64_precision():
    # oracles and gradient checks need 64-bit headroom
    T.set_dtype("float64")
    yield
    T.set_dtype("float64")


def record_draws(monkeypatch):
    """Replace ``tensor._keep_mask`` by a recorder of the shape of every
    dropout mask asked for; it draws none, so dropout keeps every entry.
    Returns the list of shapes."""
    shapes = []

    def record(rate, rng, shape, dtype):
        if rate > 0.0:
            shapes.append(shape)

    monkeypatch.setattr(T, "_keep_mask", record)
    return shapes


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
    base = make_benchmark(n_instances, seed=seed + 1)
    labels = np.array([1] * (n_instances // 2) + [2] * (n_instances - n_instances // 2))
    rng.shuffle(labels)
    out = []
    for inst, label in zip(base, labels):
        out.append(SchemaInstance(sentence=inst.sentence, candidate1=inst.candidate1,
                                  candidate2=inst.candidate2, label=int(label)))
    return out


# ---------------------------------------------------------------------------
# no-collapse probes: how well a model recovers masked tokens and keeps
# perturbation kinds and samples apart
# ---------------------------------------------------------------------------


def masked_token_accuracy(model, rows, limit=None, seed=0, batch_size=64):
    """Fraction of content positions whose token the model recovers when that
    single position is masked. ``limit`` caps the number of probed positions."""
    ids = np.stack(rows)
    row_of, pos_of = np.nonzero(row_masks(ids)[1])
    if limit is not None and len(row_of) > limit:
        rng = np.random.default_rng(seed)
        keep = np.sort(rng.choice(len(row_of), size=limit, replace=False))
        row_of, pos_of = row_of[keep], pos_of[keep]
    correct = 0
    for start in range(0, len(row_of), batch_size):
        pos = pos_of[start:start + batch_size]
        chunk = ids[row_of[start:start + batch_size]]
        at = (np.arange(len(pos)), pos)
        truth = chunk[at]
        chunk[at] = MASK_ID
        logits = mlm_logits_batch(model.detached(), chunk, chunk == MASK_ID)
        correct += int((logits.data.argmax(axis=1) == truth).sum())
    return correct / len(row_of) if len(row_of) else 0.0


def pooled_kind_dataset(model, groups, vocab, max_len):
    """Pooled generated stacks plus kind labels and group positions, eval
    mode."""
    group_ids, kind_ids, gen_ids, _ = _row_tables(groups, vocab, max_len)
    return pooled_stack(encode(model, gen_ids)).data, kind_ids, group_ids


def kind_probe_accuracy(feats, labels, seed=0, holdout=0.25, epochs=300, lr=0.5):
    """Held-out accuracy of a fresh softmax-regression probe predicting the
    perturbation kind from pooled stacks. Plain numpy, independent of the
    training tape."""
    rng = np.random.default_rng(seed)
    n = len(labels)
    order = rng.permutation(n)
    n_test = max(1, int(n * holdout))
    test, train = order[:n_test], order[n_test:]
    x = feats - feats.mean(axis=0)
    scale = x.std(axis=0)
    x = x / np.where(scale > 0, scale, 1.0)
    w = np.zeros((feats.shape[1], N_KINDS))
    b = np.zeros(N_KINDS)
    y = labels
    for _ in range(epochs):
        z = x[train] @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(train)), y[train]] -= 1.0
        w -= lr * (x[train].T @ p / len(train) + 1e-4 * w)
        b -= lr * p.mean(axis=0)
    pred = (x[test] @ w + b).argmax(axis=1)
    return float((pred == y[test]).mean())


def min_same_kind_distance(feats, labels, samples):
    """Smallest L2 distance between pooled stacks of different samples that
    share a perturbation kind; zero signals sample collapse."""
    best = np.inf
    for kind in range(N_KINDS):
        idx = np.nonzero(labels == kind)[0]
        for a, b in itertools.combinations(idx, 2):
            if samples[a] != samples[b]:
                best = min(best, float(np.linalg.norm(feats[a] - feats[b])))
    return best
