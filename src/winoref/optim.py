"""AdamW with decoupled weight decay and linear learning-rate warmup."""

import math

import numpy as np

from .config import check_count, check_real
from .tensor import MissingGradError

# the moment decay rates and the denominator's epsilon; no caller changes them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

# elements per update block: a block's state and its two scratch rows stay in
# cache across the update's passes over them
BLOCK = 1 << 16


def check_finite_loss(phase, loss, step):
    """Stop a training loop at its first non-finite loss, before the update
    that would carry it into every parameter."""
    if not math.isfinite(loss):
        raise ValueError(f"{phase} diverged: the loss is {loss} at step {step}")


class AdamW:
    """Standard AdamW over a list of ``(name, Tensor)`` parameters; a
    parameter passed twice, by tensor or by name, is a ValueError. Every
    argument is required: the config dataclasses hold the defaults.

    The effective learning rate ramps linearly from 0 to the base rate over
    ``warmup_steps`` optimizer steps and stays constant afterwards. Weight
    decay is decoupled: parameters shrink by ``eff_lr * weight_decay * p``
    independently of the gradient-based update.

    The parameters of each dtype share one flat buffer each for their data,
    gradients and two moments. Construction copies every ``p.data`` and
    ``p.grad`` into its slice and binds a view of the slice in its place.
    A caller writes into the views in place: ``step`` rejects a parameter
    whose ``data`` or ``grad`` is another array, naming it. ``step``
    updates the buffers in blocks of ``BLOCK`` elements, in one fixed order
    of operations, so the bits are those of a per-parameter update. A block
    whose gradient has been zero at every step so far has zero moments, so
    its update is +0.0 and only the weight decay moves it.
    """

    def __init__(self, params, lr, weight_decay, warmup_steps):
        check_real("lr", lr, 0, low_open=True)
        check_real("weight_decay", weight_decay, 0)
        check_count("warmup_steps", warmup_steps, 0)
        self.params = list(params)
        names, tensors = set(), set()
        for name, p in self.params:
            if name in names or id(p) in tensors:
                raise ValueError(f"parameter {name!r} is passed twice")
            names.add(name)
            tensors.add(id(p))
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.warmup_steps = int(warmup_steps)
        self.step_count = 0
        self._views = [None] * len(self.params)
        # per block: (data, grad, m, v, scratch1, scratch2) views, and
        # whether a nonzero gradient has reached it yet
        self._blocks, self._touched = [], []
        for dtype in dict.fromkeys(p.data.dtype for _, p in self.params):
            members = [i for i, (_, p) in enumerate(self.params) if p.data.dtype == dtype]
            total = sum(self.params[i][1].data.size for i in members)
            flat = [np.zeros(total, dtype) for _ in range(4)]   # data, grad, m, v
            start = 0
            for i in members:
                p = self.params[i][1]
                data, grad = (f[start:start + p.data.size].reshape(p.data.shape)
                              for f in flat[:2])
                data[...] = p.data
                p.data = data
                if p.grad is not None:
                    grad[...] = p.grad
                    p.grad = grad
                self._views[i] = (data, grad)
                start += p.data.size
            scratch = np.empty((2, min(BLOCK, total)), dtype)
            for lo in range(0, total, BLOCK):
                hi = min(lo + BLOCK, total)
                self._blocks.append(tuple(f[lo:hi] for f in flat)
                                    + tuple(scratch[:, :hi - lo]))
                self._touched.append(False)

    def effective_lr(self):
        """Learning rate at the current step count."""
        t = self.step_count
        if self.warmup_steps > 0 and t < self.warmup_steps:
            return self.lr * t / self.warmup_steps
        return self.lr

    def step(self):
        """Apply one update; requires grads populated, clears them after."""
        for (name, p), views in zip(self.params, self._views):
            if p.grad is None:
                raise MissingGradError(f"parameter {name!r} has no gradient; "
                                       f"run backward before stepping")
            for attr, view in zip(("data", "grad"), views):
                if getattr(p, attr) is not view:
                    raise ValueError(f"parameter {name!r}: its {attr} is no longer the "
                                     f"optimizer's view of its {view.dtype} "
                                     f"{view.shape} slice; write into the view in place")
        self.step_count += 1
        t = self.step_count
        lr_t = self.effective_lr()
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        decay = 1.0 - lr_t * self.weight_decay
        for b, (p, g, m, v, s1, s2) in enumerate(self._blocks):
            # p -= lr_t * (m_hat / (sqrt(v_hat) + eps)), operation by operation
            if self.weight_decay > 0:
                p *= decay
            if not self._touched[b]:
                if not g.any():
                    # m = v = +0.0 stay so, and the update lr_t * 0 / eps is
                    # +0.0, which leaves every bit of p; -0.0 grads become +0.0
                    g[...] = 0
                    continue
                # moments may stay nonzero after the gradient vanishes
                self._touched[b] = True
            m *= BETA1
            np.multiply(g, 1.0 - BETA1, out=s1)
            m += s1
            v *= BETA2
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - BETA2
            v += s1
            np.divide(m, bc1, out=s1)
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += EPS
            s1 /= s2
            s1 *= lr_t
            p -= s1
            g[...] = 0
