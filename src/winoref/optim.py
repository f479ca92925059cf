"""AdamW with decoupled weight decay and linear learning-rate warmup."""

import math

import numpy as np

from .tensor import MissingGradError

# the moment decay rates and the denominator's epsilon; no caller changes them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def check_finite_loss(phase, loss, step):
    """Stop a training loop at its first non-finite loss, before the update
    that would carry it into every parameter."""
    if not math.isfinite(loss):
        raise ValueError(f"{phase} diverged: the loss is {loss} at step {step}")


class AdamW:
    """Standard AdamW over a list of ``(name, Tensor)`` parameters.

    The effective learning rate ramps linearly from 0 to the base rate over
    ``warmup_steps`` optimizer steps and stays constant afterwards. Weight
    decay is decoupled: parameters shrink by ``eff_lr * weight_decay * p``
    independently of the gradient-based update.
    """

    def __init__(self, params, lr, weight_decay, warmup_steps):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if weight_decay < 0 or warmup_steps < 0:
            raise ValueError("weight_decay and warmup_steps must be non-negative")
        self.params = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.warmup_steps = int(warmup_steps)
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]
        # two scratch buffers per dtype, sized to the largest parameter, that
        # every update writes its temporaries into
        self._scratch = {}
        for _, p in self.params:
            buf = self._scratch.get(p.data.dtype)
            if buf is None or buf.shape[1] < p.data.size:
                self._scratch[p.data.dtype] = np.empty((2, p.data.size), p.data.dtype)

    def effective_lr(self):
        """Learning rate at the current step count."""
        t = self.step_count
        if self.warmup_steps > 0 and t < self.warmup_steps:
            return self.lr * t / self.warmup_steps
        return self.lr

    def step(self):
        """Apply one update; requires grads populated, clears them after."""
        for name, p in self.params:
            if p.grad is None:
                raise MissingGradError(f"parameter {name!r} has no gradient; "
                                       f"run backward before stepping")
        self.step_count += 1
        t = self.step_count
        lr_t = self.effective_lr()
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for (name, p), m, v in zip(self.params, self.m, self.v):
            # p -= lr_t * (m_hat / (sqrt(v_hat) + eps)), operation by operation
            g = p.grad
            s1, s2 = (b[:p.data.size].reshape(p.data.shape)
                      for b in self._scratch[p.data.dtype])
            if self.weight_decay > 0:
                p.data *= 1.0 - lr_t * self.weight_decay
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
            p.data -= s1
            p.grad[...] = 0
