"""AdamW with decoupled weight decay and linear learning-rate warmup."""

import numpy as np

from .tensor import MissingGradError


class AdamW:
    """Standard AdamW over a list of ``(name, Tensor)`` parameters.

    The effective learning rate ramps linearly from 0 to the base rate over
    ``warmup_steps`` optimizer steps and stays constant afterwards. Weight
    decay is decoupled: parameters shrink by ``eff_lr * weight_decay * p``
    independently of the gradient-based update.
    """

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01, warmup_steps=0):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if eps <= 0:
            raise ValueError(f"epsilon must be positive, got {eps}")
        if weight_decay < 0 or warmup_steps < 0:
            raise ValueError("weight_decay and warmup_steps must be non-negative")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = float(eps)
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
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for (name, p), m, v in zip(self.params, self.m, self.v):
            # p -= lr_t * (m_hat / (sqrt(v_hat) + eps)), operation by operation
            g = p.grad
            s1, s2 = (b[:p.data.size].reshape(p.data.shape)
                      for b in self._scratch[p.data.dtype])
            if self.weight_decay > 0:
                p.data *= 1.0 - lr_t * self.weight_decay
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=s1)
            m += s1
            v *= self.beta2
            np.multiply(g, g, out=s1)
            s1 *= 1.0 - self.beta2
            v += s1
            np.divide(m, bc1, out=s1)
            np.divide(v, bc2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += self.eps
            s1 /= s2
            s1 *= lr_t
            p.data -= s1
            p.grad[...] = 0
