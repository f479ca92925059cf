import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import EncoderConfig, EncoderModel
from winoref.optim import AdamW
from winoref.tensor import MissingGradError, Tensor


def test_first_step_with_unit_gradient():
    # bias-corrected m_hat = v_hat = 1 at step 1, so the update is
    # -lr * 1 / (1 + eps)
    p = Tensor([0.0], requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1, eps=1e-8, weight_decay=0.0, warmup_steps=0)
    p.grad[...] = 1.0
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
    assert opt.step_count == 1
    np.testing.assert_array_equal(p.grad, [0.0])  # grads cleared


def test_linear_warmup_factor():
    p = Tensor([0.0], requires_grad=True)
    opt = AdamW([("p", p)], lr=2.0, warmup_steps=500)
    for step, lr in ((250, 0.5 * 2.0), (500, 2.0), (9999, 2.0)):
        opt.step_count = step
        assert opt.effective_lr() == pytest.approx(lr)
    opt.step_count = 0
    assert opt.effective_lr() == 0.0


def test_decoupled_decay_with_zero_gradient():
    p = Tensor([4.0], requires_grad=True)
    lr, wd = 0.1, 0.5
    opt = AdamW([("p", p)], lr=lr, weight_decay=wd, warmup_steps=0)
    p.grad[...] = 0.0
    opt.step()
    # moments stay zero, so only the decay term moves the parameter
    np.testing.assert_allclose(p.data, [4.0 - lr * wd * 4.0], rtol=1e-12)


def test_missing_grad_rejected():
    p = Tensor([1.0], requires_grad=True)
    opt = AdamW([("theta", p)], lr=0.1)
    p.grad = None
    with pytest.raises(MissingGradError, match="theta"):
        opt.step()


def test_non_trainable_param_rejected():
    p = Tensor([1.0], requires_grad=False)
    opt = AdamW([("frozen", p)], lr=0.1)
    with pytest.raises(MissingGradError, match="frozen"):
        opt.step()


def test_moment_buffers_match_param_shapes():
    rng = np.random.default_rng(0)
    params = [(f"p{i}", Tensor(rng.normal(size=shape), requires_grad=True))
              for i, shape in enumerate([(3, 4), (7,), (2, 2, 2)])]
    opt = AdamW(params, lr=0.1)
    for (_, p), m, v in zip(opt.params, opt.m, opt.v):
        assert m.shape == p.data.shape
        assert v.shape == p.data.shape


def test_matches_reference_adamw_trajectory():
    # independent scalar recomputation of five steps
    rng = np.random.default_rng(3)
    grads = rng.normal(size=5)
    p = Tensor([0.7], requires_grad=True)
    lr, wd, eps, b1, b2 = 0.05, 0.01, 1e-8, 0.9, 0.999
    opt = AdamW([("p", p)], lr=lr, eps=eps, weight_decay=wd, warmup_steps=2)

    ref = 0.7
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        p.grad[...] = g
        opt.step()
        eff = lr * min(1.0, t / 2)
        ref = ref * (1 - eff * wd)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref = ref - eff * (m_hat / (np.sqrt(v_hat) + eps))
        np.testing.assert_allclose(p.data, [ref], rtol=1e-12)


def test_invalid_hyperparameters_rejected():
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(ValueError):
        AdamW([("p", p)], lr=0.0)
    with pytest.raises(ValueError):
        AdamW([("p", p)], lr=0.1, eps=0.0)
    with pytest.raises(ValueError):
        AdamW([("p", p)], lr=0.1, weight_decay=-1.0)


def reference_adamw(params, grads, steps, lr, betas, eps, wd, warmup):
    """Today's update written with fresh temporaries, one parameter at a time."""
    b1, b2 = betas
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t in range(1, steps + 1):
        lr_t = lr * t / warmup if warmup > 0 and t < warmup else lr
        bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, g in enumerate(grads[t - 1]):
            if wd > 0:
                data[i] *= 1.0 - lr_t * wd
            m[i] = m[i] * b1 + (1.0 - b1) * g
            v[i] = v[i] * b2 + (1.0 - b2) * (g * g)
            m_hat = m[i] / bc1
            v_hat = v[i] / bc2
            data[i] = data[i] - lr_t * (m_hat / (np.sqrt(v_hat) + eps))
    return data


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("wd,warmup", [(0.0, 0), (0.05, 0), (0.01, 5)])
def test_scratch_buffers_give_the_reference_bits(dtype, wd, warmup):
    # parameters of different sizes share one scratch pair
    T.set_dtype(dtype)
    rng = np.random.default_rng(11)
    shapes = [(13, 5), (7,), (3, 4, 2), (65,)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    grads = [[rng.normal(0, 10.0 ** rng.integers(-3, 2), size=s).astype(dtype)
              for s in shapes] for _ in range(8)]
    want = reference_adamw([p.data for p in params], grads, 8, lr=0.02,
                           betas=(0.9, 0.999), eps=1e-8, wd=wd, warmup=warmup)
    opt = AdamW([(f"p{i}", p) for i, p in enumerate(params)], lr=0.02,
                weight_decay=wd, warmup_steps=warmup)
    for step in grads:
        for p, g in zip(params, step):
            p.grad[...] = g
        opt.step()
    for p, w in zip(params, want):
        assert p.data.dtype == w.dtype and p.data.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_scratch_buffers_after_load_arrays_rebinds_the_data(dtype):
    T.set_dtype(dtype)
    cfg = EncoderConfig(layers=1, heads=2, model_dim=8, ff_dim=16, max_len=6,
                        vocab_size=20)
    model = EncoderModel(cfg, seed=0)
    opt = AdamW(model.named_params(), lr=0.01, weight_decay=0.01, warmup_steps=3)
    loaded = {name: p.data for name, p in EncoderModel(cfg, seed=1).named_params()}
    model.load_arrays(loaded)                     # new arrays behind the same tensors
    rng = np.random.default_rng(12)
    names = [name for name, _ in model.named_params()]
    grads = [[rng.normal(size=p.data.shape).astype(dtype)
              for _, p in model.named_params()] for _ in range(8)]
    want = reference_adamw([loaded[n] for n in names], grads, 8, lr=0.01,
                           betas=(0.9, 0.999), eps=1e-8, wd=0.01, warmup=3)
    for step in grads:
        for (_, p), g in zip(model.named_params(), step):
            p.grad[...] = g
        opt.step()
    for (_, p), w in zip(model.named_params(), want):
        assert p.data.tobytes() == w.tobytes()
