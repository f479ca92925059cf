import numpy as np
import pytest

import winoref.tensor as T
from winoref.encoder import EncoderConfig, EncoderModel
from winoref.optim import BLOCK, AdamW
from winoref.tensor import MissingGradError, Tensor


def test_first_step_with_unit_gradient():
    # bias-corrected m_hat = v_hat = 1 at step 1, so the update is
    # -lr * 1 / (1 + eps)
    p = Tensor([0.0], requires_grad=True)
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0, warmup_steps=0)
    p.grad[...] = 1.0
    opt.step()
    expected = -0.1 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p.data, [expected], rtol=1e-12)
    assert opt.step_count == 1
    np.testing.assert_array_equal(p.grad, [0.0])  # grads cleared


def test_linear_warmup_factor():
    p = Tensor([0.0], requires_grad=True)
    opt = AdamW([("p", p)], lr=2.0, weight_decay=0.01, warmup_steps=500)
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
    opt = AdamW([("theta", p)], lr=0.1, weight_decay=0.01, warmup_steps=0)
    p.grad = None
    with pytest.raises(MissingGradError, match="theta"):
        opt.step()


def test_non_trainable_param_rejected():
    p = Tensor([1.0], requires_grad=False)
    opt = AdamW([("frozen", p)], lr=0.1, weight_decay=0.01, warmup_steps=0)
    with pytest.raises(MissingGradError, match="frozen"):
        opt.step()


def test_matches_reference_adamw_trajectory():
    # independent scalar recomputation of five steps
    rng = np.random.default_rng(3)
    grads = rng.normal(size=5)
    p = Tensor([0.7], requires_grad=True)
    lr, wd, eps, b1, b2 = 0.05, 0.01, 1e-8, 0.9, 0.999
    opt = AdamW([("p", p)], lr=lr, weight_decay=wd, warmup_steps=2)

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
    # nan passes a bare ``<= 0`` check, and int() would truncate 1.5 to 1
    p = Tensor([1.0], requires_grad=True)
    good = {"lr": 0.1, "weight_decay": 0.01, "warmup_steps": 0}
    for key, value in (("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
                       ("weight_decay", -1.0), ("weight_decay", float("nan")),
                       ("weight_decay", float("inf")), ("warmup_steps", -1),
                       ("warmup_steps", 1.5), ("warmup_steps", True)):
        with pytest.raises(ValueError, match=key):
            AdamW([("p", p)], **{**good, key: value})


def test_parameter_passed_twice_rejected():
    a, b = (Tensor([1.0], requires_grad=True) for _ in range(2))
    with pytest.raises(ValueError, match="'second'"):
        AdamW([("first", a), ("second", a)], lr=0.1, weight_decay=0.0, warmup_steps=0)
    with pytest.raises(ValueError, match="'w'"):
        AdamW([("w", a), ("w", b)], lr=0.1, weight_decay=0.0, warmup_steps=0)


def test_every_hyperparameter_is_required():
    # the config dataclasses hold the defaults; the optimizer repeats none
    p = Tensor([1.0], requires_grad=True)
    with pytest.raises(TypeError):
        AdamW([("p", p)], lr=0.1, weight_decay=0.01)


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


def step_against_reference(opt, grads):
    """Step ``opt`` with ``grads``, written into each gradient. Assert that
    every gradient reads +0.0 after each step, and that the data ends
    bit-equal to ``reference_adamw`` run from the data the parameters hold
    now."""
    want = reference_adamw([p.data for _, p in opt.params], grads, len(grads),
                           lr=opt.lr, betas=(0.9, 0.999), eps=1e-8,
                           wd=opt.weight_decay, warmup=opt.warmup_steps)
    for step in grads:
        for (_, p), g in zip(opt.params, step):
            p.grad[...] = g
        opt.step()
        assert all(p.grad.tobytes() == bytes(p.grad.nbytes) for _, p in opt.params)
    for (_, p), w in zip(opt.params, want):
        assert p.data.dtype == w.dtype and p.data.tobytes() == w.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("wd,warmup", [(0.0, 0), (0.05, 0), (0.01, 5)])
def test_scratch_buffers_give_the_reference_bits(dtype, wd, warmup):
    # the first parameter fills blocks 0 and 1 and starts block 2, which
    # parameters of other sizes fill out. Block 0 sees no gradient for three
    # steps, then one, then none while its moments are nonzero; block 1 sees
    # only -0.0.
    T.set_dtype(dtype)
    rng = np.random.default_rng(11)
    shapes = [(2 * BLOCK + 1000,), (13, 5), (7,), (3, 4, 2), (65,)]
    params = [(f"p{i}", Tensor(rng.normal(size=s), requires_grad=True))
              for i, s in enumerate(shapes)]
    grads = []
    for t in range(1, 11):
        step = [rng.normal(0, 10.0 ** rng.integers(-3, 2), size=s).astype(dtype)
                for s in shapes]
        if t <= 3 or t > 7:
            step[0][:BLOCK] = 0.0
        step[0][BLOCK:2 * BLOCK] = -0.0
        grads.append(step)
    step_against_reference(AdamW(params, lr=0.02, weight_decay=wd,
                                 warmup_steps=warmup), grads)


@pytest.mark.parametrize("wd,warmup", [(0.0, 0), (0.05, 3)])
def test_mixed_dtypes_give_the_reference_bits(wd, warmup):
    # one flat buffer per dtype, each carved in parameter order
    rng = np.random.default_rng(14)
    layout = [((5, 3), "float32"), ((BLOCK + 9,), "float64"), ((11,), "float64"),
              ((BLOCK + 2,), "float32")]
    params = [(f"p{i}", Tensor(rng.normal(size=s), requires_grad=True, dtype=d))
              for i, (s, d) in enumerate(layout)]
    grads = [[rng.normal(size=s).astype(d) for s, d in layout] for _ in range(6)]
    step_against_reference(AdamW(params, lr=0.03, weight_decay=wd,
                                 warmup_steps=warmup), grads)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_scratch_buffers_after_load_arrays_writes_the_data_in_place(dtype):
    # load_arrays writes into the optimizer's views, which stay bound
    T.set_dtype(dtype)
    cfg = EncoderConfig(layers=1, heads=2, model_dim=8, ff_dim=16, max_len=6,
                        vocab_size=20)
    model = EncoderModel(cfg, seed=0)
    opt = AdamW(model.named_params(), lr=0.01, weight_decay=0.01, warmup_steps=3)
    views = [p.data for _, p in model.named_params()]
    loaded = {name: p.data for name, p in EncoderModel(cfg, seed=1).named_params()}
    model.load_arrays(loaded)
    for (name, p), view in zip(model.named_params(), views):
        assert p.data is view and p.data.tobytes() == loaded[name].tobytes()
    rng = np.random.default_rng(12)
    grads = [[rng.normal(size=p.data.shape).astype(dtype)
              for _, p in model.named_params()] for _ in range(8)]
    step_against_reference(opt, grads)


@pytest.mark.parametrize("attr", ["data", "grad"])
def test_rebound_array_of_another_shape_rejected(attr):
    p = Tensor(np.ones((2, 3)), requires_grad=True)
    opt = AdamW([("w", p)], lr=0.1, weight_decay=0.0, warmup_steps=0)
    setattr(p, attr, np.ones(6))
    with pytest.raises(ValueError, match="'w'"):
        opt.step()


@pytest.mark.parametrize("attr", ["data", "grad"])
def test_rebound_array_of_the_same_shape_rejected(attr):
    # an array bound in place of a view is not copied in: the step fails
    # before it updates anything
    p = Tensor(np.ones((2, 3)), requires_grad=True)
    opt = AdamW([("w", p)], lr=0.1, weight_decay=0.01, warmup_steps=0)
    data = p.data
    setattr(p, attr, np.full((2, 3), 2.0))
    with pytest.raises(ValueError, match=f"'w': its {attr} is no longer"):
        opt.step()
    assert opt.step_count == 0 and (data == 1.0).all()
