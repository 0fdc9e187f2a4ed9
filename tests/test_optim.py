"""Adam behavior and the gradient checker's own error detection."""

import tracemalloc

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.errors import NumericError
from asmsim.models import BackboneConfig, build_backbone
from asmsim.optim import Adam
from gradcheck import finite_diff_check, project


def test_zero_gradient_is_noop():
    p = ad.Tensor([1.0, -2.0, 3.0], requires_grad=True, dtype=np.float32)
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.001)
    p.grad = np.zeros_like(p.data)
    for _ in range(3):
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_first_step_magnitude_is_about_lr():
    p = ad.Tensor([1.0], requires_grad=True, dtype=np.float32)
    opt = Adam({"p": p}, lr=0.001)
    p.grad = np.array([4.0], dtype=np.float32)
    opt.step()
    # bias-corrected m-hat = 4, v-hat = 16 -> step = lr * 4 / (4 + eps)
    assert p.data[0] == pytest.approx(1.0 - 0.001, rel=1e-5)


def test_nonfinite_gradient_names_parameter():
    p = ad.Tensor([1.0], requires_grad=True, dtype=np.float32)
    q = ad.Tensor([1.0], requires_grad=True, dtype=np.float32)
    opt = Adam({"weight": p, "bias": q})
    p.grad = np.array([1.0], dtype=np.float32)
    q.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(NumericError, match="bias"):
        opt.step()


def test_nonfinite_gradient_writes_nothing():
    """A non-finite gradient in a later parameter fails the step before the
    first write: every parameter, moment and gradient and the step count are
    as they were, and the retried step with that gradient made finite is the
    one a clean optimizer takes."""
    def fresh():
        ps = {"a": ad.Tensor([1.0, 2.0], requires_grad=True, dtype=np.float32),
              "b": ad.Tensor([3.0], requires_grad=True, dtype=np.float32)}
        opt = Adam(ps, lr=0.01)
        for p in ps.values():                # one clean step: the moments are not zero
            p.grad = np.full(p.shape, 0.5, dtype=np.float32)
        opt.step()
        return ps, opt

    params, opt = fresh()
    grads = {"a": np.array([0.25, -1.0], dtype=np.float32),
             "b": np.array([np.nan], dtype=np.float32)}
    for k, p in params.items():
        p.grad = grads[k]
    before = {k: (p.data.copy(), opt.m[k].copy(), opt.v[k].copy(), p.grad.copy())
              for k, p in params.items()}
    with pytest.raises(NumericError, match="'b' at step 2"):
        opt.step()
    assert opt.step_count == 1
    for k, p in params.items():
        assert p.grad is grads[k], k
        for got, want in zip((p.data, opt.m[k], opt.v[k], p.grad), before[k]):
            np.testing.assert_array_equal(got, want, err_msg=k)

    params["b"].grad = np.array([2.0], dtype=np.float32)
    opt.step()
    clean, clean_opt = fresh()
    clean["a"].grad = np.array([0.25, -1.0], dtype=np.float32)
    clean["b"].grad = np.array([2.0], dtype=np.float32)
    clean_opt.step()
    assert opt.step_count == clean_opt.step_count == 2
    for k in params:
        assert params[k].data.tobytes() == clean[k].data.tobytes(), k


def test_missing_gradient_treated_as_zero():
    p = ad.Tensor([2.0], requires_grad=True, dtype=np.float32)
    opt = Adam({"p": p})
    opt.step()
    np.testing.assert_array_equal(p.data, [2.0])


def test_adam_deterministic():
    def run():
        p = ad.Tensor(np.arange(4, dtype=np.float32), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01)
        rng = np.random.default_rng(5)
        for _ in range(10):
            p.grad = rng.standard_normal(4).astype(np.float32)
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_matches_reference_sequence():
    # hand-rolled Adam recurrence as an independent oracle
    g_seq = [np.array([0.5, -1.0]), np.array([2.0, 0.25]), np.array([-0.75, 1.5])]
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    x = np.array([0.3, -0.4])
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(g_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    p = ad.Tensor([0.3, -0.4], requires_grad=True, dtype=np.float64)
    opt = Adam({"p": p}, lr=lr)
    for g in g_seq:
        p.grad = g.copy()
        opt.step()
    np.testing.assert_allclose(p.data, x, rtol=1e-12)


def test_step_matches_the_out_of_place_update_bitwise():
    """The in-place step against the out-of-place expression it replaced, over
    five float32 steps on parameters of several shapes sharing one scratch
    buffer, one of them without a gradient at one step."""
    rng = np.random.default_rng(11)
    shapes = [(3, 5), (), (2, 3, 4), (7,), (40, 6)]
    params = {f"p{i}": ad.Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float32)
              for i, s in enumerate(shapes)}
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    x = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in x.items()}
    v = {k: np.zeros_like(a) for k, a in x.items()}
    opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
    for t in range(1, 6):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for k, p in params.items():
            g = np.zeros_like(x[k]) if (t, k) == (3, "p2") else \
                rng.standard_normal(x[k].shape).astype(np.float32)
            m[k] *= b1
            m[k] += (1.0 - b1) * g
            v[k] *= b2
            v[k] += (1.0 - b2) * (g * g)
            x[k] -= lr * (m[k] / c1) / (np.sqrt(v[k] / c2) + eps)
            p.grad = None if (t, k) == (3, "p2") else g.copy()
        opt.step()
        for k, p in params.items():
            assert p.data.dtype == np.float32 and p.data.tobytes() == x[k].tobytes(), (t, k)
            assert p.grad is None


def whole_array_step(x, m, v, g, t, lr, b1, b2, eps):
    """One update over whole arrays, in place, in the step's operation order
    (how it ran before it was blocked); g serves as scratch."""
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    s = np.empty_like(x)
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s)
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    np.divide(m, c1, out=s)
    s *= lr
    np.divide(v, c2, out=g)
    np.sqrt(g, out=g)
    g += eps
    s /= g
    x -= s


def test_blocked_step_matches_the_whole_array_step_bitwise():
    """Four float32 steps over parameters larger than a block (along a long
    first axis, and in one wide row per leading index), a 0-d one and a small
    one, with one parameter's gradient missing at one step, equal
    `whole_array_step` bit for bit."""
    rng = np.random.default_rng(12)
    shapes = {"tall": (300_001,), "wide": (70, 5, 192), "big_rows": (3, 70_000),
              "scalar": (), "small": (4, 3)}
    params = {k: ad.Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float32)
              for k, s in shapes.items()}
    lr, b1, b2, eps = 0.003, 0.9, 0.999, 1e-8
    x = {k: p.data.copy() for k, p in params.items()}
    m = {k: np.zeros_like(a) for k, a in x.items()}
    v = {k: np.zeros_like(a) for k, a in x.items()}
    opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
    for t in range(1, 5):
        for k, p in params.items():
            missing = (t, k) == (2, "wide")
            g = np.zeros_like(x[k]) if missing else \
                rng.standard_normal(x[k].shape).astype(np.float32)
            p.grad = None if missing else g.copy()
            whole_array_step(x[k], m[k], v[k], g, t, lr, b1, b2, eps)
        opt.step()
        for k, p in params.items():
            assert p.data.tobytes() == x[k].tobytes(), (t, k)
            assert opt.m[k].tobytes() == m[k].tobytes() and opt.v[k].tobytes() == v[k].tobytes()
            assert p.grad is None


def test_step_allocates_no_parameter_sized_array():
    """One step on a default textcnn (6.09M parameters, the largest a 4.4 MB
    kernel) allocates under 1 MB: block-sized scratch, and a zeroed block for
    a parameter without a gradient."""
    model = build_backbone(BackboneConfig("textcnn", 97), seed=0)
    opt = Adam(model.params)
    rng = np.random.default_rng(3)
    for name, p in model.params.items():
        if name != "fc.w":
            p.grad = rng.standard_normal(p.shape).astype(np.float32)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_invalid_lr_rejected():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            Adam({"p": ad.Tensor([1.0], requires_grad=True, dtype=np.float32)}, lr=lr)


def square(t, slope):
    """t ** 2 as a node whose backward hands on g * slope * t: slope 2 is the
    true gradient."""
    node, data = t.node, t.data
    return ad._node(data ** 2, (t,), lambda g: ad._accum(node, g * slope * data))


def test_checker_accepts_correct_gradient():
    x = ad.Tensor([0.5, -1.5, 2.0], requires_grad=True, dtype=np.float64)
    report = finite_diff_check(lambda: project(square(x, 2.0)), {"x": x})
    assert report.passed
    assert report.per_param["x"].n_checked == 3


def test_checker_detects_wrong_gradient():
    x = ad.Tensor([0.5, -1.5, 2.0], requires_grad=True, dtype=np.float64)
    report = finite_diff_check(lambda: project(square(x, 3.0)), {"x": x})
    assert not report.passed
    assert report.failures() == ["x"]


def test_checker_requires_float64():
    x = ad.Tensor([1.0], requires_grad=True, dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: project(x), {"x": x})
