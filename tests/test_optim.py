"""Adam behavior and the gradient checker's own error detection."""

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.errors import NumericError
from asmsim.optim import Adam, finite_diff_check


def test_zero_gradient_is_noop():
    p = ad.parameter([1.0, -2.0, 3.0])
    before = p.data.copy()
    opt = Adam({"p": p}, lr=0.001)
    p.grad = np.zeros_like(p.data)
    for _ in range(3):
        opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_first_step_magnitude_is_about_lr():
    p = ad.parameter([1.0])
    opt = Adam({"p": p}, lr=0.001)
    p.grad = np.array([4.0], dtype=np.float32)
    opt.step()
    # bias-corrected m-hat = 4, v-hat = 16 -> step = lr * 4 / (4 + eps)
    assert p.data[0] == pytest.approx(1.0 - 0.001, rel=1e-5)


def test_nonfinite_gradient_names_parameter():
    p = ad.parameter([1.0])
    q = ad.parameter([1.0])
    opt = Adam({"weight": p, "bias": q})
    p.grad = np.array([1.0], dtype=np.float32)
    q.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(NumericError, match="bias"):
        opt.step()


def test_missing_gradient_treated_as_zero():
    p = ad.parameter([2.0])
    opt = Adam({"p": p})
    opt.step()
    np.testing.assert_array_equal(p.data, [2.0])


def test_adam_deterministic():
    def run():
        p = ad.parameter(np.arange(4, dtype=np.float32))
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

    p = ad.parameter([0.3, -0.4], dtype=np.float64)
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
    params = {f"p{i}": ad.parameter(rng.standard_normal(s)) for i, s in enumerate(shapes)}
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


def test_invalid_lr_rejected():
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            Adam({"p": ad.parameter([1.0])}, lr=lr)


def test_checker_accepts_correct_gradient():
    x = ad.parameter([0.5, -1.5, 2.0], dtype=np.float64)
    report = finite_diff_check(lambda: ad.sum_(x * x), {"x": x})
    assert report.passed
    assert report.per_param["x"].n_checked == 3


def test_checker_detects_wrong_gradient():
    x = ad.parameter([0.5, -1.5, 2.0], dtype=np.float64)

    def bad_square(t):
        out_data = t.data ** 2

        def backward(g):
            ad._accum(t, g * 3.0 * t.data)  # deliberately wrong: true gradient is 2x

        return ad._node(out_data, (t,), backward)

    report = finite_diff_check(lambda: ad.sum_(bad_square(x)), {"x": x})
    assert not report.passed
    assert report.failures() == ["x"]


def test_checker_requires_float64():
    x = ad.parameter([1.0], dtype=np.float32)
    with pytest.raises(ValueError, match="float64"):
        finite_diff_check(lambda: ad.sum_(x), {"x": x})
