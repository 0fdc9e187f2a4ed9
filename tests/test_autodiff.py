"""Kernel-level checks: pinned examples plus finite-difference trials per kernel."""

import numpy as np
import pytest

import asmsim.autodiff as ad
from asmsim.optim import finite_diff_check

TRIALS = 20


def p64(rng, *shape):
    return ad.parameter(rng.standard_normal(shape), dtype=np.float64)


def assert_grads_match(f, params, rng, frozen=None):
    report = finite_diff_check(f, params, rel_tolerance=1e-4, rng=rng, frozen=frozen)
    assert report.passed, {k: c.max_rel_err for k, c in report.per_param.items()}


# ---------------------------------------------------------------- pinned examples

def test_conv1d_example():
    x = ad.constant([[[1.0], [2.0], [3.0], [4.0]]], dtype=np.float64)   # [B=1, L=4, C=1]
    w = ad.constant([[[1.0, 0.0, -1.0]]], dtype=np.float64)
    b = ad.constant([0.0], dtype=np.float64)
    out = ad.conv1d(x, w, b)
    np.testing.assert_array_equal(out.data, [[[-2.0], [-2.0]]])


def test_conv1d_impulse_identity():
    rng = np.random.default_rng(1)
    x = ad.constant(rng.standard_normal((2, 9, 1)), dtype=np.float64)
    w = ad.constant([[[1.0]]], dtype=np.float64)
    b = ad.constant([0.0], dtype=np.float64)
    np.testing.assert_array_equal(ad.conv1d(x, w, b).data, x.data)


def test_conv1d_full_width_gives_length_one():
    rng = np.random.default_rng(2)
    x = ad.constant(rng.standard_normal((1, 5, 3)), dtype=np.float64)
    w = ad.constant(rng.standard_normal((2, 3, 5)), dtype=np.float64)
    b = ad.constant(np.zeros(2), dtype=np.float64)
    assert ad.conv1d(x, w, b).shape == (1, 1, 2)


def test_conv1d_shape_errors():
    x = ad.constant(np.ones((1, 4, 3)))
    w = ad.constant(np.ones((2, 5, 3)))
    b = ad.constant(np.zeros(2))
    with pytest.raises(ValueError, match="channel"):
        ad.conv1d(x, w, b)
    w2 = ad.constant(np.ones((2, 3, 6)))
    with pytest.raises(ValueError, match="length"):
        ad.conv1d(x, w2, b)
    with pytest.raises(ValueError, match=r"\[B, L, C_in\]"):
        ad.conv1d(ad.constant(np.ones((4, 3))), ad.constant(np.ones((2, 3, 2))), b)


def test_max_pool_example():
    out = ad.max_pool_time(ad.constant([[[1.0], [7.0], [3.0]]]))   # [B=1, L=3, C=1]
    np.testing.assert_array_equal(out.data, [[7.0]])


def test_max_pool_respects_lengths():
    x = ad.constant([[[1.0, 0.0], [9.0, 5.0]], [[2.0, 3.0], [-1.0, 8.0]]])   # [B, L, C]
    out = ad.max_pool_time(x, lengths=[1, 2])
    np.testing.assert_array_equal(out.data, [[1.0, 0.0], [2.0, 8.0]])


def test_cosine_examples():
    assert ad.cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0])).item() == pytest.approx(0.70710678, abs=1e-8)
    u = np.array([0.3, -1.2, 4.0])
    assert ad.cosine(u, u).item() == 1.0


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        c1 = ad.cosine(u, v).item()
        c2 = ad.cosine(1000.0 * u, v).item()
        assert abs(c1 - c2) <= 1e-12


def test_cosine_zero_norm_warns_and_returns_zero():
    with pytest.warns(RuntimeWarning, match="norm"):
        out = ad.cosine(np.zeros(4), np.ones(4))
    assert out.item() == 0.0


def test_layer_norm_constant_vector_is_zero_pre_affine():
    x = ad.constant(np.full((3, 6), 2.5), dtype=np.float64)
    gamma = ad.constant(np.ones(6), dtype=np.float64)
    beta = ad.constant(np.zeros(6), dtype=np.float64)
    out = ad.layer_norm(x, gamma, beta)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_relu_subgradient_zero_at_kink():
    x = ad.parameter([0.0, -1.0, 2.0], dtype=np.float64)
    out = ad.sum_(ad.relu(x))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_concat_errors():
    a = ad.constant(np.ones((2, 3)))
    b = ad.constant(np.ones((2, 4)))
    with pytest.raises(ValueError, match="axis .* out of range"):
        ad.concat([a, b], axis=2)
    with pytest.raises(ValueError, match="mismatch"):
        ad.concat([a, b], axis=0)


def test_embedding_out_of_range():
    table = ad.parameter(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="out of range"):
        ad.embedding(table, np.array([0, 4]))


def test_dropout_deterministic_given_seed():
    x = ad.parameter(np.ones((5, 5)), dtype=np.float64)
    a = ad.dropout(x, 0.4, np.random.default_rng(11)).data
    b = ad.dropout(x, 0.4, np.random.default_rng(11)).data
    np.testing.assert_array_equal(a, b)
    vals = np.unique(a)
    assert all(v == 0.0 or abs(v - 1.0 / 0.6) < 1e-12 for v in vals)


def test_dropout_rate_validation():
    x = ad.constant(np.ones(3))
    with pytest.raises(ValueError):
        ad.dropout(x, 1.0, np.random.default_rng(0))


def test_deep_graph_backward_is_iterative():
    x = ad.parameter([1.0], dtype=np.float64)
    out = x
    for _ in range(5000):
        out = out + 0.0
    ad.sum_(out).backward()
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_frees_inner_gradients():
    x = ad.parameter([1.0, -2.0], dtype=np.float64)
    y = ad.tanh(x)
    z = ad.sum_(y * y)
    z.backward()
    assert y.grad is None and z.grad is None
    np.testing.assert_allclose(x.grad, 2 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))
    z.backward()  # a second pass accumulates into the leaf, not into stale inner gradients
    np.testing.assert_allclose(x.grad, 4 * np.tanh(x.data) * (1 - np.tanh(x.data) ** 2))


def test_no_grad_builds_no_graph():
    x = ad.parameter(np.ones(3))
    with ad.no_grad():
        out = ad.relu(x)
    assert not out.requires_grad
    assert out._parents == ()


def _saved_float_dtypes(node):
    """dtypes of the float arrays a node's backward closure keeps alive."""
    out = set()
    for cell in node._backward.__closure__ or ():
        v = cell.cell_contents
        arrays = v if isinstance(v, (list, tuple)) else [v]
        for a in arrays:
            a = a.data if isinstance(a, ad.Tensor) else a
            if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                out.add(a.dtype)
    return out


def test_float32_stays_float32():
    rng = np.random.default_rng(4)

    def p32(*shape):
        return ad.parameter(rng.standard_normal(shape), dtype=np.float32)

    x, w, b = p32(2, 5, 3), p32(3, 4), p32(4)
    kernels = {
        "add": lambda: ad.add(x, 1.0),
        "mul": lambda: ad.mul(x, 0.5),
        "matmul": lambda: ad.matmul(p32(2, 3), w),
        "affine": lambda: ad.affine(x, w, b),
        "relu": lambda: ad.relu(x),
        "sigmoid": lambda: ad.sigmoid(x),
        "tanh": lambda: ad.tanh(x),
        "gelu": lambda: ad.gelu(x),
        "layer_norm": lambda: ad.layer_norm(x, p32(3), p32(3)),
        "dropout": lambda: ad.dropout(x, 0.3, np.random.default_rng(0)),
        "concat": lambda: ad.concat([x, x], axis=2),
        "reshape": lambda: ad.reshape(x, (10, 3)),
        "transpose": lambda: ad.transpose(x, (0, 2, 1)),
        "embedding": lambda: ad.embedding(w, np.array([0, 2])),
        "conv1d": lambda: ad.conv1d(x, p32(4, 3, 2), b),
        "max_pool_time": lambda: ad.max_pool_time(x, lengths=[2, 5]),
        "sum_": lambda: ad.sum_(x, axis=1),
        "mean_": lambda: ad.mean_(x, axis=1),
        "pairwise_cosine": lambda: ad.pairwise_cosine(p32(2, 3), p32(2, 3)),
    }
    for name, make in kernels.items():
        out = make()
        assert out.dtype == np.float32, name
        assert _saved_float_dtypes(out) <= {np.dtype(np.float32)}, name


# ---------------------------------------------------------------- gradient trials

def test_affine_gradients():
    rng = np.random.default_rng(10)
    for _ in range(TRIALS):
        n, m, batch = rng.integers(1, 6, size=3)
        x = p64(rng, batch, n)
        w = p64(rng, n, m)
        b = p64(rng, m)
        proj = rng.standard_normal((batch, m))
        assert_grads_match(lambda: ad.sum_(ad.affine(x, w, b) * proj), {"x": x, "w": w, "b": b}, rng)


def test_elementwise_gradients():
    rng = np.random.default_rng(11)
    ops = [ad.sigmoid, ad.tanh, ad.gelu]
    for _ in range(TRIALS):
        for op in ops:
            x = p64(rng, rng.integers(1, 5), rng.integers(1, 5))
            proj = rng.standard_normal(x.shape)
            assert_grads_match(lambda: ad.sum_(op(x) * proj), {"x": x}, rng)


def test_relu_gradients_away_from_kink():
    rng = np.random.default_rng(12)
    for _ in range(TRIALS):
        raw = rng.standard_normal((3, 4))
        raw = np.where(np.abs(raw) < 0.05, 0.2, raw)  # keep clear of the kink for FD
        x = ad.parameter(raw, dtype=np.float64)
        proj = rng.standard_normal(raw.shape)
        assert_grads_match(lambda: ad.sum_(ad.relu(x) * proj), {"x": x}, rng)


def test_layer_norm_gradients():
    rng = np.random.default_rng(13)
    for _ in range(TRIALS):
        rows, n = rng.integers(1, 5), rng.integers(2, 7)
        x = p64(rng, rows, n)
        gamma = ad.parameter(1.0 + 0.1 * rng.standard_normal(n), dtype=np.float64)
        beta = p64(rng, n)
        proj = rng.standard_normal((rows, n))
        assert_grads_match(lambda: ad.sum_(ad.layer_norm(x, gamma, beta) * proj),
                           {"x": x, "gamma": gamma, "beta": beta}, rng)


def test_dropout_gradients():
    rng = np.random.default_rng(14)
    for trial in range(TRIALS):
        x = p64(rng, 4, 3)
        proj = rng.standard_normal((4, 3))
        seed = 1000 + trial
        assert_grads_match(
            lambda: ad.sum_(ad.dropout(x, 0.3, np.random.default_rng(seed)) * proj), {"x": x}, rng)


def test_max_pool_gradients():
    rng = np.random.default_rng(15)
    for _ in range(TRIALS):
        c, length = rng.integers(1, 5), rng.integers(2, 7)
        raw = rng.standard_normal((1, length, c))
        raw += np.arange(length)[:, None] * 1e-2  # break near-ties so FD keeps the same argmax
        x = ad.parameter(raw, dtype=np.float64)
        proj = rng.standard_normal((1, c))
        assert_grads_match(lambda: ad.sum_(ad.max_pool_time(x) * proj), {"x": x}, rng)


def test_max_pool_batched_masked_gradients():
    rng = np.random.default_rng(16)
    for _ in range(TRIALS):
        b, c, length = rng.integers(1, 4), rng.integers(1, 4), rng.integers(3, 7)
        raw = rng.standard_normal((b, length, c)) + np.arange(length)[:, None] * 1e-2
        x = ad.parameter(raw, dtype=np.float64)
        lens = rng.integers(1, length + 1, size=b)
        proj = rng.standard_normal((b, c))
        assert_grads_match(lambda: ad.sum_(ad.max_pool_time(x, lengths=lens) * proj), {"x": x}, rng)


def test_concat_gradients():
    rng = np.random.default_rng(17)
    for _ in range(TRIALS):
        axis = int(rng.integers(0, 2))
        base = [3, 4]
        shapes = []
        for _ in range(3):
            s = list(base)
            s[axis] = int(rng.integers(1, 4))
            shapes.append(s)
        parts = {f"t{i}": p64(rng, *s) for i, s in enumerate(shapes)}
        out_shape = list(base)
        out_shape[axis] = sum(s[axis] for s in shapes)
        proj = rng.standard_normal(out_shape)
        assert_grads_match(lambda: ad.sum_(ad.concat(list(parts.values()), axis=axis) * proj), parts, rng)


def test_embedding_gradients():
    rng = np.random.default_rng(18)
    for _ in range(TRIALS):
        v, d = rng.integers(3, 8), rng.integers(1, 5)
        table = p64(rng, v, d)
        ids = rng.integers(0, v, size=(3, 2))
        proj = rng.standard_normal((3, 2, d))
        assert_grads_match(lambda: ad.sum_(ad.embedding(table, ids) * proj), {"table": table}, rng)


def test_conv1d_gradients():
    rng = np.random.default_rng(19)
    for _ in range(TRIALS):
        c_in, c_out = rng.integers(1, 4), rng.integers(1, 4)
        width = int(rng.integers(1, 4))
        length = int(rng.integers(width, width + 4))
        x = p64(rng, int(rng.integers(1, 3)), length, c_in)
        proj = rng.standard_normal((x.shape[0], length - width + 1, c_out))
        w = p64(rng, c_out, c_in, width)
        b = p64(rng, c_out)
        assert_grads_match(lambda: ad.sum_(ad.conv1d(x, w, b) * proj), {"x": x, "w": w, "b": b}, rng)


def test_cosine_gradients():
    rng = np.random.default_rng(20)
    done = 0
    while done < TRIALS:
        n = int(rng.integers(2, 7))
        u_raw = rng.standard_normal(n)
        v_raw = rng.standard_normal(n)
        denom = np.linalg.norm(u_raw) * np.linalg.norm(v_raw)
        if denom < 0.5 or abs(u_raw @ v_raw) / denom > 0.99:
            continue
        u = ad.parameter(u_raw, dtype=np.float64)
        v = ad.parameter(v_raw, dtype=np.float64)
        assert_grads_match(lambda: ad.cosine(u, v), {"u": u, "v": v}, rng)
        done += 1


def test_pairwise_cosine_gradients():
    rng = np.random.default_rng(21)
    for _ in range(TRIALS):
        b, e = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        u = ad.parameter(rng.standard_normal((b, e)) + 0.5, dtype=np.float64)
        v = ad.parameter(rng.standard_normal((b, e)) - 0.5, dtype=np.float64)
        proj = rng.standard_normal(b)
        assert_grads_match(lambda: ad.sum_(ad.pairwise_cosine(u, v) * proj), {"u": u, "v": v}, rng)


def test_shape_op_gradients():
    rng = np.random.default_rng(22)
    for _ in range(TRIALS):
        x = p64(rng, 3, 4, 2)
        proj = rng.standard_normal((2, 3, 4))

        def f():
            t = ad.transpose(x, (2, 1, 0))          # [2, 4, 3]
            t = ad.transpose(t, (0, 2, 1))          # [2, 3, 4]
            t = ad.reshape(t, (6, 4))
            t = ad.reshape(t, (2, 3, 4))
            return ad.sum_(t * proj) + ad.mean_(x)

        assert_grads_match(f, {"x": x}, rng)


def test_matmul_and_arith_gradients():
    rng = np.random.default_rng(23)
    for _ in range(TRIALS):
        n, k, m = (int(v) for v in rng.integers(1, 5, size=3))
        a = p64(rng, n, k)
        b = p64(rng, k, m)
        c = p64(rng, m)
        proj = rng.standard_normal((n, m))

        def f():
            t = ad.matmul(a, b) * 2.0 - 1.0
            t = t + c  # broadcast over rows
            t = t * c
            return ad.sum_(t * proj)

        assert_grads_match(f, {"a": a, "b": b, "c": c}, rng)
