"""Kernel-level checks: pinned examples plus finite-difference trials per kernel."""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import erf

import asmsim.autodiff as ad
from asmsim.optim import finite_diff_check

TRIALS = 20


def p64(rng, *shape):
    return ad.parameter(rng.standard_normal(shape), dtype=np.float64)


def assert_grads_match(f, params, rng):
    report = finite_diff_check(f, params, rel_tolerance=1e-4, rng=rng)
    assert report.passed, {k: c.max_rel_err for k, c in report.per_param.items()}


# ---------------------------------------------------------------- pinned examples

def lookup_grid(table, pos_table, ids, pos):
    """float64 [B, L, H] rows: the K token vectors, then the position vector,
    each a zero vector where its id is -1."""
    def rows(tab, idx):
        looked = np.asarray(tab, np.float64)[np.maximum(idx, 0)]
        return np.where((idx >= 0)[..., None], looked, 0.0)

    return np.concatenate([rows(table, ids).reshape(*ids.shape[:2], -1), rows(pos_table, pos)],
                          axis=2)


def ref_token_conv(table, pos_table, ids, pos, w):
    """float64 windowed loop over the explicit grid."""
    grid = lookup_grid(table, pos_table, ids, pos)
    w = np.asarray(w, np.float64)
    bsz, length, _ = grid.shape
    width = w.shape[1]
    out = np.empty((bsz, length - width + 1, w.shape[2]))
    for n in range(bsz):
        for t in range(length - width + 1):
            out[n, t] = np.einsum("hwc,wh->c", w, grid[n, t:t + width])
    return out


def c64(a):
    return ad.constant(np.asarray(a, dtype=np.float64))


def packed(ids, pos):
    """[B, L, K] ids and [B, L] positions packed end to end as [B * L, K] and
    [B * L], plus each function's [B] row count."""
    bsz, length = pos.shape
    return ids.reshape(bsz * length, -1), pos.reshape(-1), np.full(bsz, length)


def grid_conv(table, pos_table, ids, pos, w):
    """token_conv over B functions of L rows each -> [B, L - W + 1, C_out]."""
    bsz, length = pos.shape
    out = ad.token_conv(table, pos_table, *packed(ids, pos), w)
    return ad.reshape(out, (bsz, length - w.shape[1] + 1, -1))


def test_conv1d_example():
    """token_conv: d = 1, one token per row; the position tap reads pos 2, then pos -1 (zero)."""
    table = c64([[0.0], [1.0], [2.0], [3.0], [4.0]])
    pos_table = c64([[10.0], [20.0], [30.0], [40.0]])
    ids = np.array([[[1], [2], [3], [4]]])                  # [B=1, L=4, K=1]
    pos = np.array([[0, 1, 2, -1]])
    w = c64([[[1.0], [0.0], [-1.0]], [[0.0], [0.0], [1.0]]])  # [(K+1)*d=2, W=3, C_out=1]
    out = grid_conv(table, pos_table, ids, pos, w)
    np.testing.assert_array_equal(out.data, [[[28.0], [-2.0]]])


def test_conv1d_impulse_identity():
    """token_conv with an identity width-1 kernel returns the grid it never builds."""
    rng = np.random.default_rng(1)
    d, k = 2, 2
    table, pos_table = rng.standard_normal((6, d)), rng.standard_normal((9, d))
    ids = rng.integers(0, 6, size=(2, 9, k))
    pos = np.tile(np.arange(9), (2, 1))
    pos[1, 6:] = -1
    h = (k + 1) * d
    out = grid_conv(c64(table), c64(pos_table), ids, pos, c64(np.eye(h)[:, None, :]))
    np.testing.assert_array_equal(out.data, lookup_grid(table, pos_table, ids, pos))


def test_conv1d_full_width_gives_length_one():
    """token_conv over exactly W rows gives one output row."""
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 4, size=(1, 5, 2))
    out = grid_conv(c64(rng.standard_normal((4, 1))), c64(rng.standard_normal((5, 1))),
                    ids, np.arange(5)[None], c64(rng.standard_normal((3, 5, 2))))
    assert out.shape == (1, 1, 2)


def test_conv1d_shape_errors():
    """token_conv rejects mismatched shapes, functions shorter than the kernel,
    lengths short of or past the packed rows and out-of-range lookups."""
    table, pos_table = c64(np.ones((5, 2))), c64(np.ones((4, 2)))
    ids, pos, lengths = np.ones((4, 2), dtype=np.int64), np.arange(4), np.array([4])
    w = c64(np.ones((6, 2, 3)))

    def call(ids=ids, pos=pos, lengths=lengths, w=w, pos_table=pos_table):
        return ad.token_conv(table, pos_table, ids, pos, lengths, w)

    assert call().shape == (3, 3)
    assert call(lengths=np.array([2, 2])).shape == (2, 3)     # one window in each function
    with pytest.raises(ValueError, match="channel"):
        call(w=c64(np.ones((4, 2, 3))))
    with pytest.raises(ValueError, match="channel"):
        call(pos_table=c64(np.ones((4, 3))))
    with pytest.raises(ValueError, match="kernel width 5"):
        call(w=c64(np.ones((6, 5, 3))))           # 4 rows, a width-5 kernel
    # below the width 2, short of the 4 rows, past them, none at all
    for bad in ([1, 3], [3, 1], [3], [2], [2, 3], [4, 2], []):
        with pytest.raises(ValueError, match="lengths must be >= the kernel width 2 and sum to 4"):
            call(lengths=np.array(bad, dtype=np.int64))
    with pytest.raises(ValueError, match=r"\[N, K\]"):
        call(ids=ids[None])
    with pytest.raises(ValueError, match=r"pos \[N\]"):
        call(pos=pos[:3])
    with pytest.raises(ValueError, match=r"lengths \[B\]"):
        call(lengths=lengths[None])
    assert call(ids=np.full((4, 2), -1)).shape == (3, 3)     # -1: padding
    for bad in (5, -2):
        with pytest.raises(ValueError, match=r"token id out of range \[-1, 5\)"):
            call(ids=np.full((4, 2), bad))
    with pytest.raises(ValueError, match="position out of range"):
        call(pos=np.array([0, 1, -2, 3]))
    with pytest.raises(ValueError, match="position out of range"):
        call(pos=np.array([0, 1, 2, 4]))
    with pytest.raises(TypeError, match="integers"):
        call(ids=ids.astype(np.float64))
    with pytest.raises(TypeError, match="integers"):
        call(lengths=lengths.astype(np.float64))


def _lookup_case(rng, kind):
    """(ids [B, L, K], pos [B, L]) over a 7-token table and 6 positions."""
    k, width = 3, 4
    if kind == "random":
        ids = rng.integers(0, 7, size=(3, 9, k))
        pos = np.tile(np.minimum(np.arange(9), 5), (3, 1))
    elif kind == "pad_heavy":          # lengths 1, 2 and 9; the rest PAD ids and pos -1
        ids = np.zeros((3, 9, k), dtype=np.int64)
        pos = np.full((3, 9), -1)
        for n, length in enumerate((1, 2, 9)):
            ids[n, :length] = rng.integers(0, 7, size=(length, k))
            pos[n, :length] = np.minimum(np.arange(length), 5)
        ids[2, 4:, 1:] = 0             # PAD slots inside a live row too
    elif kind == "shorter_than_width":  # 2 instructions padded to the width
        ids = np.zeros((1, width, k), dtype=np.int64)
        ids[0, :2] = rng.integers(1, 7, size=(2, k))
        pos = np.array([[0, 1, -1, -1]])
    elif kind == "repeated_token":     # one token fills every slot
        ids = np.full((2, 6, k), 3)
        pos = np.tile(np.arange(6), (2, 1))
        pos[1, 4:] = -1
    elif kind == "long":               # 2,048 instructions, positions clamped
        ids = rng.integers(0, 7, size=(1, 2048, k))
        pos = np.minimum(np.arange(2048), 5)[None]
    elif kind == "pad_sentinel":       # -1 token ids, as a backbone packs PAD slots and rows
        ids = rng.integers(0, 7, size=(3, 9, k))
        pos = np.tile(np.minimum(np.arange(9), 5), (3, 1))
        ids[rng.random(ids.shape) < 0.4] = -1
        ids[1, 5:], pos[1, 5:] = -1, -1
    return ids, pos, k, width


TOKEN_CONV_CASES = ("random", "pad_heavy", "shorter_than_width", "repeated_token", "long",
                    "pad_sentinel")


@pytest.mark.parametrize("kind", TOKEN_CONV_CASES)
@pytest.mark.parametrize("dtype, rtol, atol", [(np.float64, 1e-10, 1e-12),
                                               (np.float32, 2e-4, 2e-6)])
def test_token_conv_matches_grid_reference(kind, dtype, rtol, atol):
    rng = np.random.default_rng(TOKEN_CONV_CASES.index(kind))
    ids, pos, k, width = _lookup_case(rng, kind)
    d, c_out = 2, 5
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in ((7, d), (6, d), ((k + 1) * d, width, c_out))]
    table, pos_table, w = (ad.constant(a) for a in arrays)
    out = grid_conv(table, pos_table, ids, pos, w)
    assert out.dtype == dtype
    np.testing.assert_allclose(out.data, ref_token_conv(*arrays[:2], ids, pos, arrays[2]),
                               rtol=rtol, atol=atol)


def test_token_conv_ragged_windows_stay_inside_each_function():
    """Functions of 4, 2 and 7 rows packed end to end, each window starting and
    ending inside one function, give each function's own convolution."""
    rng = np.random.default_rng(5)
    d, k, width, c_out = 2, 2, 2, 3
    arrays = [rng.standard_normal(s) for s in ((7, d), (8, d), ((k + 1) * d, width, c_out))]
    lengths = (4, 2, 7)
    ids = [rng.integers(0, 7, size=(n, k)) for n in lengths]
    pos = [np.arange(n) for n in lengths]
    out = ad.token_conv(*(c64(a) for a in arrays[:2]), np.concatenate(ids),
                        np.concatenate(pos), np.array(lengths), c64(arrays[2]))
    expected = np.concatenate([ref_token_conv(*arrays[:2], i[None], p[None], arrays[2])[0]
                               for i, p in zip(ids, pos)])
    np.testing.assert_allclose(out.data, expected, rtol=1e-10, atol=1e-12)


class _KernelSpy(np.ndarray):
    """An array that records itself, and every view of itself, when a ufunc
    (numpy's matmul, which `@` calls, included) reads it."""

    seen = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _KernelSpy.seen += [a for a in inputs if isinstance(a, _KernelSpy)]
        plain = [a.view(np.ndarray) if isinstance(a, _KernelSpy) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_token_conv_slot_kernels_are_views_of_w():
    """Each slot's kernel, in the forward and in the table gradients, is a view
    of w's own memory: no per-call re-layout copy."""
    rng = np.random.default_rng(6)
    d, k, width, c_out = 2, 3, 4, 5
    table, pos_table = p64(rng, 7, d), p64(rng, 6, d)
    w = p64(rng, (k + 1) * d, width, c_out)
    w.data = w.data.view(_KernelSpy)
    ids, pos = rng.integers(0, 7, size=(9, k)), np.minimum(np.arange(9), 5)
    _KernelSpy.seen = []
    out = ad.token_conv(table, pos_table, ids, pos, np.array([9]), w)
    ad.sum_(out).backward()
    assert len(_KernelSpy.seen) == 2 * (k + 1)        # K + 1 slots, forward and backward
    assert all(np.shares_memory(kern, w.data) for kern in _KernelSpy.seen)


def test_max_pool_example():
    """segment_max over one segment is the column max."""
    out = ad.segment_max(ad.constant([[1.0, 4.0], [7.0, -2.0], [3.0, 0.5]]), [3])
    np.testing.assert_array_equal(out.data, [[7.0, 4.0]])


def test_max_pool_respects_lengths():
    """Each segment pools over its own rows only, a one-row segment included."""
    x = ad.constant([[1.0, 0.0], [9.0, 5.0], [2.0, 3.0], [-1.0, 8.0], [0.5, -4.0]])
    out = ad.segment_max(x, np.array([1, 3, 1]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0], [9.0, 8.0], [0.5, -4.0]])


def test_segment_max_rejects_bad_segments():
    x = ad.constant(np.zeros((4, 2)))
    for lengths in ([2, 1], [2, 3], [0, 4], [5, -1], []):
        with pytest.raises(ValueError, match="segment lengths"):
            ad.segment_max(x, np.array(lengths, dtype=np.int64))
    with pytest.raises(TypeError, match="integer"):
        ad.segment_max(x, np.array([2.0, 2.0]))
    with pytest.raises(ValueError, match=r"\[R, C\]"):
        ad.segment_max(ad.constant(np.zeros((1, 4, 2))), np.array([4]))


def test_segment_max_ties_send_gradient_to_first():
    """Tied maxima: only the first row of each segment and column gets the gradient."""
    x = ad.parameter([[5.0, 1.0], [5.0, 2.0], [3.0, 2.0],     # segment 0: a tie in each column
                      [0.0, 0.0],                            # segment 1: one row
                      [1.0, 6.0], [4.0, 6.0], [4.0, 6.0]],   # segment 2: the first tie at row 1
                     dtype=np.float64)
    out = ad.segment_max(x, np.array([3, 1, 3]))
    np.testing.assert_array_equal(out.data, [[5.0, 2.0], [0.0, 0.0], [4.0, 6.0]])
    ad.sum_(out * np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).backward()
    expected = np.zeros((7, 2))
    expected[0, 0], expected[1, 1] = 1.0, 2.0
    expected[3] = [3.0, 4.0]
    expected[5, 0], expected[4, 1] = 5.0, 6.0
    np.testing.assert_array_equal(x.grad, expected)


def test_segment_max_nan_segment():
    """A NaN pools to NaN; the backward pass sends that column nothing and still
    routes the other segments' gradients."""
    x = ad.parameter([[1.0, 2.0], [np.nan, 0.0], [3.0, -1.0], [2.0, 5.0]], dtype=np.float64)
    out = ad.segment_max(x, np.array([2, 2]))
    np.testing.assert_array_equal(out.data, [[np.nan, 2.0], [3.0, 5.0]])
    ad.sum_(out * np.array([[1.0, 2.0], [3.0, 4.0]])).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 2.0], [0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


# caller order, unsorted, with a tie and a length of 1
LSTM_LENGTHS = np.array([7, 1, 4, 4, 2])


def lstm_case(rng, lengths, hid=3):
    """float64 xp [N, 4h] of functions of `lengths` rows packed end to end, and w_h [h, 4h]."""
    return p64(rng, int(np.sum(lengths)), 4 * hid), p64(rng, hid, 4 * hid)


def ref_lstm(xp, w_h, lengths):
    """float64 loop, one function and one step at a time."""
    hid = w_h.shape[0]
    out = np.zeros((len(lengths), hid))
    for b, (start, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
        h = c = np.zeros(hid)
        for t in range(n):
            z = xp[start + t] + h @ w_h
            i, f, o = (1.0 / (1.0 + np.exp(-z[k * hid:(k + 1) * hid])) for k in (0, 1, 3))
            c = f * c + i * np.tanh(z[2 * hid:3 * hid])
            h = o * np.tanh(c)
        out[b] = h
    return out


def test_lstm_matches_step_loop():
    rng = np.random.default_rng(40)
    for lengths in (LSTM_LENGTHS, np.array([3, 0, 5, 0]), np.array([1])):
        xp, w_h = lstm_case(rng, lengths)
        expected = ref_lstm(xp.data, w_h.data, lengths)
        np.testing.assert_allclose(ad.lstm(xp, w_h, lengths).data, expected,
                                   rtol=1e-12, atol=1e-14)
        with ad.no_grad():
            out = ad.lstm(xp, w_h, lengths)
        assert out._backward is None
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)


def test_lstm_rejects_bad_shapes_and_rows():
    xp, w_h = c64(np.zeros((6, 8))), c64(np.zeros((2, 8)))
    lengths = np.array([3, 3])
    assert ad.lstm(xp, w_h, lengths).shape == (2, 2)
    assert ad.lstm(xp, w_h, np.array([0, 6, 0])).shape == (3, 2)
    with pytest.raises(ValueError, match=r"xp \[N, 4h\] and w_h \[h, 4h\]"):
        ad.lstm(c64(np.zeros((6, 6))), w_h, lengths)
    with pytest.raises(ValueError, match=r"xp \[N, 4h\] and w_h \[h, 4h\]"):
        ad.lstm(c64(np.zeros((6, 12))), c64(np.zeros((2, 12))), lengths)
    # short of the 6 rows, past them, a negative length, none at all, not 1-D
    for bad in ([3, 2], [3, 4], [7, -1], [], [[3, 3]]):
        with pytest.raises(ValueError, match="summing to 6 rows"):
            ad.lstm(xp, w_h, np.array(bad, dtype=np.int64))
    with pytest.raises(TypeError, match="integers"):
        ad.lstm(xp, w_h, lengths.astype(float))


def test_embedding_gradient_distinct_and_repeated_ids():
    """Distinct, repeated and unordered ids accumulate like np.add.at, also
    when the table already holds a gradient. Id -1 reads a zero row and
    sends its gradient nowhere: not to the last row, which -1 indexes in numpy."""
    rng = np.random.default_rng(43)
    for ids in ([0, 2, 3, 5], [4], [3, 1, 3, 3], [2, 2], [5, 0], [[0, 2], [2, 5]],
                [-1, 2, -1], [-1], [[5, -1], [-1, 5]]):
        ids = np.array(ids)
        live = ids >= 0
        table = p64(rng, 6, 3)
        proj = rng.standard_normal(ids.shape + (3,))
        out = ad.embedding(table, ids)
        np.testing.assert_array_equal(out.data[~live], 0.0)
        np.testing.assert_array_equal(out.data[live], table.data[ids[live]])
        expected = np.zeros((6, 3))
        np.add.at(expected, ids[live], proj[live])
        for _ in range(2):
            ad.sum_(ad.embedding(table, ids) * proj).backward()
            np.testing.assert_array_equal(table.grad, expected)
            np.add.at(expected, ids[live], proj[live])


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
    for bad in (4, -2):
        with pytest.raises(ValueError, match=r"out of range \[-1, 4\)"):
            ad.embedding(table, np.array([0, bad]))


INV_SQRT2 = 1.0 / math.sqrt(2.0)    # a Python float keeps float32 arrays float32


def ref_mlp(x, w1, b1, w2, b2, rate, rng):
    """numpy affine -> gelu -> dropout -> affine -> dropout, drawing each
    inverted-dropout mask from rng as one rng.random over the layer's output."""
    def affine(v, w, b):
        return (v.reshape(-1, v.shape[-1]) @ w + b).reshape(*v.shape[:-1], w.shape[1])

    def drop(v):
        if not rate:
            return v
        keep = (rng.random(v.shape) >= rate).astype(v.dtype) / v.dtype.type(1.0 - rate)
        return v * keep

    h = affine(x, w1, b1)
    a = drop(h * (0.5 * (1.0 + erf(h * INV_SQRT2))))
    return drop(affine(a, w2, b2))


def mlp_args(rng, n, k, m, dtype):
    return [ad.parameter(rng.standard_normal(shape), dtype=dtype)
            for shape in ((n, k), (k,), (k, m), (m,))]


def test_mlp_matches_numpy_reference_bitwise():
    """float32, rate 0.1, from one seed: the node's forward is bit for bit the
    old composition's, on a transposed view (token mixing) and on a
    contiguous input (channel mixing)."""
    rng = np.random.default_rng(40)
    base = ad.parameter(rng.standard_normal((3, 7, 5)), dtype=np.float32)
    for x in (ad.transpose(base, (0, 2, 1)), base):
        params = mlp_args(rng, x.shape[-1], 9, 4, np.float32)
        out = ad.mlp(x, *params, 0.1, np.random.default_rng(41))
        want = ref_mlp(x.data, *(p.data for p in params), 0.1, np.random.default_rng(41))
        assert out.dtype == np.float32 and out.shape == x.shape[:-1] + (4,)
        np.testing.assert_array_equal(out.data, want)
        assert np.any(want == 0.0) and np.all(np.isfinite(want))


def test_mlp_deterministic_given_seed():
    rng = np.random.default_rng(42)
    x = ad.parameter(rng.standard_normal((6, 5)), dtype=np.float64)
    params = mlp_args(rng, 5, 8, 5, np.float64)
    a = ad.mlp(x, *params, 0.4, np.random.default_rng(11)).data
    b = ad.mlp(x, *params, 0.4, np.random.default_rng(11)).data
    c = ad.mlp(x, *params, 0.4, np.random.default_rng(12)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with ad.no_grad():     # rate 0 draws nothing: the same on a dead rng and on none
        np.testing.assert_array_equal(ad.mlp(x, *params, 0.0, None).data,
                                      ad.mlp(x, *params, 0.0, np.random.default_rng(0)).data)


def test_mlp_rate_and_rng_validation():
    rng = np.random.default_rng(43)
    x = ad.constant(np.ones((2, 3)))
    params = mlp_args(rng, 3, 4, 3, np.float64)
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match="rate"):
            ad.mlp(x, *params, rate, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs an RNG"):
        ad.mlp(x, *params, 0.1, None)
    with pytest.raises(ValueError, match="do not chain"):
        ad.mlp(x, *mlp_args(rng, 4, 4, 3, np.float64), 0.0, None)


def test_deep_graph_backward_is_iterative():
    x = ad.parameter([1.0], dtype=np.float64)
    out = x
    for _ in range(5000):
        out = out + 0.0
    ad.sum_(out).backward()
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_frees_inner_gradients():
    x = ad.parameter([1.0, -2.0], dtype=np.float64)
    y = x * x
    z = ad.sum_(y * y)
    z.backward()
    assert y.grad is None and z.grad is None
    np.testing.assert_allclose(x.grad, 4 * x.data ** 3)
    z.backward()  # a second pass accumulates into the leaf, not into stale inner gradients
    np.testing.assert_allclose(x.grad, 8 * x.data ** 3)


def test_no_grad_builds_no_graph():
    x = ad.parameter(np.ones((2, 3)))
    w1, b1, w2, b2 = mlp_args(np.random.default_rng(44), 3, 4, 2, np.float64)
    with ad.no_grad():
        outs = [ad.relu(x), ad.mlp(x, w1, b1, w2, b2, 0.0, None)]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == ()


def _saved_float_dtypes(node):
    """dtypes of the float arrays a node's backward closure keeps alive."""
    out = set()
    for cell in node._backward.__closure__ or ():
        v = cell.cell_contents
        arrays = v if isinstance(v, (list, tuple)) else [v]
        for a in arrays:
            a = a.data if isinstance(a, ad.Tensor) or sparse.issparse(a) else a
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
        "affine": lambda: ad.affine(x, w, b),
        "relu": lambda: ad.relu(x),
        "layer_norm": lambda: ad.layer_norm(x, p32(3), p32(3)),
        "mlp": lambda: ad.mlp(x, p32(3, 4), p32(4), p32(4, 2), p32(2), 0.3,
                              np.random.default_rng(0)),
        "concat": lambda: ad.concat([x, x], axis=2),
        "reshape": lambda: ad.reshape(x, (10, 3)),
        "transpose": lambda: ad.transpose(x, (0, 2, 1)),
        "embedding": lambda: ad.embedding(w, np.array([0, 2])),
        "token_conv": lambda: ad.token_conv(p32(6, 1), p32(5, 1), rng.integers(0, 6, (10, 2)),
                                            np.array([0, 1, 2, -1, -1, 0, 1, 2, 3, 4]),
                                            np.array([5, 5]), p32(3, 2, 4)),
        "segment_max": lambda: ad.segment_max(ad.reshape(x, (10, 3)), np.array([2, 1, 7])),
        "lstm": lambda: ad.lstm(p32(7, 8), p32(2, 8), np.array([3, 4])),
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


def identity_mlp_args(n):
    """Constant weights that make ad.mlp(x, ...) dropout(dropout(gelu(x)))."""
    eye, zero = ad.constant(np.eye(n)), ad.constant(np.zeros(n))
    return eye, zero, eye, zero


def test_elementwise_gradients():
    """The GELU alone: ad.mlp with identity weights at rate 0."""
    rng = np.random.default_rng(11)
    for _ in range(TRIALS):
        x = p64(rng, rng.integers(1, 5), rng.integers(1, 5))
        proj = rng.standard_normal(x.shape)
        args = identity_mlp_args(x.shape[1])
        assert_grads_match(lambda: ad.sum_(ad.mlp(x, *args, 0.0, None) * proj), {"x": x}, rng)


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
    """Both dropouts at rate 0.3, with identity weights so no GEMM mixes the masks."""
    rng = np.random.default_rng(14)
    args = identity_mlp_args(3)
    for trial in range(TRIALS):
        x = p64(rng, 4, 3)
        proj = rng.standard_normal((4, 3))
        seed = 1000 + trial
        assert_grads_match(
            lambda: ad.sum_(ad.mlp(x, *args, 0.3, np.random.default_rng(seed)) * proj),
            {"x": x}, rng)


def test_mlp_gradients():
    """Every input of the node, at rate 0 and at rate 0.3 (one seeded draw per
    call), on contiguous inputs and on transposed views."""
    rng = np.random.default_rng(14)
    for trial in range(TRIALS):
        rate = 0.0 if trial % 2 else 0.3
        b, s, c = rng.integers(1, 4, size=3)
        x = p64(rng, b, s, c)
        view = trial % 4 < 2
        lead, n = ((b, c), s) if view else ((b, s), c)
        m = int(rng.integers(1, 5))
        w1, b1, w2, b2 = mlp_args(rng, n, int(rng.integers(1, 6)), m, np.float64)
        proj = rng.standard_normal(lead + (m,))
        seed = 1000 + trial

        def f():
            inp = ad.transpose(x, (0, 2, 1)) if view else x
            out = ad.mlp(inp, w1, b1, w2, b2, rate, np.random.default_rng(seed))
            return ad.sum_(out * proj)

        assert_grads_match(f, {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2}, rng)


def test_max_pool_gradients():
    """segment_max over one segment of several rows."""
    rng = np.random.default_rng(15)
    for _ in range(TRIALS):
        c, length = rng.integers(1, 5), rng.integers(2, 7)
        raw = rng.standard_normal((length, c))
        raw += np.arange(length)[:, None] * 1e-2  # break near-ties so FD keeps the same argmax
        x = ad.parameter(raw, dtype=np.float64)
        proj = rng.standard_normal((1, c))
        assert_grads_match(lambda: ad.sum_(ad.segment_max(x, np.array([length])) * proj),
                           {"x": x}, rng)


def test_max_pool_ragged_gradients():
    """segment_max over ragged segments, one-row segments included."""
    rng = np.random.default_rng(16)
    for _ in range(TRIALS):
        c = rng.integers(1, 4)
        lens = rng.integers(1, 5, size=rng.integers(1, 5))
        lens[rng.integers(lens.size)] = 1
        raw = rng.standard_normal((lens.sum(), c)) + np.arange(lens.sum())[:, None] * 1e-2
        x = ad.parameter(raw, dtype=np.float64)
        proj = rng.standard_normal((lens.size, c))
        assert_grads_match(lambda: ad.sum_(ad.segment_max(x, lens) * proj), {"x": x}, rng)


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
    """token_conv: every case above, ids drawn from 7 tokens, so slots and rows share them."""
    rng = np.random.default_rng(19)
    for kind in (k for k in TOKEN_CONV_CASES if k != "long"):   # 2,048 rows: too many for FD
        for _ in range(TRIALS // 4):
            ids, pos, k, width = _lookup_case(rng, kind)
            d, c_out = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            params = {"table": p64(rng, 7, d), "pos_table": p64(rng, 6, d),
                      "w": p64(rng, (k + 1) * d, width, c_out)}
            proj = rng.standard_normal((ids.shape[0], ids.shape[1] - width + 1, c_out))
            assert_grads_match(lambda: ad.sum_(grid_conv(
                params["table"], params["pos_table"], ids, pos, params["w"]) * proj),
                params, rng)


def test_lstm_gradients():
    """Through lengths in caller order with a tie and a length of 1."""
    rng = np.random.default_rng(41)
    for _ in range(TRIALS // 4):
        xp, w_h = lstm_case(rng, LSTM_LENGTHS)
        proj = rng.standard_normal((len(LSTM_LENGTHS), w_h.shape[0]))
        assert_grads_match(lambda: ad.sum_(ad.lstm(xp, w_h, LSTM_LENGTHS) * proj),
                           {"xp": xp, "w_h": w_h}, rng)


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
    """Scaling, subtraction and tensor add and mul, broadcasting over rows."""
    rng = np.random.default_rng(23)
    for _ in range(TRIALS):
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        a = p64(rng, n, m)
        c = p64(rng, m)
        proj = rng.standard_normal((n, m))

        def f():
            t = a * 2.0 - 1.0
            t = t + c  # broadcast over rows
            t = t * c
            return ad.sum_(t * proj)

        assert_grads_match(f, {"a": a, "c": c}, rng)
