"""Kernel-level checks: pinned examples plus finite-difference trials per kernel."""

import itertools
import math
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.special import erf

import asmsim.autodiff as ad
from asmsim.models import BackboneConfig, build_backbone
from asmsim.synthetic import SynthConfig, generate
from asmsim.tokenizer import build_vocab, encode_function
from gradcheck import finite_diff_check, project

TRIALS = 20


def p64(rng, *shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


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
    return ad.Tensor(np.asarray(a, dtype=np.float64))


def packed(ids, pos):
    """[B, L, K] ids and [B, L] positions packed end to end as [B * L, K] and
    [B * L], plus each function's [B] row count."""
    bsz, length = pos.shape
    return ids.reshape(bsz * length, -1), pos.reshape(-1), np.full(bsz, length)


def grid_conv(table, pos_table, ids, pos, w):
    """token_conv over B functions of L rows each -> [B, L - W + 1, C_out]."""
    bsz, length = pos.shape
    out, = ad.token_conv(table, pos_table, *packed(ids, pos), [w])
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
        out, = ad.token_conv(table, pos_table, ids, pos, lengths, [w])
        return out

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
    table, pos_table, w = (ad.Tensor(a) for a in arrays)
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
    out, = ad.token_conv(*(c64(a) for a in arrays[:2]), np.concatenate(ids),
                         np.concatenate(pos), np.array(lengths), [c64(arrays[2])])
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
    out, = ad.token_conv(table, pos_table, ids, pos, np.array([9]), [w])
    project(out).backward()
    assert len(_KernelSpy.seen) == 2 * (k + 1)        # K + 1 slots, forward and backward
    assert all(np.shares_memory(kern, w.data) for kern in _KernelSpy.seen)


SHARED_WIDTHS = (5, 5, 5, 5, 3, 3)


def _shared_case(rng, kind):
    """(table [V, d], pos_table [P, d], ids [N, K], pos [N], lengths [B]) as
    float32 arrays and packed ids: a `_lookup_case`, each function padded with
    -1 rows up to the widest of SHARED_WIDTHS, or, for "wide_slot", 2,400
    rows whose second slot holds -1 among more than 800 distinct ids, where
    one row more or less in a GEMM's inner dimension moves its BLAS panels."""
    if kind == "wide_slot":
        ids = rng.integers(0, 2000, size=(1, 2400, 3))
        ids[0, rng.random(2400) < 0.3, 1] = -1
        assert np.unique(ids[0, :, 1]).size > 800
        pos = np.minimum(np.arange(2400), 511)[None]
    else:
        ids, pos, _, _ = _lookup_case(rng, kind)
        short = max(SHARED_WIDTHS) - pos.shape[1]
        if short > 0:
            ids = np.pad(ids, ((0, 0), (0, short), (0, 0)), constant_values=-1)
            pos = np.pad(pos, ((0, 0), (0, short)), constant_values=-1)
    d = 16
    table = rng.standard_normal((ids.max() + 1, d)).astype(np.float32)
    pos_table = rng.standard_normal((pos.max() + 1, d)).astype(np.float32)
    return (table, pos_table, *packed(ids, pos))


def per_kernel_conv(table, pos_table, ids, pos, lengths, w, g):
    """One kernel's convolution, its own index built for it, with a -1 id's
    zero rows kept in the sparse sums (how each bank ran before the banks
    shared an index). Returns the output and, for the output gradient g, the
    gradients of w, table and pos_table."""
    k, (_, width, c_out), d = ids.shape[1], w.shape, table.shape[1]
    starts = np.arange(ids.shape[0] - lengths.size * (width - 1))
    starts += np.repeat(np.arange(lengths.size) * (width - 1), lengths - (width - 1))
    rows = starts[:, None] + np.arange(width)
    kernels = w.reshape(k + 1, d, width * c_out)
    saved, projs, cols, n_proj = [], [], [], 0
    for s, (tab, sid) in enumerate([(table, ids[:, s]) for s in range(k)] + [(pos_table, pos)]):
        uniq, inv = np.unique(sid, return_inverse=True)
        v = tab[uniq]
        v[uniq < 0] = 0.0
        projs.append((v @ kernels[s]).reshape(-1, c_out))
        cols.append((n_proj + inv.reshape(-1)[rows] * width + np.arange(width)).astype(np.int32))
        saved.append((uniq, v))
        n_proj += uniq.size * width
    per_row = (k + 1) * width
    picks = sparse.csr_matrix(
        (np.ones(starts.size * per_row, dtype=w.dtype), np.concatenate(cols, axis=1).reshape(-1),
         np.arange(0, starts.size * per_row + 1, per_row, dtype=np.int32)),
        shape=(starts.size, n_proj))
    gproj = picks.T @ g
    gw = np.empty(kernels.shape, dtype=w.dtype)
    gtabs = [np.zeros_like(table), np.zeros_like(pos_table)]
    lo = 0
    for s, (uniq, v) in enumerate(saved):
        gp = gproj[lo:lo + uniq.size * width].reshape(uniq.size, width * c_out)
        lo += uniq.size * width
        np.matmul(v.T, gp, out=gw[s])
        live = uniq >= 0
        gtabs[s == k][uniq[live]] += (gp @ kernels[s].T)[live]
    return picks @ np.concatenate(projs), gw.reshape(w.shape), *gtabs


@pytest.mark.parametrize("kind", TOKEN_CONV_CASES + ("wide_slot",))
def test_token_conv_shared_banks_match_each_kernel_alone_bitwise(kind):
    """One token_conv over kernels of widths 5, 5, 5, 5, 3 and 3 gives each
    output, and the gradients of its kernel and of both tables through it,
    bit for bit as that kernel run alone and as `per_kernel_conv`, in
    float32; a backward through all the outputs at once gives each kernel the
    same gradient and each table the sum of the banks'."""
    rng = np.random.default_rng(len(kind))
    table, pos_table, ids, pos, lengths = _shared_case(rng, kind)
    c_in = (ids.shape[1] + 1) * table.shape[1]
    kernels = [rng.standard_normal((c_in, w, 20)).astype(np.float32) for w in SHARED_WIDTHS]
    projs = [rng.standard_normal((lengths.sum() - lengths.size * (w - 1), 20))
             for w in SHARED_WIDTHS]

    def run(banks, roots):
        """A fresh graph over the kernels `banks`: their outputs, and the
        gradients of both tables and of each kernel after one backward from
        the outputs of `roots`."""
        leaves = [ad.Tensor(a.copy(), requires_grad=True)
                  for a in (table, pos_table, *(kernels[i] for i in banks))]
        outs = dict(zip(banks, ad.token_conv(*leaves[:2], ids, pos, lengths, leaves[2:])))
        loss = project(outs[roots[0]], projs[roots[0]])
        for i in roots[1:]:
            loss = loss + project(outs[i], projs[i])
        loss.backward()
        return {i: o.data for i, o in outs.items()}, [leaf.grad for leaf in leaves]

    every = list(range(len(SHARED_WIDTHS)))
    shared, _ = run(every, [0])
    alone = {}
    for i in every:
        out, alone[i] = run([i], [i])
        assert out[i].dtype == np.float32
        assert out[i].tobytes() == shared[i].tobytes(), i
    for i in every:
        _, grads = run(every, [i])
        ref_out, ref_w, *ref_tables = per_kernel_conv(table, pos_table, ids, pos, lengths,
                                                      kernels[i], projs[i].astype(np.float32))
        assert shared[i].tobytes() == ref_out.tobytes(), i
        for got, want, ref in zip(grads[:2] + grads[2 + i:3 + i], alone[i], ref_tables + [ref_w]):
            assert got.tobytes() == want.tobytes() == ref.tobytes(), i
    _, grads = run(every, every)
    for i in every:
        assert grads[2 + i].tobytes() == alone[i][2].tobytes(), i
    for t in (0, 1):
        want = sum(alone[i][t] for i in every)
        np.testing.assert_allclose(grads[t], want, rtol=1e-5, atol=1e-6 * np.abs(want).max())


def test_token_conv_leaves_padding_out_of_its_sums(monkeypatch):
    """The sparse product of each width holds one entry per live (not -1)
    token or position in each window and none for a -1."""
    rng = np.random.default_rng(8)
    table, pos_table, ids, pos, lengths = _shared_case(rng, "pad_sentinel")
    picks = []
    real = sparse.csr_matrix.__matmul__

    def spy(self, other):
        picks.append(self)
        return real(self, other)

    c_in = (ids.shape[1] + 1) * table.shape[1]
    kernels = [ad.Tensor(np.ones((c_in, w, 2), dtype=np.float32)) for w in (5, 3)]
    monkeypatch.setattr(sparse.csr_matrix, "__matmul__", spy)
    list(ad.token_conv(ad.Tensor(table), ad.Tensor(pos_table), ids, pos, lengths, kernels))
    monkeypatch.undo()
    live = np.concatenate([ids, pos[:, None]], axis=1) >= 0
    ends = np.cumsum(lengths)
    for width, pw in zip((5, 3), picks):
        want = [live[lo + t:lo + t + width].sum()
                for lo, hi in zip(ends - lengths, ends) for t in range(hi - lo - width + 1)]
        np.testing.assert_array_equal(np.diff(pw.indptr), want)
        assert np.all(pw.data == 1.0)


def test_max_pool_example():
    """segment_max over one segment is the column max."""
    out = ad.segment_max(ad.Tensor([[1.0, 4.0], [7.0, -2.0], [3.0, 0.5]]), [3])
    np.testing.assert_array_equal(out.data, [[7.0, 4.0]])


def test_max_pool_respects_lengths():
    """Each segment pools over its own rows only, a one-row segment included."""
    x = ad.Tensor([[1.0, 0.0], [9.0, 5.0], [2.0, 3.0], [-1.0, 8.0], [0.5, -4.0]])
    out = ad.segment_max(x, np.array([1, 3, 1]))
    np.testing.assert_array_equal(out.data, [[1.0, 0.0], [9.0, 8.0], [0.5, -4.0]])


def test_segment_max_rejects_bad_segments():
    x = ad.Tensor(np.zeros((4, 2)))
    for lengths in ([2, 1], [2, 3], [0, 4], [5, -1], []):
        with pytest.raises(ValueError, match="segment lengths"):
            ad.segment_max(x, np.array(lengths, dtype=np.int64))
    with pytest.raises(TypeError, match="integer"):
        ad.segment_max(x, np.array([2.0, 2.0]))
    with pytest.raises(ValueError, match=r"\[R, C\]"):
        ad.segment_max(ad.Tensor(np.zeros((1, 4, 2))), np.array([4]))


def test_segment_max_ties_send_gradient_to_first():
    """Tied maxima: only the first row of each segment and column gets the gradient."""
    x = ad.Tensor([[5.0, 1.0], [5.0, 2.0], [3.0, 2.0],     # segment 0: a tie in each column
                   [0.0, 0.0],                            # segment 1: one row
                   [1.0, 6.0], [4.0, 6.0], [4.0, 6.0]],   # segment 2: the first tie at row 1
                  requires_grad=True, dtype=np.float64)
    out = ad.segment_max(x, np.array([3, 1, 3]))
    np.testing.assert_array_equal(out.data, [[5.0, 2.0], [0.0, 0.0], [4.0, 6.0]])
    project(out, np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])).backward()
    expected = np.zeros((7, 2))
    expected[0, 0], expected[1, 1] = 1.0, 2.0
    expected[3] = [3.0, 4.0]
    expected[5, 0], expected[4, 1] = 5.0, 6.0
    np.testing.assert_array_equal(x.grad, expected)


def test_segment_max_nan_segment():
    """A NaN pools to NaN; the backward pass sends that column nothing and still
    routes the other segments' gradients."""
    x = ad.Tensor([[1.0, 2.0], [np.nan, 0.0], [3.0, -1.0], [2.0, 5.0]],
                  requires_grad=True, dtype=np.float64)
    out = ad.segment_max(x, np.array([2, 2]))
    np.testing.assert_array_equal(out.data, [[np.nan, 2.0], [3.0, 5.0]])
    project(out, np.array([[1.0, 2.0], [3.0, 4.0]])).backward()
    np.testing.assert_array_equal(x.grad, [[0.0, 2.0], [0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])


# caller order, unsorted, with a tie and a length of 1
LSTM_LENGTHS = np.array([7, 1, 4, 4, 2])


def lstm_case(rng, lengths, hid=3):
    """float64 xp [N, 4h] of functions of `lengths` rows packed end to end,
    w_h [h, 4h] and b [4h]."""
    return p64(rng, int(np.sum(lengths)), 4 * hid), p64(rng, hid, 4 * hid), p64(rng, 4 * hid)


def ref_lstm(xp, w_h, b, lengths):
    """float64 loop, one function and one step at a time."""
    hid = w_h.shape[0]
    out = np.zeros((len(lengths), hid))
    for j, (start, n) in enumerate(zip(np.cumsum(lengths) - lengths, lengths)):
        h = c = np.zeros(hid)
        for t in range(n):
            z = xp[start + t] + b + h @ w_h
            i, f, o = (1.0 / (1.0 + np.exp(-z[k * hid:(k + 1) * hid])) for k in (0, 1, 3))
            c = f * c + i * np.tanh(z[2 * hid:3 * hid])
            h = o * np.tanh(c)
        out[j] = h
    return out


def test_lstm_matches_step_loop():
    rng = np.random.default_rng(40)
    for lengths in (LSTM_LENGTHS, np.array([3, 0, 5, 0]), np.array([1])):
        xp, w_h, b = lstm_case(rng, lengths)
        expected = ref_lstm(xp.data, w_h.data, b.data, lengths)
        np.testing.assert_allclose(ad.lstm(xp, w_h, b, lengths).data, expected,
                                   rtol=1e-12, atol=1e-14)
        with ad.no_grad():
            out = ad.lstm(xp, w_h, b, lengths)
        assert out.node is None
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-14)


def test_lstm_backward_flushes_subnormal_gradients(monkeypatch):
    """Over a long recurrence the gradients decay into float32 subnormals; the
    backward zeroes them and otherwise matches a backward that keeps them."""
    rng = np.random.default_rng(44)
    hid, lengths = 16, np.array([320, 40, 300])
    tiny = np.finfo(np.float32).tiny

    def p32(a):
        return ad.Tensor(a, requires_grad=True, dtype=np.float32)

    def grads():
        xp = p32(rng.standard_normal((int(lengths.sum()), 4 * hid)))
        w_h = p32(0.1 * rng.standard_normal((hid, 4 * hid)))
        b = p32(np.zeros(4 * hid))
        proj = rng.standard_normal((len(lengths), hid)).astype(np.float32)
        project(ad.lstm(xp, w_h, b, lengths), proj).backward()
        return [p.grad for p in (xp, w_h, b)]

    def subnormals(g):
        return int(((g != 0) & (np.abs(g) < tiny)).sum())

    state = rng.bit_generator.state
    flushed = grads()
    rng.bit_generator.state = state
    monkeypatch.setattr(ad, "_flush_subnormal", lambda x: x)
    kept = grads()
    assert subnormals(kept[0]) > 0                  # the case reaches subnormals at all
    for f, k in zip(flushed, kept):
        assert f.dtype == np.float32 and subnormals(f) == 0
        np.testing.assert_allclose(f, k, atol=1e-36)


def test_lstm_rejects_bad_shapes_and_rows():
    xp, w_h, b = c64(np.zeros((6, 8))), c64(np.zeros((2, 8))), c64(np.zeros(8))
    lengths = np.array([3, 3])
    assert ad.lstm(xp, w_h, b, lengths).shape == (2, 2)
    assert ad.lstm(xp, w_h, b, np.array([0, 6, 0])).shape == (3, 2)
    shapes = r"xp \[N, 4h\], w_h \[h, 4h\] and b \[4h\]"
    with pytest.raises(ValueError, match=shapes):
        ad.lstm(c64(np.zeros((6, 6))), w_h, b, lengths)
    with pytest.raises(ValueError, match=shapes):
        ad.lstm(c64(np.zeros((6, 12))), c64(np.zeros((2, 12))), c64(np.zeros(12)), lengths)
    for bad_b in (np.zeros(6), np.zeros((1, 8)), np.zeros(())):
        with pytest.raises(ValueError, match=shapes):
            ad.lstm(xp, w_h, c64(bad_b), lengths)
    # short of the 6 rows, past them, a negative length, none at all, not 1-D
    for bad in ([3, 2], [3, 4], [7, -1], [], [[3, 3]]):
        with pytest.raises(ValueError, match="summing to 6 rows"):
            ad.lstm(xp, w_h, b, np.array(bad, dtype=np.int64))
    with pytest.raises(TypeError, match="integers"):
        ad.lstm(xp, w_h, b, lengths.astype(float))


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
            project(ad.embedding(table, ids), proj).backward()
            np.testing.assert_array_equal(table.grad, expected)
            np.add.at(expected, ids[live], proj[live])


def row(values):
    """One float64 [1, E] row that takes a gradient: a pair side of a batch of one pair."""
    return ad.Tensor(np.asarray(values, dtype=np.float64).reshape(1, -1), requires_grad=True)


def cosine(u, v):
    """The pair loss's cosine of the rows u and v where it is above 0: a
    negative pair at margin 0 costs exactly its cosine."""
    return ad.cosine_pair_loss_batch(u, v, [-1], margin=0.0).item()


def test_cosine_examples():
    """A 45-degree pair, and bitwise-identical rows at exactly 1 with no gradient."""
    assert cosine(row([1.0, 0.0]), row([1.0, 1.0])) == pytest.approx(0.70710678, abs=1e-8)
    u, v = row([0.3, -1.2, 4.0]), row([0.3, -1.2, 4.0])
    assert cosine(u, v) == 1.0
    loss = ad.cosine_pair_loss_batch(u, v, [1])
    assert loss.item() == 0.0
    loss.backward()
    np.testing.assert_array_equal(u.grad, 0.0)
    np.testing.assert_array_equal(v.grad, 0.0)


def test_cosine_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        for y in (1, -1):
            c1 = ad.cosine_pair_loss_batch(row(u), row(v), [y], margin=0.0).item()
            c2 = ad.cosine_pair_loss_batch(row(1000.0 * u), row(v), [y], margin=0.0).item()
            assert abs(c1 - c2) <= 1e-12


def test_cosine_zero_norm_warns_and_returns_zero():
    """A zero row has cosine 0, so a positive pair costs 1, and takes no gradient."""
    u, v = row(np.zeros(4)), row(np.ones(4))
    with pytest.warns(RuntimeWarning, match="norm"):
        out = ad.cosine_pair_loss_batch(u, v, [1])
    assert out.item() == 1.0
    out.backward()
    np.testing.assert_array_equal(u.grad, 0.0)
    np.testing.assert_array_equal(v.grad, 0.0)


def ref_pair_loss(u, v, ys, margin):
    """float64 closed form: the mean pair loss and the gradients of both
    sides; a row of norm below 1e-8 gives cosine 0 and identical rows give 1,
    neither with a gradient."""
    nu, nv = np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)
    degenerate = (nu < 1e-8) | (nv < 1e-8)
    identical = ~degenerate & np.all(u == v, axis=1)
    live = ~degenerate & ~identical
    nu, nv = np.where(live, nu, 1.0)[:, None], np.where(live, nv, 1.0)[:, None]
    cos = np.clip(np.einsum("be,be->b", u / nu, v / nv), -1.0, 1.0)
    cos = np.where(live, cos, np.where(identical, 1.0, 0.0))
    active = (ys < 0) & (cos > margin)
    loss = np.where(ys > 0, 1.0 - cos, np.where(active, cos - margin, 0.0)).mean()
    dcos = (np.where(ys > 0, -1.0, np.where(active, 1.0, 0.0)) * live / len(ys))[:, None]
    c = cos[:, None]
    return loss, dcos * (v / nv - c * u / nu) / nu, dcos * (u / nu - c * v / nv) / nv


def test_pair_loss_matches_float64_reference():
    """The loss and both sides' gradients to rtol 1e-10, through the gathers
    a training step runs: functions repeated across pairs and sides, a zero
    row (with its warning) and bitwise-identical rows."""
    rng = np.random.default_rng(24)
    for _ in range(TRIALS):
        e, b = int(rng.integers(2, 6)), int(rng.integers(4, 12))
        table = rng.standard_normal((6, e))
        table[0] = 0.0
        ids = rng.integers(0, 6, size=(2, b))
        ids[:, :2] = [[3, 0], [3, 2]]           # identical rows, then a zero row
        ys = rng.choice([1, -1], size=b)
        margin = float(rng.uniform(0.0, 0.5))
        emb = ad.Tensor(table, requires_grad=True)
        with pytest.warns(RuntimeWarning, match="norm"):
            loss = ad.cosine_pair_loss_batch(ad.embedding(emb, ids[0]), ad.embedding(emb, ids[1]),
                                             ys, margin)
        loss.backward()
        want, gu, gv = ref_pair_loss(table[ids[0]], table[ids[1]], ys, margin)
        grad = np.zeros_like(table)
        np.add.at(grad, ids[0], gu)
        np.add.at(grad, ids[1], gv)
        np.testing.assert_allclose(loss.item(), want, rtol=1e-10)
        np.testing.assert_allclose(emb.grad, grad, rtol=1e-10, atol=1e-14)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pair_loss_without_active_pairs_has_zero_gradients(dtype):
    """Identical positives and negatives under the margin: the loss is 0 and
    both sides' gradients are exact zeros."""
    rng = np.random.default_rng(25)
    u = rng.standard_normal((6, 5)).astype(dtype)
    ys = np.array([1, -1, -1, 1, -1, -1])
    v = np.where(ys[:, None] > 0, u, -u + 0.1 * rng.standard_normal((6, 5)).astype(dtype))
    e1, e2 = ad.Tensor(u, requires_grad=True), ad.Tensor(v, requires_grad=True)
    loss = ad.cosine_pair_loss_batch(e1, e2, ys)
    assert loss.item() == 0.0
    loss.backward()
    for g in (e1.grad, e2.grad):
        assert g.dtype == dtype
        np.testing.assert_array_equal(g, 0.0)


def generic_graph_pair_loss(u, v, ys, margin):
    """float32 numpy, op for op, the pair loss as a graph of generic kernels:
    the pairwise cosine, 0/1 label masks, 1 + (-1 * cos),
    relu(cos + -1 * margin), the masked sum over pairs, the sum and its scale
    by 1/B; then that graph's backward from a gradient of 1. Returns (loss,
    u's gradient, v's gradient)."""
    f = np.float32
    dot = (u * v).sum(axis=1)
    nu, nv = np.sqrt((u * u).sum(axis=1)), np.sqrt((v * v).sum(axis=1))
    degenerate = (nu < 1e-8) | (nv < 1e-8)
    identical = ~degenerate & np.all(u == v, axis=1)
    denom = np.where(degenerate, f(1.0), nu * nv)
    cos = np.clip(dot / denom, f(-1.0), f(1.0))
    cos = np.where(identical, f(1.0), np.where(degenerate, f(0.0), cos))
    live = (~degenerate & ~identical).astype(f)
    pos, neg = (ys > 0).astype(f), (ys < 0).astype(f)
    hinge = cos + f(margin) * f(-1.0)
    mask = hinge > 0
    per_pair = pos * (f(1.0) + cos * f(-1.0)) + neg * np.where(mask, hinge, f(0.0))
    inv_b = f(1.0 / len(ys))
    loss = per_pair.sum() * inv_b
    g = np.full(len(ys), f(1.0) * inv_b)              # the scale's backward, broadcast by the sum's
    g_cos = (g * pos) * f(-1.0) + (g * neg) * mask
    scale = (g_cos * live / denom)[:, None]
    cn, dn = cos[:, None], denom[:, None]
    nu2 = np.where(nu < 1e-8, f(1.0), nu * nu)[:, None]
    nv2 = np.where(nv < 1e-8, f(1.0), nv * nv)[:, None]
    return loss, scale * (v - cn * dn * u / nu2), scale * (u - cn * dn * v / nv2)


def test_pair_loss_float32_bits_match_the_generic_graph():
    """float32, as training runs: the loss and both sides' gradients are bit
    for bit those of the loss built from generic kernels, the operation order
    that seeded runs were recorded with, over a batch with both labels,
    negatives on both sides of the margin, a zero row and identical rows."""
    rng = np.random.default_rng(26)
    for margin in (0.0, 0.3, 0.9):
        u = rng.standard_normal((64, 16)).astype(np.float32)
        v = (0.8 * u + 0.6 * rng.standard_normal((64, 16))).astype(np.float32)
        v[:8] *= -1.0
        u[5], v[9] = 0.0, u[9]
        ys = rng.choice([1, -1], size=64)
        e1, e2 = ad.Tensor(u, requires_grad=True), ad.Tensor(v, requires_grad=True)
        with pytest.warns(RuntimeWarning, match="norm"):
            loss = ad.cosine_pair_loss_batch(e1, e2, ys, margin)
        loss.backward()
        want = generic_graph_pair_loss(u, v, ys, margin)
        for got, ref in zip((loss.data, e1.grad, e2.grad), want):
            assert got.dtype == np.float32 and got.shape == np.shape(ref)
            np.testing.assert_array_equal(got, ref, err_msg=str(margin))


def test_pair_loss_is_one_node_over_both_sides():
    rng = np.random.default_rng(27)
    table = p64(rng, 5, 3)
    e1, e2 = ad.embedding(table, [0, 1, 2]), ad.embedding(table, [3, 4, 0])
    loss = ad.cosine_pair_loss_batch(e1, e2, [1, -1, -1])
    assert loss.shape == () and loss.node.parents == (e1.node, e2.node)


def test_pair_loss_nan_propagates():
    """A NaN row makes the loss NaN, on a positive pair and on a negative one."""
    for y in (1, -1):
        assert np.isnan(ad.cosine_pair_loss_batch(row([np.nan, 1.0]), row([1.0, 0.0]), [y]).item())


def test_layer_norm_constant_vector_is_zero_pre_affine():
    x = ad.Tensor(np.full((3, 6), 2.5), dtype=np.float64)
    gamma = ad.Tensor(np.ones(6), dtype=np.float64)
    beta = ad.Tensor(np.zeros(6), dtype=np.float64)
    out = ad.layer_norm(x, gamma, beta)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def ref_layer_norm(x, gamma, beta, g, eps=1e-5):
    """The one-shot whole-array layer norm: its output and the gradients of
    x, gamma and beta for the upstream gradient g."""
    n = x.shape[-1]
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return (gamma * xhat + beta, inv_std * (dxhat - m1 - xhat * m2),
            (g * xhat).reshape(-1, n).sum(axis=0), g.reshape(-1, n).sum(axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_blocks_match_one_shot_bitwise(dtype):
    """Row blocks give the one-shot formula's output and gradients bit for
    bit: at 0 and 1 rows, one row short of and past a block, over leading
    axes, and with rows wider than a block."""
    rng = np.random.default_rng(46)
    step = ad._BLOCK // 96
    for shape in ((0, 96), (1, 96), (step - 1, 96), (step + 1, 96), (3, step // 2, 96),
                  (3, ad._BLOCK + 5)):
        x, g = (rng.standard_normal(shape).astype(dtype) * 3 + 1 for _ in range(2))
        gamma, beta = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
        params = [ad.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
        out = ad.layer_norm(*params)
        project(out, g).backward()
        with ad.no_grad():
            inference = ad.layer_norm(*params).data
        want = ref_layer_norm(x, gamma, beta, g)
        got = (out.data, *(p.grad for p in params))
        for name, a, b in zip(("out", "x", "gamma", "beta"), got, want):
            assert a.dtype == dtype and a.shape == b.shape, (shape, name)
            np.testing.assert_array_equal(a, b, err_msg=f"{shape} {name}")
        np.testing.assert_array_equal(inference, want[0])


def test_relu_subgradient_zero_at_kink():
    x = ad.Tensor([0.0, -1.0, 2.0], requires_grad=True, dtype=np.float64)
    out = project(ad.relu(x))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def test_concat_errors():
    a = ad.Tensor(np.ones((2, 3)))
    b = ad.Tensor(np.ones((2, 4)))
    with pytest.raises(ValueError, match="axis .* out of range"):
        ad.concat([a, b], axis=2)
    with pytest.raises(ValueError, match="mismatch"):
        ad.concat([a, b], axis=0)


def test_embedding_out_of_range():
    table = ad.Tensor(np.zeros((4, 2)), requires_grad=True, dtype=np.float32)
    for bad in (4, -2):
        with pytest.raises(ValueError, match=r"out of range \[-1, 4\)"):
            ad.embedding(table, np.array([0, bad]))


INV_SQRT2 = 1.0 / math.sqrt(2.0)    # a Python float keeps float32 arrays float32


def ref_mlp(x, w1, b1, w2, b2, rate, rng):
    """numpy affine -> gelu -> dropout -> affine -> dropout, drawing each
    inverted-dropout mask from rng as one rng.random over the layer's output;
    b2 None is a second affine without bias."""
    def affine(v, w, b):
        out = v.reshape(-1, v.shape[-1]) @ w
        return (out if b is None else out + b).reshape(*v.shape[:-1], w.shape[1])

    def drop(v):
        if not rate:
            return v
        keep = (rng.random(v.shape) >= rate).astype(v.dtype) / v.dtype.type(1.0 - rate)
        return v * keep

    h = affine(x, w1, b1)
    a = drop(h * ref_cdf(h))
    return drop(affine(a, w2, b2))


def ref_cdf(h):
    """The GELU gate 0.5 (1 + erf(h / sqrt(2))): float32 through the kernel's
    rational erf, which test_gelu_cdf_float32_accuracy holds to float64 scipy,
    every other dtype through scipy."""
    if h.dtype == np.float32:
        return ad._gelu_cdf(h, *(np.empty_like(h) for _ in range(3)))
    return 0.5 * (1.0 + erf(h * INV_SQRT2))


def test_gelu_cdf_float32_accuracy():
    """The float32 GELU gate against float64 scipy on 2^22 + 1 evenly spaced
    points in [-8, 8], plus signed zeros, infinities, NaN and subnormals:
    within 2.5e-7 (scipy's erf in float32 reads 6.1e-8), in [0, 1] everywhere,
    and exact at the special values."""
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e-40, -1e-40],
                       dtype=np.float32)
    h = np.concatenate([np.linspace(-8.0, 8.0, (1 << 22) + 1, dtype=np.float32), special])
    cdf = ref_cdf(h)
    want = 0.5 * (1.0 + erf(h.astype(np.float64) * INV_SQRT2))
    assert cdf.dtype == np.float32
    live = ~np.isnan(h)
    assert np.abs(cdf[live] - want[live]).max() <= 2.5e-7
    assert cdf[live].min() >= 0.0 and cdf[live].max() <= 1.0
    np.testing.assert_array_equal(cdf[-special.size:],
                                  [0.5, 0.5, 1.0, 0.0, np.nan, 0.5, 0.5, 0.5, 0.5])


def mlp_args(rng, n, k, m, dtype):
    return [ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
            for shape in ((n, k), (k,), (k, m), (m,))]


def norm_args(rng, x, k, m, dtype, mix_tokens=False):
    """gamma, beta, w1, b1, w2, b2 for a `norm_mlp` over x with k hidden units
    and m outputs; gamma near 1."""
    n = x.shape[-1]
    gamma = ad.Tensor(1.0 + 0.1 * rng.standard_normal(n), requires_grad=True, dtype=dtype)
    beta = ad.Tensor(rng.standard_normal(n), requires_grad=True, dtype=dtype)
    return [gamma, beta, *mlp_args(rng, x.shape[-2] if mix_tokens else n, k, m, dtype)]


INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def transpose(x, axes):
    """A node that permutes x's axes, as a view; the library needs none."""
    inv = np.argsort(axes)
    return ad._node(np.transpose(x.data, axes), (x,),
                    lambda g: ad._accum(x.node, np.transpose(g, inv), own=True))


def ref_mlp_node(x, w1, b1, w2, b2, rate, rng):
    """The MLP alone as one node, on whole arrays, with the float operations of
    the kernel that ran it before the layer norm joined it: it keeps x's data
    and the GELU's cdf, and draws each dropout mask as one rng.random over its
    layer's output."""
    dt = x.dtype
    inv_keep = dt.type(1.0) / dt.type(1.0 - rate)
    x2 = x.data.reshape(-1, x.shape[-1])
    h = x2 @ w1.data
    h += b1.data
    cdf = ref_cdf(h)

    def gelu_dropped():
        a = h * cdf
        if rate:
            a *= mask1
            a *= inv_keep
        return a

    mask1 = rng.random(h.shape) >= rate if rate else None
    y = gelu_dropped() @ w2.data
    if b2 is not None:
        y += b2.data
    if rate:
        mask2 = rng.random(y.shape) >= rate
        y *= mask2
        y *= inv_keep

    def backward(g):
        g2 = g.reshape(-1, y.shape[1]).copy()
        if rate:
            g2 *= mask2
            g2 *= inv_keep
        ad._accum(w2.node, gelu_dropped().T @ g2)
        if b2 is not None:
            ad._accum(b2.node, g2.sum(axis=0))
        gh = g2 @ w2.data.T
        if rate:
            gh *= mask1
            gh *= inv_keep
        slope = h * -0.5                 # cdf + h * pdf
        slope *= h
        np.exp(slope, out=slope)
        slope *= INV_SQRT_2PI
        slope *= h
        slope += cdf
        gh *= slope
        ad._accum(w1.node, x2.T @ gh)
        ad._accum(b1.node, gh.sum(axis=0))
        ad._accum(x.node, (gh @ w1.data.T).reshape(x.shape))

    inputs = (x, w1, b1, w2) + (() if b2 is None else (b2,))
    return ad._node(y.reshape(*x.shape[:-1], -1), inputs, backward)


def unfused_norm_mlp(x, gamma, beta, w1, b1, w2, b2, rate, rng, mix_tokens=False):
    """`layer_norm`, then the MLP as a node of its own, turned over the tokens
    and back by transpose nodes: the graph `norm_mlp` replaces."""
    u = ad.layer_norm(x, gamma, beta)
    if mix_tokens:
        u = transpose(u, (0, 2, 1))
    out = ref_mlp_node(u, w1, b1, w2, b2, rate, rng)
    return transpose(out, (0, 2, 1)) if mix_tokens else out


def test_mlp_matches_numpy_reference_bitwise():
    """float32, rate 0.1, from one seed: the node's forward is bit for bit the
    whole-array composition's, a one-shot layer norm and then the MLP with
    the same GELU gate, over the tokens and over the channels, with and
    without the output bias."""
    rng = np.random.default_rng(40)
    x = ad.Tensor(rng.standard_normal((3, 7, 5)), requires_grad=True, dtype=np.float32)
    for mix_tokens, out_bias in itertools.product((True, False), (True, False)):
        params = norm_args(rng, x, 9, 4, np.float32, mix_tokens)
        if not out_bias:
            params[5] = None
        out = ad.norm_mlp(x, *params, 0.1, np.random.default_rng(41), mix_tokens=mix_tokens)
        gamma, beta, *mlp = (None if p is None else p.data for p in params)
        u = ref_layer_norm(x.data, gamma, beta, x.data)[0]
        if mix_tokens:
            u = u.transpose(0, 2, 1)
        want = ref_mlp(u, *mlp, 0.1, np.random.default_rng(41))
        if mix_tokens:
            want = want.transpose(0, 2, 1)
        assert out.dtype == np.float32 and out.shape == want.shape
        np.testing.assert_array_equal(out.data, want)
        assert np.any(want == 0.0) and np.all(np.isfinite(want))


@pytest.mark.parametrize("block", [None, 48])
def test_norm_mlp_matches_unfused_reference_bitwise(block, monkeypatch):
    """float32: the node's output and the gradients of all its inputs are bit
    for bit those of `layer_norm` followed by the MLP as its own node, at
    rates 0 and 0.1 from one seed, mixing channels and tokens, with and
    without the output bias; at the default block size and at blocks of a few
    rows, against the reference's whole arrays."""
    if block is not None:
        monkeypatch.setattr(ad, "_BLOCK", block)
    rng = np.random.default_rng(40)
    x = ad.Tensor(rng.standard_normal((3, 7, 5)) * 2 + 0.5, requires_grad=True,
                  dtype=np.float32)
    for rate, mix_tokens, out_bias in itertools.product((0.0, 0.1), (True, False), (True, False)):
        params = norm_args(rng, x, 9, 4, np.float32, mix_tokens)
        if not out_bias:
            params[5] = None
        leaves = [t for t in (x, *params) if t is not None]
        proj = rng.standard_normal((3, 4, 5) if mix_tokens else (3, 7, 4)).astype(np.float32)
        results = []
        for kernel in (ad.norm_mlp, unfused_norm_mlp):
            for t in leaves:
                t.grad = None
            out = kernel(x, *params, rate, np.random.default_rng(41), mix_tokens=mix_tokens)
            project(out, proj).backward()
            results.append([out.data] + [t.grad for t in leaves])
        case = (rate, mix_tokens, out_bias)
        assert results[0][0].shape == proj.shape, case
        for got, want in zip(*results):
            assert got.dtype == np.float32 and got.shape == want.shape, case
            np.testing.assert_array_equal(got, want, err_msg=str(case))
        assert np.all(np.isfinite(results[1][0]))
        assert not rate or np.any(results[1][0] == 0.0), case
        with ad.no_grad():                 # inference, at rate 0: the same output
            inference = ad.norm_mlp(x, *params, 0.0, None, mix_tokens=mix_tokens).data
        if not rate:
            np.testing.assert_array_equal(inference, results[1][0], err_msg=str(case))


def test_mlp_deterministic_given_seed():
    rng = np.random.default_rng(42)
    x = ad.Tensor(rng.standard_normal((6, 5)), requires_grad=True, dtype=np.float64)
    params = norm_args(rng, x, 8, 5, np.float64)
    a = ad.norm_mlp(x, *params, 0.4, np.random.default_rng(11)).data
    b = ad.norm_mlp(x, *params, 0.4, np.random.default_rng(11)).data
    c = ad.norm_mlp(x, *params, 0.4, np.random.default_rng(12)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with ad.no_grad():     # rate 0 draws nothing: the same on a dead rng and on none
        np.testing.assert_array_equal(ad.norm_mlp(x, *params, 0.0, None).data,
                                      ad.norm_mlp(x, *params, 0.0, np.random.default_rng(0)).data)


def test_mlp_rate_and_rng_validation():
    rng = np.random.default_rng(43)
    x = ad.Tensor(np.ones((2, 3)))
    params = norm_args(rng, x, 4, 3, np.float64)
    for rate in (1.0, -0.1):
        with pytest.raises(ValueError, match="rate"):
            ad.norm_mlp(x, *params, rate, np.random.default_rng(0))
    with pytest.raises(ValueError, match="needs an RNG"):
        ad.norm_mlp(x, *params, 0.1, None)
    with pytest.raises(ValueError, match="do not chain"):
        ad.norm_mlp(x, *params[:2], *mlp_args(rng, 4, 4, 3, np.float64), 0.0, None)
    with pytest.raises(ValueError, match="do not chain"):     # token mixing reads 2 rows
        ad.norm_mlp(x, *params, 0.0, None, mix_tokens=True)
    with pytest.raises(ValueError, match="token mixing"):
        ad.norm_mlp(ad.Tensor(np.ones(3)), *params, 0.0, None, mix_tokens=True)
    with pytest.raises(ValueError, match="scale/shift"):
        ad.norm_mlp(x, params[0], ad.Tensor(np.ones(4)), *params[2:], 0.0, None)
    gamma, beta, w1, b1 = params[:4]       # a bias-free second layer whose weight is not 2-D
    with pytest.raises(ValueError, match="weight/bias mismatch"):
        ad.norm_mlp(x, gamma, beta, w1, b1, ad.Tensor(np.ones((4, 3, 1))), None, 0.0, None)


def test_deep_graph_backward_is_iterative():
    x = ad.Tensor([1.0], requires_grad=True, dtype=np.float64)
    zero = ad.Tensor([0.0], dtype=np.float64)
    out = x
    for _ in range(5000):
        out = out + zero
    project(out).backward()
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_frees_inner_gradients():
    """Inner gradients go once passed on, and a spent graph cannot run again:
    a second backward from the same root, or from a second root that shares
    spent nodes, raises before it writes any gradient."""
    x = ad.Tensor([1.0, -2.0], requires_grad=True, dtype=np.float64)
    y = x + x
    z = project(y + y, [1.0, 3.0])
    other = project(y, 3.0)          # a second root over the same y
    z.backward()
    assert y.grad is None and z.grad is None
    np.testing.assert_array_equal(x.grad, [4.0, 12.0])
    grad = x.grad
    want = grad.copy()
    for root in (z, other):
        with pytest.raises(RuntimeError, match="earlier backward"):
            root.backward()
        assert x.grad is grad and other.grad is None
        np.testing.assert_array_equal(x.grad, want)


def test_no_grad_builds_no_graph():
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True, dtype=np.float32)
    params = norm_args(np.random.default_rng(44), x, 4, 2, np.float32)
    with ad.no_grad():
        outs = [ad.relu(x), ad.norm_mlp(x, *params, 0.0, None)]
    for out in outs:
        assert not out.requires_grad
        assert out.node is None


def _saved_arrays(out):
    """The arrays that `out`'s backward keeps alive, a sparse matrix as its
    values. A backward that kept a Tensor would keep its data whether it
    reads it or not, so none may."""
    return _closure_arrays(out.node.backward)


def _closure_arrays(backward):
    """The arrays that the closure `backward` keeps alive, as `_saved_arrays`."""
    found, stack = [], [cell.cell_contents for cell in backward.__closure__ or ()]
    while stack:
        v = stack.pop()
        assert not isinstance(v, ad.Tensor), "a backward keeps a Tensor"
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif sparse.issparse(v):
            found.append(v.data)
        elif isinstance(v, np.ndarray):
            found.append(v)
    return found


def _saved_float_dtypes(out):
    """dtypes of the float arrays that `out`'s backward keeps alive."""
    return {a.dtype for a in _saved_arrays(out) if a.dtype.kind == "f"}


def _saved(out, name):
    """The array that `out`'s backward keeps under `name`."""
    fn = out.node.backward
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def float32_kernels(rng):
    """name -> a thunk that runs one kernel on float32 leaves, plus the list
    of every leaf made so far, which the thunks extend as they run."""
    leaves = []

    def p32(*shape):
        leaves.append(ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float32))
        return leaves[-1]

    x, w, b = p32(2, 5, 3), p32(3, 4), p32(4)
    kernels = {
        "add": lambda: ad.add(x, ad.Tensor(np.ones(3, dtype=np.float32))),
        "add_tensors": lambda: ad.add(x, p32(2, 5, 3)),
        "affine": lambda: ad.affine(x, w, b),
        "relu": lambda: ad.relu(x),
        "layer_norm": lambda: ad.layer_norm(x, p32(3), p32(3)),
        "norm_mlp": lambda: ad.norm_mlp(x, p32(3), p32(3), p32(3, 4), p32(4), p32(4, 2), p32(2),
                                        0.3, np.random.default_rng(0)),
        "norm_mlp_tokens": lambda: ad.norm_mlp(x, p32(3), p32(3), p32(5, 4), p32(4), p32(4, 5),
                                               None, 0.3, np.random.default_rng(0),
                                               mix_tokens=True),
        "concat": lambda: ad.concat([x, x], axis=2),
        "reshape": lambda: ad.reshape(x, (10, 3)),
        "embedding": lambda: ad.embedding(w, np.array([0, 2])),
        "token_conv": lambda: next(ad.token_conv(p32(6, 1), p32(5, 1),
                                                 rng.integers(0, 6, (10, 2)),
                                                 np.array([0, 1, 2, -1, -1, 0, 1, 2, 3, 4]),
                                                 np.array([5, 5]), [p32(3, 2, 4)])),
        "segment_max": lambda: ad.segment_max(ad.reshape(x, (10, 3)), np.array([2, 1, 7])),
        "lstm": lambda: ad.lstm(p32(7, 8), p32(2, 8), p32(8), np.array([3, 4])),
        "mean_": lambda: ad.mean_(x, axis=1),
        "cosine_pair_loss_batch": lambda: ad.cosine_pair_loss_batch(p32(3, 4), p32(3, 4),
                                                                    [1, -1, -1], margin=0.0),
    }
    return kernels, leaves


def test_float32_stays_float32():
    for name, make in float32_kernels(np.random.default_rng(4))[0].items():
        out = make()
        assert out.dtype == np.float32, name
        assert _saved_float_dtypes(out) <= {np.dtype(np.float32)}, name


def test_gradients_share_no_memory():
    """Kernels hand gradients down without copies, yet after a backward
    through each kernel no leaf gradient shares memory with another, with a
    leaf's data or with the kernel's live output: Adam uses every gradient as
    scratch."""
    kernels, leaves = float32_kernels(np.random.default_rng(46))
    for name, make in kernels.items():
        for t in leaves:
            t.grad = None
        out = make()
        proj = np.random.default_rng(0).standard_normal(out.shape).astype(np.float32)
        project(out, proj).backward()
        grads = [t.grad for t in leaves if t.grad is not None]
        assert grads, name
        others = [out.data] + [t.data for t in leaves]
        for i, g in enumerate(grads):
            assert g.dtype == np.float32, name
            assert not any(np.shares_memory(g, a) for a in grads[i + 1:] + others), name


def test_gradients_of_a_tensor_read_twice():
    """A kernel may give a parent its own gradient uncopied, and `add` copies
    it for the second: gradients still sum right where one tensor is both
    inputs of a node, feeds an `add` and a `relu` (which scales its gradient
    in place), or reaches an `add` twice through a transposed view (float64
    finite differences)."""
    rng = np.random.default_rng(49)
    for _ in range(TRIALS // 4):
        x, y, t = p64(rng, 3, 4), p64(rng, 3, 4), p64(rng, 4, 3)
        proj, wide = rng.standard_normal((3, 4)), rng.standard_normal((3, 8))

        def chain():
            s = transpose(t, (1, 0))
            return project(s + x + s, proj)

        cases = {
            "x + x": (lambda: project(x + x, proj), {"x": x}),
            "concat": (lambda: project(ad.concat([x, x], axis=1), wide), {"x": x}),
            "pair loss": (lambda: ad.cosine_pair_loss_batch(x, x + y, [1, -1, 1], margin=0.0),
                          {"x": x, "y": y}),
            "add and relu": (lambda: project(ad.relu(x) + (x + y), proj), {"x": x, "y": y}),
            "transpose, add": (chain, {"t": t, "x": x}),
        }
        for name, (f, params) in cases.items():
            report = finite_diff_check(f, params, rel_tolerance=1e-4, rng=rng)
            assert report.passed, name


def test_backward_releases_saved_arrays():
    """Once a node's backward has run, the arrays that `layer_norm`,
    `norm_mlp` and the pair loss made and saved for it are freed, while the
    root and the leaves live on: the normalized rows and inverse standard
    deviations, for `norm_mlp` also h and the two packed dropout masks, over
    channels or tokens, and the pair loss's norms, cosines and masks."""
    rng = np.random.default_rng(47)
    x, gamma, beta, z = p64(rng, 6, 5), p64(rng, 5), p64(rng, 5), p64(rng, 6, 5)
    ch, tok = norm_args(rng, x, 7, 3, np.float64), norm_args(rng, x, 7, 4, np.float64, True)
    cases = {
        "layer_norm": (lambda: ad.layer_norm(x, gamma, beta), [x, gamma, beta], 2),
        "norm_mlp": (lambda: ad.norm_mlp(x, *ch, 0.3, np.random.default_rng(0)), [x, *ch], 5),
        "norm_mlp_tokens": (lambda: ad.norm_mlp(x, *tok, 0.3, np.random.default_rng(0),
                                                mix_tokens=True), [x, *tok], 5),
        "cosine_pair_loss_batch": (lambda: ad.cosine_pair_loss_batch(
            x, z, [1, -1, -1, 1, -1, 1], margin=0.0), [x, z], 7),
    }
    for name, (make, inputs, n_made) in cases.items():
        out = make()
        made = [weakref.ref(a) for a in _saved_arrays(out)
                if not any(np.shares_memory(a, t.data) for t in inputs)]
        assert len(made) == n_made and all(r() is not None for r in made), name
        project(out).backward()
        assert all(r() is None for r in made), name
        assert x.grad is not None


def test_mlp_keeps_dropout_masks_as_bits():
    """norm_mlp keeps each keep-mask packed to bits, uint8 with ceil(width / 8)
    columns; unpacked, they are the bool masks the same seed draws, first
    over the hidden units and then over the outputs, a row per mixed row."""
    rng = np.random.default_rng(48)
    for (hid, m), mix_tokens in itertools.product(((9, 5), (13, 17), (16, 3)), (False, True)):
        x = p64(rng, 2, 3, 4)
        rows = 8 if mix_tokens else 6
        out = ad.norm_mlp(x, *norm_args(rng, x, hid, m, np.float64, mix_tokens), 0.3,
                          np.random.default_rng(7), mix_tokens=mix_tokens)
        draw = np.random.default_rng(7)
        for name, width in (("mask1", hid), ("mask2", m)):
            bits = _saved(out, name)
            assert bits.dtype == np.uint8 and bits.shape == (rows, -(-width // 8)), (hid, m)
            np.testing.assert_array_equal(ad._unpacked(bits, width),
                                          draw.random((rows, width)) >= 0.3)


def test_kernels_free_inputs_their_backward_does_not_read():
    """A kernel whose backward reads only the shape, ids or a mask of an input
    keeps none of its data: once the input Tensor is dropped, its array is
    freed while the graph lives on, and the backward gives the gradient it
    gives with the input kept."""
    rng = np.random.default_rng(45)
    y, gamma, beta = p64(rng, 4, 6), p64(rng, 6), p64(rng, 6)
    w_h, b = p64(rng, 2, 8), p64(rng, 8)
    ch, tok = mlp_args(rng, 6, 5, 3, np.float64), mlp_args(rng, 4, 5, 4, np.float64)
    kernels = {
        "add": (lambda x: x + y, (4, 6)),
        "reshape": (lambda x: ad.reshape(x, (6, 4)), (4, 6)),
        "concat": (lambda x: ad.concat([x, y], axis=1), (4, 6)),
        "mean_": (lambda x: ad.mean_(x, axis=0), (4, 6)),
        "relu": (ad.relu, (4, 6)),
        "layer_norm": (lambda x: ad.layer_norm(x, gamma, beta), (4, 6)),
        "norm_mlp": (lambda x: ad.norm_mlp(x, gamma, beta, *ch, 0.3, np.random.default_rng(3)),
                     (4, 6)),
        "norm_mlp_tokens": (lambda x: ad.norm_mlp(x, gamma, beta, *tok, 0.3,
                                                  np.random.default_rng(3), mix_tokens=True),
                            (4, 6)),
        "embedding": (lambda x: ad.embedding(x, np.array([3, -1, 0, 3])), (4, 6)),
        "segment_max": (lambda x: ad.segment_max(x, np.array([1, 3])), (4, 6)),
        "lstm": (lambda x: ad.lstm(x, w_h, b, np.array([3, 0, 4])), (7, 8)),
    }
    for name, (kernel, shape) in kernels.items():
        p = p64(rng, *shape)
        grads = []
        for drop in (False, True):
            p.grad = None
            x = p + ad.Tensor(np.zeros(shape))     # an intermediate: only x holds its data
            data = weakref.ref(x.data)
            out = project(kernel(x))
            if drop:
                del x
                assert data() is None, name
            out.backward()
            grads.append(p.grad)
        np.testing.assert_array_equal(grads[0], grads[1], err_msg=name)


# MB per function that one default mixer training forward keeps for its
# backward at mixer_seq_len 32, beyond the parameters: 6.74 while each layer
# norm kept its normalized rows and the MLP after it its input and GELU cdf,
# 3.50 with each pre-MLP layer norm and its MLP one `norm_mlp` node (at the
# default 256 rows: 20.4 and 10.9).
MIXER_SAVED_MB_PER_FUNCTION = 4.0


def test_mixer_training_graph_saved_bytes_per_function():
    """Walks every backward closure of one mixer training forward over 12
    stock functions: the arrays they keep, each counted once and parameters
    aside, stay under a per-function bound. Each `norm_mlp` node keeps three
    float arrays, the normalized rows, their inverse standard deviations and
    h (not the MLP's input or the GELU's cdf beside them), and none of its
    input's shape."""
    recs = generate(SynthConfig(n_families=4, seed=1))
    vocab = build_vocab(recs)
    cfg = BackboneConfig("mixer", vocab.size, mixer_seq_len=32)
    model = build_backbone(cfg, seed=0)
    encs = [encode_function(vocab, r) for r in recs]
    out = model.embed_batch(encs, training=True, rng=np.random.default_rng(0))
    params = [p.data for p in model.params.values()]
    saved, blocks, seen, stack = {}, [], set(), [out.node]
    while stack:
        node = stack.pop()
        if id(node) in seen or node.backward is None:
            continue
        seen.add(id(node))
        stack.extend(node.parents)
        arrays = [a for a in _closure_arrays(node.backward)
                  if not any(np.may_share_memory(a, p) for p in params)]
        saved.update((id(a), a) for a in arrays)
        if node.backward.__qualname__.startswith("norm_mlp."):
            blocks.append((node.parents[0].shape, [a for a in arrays if a.dtype.kind == "f"]))
    per_function = sum(a.nbytes for a in saved.values()) / len(encs) / 1e6
    assert per_function < MIXER_SAVED_MB_PER_FUNCTION
    assert len(blocks) == 2 * cfg.mixer_layers
    for shape, floats in blocks:
        assert not any(a.shape == shape for a in floats), shape
        assert len(floats) == 3, shape
        assert sorted(a.size for a in floats)[0] == math.prod(shape[:-1]), shape   # inv_std


# ---------------------------------------------------------------- gradient trials

def test_affine_gradients():
    rng = np.random.default_rng(10)
    for _ in range(TRIALS):
        n, m, batch = rng.integers(1, 6, size=3)
        x = p64(rng, batch, n)
        w = p64(rng, n, m)
        b = p64(rng, m)
        proj = rng.standard_normal((batch, m))
        assert_grads_match(lambda: project(ad.affine(x, w, b), proj), {"x": x, "w": w, "b": b}, rng)


def identity_norm_mlp_args(x, mix_tokens=False):
    """Constant unit scale, zero shift and identity weights: ad.norm_mlp(x, ...)
    is dropout(dropout(gelu(normalized x)))."""
    n, k = x.shape[-1], x.shape[-2] if mix_tokens else x.shape[-1]
    eye, zero = ad.Tensor(np.eye(k)), ad.Tensor(np.zeros(k))
    return ad.Tensor(np.ones(n)), ad.Tensor(np.zeros(n)), eye, zero, eye, zero


def test_elementwise_gradients():
    """The GELU after the layer norm: ad.norm_mlp with identity weights at
    rate 0, over channels and over tokens."""
    rng = np.random.default_rng(11)
    for trial in range(TRIALS):
        mix_tokens = bool(trial % 2)
        x = p64(rng, 2, rng.integers(2, 5), rng.integers(2, 5))
        proj = rng.standard_normal(x.shape)
        args = identity_norm_mlp_args(x, mix_tokens)
        assert_grads_match(
            lambda: project(ad.norm_mlp(x, *args, 0.0, None, mix_tokens=mix_tokens), proj),
            {"x": x}, rng)


def test_relu_gradients_away_from_kink():
    rng = np.random.default_rng(12)
    for _ in range(TRIALS):
        raw = rng.standard_normal((3, 4))
        raw = np.where(np.abs(raw) < 0.05, 0.2, raw)  # keep clear of the kink for FD
        x = ad.Tensor(raw, requires_grad=True, dtype=np.float64)
        proj = rng.standard_normal(raw.shape)
        assert_grads_match(lambda: project(ad.relu(x), proj), {"x": x}, rng)


def test_layer_norm_gradients():
    rng = np.random.default_rng(13)
    for _ in range(TRIALS):
        rows, n = rng.integers(1, 5), rng.integers(2, 7)
        x = p64(rng, rows, n)
        gamma = ad.Tensor(1.0 + 0.1 * rng.standard_normal(n), requires_grad=True, dtype=np.float64)
        beta = p64(rng, n)
        proj = rng.standard_normal((rows, n))
        assert_grads_match(lambda: project(ad.layer_norm(x, gamma, beta), proj),
                           {"x": x, "gamma": gamma, "beta": beta}, rng)


def test_dropout_gradients():
    """Both dropouts at rate 0.3, with identity weights so no GEMM mixes the masks."""
    rng = np.random.default_rng(14)
    for trial in range(TRIALS):
        x = p64(rng, 4, 3)
        args = identity_norm_mlp_args(x)
        proj = rng.standard_normal((4, 3))
        seed = 1000 + trial
        assert_grads_match(
            lambda: project(ad.norm_mlp(x, *args, 0.3, np.random.default_rng(seed)), proj),
            {"x": x}, rng)


def test_mlp_gradients():
    """Every input of the node, at rate 0 and at rate 0.3 (one seeded draw per
    call), mixing channels and mixing tokens, with and without the output
    bias."""
    rng = np.random.default_rng(14)
    for trial in range(TRIALS):
        rate = 0.0 if trial % 2 else 0.3
        mix_tokens = trial % 4 < 2
        b, s, c = rng.integers(1, 4), rng.integers(1, 4), rng.integers(2, 5)
        x = p64(rng, b, s, c)
        m = int(rng.integers(1, 5))
        params = dict(zip(("gamma", "beta", "w1", "b1", "w2", "b2"),
                          norm_args(rng, x, int(rng.integers(1, 6)), m, np.float64, mix_tokens)))
        if trial % 3 == 0:              # no output bias, as in the mixer's token mixing
            params["b2"] = None
        proj = rng.standard_normal((b, m, c) if mix_tokens else (b, s, m))
        seed = 1000 + trial

        def f():
            out = ad.norm_mlp(x, *params.values(), rate, np.random.default_rng(seed),
                              mix_tokens=mix_tokens)
            return project(out, proj)

        assert_grads_match(f, {"x": x, **{k: v for k, v in params.items() if v is not None}},
                           rng)


def test_max_pool_gradients():
    """segment_max over one segment of several rows."""
    rng = np.random.default_rng(15)
    for _ in range(TRIALS):
        c, length = rng.integers(1, 5), rng.integers(2, 7)
        raw = rng.standard_normal((length, c))
        raw += np.arange(length)[:, None] * 1e-2  # break near-ties so FD keeps the same argmax
        x = ad.Tensor(raw, requires_grad=True, dtype=np.float64)
        proj = rng.standard_normal((1, c))
        assert_grads_match(lambda: project(ad.segment_max(x, np.array([length])), proj),
                           {"x": x}, rng)


def test_max_pool_ragged_gradients():
    """segment_max over ragged segments, one-row segments included."""
    rng = np.random.default_rng(16)
    for _ in range(TRIALS):
        c = rng.integers(1, 4)
        lens = rng.integers(1, 5, size=rng.integers(1, 5))
        lens[rng.integers(lens.size)] = 1
        raw = rng.standard_normal((lens.sum(), c)) + np.arange(lens.sum())[:, None] * 1e-2
        x = ad.Tensor(raw, requires_grad=True, dtype=np.float64)
        proj = rng.standard_normal((lens.size, c))
        assert_grads_match(lambda: project(ad.segment_max(x, lens), proj), {"x": x}, rng)


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
        assert_grads_match(lambda: project(ad.concat(list(parts.values()), axis=axis), proj), parts, rng)


def test_embedding_gradients():
    rng = np.random.default_rng(18)
    for _ in range(TRIALS):
        v, d = rng.integers(3, 8), rng.integers(1, 5)
        table = p64(rng, v, d)
        ids = rng.integers(0, v, size=(3, 2))
        proj = rng.standard_normal((3, 2, d))
        assert_grads_match(lambda: project(ad.embedding(table, ids), proj), {"table": table}, rng)


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
            assert_grads_match(lambda: project(grid_conv(
                params["table"], params["pos_table"], ids, pos, params["w"]), proj),
                params, rng)


def test_lstm_gradients():
    """Through lengths in caller order with a tie and a length of 1."""
    rng = np.random.default_rng(41)
    for _ in range(TRIALS // 4):
        xp, w_h, b = lstm_case(rng, LSTM_LENGTHS)
        proj = rng.standard_normal((len(LSTM_LENGTHS), w_h.shape[0]))
        assert_grads_match(lambda: project(ad.lstm(xp, w_h, b, LSTM_LENGTHS), proj),
                           {"xp": xp, "w_h": w_h, "b": b}, rng)


def test_cosine_gradients():
    """One positive pair: the loss is 1 - cos."""
    rng = np.random.default_rng(20)
    done = 0
    while done < TRIALS:
        n = int(rng.integers(2, 7))
        u_raw = rng.standard_normal(n)
        v_raw = rng.standard_normal(n)
        denom = np.linalg.norm(u_raw) * np.linalg.norm(v_raw)
        if denom < 0.5 or abs(u_raw @ v_raw) / denom > 0.99:
            continue
        u = ad.Tensor(u_raw[None], requires_grad=True, dtype=np.float64)
        v = ad.Tensor(v_raw[None], requires_grad=True, dtype=np.float64)
        assert_grads_match(lambda: ad.cosine_pair_loss_batch(u, v, [1]), {"u": u, "v": v}, rng)
        done += 1


def test_pairwise_cosine_gradients():
    """Batches of both labels, negatives on both sides of the margin, kept
    clear of the hinge's kink."""
    rng = np.random.default_rng(21)
    done = 0
    while done < TRIALS:
        b, e = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        u_raw = rng.standard_normal((b, e))
        v_raw = rng.uniform(-1.0, 1.0, (b, 1)) * u_raw + 0.5 * rng.standard_normal((b, e))
        margin = float(rng.uniform(0.0, 0.5))
        cos = np.einsum("be,be->b", u_raw, v_raw) / (
            np.linalg.norm(u_raw, axis=1) * np.linalg.norm(v_raw, axis=1))
        if np.any(np.abs(cos - margin) < 0.05) or np.any(np.abs(cos) > 0.99):
            continue
        u = ad.Tensor(u_raw, requires_grad=True)
        v = ad.Tensor(v_raw, requires_grad=True)
        ys = rng.choice([1, -1], size=b)
        assert_grads_match(lambda: ad.cosine_pair_loss_batch(u, v, ys, margin),
                           {"u": u, "v": v}, rng)
        done += 1


def test_shape_op_gradients():
    """reshape twice, and mean_ over each axis in turn."""
    rng = np.random.default_rng(22)
    for trial in range(TRIALS):
        x = p64(rng, 3, 4, 2)
        axis = trial % 3
        proj = rng.standard_normal((2, 3, 4))
        mean_proj = rng.standard_normal(np.delete(x.shape, axis))

        def f():
            t = ad.reshape(x, (6, 4))
            t = ad.reshape(t, (2, 3, 4))
            return project(t, proj) + project(ad.mean_(x, axis), mean_proj)

        assert_grads_match(f, {"x": x}, rng)


def test_matmul_and_arith_gradients():
    """Tensor add, broadcasting over rows, with one tensor on both sides."""
    rng = np.random.default_rng(23)
    for _ in range(TRIALS):
        n, m = (int(v) for v in rng.integers(1, 5, size=2))
        a = p64(rng, n, m)
        c = p64(rng, m)
        proj = rng.standard_normal((n, m))

        def f():
            return project(a + c + a, proj)  # c broadcasts over rows

        assert_grads_match(f, {"a": a, "c": c}, rng)
