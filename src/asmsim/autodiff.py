"""Reverse-mode tensor kernels on numpy arrays.

Every operation records a node in a dynamic graph; calling ``backward()`` on a
scalar result fills ``grad`` on every reachable tensor created with
``requires_grad=True``; inner nodes drop their gradient once it has been
passed on, so a backward pass holds little beyond the forward graph.
The sequence kernels run on functions packed end to end, and each reads the
packing as one [B] array of per-function row counts over consecutive rows:
`token_conv` reads [N, K] token and [N] position ids instead of a built
[N, C] input and keeps every window inside one function, `segment_max` pools
each function's run of output rows, and `lstm` runs a whole recurrence as one
node, with a hand-written backward through time. `mlp` runs a mixer MLP
(affine, GELU, dropout, affine, dropout) as one node that keeps two float
arrays and two bool masks for its backward.
`affine`, `layer_norm`, `mlp` and the elementwise kernels accept any leading axes.
The lookup kernels, `embedding` and `token_conv`, share one padding rule: id
-1, token or position, reads a zero vector and sends no gradient to any row.
A graph stays in the dtype of its leaves: training runs in float32, the
gradient-check harness builds float64 graphs.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np
from scipy import sparse
from scipy.special import erf, expit

_GRAD_ENABLED = True

# Python floats: a numpy float64 scalar would promote float32 arrays to float64
INV_SQRT2 = 1.0 / math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference paths)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A numpy array plus an optional gradient and backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else self._not_scalar()

    def _not_scalar(self):
        raise ValueError(f"item() needs a scalar, got shape {self.data.shape}")

    def backward(self):
        """Backpropagate from a scalar result through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        # iterative topo sort: a graph can be deeper than Python's recursion limit
        topo = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None  # spent: every consumer ran before this node

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, -_wrap(other, self.dtype))

    def __rsub__(self, other):
        return add(_wrap(other, self.dtype), -self)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division is not a supported kernel")
        return mul(self, 1.0 / float(other))


def parameter(data, dtype=np.float32) -> Tensor:
    return Tensor(np.array(data, dtype=dtype), requires_grad=True)


def constant(data, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=False, dtype=dtype)


def _wrap(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _accum(t: Tensor, g: np.ndarray):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)        # a copy, not g itself: `add` passes one g to both parents
    else:
        t.grad += g


def _recording(*inputs: Tensor) -> bool:
    """Whether a kernel over `inputs` records a node: grad mode is on and one needs a gradient."""
    return _GRAD_ENABLED and any(t.requires_grad for t in inputs)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(data)
    if _recording(*parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a = _wrap(a, getattr(b, "dtype", None))
    b = _wrap(b, a.dtype)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return _node(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a = _wrap(a, getattr(b, "dtype", None))
    b = _wrap(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.data.shape))
        _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(out_data, (a, b), backward)


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b over the last axis of x. x [..., n], w [n, m], b [m] -> [..., m]."""
    if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
        raise ValueError(f"affine weight/bias mismatch: w {w.shape}, b {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine input width {x.shape[-1]} != weight rows {w.shape[0]}")
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    out2 = x2 @ w.data + b.data
    out_data = out2.reshape(*lead, w.data.shape[1])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(x, (g2 @ w.data.T).reshape(x.data.shape))
        _accum(w, x2.T @ g2)
        _accum(b, g2.sum(axis=0))

    return _node(out_data, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # strict: subgradient 0 on the flat side
    out_data = np.where(mask, x.data, x.data.dtype.type(0))

    def backward(g):
        _accum(x, g * mask)

    return _node(out_data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"layer_norm scale/shift must be length {n}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv_std
    out_data = gamma.data * xhat + beta.data

    def backward(g):
        _accum(beta, g.reshape(-1, n).sum(axis=0))
        _accum(gamma, (g * xhat).reshape(-1, n).sum(axis=0))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv_std * (dxhat - m1 - xhat * m2))

    return _node(out_data, (x, gamma, beta), backward)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, rate: float,
        rng: np.random.Generator | None) -> Tensor:
    """affine -> exact GELU -> dropout -> affine -> dropout over the last axis, as one node.

    GELU is 0.5 h (1 + erf(h / sqrt(2))). Dropout is inverted: each unit is
    kept where rng.random() >= rate and scaled by 1 / (1 - rate), with one
    draw over the hidden units and then one over the outputs; rate 0 draws
    nothing and is the identity, as on inference paths. While recording it
    keeps the pre-activation h, the GELU's cdf, the two keep-masks as bool
    and a reference to x's data (a transposed view is reshaped again in the
    backward, not copied here); the GELU output and both dropout outputs are
    recomputed from them. Recomputing cdf would cost an erf, about one GEMM.

    x [..., n], w1 [n, k], b1 [k], w2 [k, m], b2 [m] -> [..., m].
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate and rng is None:
        raise ValueError("a training-mode mixer needs an RNG for dropout")
    for w, b in ((w1, b1), (w2, b2)):
        if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[1]:
            raise ValueError(f"mlp weight/bias mismatch: w {w.shape}, b {b.shape}")
    if x.shape[-1] != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ValueError(f"mlp widths do not chain: x {x.shape}, w1 {w1.shape}, w2 {w2.shape}")
    lead, hid, m = x.data.shape[:-1], w1.shape[1], w2.shape[1]
    dt = x.data.dtype
    scale = dt.type(1.0 - rate)

    def keep(mask):                       # the float mask dropout scales by
        return mask.astype(dt) / scale

    record = _recording(x, w1, b1, w2, b2)
    h = x.data.reshape(-1, x.data.shape[-1]) @ w1.data + b1.data
    cdf = 0.5 * (1.0 + erf(h * INV_SQRT2))
    a = h * cdf
    if not record:
        del h, cdf                        # inference: not held through the second GEMM
    mask1 = mask2 = None
    if rate:
        mask1 = rng.random(lead + (hid,)).reshape(a.shape) >= rate
        a *= keep(mask1)
    y = a @ w2.data + b2.data
    del a
    if rate:
        mask2 = rng.random(lead + (m,)).reshape(y.shape) >= rate
        y *= keep(mask2)
    out_data = y.reshape(*lead, m)
    if not record:
        return Tensor(out_data)

    def backward(g):
        g2 = g.reshape(-1, m)
        a = h * cdf
        if rate:
            g2 = g2 * keep(mask2)
            a *= keep(mask1)
        _accum(w2, a.T @ g2)
        _accum(b2, g2.sum(axis=0))
        del a
        gh = g2 @ w2.data.T
        if rate:
            gh *= keep(mask1)
        slope = INV_SQRT_2PI * np.exp(-0.5 * h * h)   # in place: cdf + h * pdf
        slope *= h
        slope += cdf
        gh *= slope
        del slope
        x2 = x.data.reshape(-1, x.data.shape[-1])
        _accum(w1, x2.T @ gh)
        _accum(b1, gh.sum(axis=0))
        _accum(x, (gh @ w1.data.T).reshape(x.data.shape))

    return _node(out_data, (x, w1, b1, w2, b2), backward)


def concat(tensors, axis: int) -> Tensor:
    """Concatenate along `axis`; every other extent must match."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat of zero tensors")
    nd = tensors[0].ndim
    if not -nd <= axis < nd:
        raise ValueError(f"concat axis {axis} out of range for {nd}-D input")
    axis = axis % nd
    base = list(tensors[0].shape)
    for t in tensors[1:]:
        other = list(t.shape)
        if len(other) != nd or any(o != b for i, (o, b) in enumerate(zip(other, base)) if i != axis):
            raise ValueError(f"concat extent mismatch off axis {axis}: {base} vs {other}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            _accum(t, piece)

    return _node(out_data, tuple(tensors), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)

    def backward(g):
        _accum(x, g.reshape(x.data.shape))

    return _node(out_data, (x,), backward)


def transpose(x: Tensor, axes=None) -> Tensor:
    out_data = np.transpose(x.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        _accum(x, np.transpose(g, inv))

    return _node(out_data, (x,), backward)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: table [V, d], ids int array [...] -> [..., d]. Id -1 (padding)
    reads a zero row, and its gradient goes nowhere."""
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise TypeError("embedding ids must be integers")
    if idx.size and (idx.min() < -1 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"embedding id out of range [-1, {table.shape[0]}): ids span "
            f"[{idx.min()}, {idx.max()}]"
        )
    live = idx >= 0
    out_data = table.data.take(idx, axis=0)          # a copy, also for a scalar id
    out_data[~live] = 0.0

    def backward(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx[live], g[live])

    return _node(out_data, (table,), backward)


def token_conv(table: Tensor, pos_table: Tensor, ids, pos, lengths, w: Tensor) -> Tensor:
    """Valid, stride-1, bias-free convolution over rows assembled from table lookups.

    Input row n is the concatenation of table[ids[n, 0]], ...,
    table[ids[n, K-1]] and pos_table[pos[n]], with a zero vector wherever a
    token id or the position is -1 (padding); no gradient reaches a table
    row from a -1. Function b is the next `lengths[b]` input rows, at least W
    of them, and gives lengths[b] - W + 1 output rows, one per window of W
    rows inside it: no window crosses from one function into the next. The
    rows are never built: each of the K + 1 slots projects its distinct ids
    through its slice of the kernel once, and each output sums its
    (K + 1) * W projected rows in one sparse product. The kernel is stored
    [C_in, W, C_out], so each slot's [d, W * C_out] slice is a view of w, and
    so is its gradient's.

    table [V, d], pos_table [P, d], ids int [N, K], pos int [N],
    lengths int [B], w [(K + 1) * d, W, C_out] -> [sum(lengths - W + 1), C_out].
    """
    ids, pos, lens = np.asarray(ids), np.asarray(pos), np.asarray(lengths)
    if any(a.dtype.kind not in "iu" for a in (ids, pos, lens)):
        raise TypeError("token_conv ids, positions and lengths must be integers")
    if ids.ndim != 2 or pos.shape != ids.shape[:1] or lens.ndim != 1:
        raise ValueError(f"token_conv needs ids [N, K], pos [N] and lengths [B], "
                         f"got {ids.shape}, {pos.shape} and {lens.shape}")
    if w.ndim != 3:
        raise ValueError(f"token_conv kernel must be [C_in, W, C_out], got {w.shape}")
    c_in, width, c_out = w.shape
    n, k = ids.shape
    d = table.shape[1]
    if pos_table.shape[1] != d or c_in != (k + 1) * d:
        raise ValueError(f"token_conv channel mismatch: {k} tokens and a position of width "
                         f"{d} against a kernel of {c_in} input channels")
    if lens.size == 0 or lens.min() < width or lens.sum() != n:
        raise ValueError(f"token_conv lengths must be >= the kernel width {width} "
                         f"and sum to {n} rows")
    if ids.size and (ids.min() < -1 or ids.max() >= table.shape[0]):
        raise ValueError(f"token id out of range [-1, {table.shape[0]})")
    if pos.size and (pos.min() < -1 or pos.max() >= pos_table.shape[0]):
        raise ValueError(f"position out of range [-1, {pos_table.shape[0]})")
    # output row r of function b starts b * (W - 1) rows past r: each earlier
    # function has W - 1 rows where no window starts
    starts = np.arange(n - lens.size * (width - 1))
    starts += np.repeat(np.arange(lens.size) * (width - 1), lens - (width - 1))
    rows = starts[:, None] + np.arange(width)          # [R, W] input rows of each window
    kernels = w.data.reshape(k + 1, d, width * c_out)   # slot s's kernel, a view
    slots = [(table, ids[:, s]) for s in range(k)] + [(pos_table, pos)]
    uniqs, vecs, projs, cols = [], [], [], []
    n_proj = 0
    for s, (tab, sid) in enumerate(slots):
        uniq, inv = np.unique(sid, return_inverse=True)
        inv = inv.reshape(sid.shape)       # numpy releases disagree on the inverse's shape
        v = tab.data[uniq]
        v[uniq < 0] = 0.0                  # id -1: padding
        # projected rows (id, offset), each a C_out vector
        projs.append((v @ kernels[s]).reshape(-1, c_out))
        cols.append((n_proj + inv[rows] * width + np.arange(width)).astype(np.int32))
        uniqs.append(uniq)
        vecs.append(v)
        n_proj += uniq.size * width
    n_rows, per_row = starts.size, (k + 1) * width
    proj = np.concatenate(projs)
    picks = sparse.csr_matrix(        # output row -> the projected rows it sums
        (np.ones(n_rows * per_row, dtype=proj.dtype), np.concatenate(cols, axis=1).reshape(-1),
         np.arange(0, n_rows * per_row + 1, per_row, dtype=np.int32)),
        shape=(n_rows, n_proj))
    out_data = picks @ proj

    def backward(g):
        gproj = picks.T @ g
        gw = np.empty(kernels.shape, dtype=gproj.dtype)     # w's gradient, per slot
        lo = 0
        for s, ((tab, _), uniq, v) in enumerate(zip(slots, uniqs, vecs)):
            gp = gproj[lo:lo + uniq.size * width].reshape(uniq.size, width * c_out)
            lo += uniq.size * width
            np.matmul(v.T, gp, out=gw[s])
            if tab.requires_grad:
                if tab.grad is None:
                    tab.grad = np.zeros_like(tab.data)
                live = uniq >= 0
                tab.grad[uniq[live]] += (gp @ kernels[s].T)[live]
        _accum(w, gw.reshape(w.shape))

    return _node(out_data, (table, pos_table, w), backward)


def segment_max(x: Tensor, lengths) -> Tensor:
    """Per-column max over consecutive row segments: x [R, C] -> [B, C].

    Segment b is the next `lengths[b]` rows; the lengths are at least 1 and
    sum to R. A segment holding NaN pools to NaN. Gradient flows to the first
    maximum of each segment and column, and nowhere from a NaN result.
    """
    xd = x.data
    lens = np.asarray(lengths)
    if xd.ndim != 2:
        raise ValueError(f"segment_max needs [R, C], got {xd.shape}")
    if lens.dtype.kind not in "iu" or lens.ndim != 1:
        raise TypeError("segment_max lengths must be a 1-D integer array")
    if lens.size == 0 or lens.min() < 1 or lens.sum() != xd.shape[0]:
        raise ValueError(f"segment lengths must be >= 1 and sum to {xd.shape[0]} rows")
    ends = np.cumsum(lens)
    bounds = list(zip((ends - lens).tolist(), ends.tolist()))
    out_data = np.empty((lens.size, xd.shape[1]), dtype=xd.dtype)
    for b, (lo, hi) in enumerate(bounds):   # contiguous row blocks: faster than reduceat
        np.maximum.reduce(xd[lo:hi], axis=0, out=out_data[b])

    def backward(g):
        hit = xd == np.repeat(out_data, lens, axis=0)   # never true in a NaN column
        if np.count_nonzero(hit) != np.count_nonzero(out_data == out_data):
            # a tie: keep only the first hit in each segment and column
            ties = np.add.reduceat(hit, ends - lens, axis=0, dtype=np.int64) > 1
            for b in np.flatnonzero(ties.any(axis=1)):
                lo, hi = bounds[b]
                seg = hit[lo:hi]
                seg &= np.arange(hi - lo)[:, None] == seg.argmax(axis=0)
        _accum(x, np.where(hit, np.repeat(g, lens, axis=0), xd.dtype.type(0)))

    return _node(out_data, (x,), backward)


def lstm(xp: Tensor, w_h: Tensor, lengths) -> Tensor:
    """Final hidden states of an LSTM over functions packed end to end, as one node.

    Function b is the next lengths[b] rows; its state starts at h = c = 0.
    Row n of xp holds the input side of the i, f, c~ and o gate
    pre-activations of one instruction, bias included. A step adds
    h_{t-1} @ w_h to them; i, f and o are sigmoids, c~ a tanh,
    c_t = f * c_{t-1} + i * c~ and h_t = o * tanh(c_t). The state runs in
    ascending length order, so the running functions are a suffix and a step
    is one GEMM plus one row gather. While recording it keeps each row's gate
    activations, h_{t-1}, c_{t-1} and tanh(c_t), and its backward runs the
    steps in reverse. A function of length 0 gives h = 0.

    xp [N, 4h], w_h [h, 4h], lengths int [B] summing to N -> [B, h], in caller order.
    """
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu":
        raise TypeError("lstm lengths must be integers")
    if (xp.ndim != 2 or w_h.ndim != 2 or xp.shape[1] != w_h.shape[1]
            or w_h.shape[1] != 4 * w_h.shape[0]):
        raise ValueError(f"lstm needs xp [N, 4h] and w_h [h, 4h], got {xp.shape} and {w_h.shape}")
    n, hid = xp.shape[0], w_h.shape[0]
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 0 or lengths.sum() != n:
        raise ValueError(f"lstm lengths must be a non-empty [B], each >= 0, summing to {n} rows")
    order = np.argsort(lengths, kind="stable")
    firsts, lens = (np.cumsum(lengths) - lengths)[order], lengths[order]
    # step t runs the functions [done[t], B) of the length order
    done = np.searchsorted(lens, np.arange(lens[-1]), side="right").tolist()
    h = np.zeros((lengths.size, hid), dtype=xp.dtype)
    c = np.zeros_like(h)
    record = _recording(xp, w_h)
    gates = h_prev = c_prev = tanh_c = None
    if record:
        gates = np.empty_like(xp.data)                # every row is some function's step
        h_prev, c_prev, tanh_c = (np.empty((n, hid), dtype=xp.dtype) for _ in range(3))
    sig, cand = (np.s_[:, :2 * hid], np.s_[:, 3 * hid:]), np.s_[:, 2 * hid:3 * hid]
    for t, lo in enumerate(done):
        rows = firsts[lo:] + t
        a = h[lo:] @ w_h.data
        a += xp.data[rows]
        for blocks in sig:                          # i and f, then o
            expit(a[blocks], out=a[blocks])
        np.tanh(a[cand], out=a[cand])
        c_t = a[:, hid:2 * hid] * c[lo:] + a[:, :hid] * a[cand]
        tc = np.tanh(c_t)
        if record:
            gates[rows], h_prev[rows], c_prev[rows], tanh_c[rows] = a, h[lo:], c[lo:], tc
        c[lo:] = c_t
        h[lo:] = a[:, 3 * hid:] * tc
    out_data = np.empty_like(h)
    out_data[order] = h

    def backward(g):
        dpre = np.empty_like(xp.data)           # every row is written once
        dh, dc = g[order], np.zeros_like(h)     # per function, in length order
        for t in range(len(done) - 1, -1, -1):
            lo = done[t]
            rows = firsts[lo:] + t
            a, tc = gates[rows], tanh_c[rows]
            i, f, cc, o = (a[:, k * hid:(k + 1) * hid] for k in range(4))
            dc_t = dc[lo:] + dh[lo:] * o * (1 - tc * tc)
            d = np.empty_like(a)
            d[:, :hid] = dc_t * cc * i * (1 - i)
            d[:, hid:2 * hid] = dc_t * c_prev[rows] * f * (1 - f)
            d[cand] = dc_t * i * (1 - cc * cc)
            d[:, 3 * hid:] = dh[lo:] * tc * o * (1 - o)
            dpre[rows] = d                      # a step's rows are distinct, and no row recurs
            dc[lo:] = dc_t * f
            dh[lo:] = d @ w_h.data.T
        _accum(w_h, h_prev.T @ dpre)
        _accum(xp, dpre)

    return _node(out_data, (xp, w_h), backward)


def sum_(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=False)

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape))
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape))

    return _node(np.asarray(out_data), (x,), backward)


def mean_(x: Tensor, axis=None) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(sum_(x, axis=axis), 1.0 / float(count))


ZERO_NORM_MESSAGE = "cosine of a vector with near-zero norm; returning 0"


def pairwise_cosine(u: Tensor, v: Tensor, eps: float = 1e-8) -> Tensor:
    """Row-wise cosine similarity of u, v [B, E] -> [B], clipped to [-1, 1].

    Rows where either side has norm below `eps` yield 0 with a warning.
    Bitwise-identical rows yield exactly 1 (the true gradient there is zero).
    """
    if u.shape != v.shape or u.ndim != 2:
        raise ValueError(f"pairwise_cosine needs matching [B, E] inputs, got {u.shape}, {v.shape}")
    ud, vd = u.data, v.data
    dot = (ud * vd).sum(axis=1)
    nu = np.sqrt((ud * ud).sum(axis=1))
    nv = np.sqrt((vd * vd).sum(axis=1))
    degenerate = (nu < eps) | (nv < eps)
    identical = ~degenerate & np.all(ud == vd, axis=1)
    if degenerate.any():
        warnings.warn(ZERO_NORM_MESSAGE, RuntimeWarning, stacklevel=2)
    denom = np.where(degenerate, 1.0, nu * nv)
    cos = np.clip(dot / denom, -1.0, 1.0)
    cos = np.where(degenerate, 0.0, cos)
    cos = np.where(identical, 1.0, cos).astype(ud.dtype)
    live = (~degenerate & ~identical).astype(ud.dtype)

    def backward(g):
        scale = (g * live / denom)[:, None]
        cn = cos[:, None]
        nu2 = np.where(nu < eps, 1.0, nu * nu)[:, None]
        nv2 = np.where(nv < eps, 1.0, nv * nv)[:, None]
        _accum(u, scale * (vd - cn * denom[:, None] * ud / nu2))
        _accum(v, scale * (ud - cn * denom[:, None] * vd / nv2))

    return _node(cos, (u, v), backward)


def cosine(u, v, eps: float = 1e-8) -> Tensor:
    """Cosine similarity of two vectors as a scalar tensor."""
    u = _wrap(u, None)
    v = _wrap(v, u.dtype)
    if u.ndim != 1 or v.shape != u.shape:
        raise ValueError(f"cosine needs two equal-length vectors, got {u.shape}, {v.shape}")
    row = pairwise_cosine(reshape(u, (1, -1)), reshape(v, (1, -1)), eps=eps)
    return reshape(row, ())
