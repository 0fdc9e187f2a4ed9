"""Reverse-mode tensor kernels on numpy arrays.

Every operation records a node in a dynamic graph; calling ``backward()`` on a
scalar result fills ``grad`` on every reachable tensor created with
``requires_grad=True``; inner nodes drop their gradient once it has been
passed on, so a backward pass holds little beyond the forward graph. Sequence kernels take time-major batches
([B, L, C]); `affine`, `layer_norm` and the elementwise kernels accept any
leading axes. A graph stays in the dtype of its leaves: training runs in
float32, the gradient-check harness builds float64 graphs.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

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

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from a scalar result through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        # iterative topo sort: LSTM graphs can be tens of thousands of nodes deep
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

    def __matmul__(self, other):
        return matmul(self, other)


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
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _node(data: np.ndarray, parents, backward) -> Tensor:
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a [n, k] @ b [k, m] -> [n, m]."""
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    out_data = a.data @ b.data

    def backward(g):
        _accum(a, g @ b.data.T)
        _accum(b, a.data.T @ g)

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


def sigmoid(x: Tensor) -> Tensor:
    xd = x.data
    out_data = np.empty_like(xd)
    pos = xd >= 0
    out_data[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    out_data[~pos] = ex / (1.0 + ex)

    def backward(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _node(out_data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def backward(g):
        _accum(x, g * (1.0 - out_data * out_data))

    return _node(out_data, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    xd = x.data
    cdf = 0.5 * (1.0 + erf(xd * INV_SQRT2))
    out_data = (xd * cdf).astype(xd.dtype)

    def backward(g):
        pdf = INV_SQRT_2PI * np.exp(-0.5 * xd * xd)
        _accum(x, (g * (cdf + xd * pdf)).astype(xd.dtype))

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


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout. Call only on training paths; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    keep = (rng.random(x.shape) >= rate).astype(x.data.dtype) / x.data.dtype.type(1.0 - rate)
    out_data = x.data * keep

    def backward(g):
        _accum(x, g * keep)

    return _node(out_data, (x,), backward)


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
    """Row lookup: table [V, d], ids int array [...] -> [..., d]."""
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise TypeError("embedding ids must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(
            f"embedding id out of range [0, {table.shape[0]}): ids span "
            f"[{idx.min()}, {idx.max()}]"
        )
    out_data = table.data[idx]

    def backward(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, idx, g)

    return _node(out_data, (table,), backward)


def conv1d(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Valid (no-pad) cross-correlation, stride 1, over a time-major batch.

    x [B, L, C_in]; w [C_out, C_in, W]; b [C_out] -> [B, L - W + 1, C_out].
    """
    if w.ndim != 3:
        raise ValueError(f"conv1d kernel must be [C_out, C_in, W], got {w.shape}")
    c_out, c_in, width = w.shape
    if b.shape != (c_out,):
        raise ValueError(f"conv1d bias must be length {c_out}")
    if x.ndim != 3:
        raise ValueError(f"conv1d input must be [B, L, C_in], got {x.shape}")
    if x.shape[2] != c_in:
        raise ValueError(f"conv1d channel mismatch: input {x.shape[2]}, kernel {c_in}")
    bsz, L, _ = x.shape
    if L < width:
        raise ValueError(f"conv1d input length {L} < kernel width {width}")
    l_out = L - width + 1
    win = np.lib.stride_tricks.sliding_window_view(x.data, width, axis=1)  # [B, L_out, C_in, W]
    cols = np.ascontiguousarray(win).reshape(bsz * l_out, c_in * width)
    wmat = w.data.reshape(c_out, c_in * width)
    out2 = cols @ wmat.T
    out_data = out2.reshape(bsz, l_out, c_out) + b.data[None, None, :]

    def backward(g):
        gflat = np.ascontiguousarray(g).reshape(bsz * l_out, c_out)
        _accum(b, gflat.sum(axis=0))
        _accum(w, (gflat.T @ cols).reshape(c_out, c_in, width))
        if x.requires_grad:
            gwin = (gflat @ wmat).reshape(bsz, l_out, c_in, width)
            gx = np.zeros_like(x.data)
            for off in range(width):
                gx[:, off:off + l_out, :] += gwin[:, :, :, off]
            _accum(x, gx)

    return _node(out_data, (x, w, b), backward)


def max_pool_time(x: Tensor, lengths=None) -> Tensor:
    """Global max over axis 1 of a time-major batch: [B, L, C] -> [B, C].

    `lengths` restricts each row's pool to its first `lengths[b]` steps.
    Gradient flows to the first maximum of each channel.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ValueError(f"max_pool_time needs [B, L, C], got {xd.shape}")
    L = xd.shape[1]
    if lengths is None:
        work = xd
    else:
        lens = np.asarray(lengths, dtype=np.int64)
        if np.any(lens < 1) or np.any(lens > L):
            raise ValueError(f"pool lengths must be in [1, {L}]")
        invalid = np.arange(L)[None, :, None] >= lens.reshape(-1, 1, 1)
        work = np.where(invalid, -np.inf, xd)
    idx = work.argmax(axis=1)  # [B, C]
    out_data = np.take_along_axis(xd, idx[:, None, :], axis=1)[:, 0, :]

    def backward(g):
        gx = np.zeros_like(xd)
        np.put_along_axis(gx, idx[:, None, :], g[:, None, :], axis=1)
        _accum(x, gx)

    return _node(out_data, (x,), backward)


def sum_(x: Tensor, axis=None) -> Tensor:
    out_data = x.data.sum(axis=axis, keepdims=False)

    def backward(g):
        if axis is None:
            _accum(x, np.broadcast_to(g, x.data.shape).copy())
        else:
            _accum(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())

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
