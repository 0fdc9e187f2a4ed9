"""Reverse-mode tensor kernels on numpy arrays.

Every operation on a tensor that needs a gradient records a graph `Node`
beside its output; calling ``backward()`` on a scalar result fills ``grad``
on every reachable tensor created with ``requires_grad=True``. The backward
gives memory back as it runs: an inner node drops its gradient once it has
been passed on, and the arrays its backward saved once that backward has run.
A node holds no forward data: its gradient, its parents' nodes and a backward
that keeps exactly the arrays it reads, as PyTorch's saved tensors do. An
intermediate whose last Python reference goes away is freed, even while the
graph that it fed lives on. `add`, `reshape`, `concat`, `mean_` and
`embedding` keep shapes and ids only, `relu` its bool mask, `affine` its
input and weight, `layer_norm` its normalized rows, inverse standard
deviations and scale, `segment_max` each first maximum's row, `lstm` its
gate activations and states but not its input, `cosine_pair_loss_batch`
both sides' rows and its [B] norms, cosines and masks, and `norm_mlp` and
`token_conv` the arrays their docstrings name. Once a node's backward has
run, ``backward()`` replaces it with a spent marker, which frees those arrays
at once; so a graph runs backward once, and a second ``backward()`` that
reaches a spent node, from the same root or from another, raises RuntimeError
before it writes any gradient. A kernel hands a parent its first gradient
without a copy when the array is its own: one it just made, or a view of its
own spent gradient, that no other parent gets. `add` copies for its second
parent and `mean_` copies its read-only broadcast, so no two gradients share
memory: Adam uses each as scratch.
The sequence kernels run on functions packed end to end, and each reads the
packing as one [B] array of per-function row counts over consecutive rows:
`token_conv` reads [N, K] token and [N] position ids instead of a built
[N, C] input and keeps every window inside one function; one call serves
several kernels, which share its index (each slot's distinct ids and their
vectors, and one sparse product per kernel width, with no entries for
padding), and the graph keeps one copy of it for all of them until the last
of their backwards has run; `segment_max` pools
each function's run of output rows, and `lstm` runs a whole recurrence as one
node, with a hand-written backward through time. `norm_mlp` runs a mixer
block's layer norm and MLP (affine, GELU, dropout, affine with or without
bias, dropout), over the channels or over the tokens, as one node. For its
backward it keeps what cannot be had cheaply again: the normalized rows and
their inverse standard deviations, the pre-activation h and the two dropout
masks packed to bits. It rebuilds the MLP's input (gamma * xhat + beta) and
the GELU gate (`_gelu_cdf(h)`) block by block, with the forward's float
operations in the forward's order, so its gradients are bit for bit those
of a `layer_norm` node followed by an MLP node that kept both (Chen et al.
2016, arXiv:1604.06174, recompute what is cheap). That halves what a
default mixer training forward keeps: 10.9 MB per function, against 20.4 MB.
In float32 its GELU gate is a rational erf, at about a quarter of the cost
of scipy's erf. `layer_norm` and `norm_mlp` do their elementwise work over
blocks of rows that stay in cache (`_row_blocks`).
`cosine_pair_loss_batch` is the training loss as one node: the pairs'
cosine, the hinge, the mean and their gradient in closed form.
`affine`, `layer_norm`, `norm_mlp` and the elementwise kernels accept any
leading axes.
The lookup kernels, `embedding` and `token_conv`, share one padding rule: id
-1, token or position, reads a zero vector and sends no gradient to any row.
A graph stays in the dtype of its leaves: training runs in float32, the
tests' finite-difference checks build float64 graphs.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import sparse
from scipy.special import erf, expit

_GRAD_ENABLED = True

_SPENT_MESSAGE = ("backward() reached a node that an earlier backward() already ran: "
                 "its saved arrays are freed, so run the forward again")

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


class Node:
    """A tensor's place in the graph: the shape and dtype of its gradient,
    the gradient once a backward reaches it, its parents' nodes, and the
    backward (None on a leaf) that passes a gradient on to them."""

    __slots__ = ("shape", "dtype", "grad", "parents", "backward")

    def __init__(self, shape, dtype, parents=(), backward=None):
        self.shape = shape
        self.dtype = dtype
        self.grad = None
        self.parents = parents
        self.backward = backward


class Tensor:
    """A numpy array plus, when it takes a gradient, its graph node."""

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {arr.dtype}")
        if arr.dtype.kind in "iu":
            arr = arr.astype(np.float32)
        self.data = arr
        self.node = Node(arr.shape, arr.dtype) if requires_grad else None

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @grad.setter
    def grad(self, value):
        if self.node is None:
            raise ValueError("only a tensor that requires grad holds a gradient")
        self.node.grad = value

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
        if self.node is None:                 # no graph: nothing takes a gradient
            return
        # iterative topo sort: a graph can be deeper than Python's recursion limit
        topo = []
        seen = set()
        stack = [(self.node, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            if node.backward is _spent:
                raise RuntimeError(_SPENT_MESSAGE)
            seen.add(node)
            stack.append((node, True))
            for p in node.parents:
                if p not in seen:
                    stack.append((p, False))
        self.node.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node.backward is None:           # a leaf keeps its gradient
                continue
            if node.grad is not None:
                node.backward(node.grad)
                node.grad = None  # every consumer ran before this node
            node.backward = _spent              # frees the arrays its backward saved

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)


def _spent(g):
    """The backward of a node whose backward has run: its saved arrays are gone."""
    raise RuntimeError(_SPENT_MESSAGE)


def _accum(node: Node | None, g: np.ndarray, own: bool = False):
    """Add g to the gradient of `node`; None (a tensor that takes no gradient) ignores it.

    A first gradient is g itself, not a copy, when the caller owns g (`own`:
    an array the kernel just made, or a view of its own spent gradient, that
    no other parent gets, nor a view of it) and g has the node's dtype and
    shape. So no two gradients share memory, which Adam relies on when it
    uses each gradient as scratch."""
    if node is None:
        return
    if node.grad is not None:
        node.grad += g
    elif own and g.dtype == node.dtype and g.shape == node.shape:
        node.grad = g
    else:
        node.grad = np.empty(node.shape, dtype=node.dtype)
        np.copyto(node.grad, g)


def _zeroed_grad(node: Node) -> np.ndarray:
    """The gradient of `node`, zeros until a scatter adds to it in place."""
    if node.grad is None:
        node.grad = np.zeros(node.shape, dtype=node.dtype)
    return node.grad


def _recording(*inputs: Tensor) -> bool:
    """Whether a kernel over `inputs` records a node: grad mode is on and one needs a gradient."""
    return _GRAD_ENABLED and any(t.node is not None for t in inputs)


def _node(data: np.ndarray, parents, backward) -> Tensor:
    """Wrap a kernel's output; while recording, give it a node whose parents
    are the nodes of `parents` (the kernel's input Tensors). `backward` must
    reach its inputs through their nodes, never through the Tensors."""
    out = Tensor(data)
    if _recording(*parents):
        out.node = Node(out.data.shape, out.data.dtype,
                        tuple(p.node for p in parents if p.node is not None), backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g down to `shape` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ss) in enumerate(zip(g.shape, shape)):
        if ss == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# The elementwise kernels (`layer_norm`, the GELU and dropout of `norm_mlp`) run
# over blocks of rows of about this many elements, with block-sized scratch,
# so that each of their passes reads a block from cache and not from memory.
# Measured on the float32 GELU cdf over 1.77M elements, one BLAS thread:
# 16K elements per block took 10-12 ms, 64K 8-9 ms and 256K 10-13 ms; the
# layer norm of [4, 256, 960] read the same 3-4 ms from 32K to 256K.
_BLOCK = 1 << 16


def _row_blocks(rows: int, width: int) -> list[slice]:
    """Consecutive row slices covering `rows` rows of `width` columns, each
    of about _BLOCK elements and at least one row."""
    step = max(1, _BLOCK // max(width, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _scratch(blocks: list[slice], width: int, dtype) -> np.ndarray:
    """An uninitialized array that holds the largest of `blocks`."""
    return np.empty((blocks[0].stop if blocks else 0, width), dtype=dtype)


# erf(z) ~ z P(z^2) / Q(z^2) on |z| <= 4, in float32: Eigen's fast float erf,
# four of its coefficients moved by one ulp where that lowered the largest error
_ERF_P = tuple(np.float32(c) for c in (
    -0.016096035, -0.0029546, -0.00073499064, -5.6925062e-05,
    -2.101024e-06, 2.7706815e-08, -2.7261424e-10))
_ERF_Q = tuple(np.float32(c) for c in (
    -0.014264739, -0.007373329, -0.0016828271, -0.00021337405, -1.4566071e-05))


def _horner(x: np.ndarray, coefs, out: np.ndarray) -> np.ndarray:
    """out = coefs[0] + coefs[1] x + ... + coefs[-1] x^(n-1), in place."""
    np.multiply(x, coefs[-1], out=out)
    for c in coefs[-2:0:-1]:
        out += c
        out *= x
    out += coefs[0]
    return out


def _gelu_cdf(h: np.ndarray, out: np.ndarray, z: np.ndarray, zz: np.ndarray) -> np.ndarray:
    """out = 0.5 (1 + erf(h / sqrt(2))), the GELU's gate, for one block of h;
    z and zz are scratch of h's shape.

    A float32 block evaluates the rational erf above with float32 products,
    sums and one division, which round the same on every machine. The result
    is clamped to [-1, 1], so the cdf stays in [0, 1]: ±0 gives 0.5, +inf 1,
    -inf 0 and NaN NaN. Against float64 scipy its largest absolute error over
    every float32 input is 2.3e-7 (scipy's own erf in float32: 6.1e-8). Every
    other dtype calls scipy's erf, so float64 graphs stay exact."""
    if h.dtype != np.float32:
        erf(h * INV_SQRT2, out=out)
        out += 1.0
        out *= 0.5
        return out
    np.multiply(h, INV_SQRT2, out=z)
    np.clip(z, -4.0, 4.0, out=z)
    np.multiply(z, z, out=zz)
    _horner(zz, _ERF_P, out)
    out *= z
    out /= _horner(zz, _ERF_Q, z)
    np.clip(out, -1.0, 1.0, out=out)
    out *= 0.5
    out += 0.5
    return out


def _keep(v: np.ndarray, mask: np.ndarray, inv_keep) -> np.ndarray:
    """Inverted dropout in place: v * mask * inv_keep, which rounds as
    v * (mask / (1 - rate)) does, with no float mask built."""
    v *= mask
    v *= inv_keep
    return v


def _dropout(v: np.ndarray, rate, rng, inv_keep, keep: np.ndarray) -> np.ndarray:
    """Inverted dropout in place on a block of rows v: keeps each unit where
    rng.random() >= rate, drawn over v's rows in order; keep is bool scratch
    of at least v's rows. Returns the keep-mask packed to bits along the rows."""
    keep = keep[:v.shape[0]]
    np.greater_equal(rng.random(v.shape), rate, out=keep)
    _keep(v, keep, inv_keep)
    return np.packbits(keep, axis=1)


def _unpacked(bits: np.ndarray, width: int) -> np.ndarray:
    """Rows of a keep-mask from `_dropout`, back as bool [rows, width]."""
    return np.unpackbits(bits, axis=1, count=width).view(bool)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    an, a_shape, bn, b_shape = a.node, a.shape, b.node, b.shape

    def backward(g):
        _accum(an, _unbroadcast(g, a_shape), own=True)
        _accum(bn, _unbroadcast(g, b_shape))      # a copy: a may hold g itself

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
    xn, x_shape, wn, wd, bn = x.node, x.shape, w.node, w.data, b.node

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        _accum(xn, (g2 @ wd.T).reshape(x_shape), own=True)
        _accum(wn, x2.T @ g2, own=True)
        _accum(bn, g2.sum(axis=0), own=True)

    return _node(out_data, (x, w, b), backward)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0  # strict: subgradient 0 on the flat side
    out_data = np.where(mask, x.data, x.data.dtype.type(0))
    xn = x.node

    def backward(g):
        g *= mask                               # g is this node's own, spent once passed on
        _accum(xn, g, own=True)

    return _node(out_data, (x,), backward)


LN_EPS = 1e-5      # what a layer norm adds to the variance


def _normalize(x2: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float,
               record: bool):
    """The layer norm of the rows of x2 [rows, n], over row blocks: (xhat,
    inv_std, out). `out` is gamma * xhat + beta: a new array while recording,
    xhat overwritten otherwise."""
    rows, n = x2.shape
    dt = x2.dtype
    blocks = _row_blocks(rows, n)
    xhat = np.empty((rows, n), dtype=dt)
    inv_std = np.empty((rows, 1), dtype=dt)
    out = np.empty_like(xhat) if record else xhat
    sq = _scratch(blocks, n, dt)
    for blk in blocks:
        xc, istd, sb = xhat[blk], inv_std[blk], sq[:blk.stop - blk.start]
        np.subtract(x2[blk], x2[blk].mean(axis=-1, keepdims=True), out=xc)
        np.multiply(xc, xc, out=sb)
        np.sqrt(sb.mean(axis=-1, keepdims=True) + eps, out=istd)
        np.divide(1.0, istd, out=istd)
        xc *= istd
        np.multiply(xc, gamma, out=out[blk])
        out[blk] += beta
    return xhat, inv_std, out


def _normalize_backward(g2: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                        gamma: np.ndarray):
    """The layer norm's backward for the gradient g2 [rows, n] of its output,
    which the caller owns: returns the gradients of gamma and beta, and
    overwrites g2 with x's gradient, block by block."""
    n, dt = g2.shape[1], g2.dtype
    g_beta = g2.sum(axis=0)                    # column sums: whole-array
    g_gamma = (g2 * xhat).sum(axis=0)
    blocks = _row_blocks(g2.shape[0], n)
    dxhat, t = _scratch(blocks, n, dt), _scratch(blocks, n, dt)
    for blk in blocks:
        k = blk.stop - blk.start
        d, tb, xb = dxhat[:k], t[:k], xhat[blk]
        np.multiply(g2[blk], gamma, out=d)
        m1 = d.mean(axis=-1, keepdims=True)
        np.multiply(d, xb, out=tb)
        m2 = tb.mean(axis=-1, keepdims=True)
        np.multiply(xb, m2, out=tb)
        d -= m1
        d -= tb
        np.multiply(inv_std[blk], d, out=g2[blk])
    return g_gamma, g_beta


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.
    The row-local work runs over blocks of rows (`_row_blocks`), which gives
    the bits of the whole-array formula. While recording it keeps the
    normalized rows, their inverse standard deviations and the scale, not x;
    otherwise the output overwrites the normalized rows."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"layer_norm scale/shift must be length {n}")
    record = _recording(x, gamma, beta)
    xhat, inv_std, out = _normalize(x.data.reshape(-1, n), gamma.data, beta.data, eps, record)
    out_data = out.reshape(x.shape)
    if not record:
        return Tensor(out_data)
    xn, x_shape, gn, gd, bn = x.node, x.shape, gamma.node, gamma.data, beta.node

    def backward(g):
        g2 = g.reshape(-1, n)                      # x's gradient overwrites it
        g_gamma, g_beta = _normalize_backward(g2, xhat, inv_std, gd)
        _accum(bn, g_beta, own=True)
        _accum(gn, g_gamma, own=True)
        _accum(xn, g2.reshape(x_shape), own=True)

    return _node(out_data, (x, gamma, beta), backward)


def norm_mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor,
             b2: Tensor | None, rate: float, rng: np.random.Generator | None,
             mix_tokens: bool = False) -> Tensor:
    """A mixer block's layer norm and MLP as one node: `layer_norm` over the
    last axis, then affine -> exact GELU -> dropout -> affine with or without
    bias -> dropout, over the last axis (channel mixing) or, with
    `mix_tokens`, over the second to last (token mixing: the MLP reads the
    normalized [..., S, C] input as [..., C, S], and its output is turned
    back).

    GELU is h * cdf with cdf = 0.5 (1 + erf(h / sqrt(2))), from `_gelu_cdf`.
    Dropout is inverted: each unit is kept where rng.random() >= rate and
    scaled by 1 / (1 - rate), with one draw over the hidden units and then one
    over the outputs; rate 0 draws nothing and is the identity, as on
    inference paths. The bias, the GELU and the first dropout run over blocks
    of rows of h (`_row_blocks`), and the draws follow the rows in order, so
    they are those of one whole-array draw. The output is bit for bit
    `layer_norm`'s followed by the MLP's.

    While recording it keeps the normalized rows and their inverse standard
    deviations, the pre-activation h and the two keep-masks packed to bits,
    one uint8 row of ceil(width / 8) bytes per row, an eighth of a bool mask:
    not x, not the MLP's input gamma * xhat + beta and not the GELU's cdf.
    The backward rebuilds the input, the cdf, the GELU output and both dropout
    outputs a block of rows at a time, with the forward's float operations in
    the forward's order, so the gradients are those of the two nodes it
    replaces bit for bit. Once a block of h has given its GELU output, the
    GELU's slope overwrites it. On an h of [1536, 1152] the float32 cdf took
    9-11 ms, scipy's erf 39-46 ms and the [1536, 960] @ [960, 1152] GEMM that
    makes h 27-35 ms (quartiles, one BLAS thread). On inference paths the
    output overwrites the normalized rows, the GELU overwrites h, and no
    full-size cdf is made.

    x [..., n], gamma and beta [n], w1 [n, k] (with `mix_tokens`: x [..., s, n]
    and w1 [s, k]), b1 [k], w2 [k, m], b2 [m] or None (no output bias)
    -> [..., m] ([..., m, n] with `mix_tokens`).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate and rng is None:
        raise ValueError("a training-mode mixer needs an RNG for dropout")
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ValueError(f"layer_norm scale/shift must be length {n}")
    for w, b in ((w1, b1), (w2, b2)):
        if w.ndim != 2 or (b is not None and b.shape != (w.shape[1],)):
            raise ValueError(f"mlp weight/bias mismatch: w {w.shape}, "
                             f"b {None if b is None else b.shape}")
    if mix_tokens and x.ndim < 2:
        raise ValueError(f"token mixing needs an [..., S, C] input, got {x.shape}")
    width = x.shape[-2] if mix_tokens else n           # the axis the MLP mixes
    if width != w1.shape[0] or w1.shape[1] != w2.shape[0]:
        raise ValueError(f"mlp widths do not chain: x {x.shape}, w1 {w1.shape}, w2 {w2.shape}"
                         f"{' (token mixing)' if mix_tokens else ''}")
    hid, m = w1.shape[1], w2.shape[1]
    dt = x.data.dtype
    inv_keep = dt.type(1.0) / dt.type(1.0 - rate)      # what dropout scales a kept unit by

    inputs = (x, gamma, beta, w1, b1, w2) + (() if b2 is None else (b2,))
    record = _recording(*inputs)
    xhat, inv_std, u = _normalize(x.data.reshape(-1, n), gamma.data, beta.data, LN_EPS, record)
    u = u.reshape(x.shape)
    if mix_tokens:
        u = np.swapaxes(u, -1, -2)
    lead = u.shape[:-1]
    h = u.reshape(-1, width) @ w1.data
    del u
    blocks = _row_blocks(h.shape[0], hid)
    a = np.empty_like(h) if record else h              # inference: the GELU overwrites h
    # the keep-masks as bits, a packed row per row, drawn through one block's bool scratch
    mask1 = np.empty((h.shape[0], -(-hid // 8)), dtype=np.uint8) if rate else None
    keep = _scratch(blocks, hid, bool) if rate else None
    cdf, z, zz = (_scratch(blocks, hid, dt) for _ in range(3))
    for blk in blocks:
        k = blk.stop - blk.start
        hb, ab = h[blk], a[blk]
        hb += b1.data
        np.multiply(hb, _gelu_cdf(hb, cdf[:k], z[:k], zz[:k]), out=ab)
        if rate:
            mask1[blk] = _dropout(ab, rate, rng, inv_keep, keep)
    y = a @ w2.data
    del a
    if b2 is not None:
        y += b2.data
    out_blocks = _row_blocks(y.shape[0], m)
    mask2 = None
    if rate:
        mask2 = np.empty((y.shape[0], -(-m // 8)), dtype=np.uint8)
        keep = _scratch(out_blocks, m, bool)
        for blk in out_blocks:
            mask2[blk] = _dropout(y[blk], rate, rng, inv_keep, keep)
    out_data = y.reshape(*lead, m)
    if mix_tokens:
        out_data = np.swapaxes(out_data, -1, -2)
    if not record:
        return Tensor(out_data)
    x_shape, gd, bd, w1d, w2d = x.shape, gamma.data, beta.data, w1.data, w2.data
    xn, gn, bn, w1n, b1n, w2n = x.node, gamma.node, beta.node, w1.node, b1.node, w2.node
    b2n = None if b2 is None else b2.node

    def backward(g):
        # g is this node's own: dropped in place (a copy when turned back from token mixing)
        g2 = (np.swapaxes(g, -1, -2) if mix_tokens else g).reshape(-1, m)
        if rate:
            for blk in out_blocks:
                _keep(g2[blk], _unpacked(mask2[blk], m), inv_keep)
        a = np.empty_like(h)
        cdf, z, zz = (_scratch(blocks, hid, dt) for _ in range(3))
        for blk in blocks:                    # the GELU output, and its slope over h
            k = blk.stop - blk.start
            hb, ab, cb, sb = h[blk], a[blk], cdf[:k], z[:k]
            np.multiply(hb, _gelu_cdf(hb, cb, sb, zz[:k]), out=ab)
            if rate:
                _keep(ab, _unpacked(mask1[blk], hid), inv_keep)
            np.multiply(hb, -0.5, out=sb)       # cdf + h * pdf
            sb *= hb
            np.exp(sb, out=sb)
            sb *= INV_SQRT_2PI
            sb *= hb
            sb += cb
            np.copyto(hb, sb)
        _accum(w2n, a.T @ g2, own=True)
        if b2n is not None:
            _accum(b2n, g2.sum(axis=0), own=True)
        gh = np.matmul(g2, w2d.T, out=a)      # a is spent: its buffer takes gh
        del a, g2                 # g2 may copy g: not held through the w1 products
        for blk in blocks:
            gb = gh[blk]
            if rate:
                _keep(gb, _unpacked(mask1[blk], hid), inv_keep)
            gb *= h[blk]
        u = np.empty_like(xhat)               # the MLP's input, made as the forward made it
        for blk in _row_blocks(u.shape[0], n):
            np.multiply(xhat[blk], gd, out=u[blk])
            u[blk] += bd
        u = u.reshape(x_shape)
        if mix_tokens:
            u = np.swapaxes(u, -1, -2)
        _accum(w1n, u.reshape(-1, width).T @ gh, own=True)
        del u
        _accum(b1n, gh.sum(axis=0), own=True)
        gu = (gh @ w1d.T).reshape(*lead, width)
        del gh
        if mix_tokens:
            gu = np.swapaxes(gu, -1, -2)
        gu = gu.reshape(-1, n)                # x's gradient overwrites it
        g_gamma, g_beta = _normalize_backward(gu, xhat, inv_std, gd)
        _accum(bn, g_beta, own=True)
        _accum(gn, g_gamma, own=True)
        _accum(xn, gu.reshape(x_shape), own=True)

    return _node(out_data, inputs, backward)


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
    nodes = [t.node for t in tensors]

    def backward(g):
        for node, piece in zip(nodes, np.split(g, offsets, axis=axis)):
            _accum(node, piece, own=True)       # disjoint views of g

    return _node(out_data, tuple(tensors), backward)


def reshape(x: Tensor, shape) -> Tensor:
    out_data = x.data.reshape(shape)
    xn, x_shape = x.node, x.shape

    def backward(g):
        _accum(xn, g.reshape(x_shape), own=True)

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
    tn = table.node

    def backward(g):
        np.add.at(_zeroed_grad(tn), idx[live], g[live])

    return _node(out_data, (table,), backward)


def token_conv(table: Tensor, pos_table: Tensor, ids, pos, lengths, ws) -> Iterator[Tensor]:
    """Valid, stride-1, bias-free convolutions over rows assembled from table
    lookups, one per kernel of `ws`, all reading one shared index.

    Input row n is the concatenation of table[ids[n, 0]], ...,
    table[ids[n, K-1]] and pos_table[pos[n]], with a zero vector wherever a
    token id or the position is -1 (padding); no gradient reaches a table
    row from a -1. Function b is the next `lengths[b]` input rows, at least W
    of them for every kernel, and gives lengths[b] - W + 1 output rows, one
    per window of W rows inside it: no window crosses from one function into
    the next. The rows are never built. The call checks the ids, positions
    and lengths, and finds each of the K + 1 slots' distinct ids and gathers
    their vectors, once for all kernels. Each kernel projects those vectors
    through its slot slices, and each of its outputs sums its projected rows
    in one sparse product, built once per kernel width. That product has no
    entry for a -1 id, whose projected rows are zero; the -1 stays a zero row
    among its slot's distinct ids, so every GEMM keeps its shape and its
    bits. A kernel is stored [C_in, W, C_out], so each slot's
    [d, W * C_out] slice is a view of w, and so is its gradient's.

    The outputs come from the returned generator in the order of `ws`, each
    made when it is asked for, so a caller that pools each before asking for
    the next holds one at a time. While recording, the graph keeps one copy
    of the shared state for all of them: each slot's distinct ids and their
    vectors, and one sparse product per width.

    table [V, d], pos_table [P, d], ids int [N, K], pos int [N],
    lengths int [B], each w [(K + 1) * d, W, C_out]
    -> per w, [sum(lengths - W + 1), C_out].
    """
    ids, pos, lens = np.asarray(ids), np.asarray(pos), np.asarray(lengths)
    ws = list(ws)
    if any(a.dtype.kind not in "iu" for a in (ids, pos, lens)):
        raise TypeError("token_conv ids, positions and lengths must be integers")
    if ids.ndim != 2 or pos.shape != ids.shape[:1] or lens.ndim != 1:
        raise ValueError(f"token_conv needs ids [N, K], pos [N] and lengths [B], "
                         f"got {ids.shape}, {pos.shape} and {lens.shape}")
    if not ws:
        raise ValueError("token_conv needs at least one kernel")
    n, k = ids.shape
    d = table.shape[1]
    for w in ws:
        if w.ndim != 3:
            raise ValueError(f"token_conv kernel must be [C_in, W, C_out], got {w.shape}")
        if pos_table.shape[1] != d or w.shape[0] != (k + 1) * d:
            raise ValueError(f"token_conv channel mismatch: {k} tokens and a position of width "
                             f"{d} against a kernel of {w.shape[0]} input channels")
    widest = max(w.shape[1] for w in ws)
    if lens.size == 0 or lens.min() < widest or lens.sum() != n:
        raise ValueError(f"token_conv lengths must be >= the kernel width {widest} "
                         f"and sum to {n} rows")
    if ids.size and (ids.min() < -1 or ids.max() >= table.shape[0]):
        raise ValueError(f"token id out of range [-1, {table.shape[0]})")
    if pos.size and (pos.min() < -1 or pos.max() >= pos_table.shape[0]):
        raise ValueError(f"position out of range [-1, {pos_table.shape[0]})")
    # per slot: its table's node, its distinct ids (sorted, so a -1 comes
    # first), their vectors and the first of its rows among all slots' ids
    slots = []
    at = np.empty((n, k + 1), dtype=np.intp)    # [n, s]: slot s of row n, as a distinct-id row
    n_uniq = 0
    for s, (tab, sid) in enumerate([(table, ids[:, s]) for s in range(k)] + [(pos_table, pos)]):
        uniq, inv = np.unique(sid, return_inverse=True)
        v = tab.data[uniq]
        v[uniq < 0] = 0.0                  # id -1: padding
        at[:, s] = n_uniq + inv.reshape(-1)     # numpy releases disagree on the inverse's shape
        slots.append((tab.node, uniq, v, n_uniq))
        n_uniq += uniq.size
    live = np.concatenate([uniq >= 0 for _, uniq, _, _ in slots])   # per distinct-id row

    def index(width):
        """The sparse product from a width's projected rows (distinct-id row,
        offset) to the output rows that sum them."""
        # output row r of function b starts b * (W - 1) rows past r: each
        # earlier function has W - 1 rows where no window starts
        starts = np.arange(n - lens.size * (width - 1))
        starts += np.repeat(np.arange(lens.size) * (width - 1), lens - (width - 1))
        taps = sliding_window_view(at, width, axis=0)[starts]   # [R, K + 1, W]
        keep = live[taps]
        cols = (taps * width + np.arange(width))[keep].astype(np.int32)
        ptr = np.zeros(starts.size + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=(1, 2)), out=ptr[1:])
        return sparse.csr_matrix(
            (np.ones(cols.size, dtype=np.result_type(table.data, pos_table.data)), cols, ptr),
            shape=(starts.size, n_uniq * width))

    picks = {width: index(width) for width in {w.shape[1] for w in ws}}

    def bank(w):
        _, width, c_out = w.shape
        pw = picks[width]
        kernels = w.data.reshape(k + 1, d, width * c_out)   # slot s's kernel, a view
        # projected rows (distinct-id row, offset), each a C_out vector
        proj = np.empty((n_uniq * width, c_out),
                        dtype=np.result_type(table.data, pos_table.data, w.data))
        for s, (_, uniq, v, row) in enumerate(slots):
            np.matmul(v, kernels[s], out=proj[row * width:(row + uniq.size) * width]
                      .reshape(uniq.size, width * c_out))
        out_data = pw @ proj
        wn, w_shape = w.node, w.shape

        def backward(g):
            gproj = pw.T @ g
            gw = np.empty(kernels.shape, dtype=gproj.dtype)     # w's gradient, per slot
            for s, (tn, uniq, v, row) in enumerate(slots):
                gp = gproj[row * width:(row + uniq.size) * width].reshape(uniq.size, width * c_out)
                np.matmul(v.T, gp, out=gw[s])
                if tn is not None:
                    pad = int(uniq[0] < 0)
                    _zeroed_grad(tn)[uniq[pad:]] += (gp @ kernels[s].T)[pad:]
            _accum(wn, gw.reshape(w_shape), own=True)

        return _node(out_data, (table, pos_table, w), backward)

    return (bank(w) for w in ws)


def segment_max(x: Tensor, lengths) -> Tensor:
    """Per-column max over consecutive row segments: x [R, C] -> [B, C].

    Segment b is the next `lengths[b]` rows; the lengths are at least 1 and
    sum to R. A segment holding NaN pools to NaN. Gradient flows to the first
    maximum of each segment and column, and nowhere from a NaN result. While
    recording it finds those first maxima and keeps their rows as an int
    [B, C] array, not x.
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
    if not _recording(x):
        return Tensor(out_data)
    hit = xd == np.repeat(out_data, lens, axis=0)   # never true in a NaN column
    if np.count_nonzero(hit) != np.count_nonzero(out_data == out_data):
        # a tie: keep only the first hit in each segment and column
        ties = np.add.reduceat(hit, ends - lens, axis=0, dtype=np.int64) > 1
        for b in np.flatnonzero(ties.any(axis=1)):
            lo, hi = bounds[b]
            seg = hit[lo:hi]
            seg &= np.arange(hi - lo)[:, None] == seg.argmax(axis=0)
    rows, cols = np.divmod(np.flatnonzero(hit), xd.shape[1])   # faster than np.nonzero
    first = np.full(out_data.shape, -1, dtype=np.intp)    # -1: a NaN result
    first[np.repeat(np.arange(lens.size), lens)[rows], cols] = rows
    xn = x.node

    def backward(g):
        gx = np.zeros(xn.shape, dtype=xn.dtype)
        live = first >= 0
        gx[first[live], np.nonzero(live)[1]] = g[live]
        _accum(xn, gx, own=True)

    return _node(out_data, (x,), backward)


def _flush_subnormal(x: np.ndarray) -> np.ndarray:
    """Zero, in place, the entries of x smaller in magnitude than its dtype's
    smallest normal number; returns x."""
    np.copyto(x, 0, where=np.abs(x) < np.finfo(x.dtype).tiny)
    return x


def lstm(xp: Tensor, w_h: Tensor, b: Tensor, lengths) -> Tensor:
    """Final hidden states of an LSTM over functions packed end to end, as one node.

    Function j is the next lengths[j] rows; its state starts at h = c = 0.
    Row n of xp holds the input side of the i, f, c~ and o gate
    pre-activations of one instruction. A step adds the bias b to its rows
    as it gathers them, then h_{t-1} @ w_h; i, f and o are sigmoids, c~ a tanh,
    c_t = f * c_{t-1} + i * c~ and h_t = o * tanh(c_t). The state runs in
    ascending length order, so the running functions are a suffix and a step
    is one GEMM plus one row gather. While recording it keeps each row's gate
    activations, h_{t-1}, c_{t-1} and tanh(c_t), not xp, and its backward
    runs the steps in reverse. A function of length 0 gives h = 0.

    xp [N, 4h], w_h [h, 4h], b [4h], lengths int [B] summing to N -> [B, h] in caller order.
    """
    lengths = np.asarray(lengths)
    if lengths.dtype.kind not in "iu":
        raise TypeError("lstm lengths must be integers")
    if (xp.ndim != 2 or w_h.ndim != 2 or xp.shape[1] != w_h.shape[1]
            or w_h.shape[1] != 4 * w_h.shape[0] or b.shape != (w_h.shape[1],)):
        raise ValueError(f"lstm needs xp [N, 4h], w_h [h, 4h] and b [4h], "
                         f"got {xp.shape}, {w_h.shape} and {b.shape}")
    n, hid = xp.shape[0], w_h.shape[0]
    if lengths.ndim != 1 or lengths.size == 0 or lengths.min() < 0 or lengths.sum() != n:
        raise ValueError(f"lstm lengths must be a non-empty [B], each >= 0, summing to {n} rows")
    order = np.argsort(lengths, kind="stable")
    firsts, lens = (np.cumsum(lengths) - lengths)[order], lengths[order]
    # step t runs the functions [done[t], B) of the length order
    done = np.searchsorted(lens, np.arange(lens[-1]), side="right").tolist()
    h = np.zeros((lengths.size, hid), dtype=xp.dtype)
    c = np.zeros_like(h)
    record = _recording(xp, w_h, b)
    gates = h_prev = c_prev = tanh_c = None
    if record:
        gates = np.empty_like(xp.data)                # every row is some function's step
        h_prev, c_prev, tanh_c = (np.empty((n, hid), dtype=xp.dtype) for _ in range(3))
    sig, cand = (np.s_[:, :2 * hid], np.s_[:, 3 * hid:]), np.s_[:, 2 * hid:3 * hid]
    for t, lo in enumerate(done):
        rows = firsts[lo:] + t
        a = h[lo:] @ w_h.data
        a += xp.data[rows] + b.data                 # b joins x first, as seeded runs round
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
    xn, wn, wd, bn = xp.node, w_h.node, w_h.data, b.node

    def backward(g):
        dpre = np.empty_like(gates)             # every row is written once
        dh, dc = g[order], np.zeros(g.shape, dtype=g.dtype)   # per function, in length order
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
            # the gradients decay step by step into subnormals, on which every
            # op runs many times slower; they are flushed to zero
            _flush_subnormal(d)
            dpre[rows] = d                      # a step's rows are distinct, and no row recurs
            dc[lo:] = _flush_subnormal(dc_t * f)
            dh[lo:] = _flush_subnormal(d @ wd.T)
        _accum(wn, h_prev.T @ dpre, own=True)
        _accum(bn, dpre.sum(axis=0), own=True)
        _accum(xn, dpre, own=True)

    return _node(out_data, (xp, w_h, b), backward)


def mean_(x: Tensor, axis: int) -> Tensor:
    """Mean over `axis`: the sum times 1 / extent, a scale in x's dtype."""
    scale = x.dtype.type(1.0 / x.shape[axis])
    out_data = x.data.sum(axis=axis) * scale
    xn, x_shape = x.node, x.shape

    def backward(g):
        _accum(xn, np.broadcast_to(np.expand_dims(g * scale, axis), x_shape))

    return _node(out_data, (x,), backward)


DEFAULT_MARGIN = 0.9
NORM_EPS = 1e-8    # a row whose norm is below this has cosine 0
ZERO_NORM_MESSAGE = "cosine of a vector with near-zero norm; returning 0"


def cosine_pair_loss_batch(e1: Tensor, e2: Tensor, labels, margin: float = DEFAULT_MARGIN) -> Tensor:
    """The mean pair loss over a batch as one node: 1 - cos for a positive
    pair (label +1), max(0, cos - margin) for a negative one (-1).
    e1, e2 [B, E], labels [B] -> a scalar.

    cos is the rows' cosine clipped to [-1, 1]: 0, with a warning, where
    either row's norm is below NORM_EPS, and exactly 1 for bitwise-identical
    rows; both take no gradient. A NaN cosine makes the loss NaN. The bits of
    seeded runs rest on the order of the float operations: the pair terms
    are summed and then scaled by 1/B in the rows' dtype, and cos takes -g/B
    on a positive pair, g/B on a negative above the margin and 0 elsewhere.
    """
    ys = np.asarray(labels)
    if e1.ndim != 2 or e1.shape != e2.shape or not e1.shape[0]:
        raise ValueError(f"the pair loss needs matching [B, E] sides, B >= 1, got {e1.shape} "
                         f"and {e2.shape}")
    if ys.shape != e1.shape[:1]:
        raise ValueError(f"pair labels must be one per pair, shape {e1.shape[:1]}, got {ys.shape}")
    if not np.all(np.isin(ys, (1, -1))):
        raise ValueError("pair labels must be +1 or -1")
    if not 0.0 <= margin <= 1.0:
        raise ValueError(f"margin must be in [0, 1], got {margin}")
    ud, vd = e1.data, e2.data
    dt = ud.dtype
    dot = (ud * vd).sum(axis=1)
    nu = np.sqrt((ud * ud).sum(axis=1))
    nv = np.sqrt((vd * vd).sum(axis=1))
    degenerate = (nu < NORM_EPS) | (nv < NORM_EPS)
    identical = ~degenerate & np.all(ud == vd, axis=1)
    if degenerate.any():
        warnings.warn(ZERO_NORM_MESSAGE, RuntimeWarning, stacklevel=2)
    denom = np.where(degenerate, 1.0, nu * nv)
    cos = np.clip(dot / denom, -1.0, 1.0)
    cos = np.where(degenerate, 0.0, cos)
    cos = np.where(identical, 1.0, cos).astype(dt)
    live = (~degenerate & ~identical).astype(dt)
    m, inv_b = dt.type(margin), dt.type(1.0 / ys.size)
    pos = ys > 0
    active = ~pos & ~(cos <= m)                 # a NaN cosine counts, so the loss is NaN
    per_pair = np.where(pos, 1.0 - cos, np.where(active, cos - m, 0.0))
    un, vn = e1.node, e2.node

    def backward(g):
        g = g * inv_b
        scale = (np.where(pos, -g, np.where(active, g, 0.0)) * live / denom)[:, None]
        cn = cos[:, None]
        nu2 = np.where(nu < NORM_EPS, 1.0, nu * nu)[:, None]
        nv2 = np.where(nv < NORM_EPS, 1.0, nv * nv)[:, None]
        _accum(un, scale * (vd - cn * denom[:, None] * ud / nu2), own=True)
        _accum(vn, scale * (ud - cn * denom[:, None] * vd / nv2), own=True)

    return _node(np.asarray(per_pair.sum() * inv_b), (e1, e2), backward)
