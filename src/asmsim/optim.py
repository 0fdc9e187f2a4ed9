"""Adam updates."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, _row_blocks
from .errors import NumericError


class Adam:
    """Adam with bias correction. State: first/second moments per parameter, step count."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if not 0 < lr < np.inf:
            raise ValueError(f"learning rate must be positive and finite, got {lr}")
        self.params = dict(params)
        self.lr = float(lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self):
        """Apply one update from the gradients stored on the parameters, consuming
        them: each gradient array serves as scratch space for its own update, and
        every parameter's `grad` is None afterwards (a missing one counts as zero).

        Every gradient is checked, block by block, before anything is written:
        a non-finite one raises NumericError and leaves the parameters, the
        moments, the step count and the gradients as they were.

        The update is p -= lr * (m / c1) / (sqrt(v / c2) + eps), computed in that
        operation order through in-place ufuncs over blocks of about _BLOCK
        elements of each parameter (runs of its leading-axis rows), so that each
        pass reads a block from cache. The only arrays a step allocates are one
        block of scratch shared by all parameters and, for a parameter without a
        gradient, a zeroed block in its place."""
        t = self.step_count + 1
        rows = {k: np.atleast_1d(p.data) for k, p in self.params.items()}   # views; 0-d as one row
        blocks = {k: _row_blocks(len(x), x[:1].size) for k, x in rows.items()}
        scratch = np.empty(max((rows[k][b[0]].nbytes for k, b in blocks.items() if b), default=0),
                           dtype=np.uint8)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = np.atleast_1d(p.grad)
            for b in blocks[name]:
                ok = scratch[:g[b].size].view(bool).reshape(g[b].shape)
                if not np.isfinite(g[b], out=ok).all():
                    raise NumericError(f"non-finite gradient for parameter '{name}' at step {t}")
        self.step_count = t
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            x = rows[name]
            grad = None if p.grad is None else np.atleast_1d(p.grad)
            m_rows, v_rows = np.atleast_1d(self.m[name]), np.atleast_1d(self.v[name])
            for b in blocks[name]:
                xb, m, v = x[b], m_rows[b], v_rows[b]
                g = np.zeros_like(xb) if grad is None else grad[b]
                s = scratch[:xb.nbytes].view(x.dtype).reshape(xb.shape)
                m *= self.beta1
                m += np.multiply(g, 1.0 - self.beta1, out=s)
                v *= self.beta2
                g *= g
                g *= 1.0 - self.beta2
                v += g
                np.divide(m, c1, out=s)
                s *= self.lr
                np.divide(v, c2, out=g)
                np.sqrt(g, out=g)
                g += self.eps
                s /= g
                xb -= s
            p.grad = None
