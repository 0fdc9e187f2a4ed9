"""Adam updates."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
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

        Every gradient is checked before anything is written: a non-finite one
        raises NumericError and leaves the parameters, the moments, the step
        count and the gradients as they were.

        The update is p -= lr * (m / c1) / (sqrt(v / c2) + eps), computed in that
        operation order through in-place ufuncs, so the only array a step
        allocates is one scratch buffer shared by all parameters."""
        t = self.step_count + 1
        scratch = np.empty(max((p.data.nbytes for p in self.params.values()), default=0),
                           dtype=np.uint8)
        for name, p in self.params.items():
            if p.grad is None:
                continue
            ok = scratch[:p.grad.size].view(bool).reshape(p.grad.shape)
            if not np.isfinite(p.grad, out=ok).all():
                raise NumericError(f"non-finite gradient for parameter '{name}' at step {t}")
        self.step_count = t
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            s = scratch[:p.data.nbytes].view(p.data.dtype).reshape(p.data.shape)
            m = self.m[name]
            v = self.v[name]
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
            p.data -= s
            p.grad = None
