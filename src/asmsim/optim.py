"""Adam updates and the central-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import NumericError


class Adam:
    """Adam with bias correction. State: first/second moments per parameter, step count."""

    def __init__(self, params: dict[str, Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
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

        The update is p -= lr * (m / c1) / (sqrt(v / c2) + eps), computed in that
        operation order through in-place ufuncs, so the only array a step
        allocates is one scratch buffer shared by all parameters."""
        self.step_count += 1
        t = self.step_count
        c1 = 1.0 - self.beta1 ** t
        c2 = 1.0 - self.beta2 ** t
        scratch = np.empty(max((p.data.nbytes for p in self.params.values()), default=0),
                           dtype=np.uint8)
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            ok = scratch[:g.size].view(bool).reshape(g.shape)
            if not np.isfinite(g, out=ok).all():
                raise NumericError(f"non-finite gradient for parameter '{name}' at step {t}")
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


@dataclass
class ParamCheck:
    max_rel_err: float
    n_checked: int
    passed: bool


@dataclass
class GradCheckReport:
    """Per-parameter comparison of reverse-mode gradients vs central differences."""

    rel_tolerance: float
    per_param: dict[str, ParamCheck] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.per_param.values())

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.per_param.values()), default=0.0)

    def failures(self) -> list[str]:
        return [k for k, c in self.per_param.items() if not c.passed]


def finite_diff_check(f, params: dict[str, Tensor], rel_tolerance: float = 1e-4,
                      rng: np.random.Generator | None = None,
                      max_coords_per_param: int | None = None,
                      atol: float = 1e-6) -> GradCheckReport:
    """Compare reverse-mode gradients of scalar-valued `f()` against central differences.

    `f` must be deterministic and read the current values of `params` (build it
    in double precision; float32 FD noise swamps the tolerance). Coordinates
    where both gradients are below `atol` count as checked and passing.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for name, p in params.items():
        p.grad = None
        if p.data.dtype != np.float64:
            raise ValueError(f"gradient check needs float64 parameters ('{name}' is {p.data.dtype})")
    out = f()
    out.backward()
    analytic = {k: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for k, p in params.items()}

    report = GradCheckReport(rel_tolerance=rel_tolerance)
    for name, p in params.items():
        flat = p.data.reshape(-1)
        an = analytic[name].reshape(-1)
        coords = np.arange(flat.size)
        if max_coords_per_param is not None and coords.size > max_coords_per_param:
            coords = rng.choice(coords, size=max_coords_per_param, replace=False)
        max_err = 0.0
        for i in coords:
            x0 = flat[i]
            h = 6e-6 * max(1.0, abs(x0))
            flat[i] = x0 + h
            f_plus = f().item()
            flat[i] = x0 - h
            f_minus = f().item()
            flat[i] = x0
            fd = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(fd), abs(an[i]))
            if denom < atol:
                continue
            max_err = max(max_err, abs(fd - an[i]) / denom)
        report.per_param[name] = ParamCheck(
            max_rel_err=max_err, n_checked=int(coords.size), passed=max_err <= rel_tolerance
        )
    return report
