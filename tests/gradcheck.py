"""The central-difference gradient checker the tests run reverse-mode
gradients against, and `project`, the scalar they run a backward from.
Import them from a test module as `from gradcheck import finite_diff_check`
(pytest puts `tests/` on the import path)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from asmsim import autodiff as ad
from asmsim.autodiff import Tensor


def project(x: Tensor, proj=1.0) -> Tensor:
    """sum(x * proj) as one node, for a constant array `proj` that broadcasts
    to x's shape and is taken in x's dtype: a scalar whose backward hands x
    the gradient g * proj."""
    proj = np.broadcast_to(np.asarray(proj, dtype=x.dtype), x.shape)
    xn = x.node
    return ad._node(np.asarray((x.data * proj).sum()), (x,),
                    lambda g: ad._accum(xn, g * proj, own=True))


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
