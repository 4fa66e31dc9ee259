"""SGD with momentum and weight decay over named parameter groups."""

from __future__ import annotations

import numpy as np

from . import numerics
from .autograd import Tensor


class StepError(numerics.FlexquantError, RuntimeError):
    """An optimizer step was aborted (non-finite gradient)."""


class ParamGroup:
    """Named tensors updated with one (lr, momentum, weight_decay) setting.

    ``min_value``, when set, re-projects each parameter to at least that
    value after the update (used for learnable clipping values).
    """

    def __init__(self, params: dict[str, Tensor], lr: float, momentum: float = 0.0,
                 weight_decay: float = 0.0, min_value: float | None = None):
        if lr <= 0.0:
            raise numerics.ContractError(f"lr must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise numerics.ContractError(f"momentum must be in [0, 1), got {momentum}")
        self.params = dict(params)
        self.base_lr = float(lr)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.min_value = min_value


class SGD:
    """v <- momentum*v + grad + weight_decay*param;  param <- param - lr*v.

    Parameters whose .grad is None are skipped entirely (no decay, no
    velocity update), so bank entries untouched by a step stay bitwise
    unchanged.
    """

    def __init__(self, groups: list[ParamGroup]):
        self.groups = groups
        self.velocity: dict[str, np.ndarray] = {}
        seen: set[str] = set()
        for group in groups:
            for name in group.params:
                if name in seen:
                    raise numerics.ContractError(f"parameter {name!r} appears in two groups")
                seen.add(name)

    def set_lr_factor(self, factor: float) -> None:
        for group in self.groups:
            group.lr = group.base_lr * factor

    def zero_grad(self) -> None:
        for group in self.groups:
            for p in group.params.values():
                p.grad = None

    def step(self) -> None:
        # every gradient is checked before any parameter moves, so a
        # rejected step leaves parameters and velocities as they were
        for group in self.groups:
            for name, p in group.params.items():
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    raise StepError(f"non-finite gradient on {name!r}; step aborted")
        for group in self.groups:
            for name, p in group.params.items():
                g = p.grad
                if g is None:
                    continue
                if group.weight_decay:
                    g = g + group.weight_decay * p.data
                v = self.velocity.get(name)
                if group.momentum:
                    if v is None:
                        v = np.array(g)
                    else:
                        v *= group.momentum
                        v += g
                    self.velocity[name] = v
                else:
                    v = g
                p.data = p.data - group.lr * v
                if group.min_value is not None:
                    n_low = int(np.count_nonzero(p.data < group.min_value))
                    if n_low:
                        numerics.count_event("alpha_floor", n_low)
                        p.data = np.maximum(p.data, group.min_value)

    def state(self) -> dict[str, np.ndarray]:
        return {name: v.copy() for name, v in self.velocity.items()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        self.velocity = {name: np.array(v, dtype=np.float64) for name, v in state.items()}


def step_decay_factor(epoch: int, total_epochs: int) -> float:
    """x0.1 at 50% and again at 75% of the epoch budget."""
    factor = 1.0
    if epoch >= total_epochs * 0.5:
        factor *= 0.1
    if epoch >= total_epochs * 0.75:
        factor *= 0.1
    return factor
