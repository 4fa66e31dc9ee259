"""Shared numeric guards: epsilon clamps, finite checks, event counters; and
the library's root error FlexquantError and its API-misuse ContractError, here
because this module imports nothing from the package, so every module can use them.

Every epsilon clamp in the library goes through this module so runs can
report how often the guards actually fired.

NaN/Inf is checked where a value enters the program or lands in kept
state, not after every op: dataset features (``Dataset``), latent weights
(``quantize_weights_dorefa``), the training loss (``Trainer.train_step``,
which names the first non-finite op on the tape), gradients
(``SGD.step``), calibration statistics (``Trainer.calibrate``) and
eval-mode logits (``QuantNet.forward_at``).
"""

from __future__ import annotations

import numpy as np

# Clamp floor used inside log arguments and variance denominators.
EPS = 1e-12

# Learnable clipping values are re-projected to at least this after each step.
ALPHA_FLOOR = 1e-3

_event_counts: dict[str, int] = {}


class FlexquantError(Exception):
    """Root of every error the library raises. Each subclass also keeps a
    builtin base (ValueError, KeyError, ...), so callers may catch either."""


class ContractError(FlexquantError, ValueError):
    """An argument outside its documented range or set, or an inconsistent mix."""


class NonFiniteError(FlexquantError, ArithmeticError):
    """A checked value holds NaN or Inf."""


def check_finite(arr: np.ndarray, where: str) -> None:
    """Raise NonFiniteError if arr contains NaN or Inf.

    Cheap path: the sum of an array is non-finite iff the array contains a
    non-finite entry (Inf + -Inf collapses to NaN), so one reduction suffices.
    """
    if arr.size and not np.isfinite(np.sum(arr)):
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        if bad == 0:
            # The sum overflowed but every entry is finite; not an op defect.
            return
        raise NonFiniteError(f"{where}: {bad}/{arr.size} non-finite entries")


def count_event(name: str, n: int = 1) -> None:
    if n:
        _event_counts[name] = _event_counts.get(name, 0) + int(n)


def event_counts() -> dict[str, int]:
    return dict(_event_counts)


def clamped_log(x: np.ndarray, event: str) -> np.ndarray:
    """log(max(x, EPS)), counting under event how many entries needed the clamp."""
    n_clamped = int(np.count_nonzero(x < EPS))
    count_event(event, n_clamped)
    return np.log(np.maximum(x, EPS))
