"""Weight and activation quantizers with straight-through gradients.

Weights: tanh-normalized to [0, 1], rounded to the levels of the highest
bit-width b1, and stored as integer codes. Every lower precision b is
derived by dropping the (b1 - b) least significant code bits, then shifting
the dequantized tensor so its mean matches the b1 tensor's mean. Gradients
pass straight through the whole chain to the latent weights.

Activations: clipped to a learnable per-layer alpha, rounded to b-bit
levels, rescaled by alpha. Gradients pass through inside [0, alpha]; the
gradient of alpha collects the upstream gradient over saturated entries.
``activation_quantizer`` holds that forward and mask rule once: a training
block's matmul or conv2d node runs them inside itself, and eval (and the
tests' references) through ``quantize_activation``'s node of their own.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .autograd import Tensor, once_per_tape, record

MAX_BITS = 16


class BitWidthError(numerics.FlexquantError, ValueError):
    """Bit-width outside the supported range or ordering."""


@dataclass
class QuantizedWeightView:
    """Integer codes at the highest precision plus dequantization metadata."""

    codes: np.ndarray  # uint16, values in [0, 2^b1 - 1]
    b1: int
    mean_b1: float


def _check_bits(b: int, lo: int = 1) -> int:
    b = int(b)
    if not lo <= b <= MAX_BITS:
        raise BitWidthError(f"bit-width must be in [{lo}, {MAX_BITS}], got {b}")
    return b


def _round_half_away(v: np.ndarray) -> np.ndarray:
    # np.round rounds half to even; we fix half away from zero instead.
    return np.sign(v) * np.floor(np.abs(v) + 0.5)


def quantize_levels(x: np.ndarray, b: int) -> np.ndarray:
    """Round x in [0, 1] onto the 2^b uniform levels k / (2^b - 1)."""
    b = _check_bits(b)
    x = np.asarray(x, dtype=np.float64)
    if x.size and (x.min() < -1e-9 or x.max() > 1.0 + 1e-9):
        raise numerics.ContractError(f"inputs outside [0, 1]: range [{x.min()}, {x.max()}]")
    x = np.clip(x, 0.0, 1.0)
    n = (1 << b) - 1
    return _round_half_away(n * x) / n


def quantize_weights_dorefa(w, b1: int) -> QuantizedWeightView:
    """Normalize weights via tanh into [0, 1] and code them at b1 bits.

    u = tanh(w) / (2 max|tanh(w)|) + 1/2, codes = round((2^b1 - 1) u).
    An all-zero tensor has no scale; its codes sit at the middle level.
    """
    b1 = _check_bits(b1)
    wd = w.data if isinstance(w, Tensor) else np.asarray(w, dtype=np.float64)
    numerics.check_finite(wd, "quantize_weights_dorefa")
    n = (1 << b1) - 1
    t = np.tanh(wd)
    scale = np.max(np.abs(t)) if t.size else 0.0
    if scale == 0.0:
        warnings.warn("all-zero weight tensor: coding every entry at the middle level")
        numerics.count_event("zero_weight_tensor")
        mid = _round_half_away(np.asarray(n / 2.0))
        codes = np.full(wd.shape, mid, dtype=np.uint16)
    else:
        u = t / (2.0 * scale) + 0.5
        codes = _round_half_away(n * u).astype(np.uint16)
    mean_b1 = float(np.mean(dequantize_codes(codes, b1)))
    return QuantizedWeightView(codes=codes, b1=b1, mean_b1=mean_b1)


def dequantize_codes(codes: np.ndarray, b: int) -> np.ndarray:
    """Map b-bit codes back to values in [-1, 1]."""
    b = _check_bits(b)
    return 2.0 * codes.astype(np.float64) / ((1 << b) - 1) - 1.0


def truncate_codes(view: QuantizedWeightView, b: int) -> np.ndarray:
    """Derive b-bit codes by dropping the (b1 - b) least significant bits."""
    b = _check_bits(b, lo=2)
    if b > view.b1:
        raise BitWidthError(f"cannot truncate {view.b1}-bit codes to {b} bits")
    return view.codes >> (view.b1 - b)


def mean_align(w_b: np.ndarray, mean_ref: float) -> np.ndarray:
    """Additive shift making mean(w_b) equal mean_ref."""
    return w_b + (mean_ref - np.mean(w_b))


def weights_from_codes(view: QuantizedWeightView, b: int) -> np.ndarray:
    """Weight values at bit-width b from b1 codes: truncate, dequantize,
    align the mean to the b1 tensor."""
    return mean_align(dequantize_codes(truncate_codes(view, b), b), view.mean_b1)


def weight_forward(wd: np.ndarray, b: int, b1: int) -> np.ndarray:
    """The full quantized-weight value at bit-width b: code at b1, then
    derive b from the codes. Inside a Tape the b1 codes of wd are computed
    once and shared by every b."""
    view = once_per_tape(("dorefa", b1), (wd,), lambda: quantize_weights_dorefa(wd, b1))
    return weights_from_codes(view, b)


def quantize_weights_at(w: Tensor, b: int, b1: int) -> Tensor:
    """Quantized weight tensor with identity (straight-through) backward."""
    out = weight_forward(w.data, b, b1)

    def bwd(g):
        return (g,)

    return record(out, (w,), bwd, "quantize_weights")


def activation_quantizer(alpha: Tensor, b: int):
    """The PACT-style quantizer at clipping value alpha and b bits, as autograd
    takes it: (alpha, quantize, masks). quantize(ad) clips ad to alpha and
    rounds it to b-bit levels. masks(ad, g) passes g through where
    0 <= ad <= alpha, and gives alpha the sum of g over entries above it.
    A non-positive alpha is counted and floored here, once per forward, so a
    backward that rebuilds the activation by quantize counts nothing."""
    b = _check_bits(b)
    alpha_val = float(alpha.data.reshape(()))  # rejects non-scalar clip values
    if alpha_val <= 0.0:
        numerics.count_event("alpha_nonpositive")
        alpha_val = numerics.ALPHA_FLOOR
    n = (1 << b) - 1

    def quantize(ad):
        # clip(ad) / alpha_val already lies in [0, 1], where quantize_levels'
        # range check and clip change nothing and rounding half away from zero
        # is floor(v + 0.5). Every step runs in one buffer; the scalings by n
        # and alpha_val are written operand-swapped, which IEEE multiplication
        # does not notice.
        out = np.clip(ad, 0.0, alpha_val)
        out /= alpha_val
        out *= n
        out += 0.5
        np.floor(out, out=out)
        out /= n
        out *= alpha_val
        return out

    def masks(ad, g):
        # built in the backward, so forwards without a tape never pay for them
        da = g * ((ad >= 0.0) & (ad <= alpha_val))
        return da, np.asarray(np.sum(g, where=ad > alpha_val)).reshape(alpha.data.shape)

    return alpha, quantize, masks


def quantize_activation(a: Tensor, alpha: Tensor, b: int) -> Tensor:
    """activation_quantizer(alpha, b) applied to a, as a node of its own."""
    _, quantize, masks = activation_quantizer(alpha, b)
    ad = a.data
    return record(quantize(ad), (a, alpha), lambda g: masks(ad, g), "quantize_activation")
