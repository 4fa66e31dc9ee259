"""flexquant: one shared-weight network, many inference bit-widths.

Train a single model whose weights quantize to any bit-width in a chosen
set, using collaborative training (dynamic teacher selection plus dynamic
block swapping) or any of the joint-training baselines, on a small
self-contained float64 autograd engine.
"""

from .autograd import Tensor, Tape, no_grad, backward
from .network import (
    ArchSpec, BitWidthSet, Conv, Dense, BatchNorm, ReLU, MaxPool, Flatten,
    PrecisionBank, QuantNet, SwapMask, mlp, small_cnn,
)
from .quantizers import (
    QuantizedWeightView, quantize_levels, quantize_weights_dorefa,
    truncate_codes, mean_align, quantize_weights_at, quantize_activation,
)
from .config import RunConfig
from .numerics import FlexquantError
from .training import Trainer, delta_b, entropy, sample_swap_mask, select_teacher

__version__ = "0.1.0"

__all__ = [
    "FlexquantError",
    "Tensor", "Tape", "no_grad", "backward",
    "ArchSpec", "BitWidthSet", "Conv", "Dense", "BatchNorm", "ReLU", "MaxPool",
    "Flatten", "PrecisionBank", "QuantNet", "SwapMask", "mlp", "small_cnn",
    "QuantizedWeightView", "quantize_levels", "quantize_weights_dorefa",
    "truncate_codes", "mean_align", "quantize_weights_at", "quantize_activation",
    "RunConfig", "Trainer", "delta_b", "entropy", "sample_swap_mask",
    "select_teacher",
]
