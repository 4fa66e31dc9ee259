"""A shared-weight network executable at any supported bit-width.

One set of latent full-precision weights serves every precision.
QuantNet.weight_at(layer, b) is the one way to read a quantized block: it
codes the latent weights at b1 and derives b from the codes (a net loaded
from codes derives b from its stored codes). Results are memoized per
(layer, b) for the innermost Tape or no_grad block (autograd.memoized)
and die with it, so latent weights may change between blocks, never inside
one; outside any block they are recomputed on every call. Per-precision
state (batch-norm parameters and statistics, activation clipping values)
lives in a PrecisionBank keyed by bit-width. The first and last learnable
layers always run in full precision; the learnable layers between them are
the quantized blocks, and any of those blocks can be swapped to execute at
a teacher bit-width instead of the student's.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import autograd as ag
from . import numerics
from .autograd import Tensor
from .numerics import ContractError
from .quantizers import (
    BitWidthError,
    QuantizedWeightView,
    activation_quantizer,
    quantize_activation,
    quantize_weights_dorefa,
    quantize_weights_at,
    weight_forward,  # unused here; kept importable because span tracers wrap it
    weights_from_codes,
)


class MissingBankError(numerics.FlexquantError, KeyError):
    """No bank entry exists for the requested bit-width."""

    def __init__(self, b: int):
        super().__init__(f"no bank entry for bit-width {b}; run calibration at {b} on the "
                         "checkpoint (export it again to serve it from a bundle)")
        self.bit_width = b

    def __str__(self):
        return self.args[0]


# ---------------------------------------------------------------------------
# architecture description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int
    kind: str = field(default="dense", init=False)


@dataclass(frozen=True)
class Conv:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    kind: str = field(default="conv", init=False)


@dataclass(frozen=True)
class BatchNorm:
    features: int
    kind: str = field(default="bn", init=False)


@dataclass(frozen=True)
class ReLU:
    kind: str = field(default="relu", init=False)


@dataclass(frozen=True)
class MaxPool:
    window: int = 2
    kind: str = field(default="pool", init=False)


@dataclass(frozen=True)
class Flatten:
    kind: str = field(default="flatten", init=False)


_LEARNABLE = ("dense", "conv")

_LAYER_TYPES = {layer.kind: layer for layer in (Dense, Conv, BatchNorm, ReLU, MaxPool, Flatten)}


class ArchSpec:
    """Ordered layer descriptors plus the derived quantization roles.

    Learnable layers (dense/conv) are named positionally. The first and
    last of them are unquantized; the rest are the quantized blocks,
    numbered 1..L from input to output. Dense/conv layers carry no bias:
    in these nets a batch-norm always follows and supplies the offset.
    """

    def __init__(self, layers: list):
        if not layers:
            raise ContractError("architecture needs at least one layer")
        for i, spec in enumerate(layers):
            if _LAYER_TYPES.get(getattr(spec, "kind", None)) is not type(spec):
                raise ContractError(f"layer {i}: {spec!r} is not one of {', '.join(_LAYER_TYPES)}")
            for key, val in spec.__dict__.items():
                low = 0 if key == "padding" else 1
                if key != "kind" and (isinstance(val, bool)
                                      or not isinstance(val, (int, np.integer)) or val < low):
                    raise ContractError(f"layer {i} ({spec.kind}): {key} must be an "
                                        f"integer >= {low}, got {val!r}")
        self.layers = list(layers)
        self.names = [f"{spec.kind}{i}" for i, spec in enumerate(self.layers)]
        self.by_name = dict(zip(self.names, self.layers))
        self.learnable_names = [
            name for spec, name in zip(self.layers, self.names) if spec.kind in _LEARNABLE
        ]
        if not self.learnable_names:
            raise ContractError("architecture has no learnable layers")
        self.quantized_names = self.learnable_names[1:-1]
        self.bn_names = [
            name for spec, name in zip(self.layers, self.names) if spec.kind == "bn"
        ]
        self.block_index = {name: i + 1 for i, name in enumerate(self.quantized_names)}

    @property
    def num_blocks(self) -> int:
        return len(self.quantized_names)

    def weight_shape(self, name: str) -> tuple:
        spec = self.by_name.get(name)
        if isinstance(spec, Dense):
            return (spec.in_features, spec.out_features)
        if isinstance(spec, Conv):
            return (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)
        raise ContractError(f"{name!r} is not a learnable layer; those are {self.learnable_names}")

    def to_json(self) -> list[dict]:
        out = []
        for spec in self.layers:
            d = {"kind": spec.kind}
            for key, val in spec.__dict__.items():
                if key != "kind":
                    d[key] = val
            out.append(d)
        return out

    @staticmethod
    def from_json(data: list[dict]) -> "ArchSpec":
        """Rebuild from to_json output; ContractError for anything else."""
        if not isinstance(data, list):
            raise ContractError(f"architecture must be a list of layers, got {data!r}")
        layers = []
        for i, d in enumerate(data):
            kind = d.get("kind") if isinstance(d, dict) else None
            layer = _LAYER_TYPES.get(kind) if isinstance(kind, str) else None
            if layer is None:
                raise ContractError(f"layer {i}: unknown kind in {d!r}; expected one of "
                                    f"{', '.join(_LAYER_TYPES)}")
            keys = {f.name for f in fields(layer) if f.init}
            required = {f.name for f in fields(layer) if f.init and f.default is MISSING}
            kwargs = {k: v for k, v in d.items() if k != "kind"}
            if not required <= set(kwargs) <= keys:
                raise ContractError(f"layer {i} ({kind}): keys {sorted(kwargs)}, expected "
                                    f"{sorted(required)} plus optional {sorted(keys - required)}")
            layers.append(layer(**kwargs))
        return ArchSpec(layers)


def mlp(input_dim: int, hidden: list[int], classes: int) -> ArchSpec:
    """Dense -> BN -> ReLU stack; hidden layers beyond the first are quantized."""
    layers: list = []
    prev = input_dim
    for width in hidden:
        layers += [Dense(prev, width), BatchNorm(width), ReLU()]
        prev = width
    layers += [Dense(prev, classes), BatchNorm(classes)]
    return ArchSpec(layers)


def small_cnn(in_channels: int, image_size: int, classes: int,
              channels: list[int] | None = None) -> ArchSpec:
    """Conv -> BN -> ReLU blocks with one pooling stage, then a dense head."""
    channels = channels or [8, 8, 16]
    layers: list = []
    prev = in_channels
    for i, ch in enumerate(channels):
        layers += [Conv(prev, ch, kernel=3, stride=1, padding=1), BatchNorm(ch), ReLU()]
        if i == 0:
            layers.append(MaxPool(2))
        prev = ch
    feat = (image_size // 2) ** 2 * prev
    layers += [Flatten(), Dense(feat, classes), BatchNorm(classes)]
    return ArchSpec(layers)


# ---------------------------------------------------------------------------
# bit-width set and swap mask
# ---------------------------------------------------------------------------

class BitWidthSet:
    """Strictly descending, duplicate-free bit-widths in [2, 16]."""

    def __init__(self, bits):
        bits = [int(b) for b in bits]
        if not bits:
            raise BitWidthError("bit-width set is empty")
        if len(set(bits)) != len(bits):
            raise BitWidthError(f"duplicate bit-widths in {bits}")
        for b in bits:
            if not 2 <= b <= 16:
                raise BitWidthError(f"bit-width {b} outside [2, 16]")
        self.bits = sorted(bits, reverse=True)

    @property
    def b1(self) -> int:
        return self.bits[0]

    def teachers_of(self, b: int) -> list[int]:
        """Every strictly higher precision in the set, descending."""
        return [t for t in self.bits if t > b]

    def __iter__(self):
        return iter(self.bits)

    def __len__(self):
        return len(self.bits)

    def __contains__(self, b):
        return int(b) in self.bits

    def __eq__(self, other):
        return isinstance(other, BitWidthSet) and self.bits == other.bits

    def __repr__(self):
        return f"BitWidthSet({self.bits})"


@dataclass
class SwapMask:
    """Per-block booleans: True executes the student block, False the teacher's."""

    beta: np.ndarray

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=bool)

    @property
    def student_fraction(self) -> float:
        return float(np.mean(self.beta)) if self.beta.size else 1.0

    def any_teacher(self) -> bool:
        return bool(np.any(~self.beta))


# ---------------------------------------------------------------------------
# precision bank
# ---------------------------------------------------------------------------

class BNState:
    def __init__(self, features: int):
        self.gamma = Tensor(np.ones(features), requires_grad=True)
        self.beta = Tensor(np.zeros(features), requires_grad=True)
        self.running_mean = np.zeros(features)
        self.running_var = np.ones(features)


class BankEntry:
    def __init__(self, arch: ArchSpec, alpha_init: float, bn: dict | None = None,
                 alpha: dict | None = None):
        """bn and alpha, when given, are another entry's dicts to share."""
        self.bn = bn if bn is not None else {
            name: BNState(arch.by_name[name].features) for name in arch.bn_names}
        self.alpha = alpha if alpha is not None else {
            name: Tensor(np.asarray(float(alpha_init)), requires_grad=True)
            for name in arch.quantized_names
        }

    def copy_values(self, src: "BankEntry", statistics: bool) -> None:
        """Take src's BN affine parameters and clipping values, and with
        statistics also its BN running mean and variance."""
        for name, st in self.bn.items():
            other = src.bn[name]
            st.gamma.data = other.gamma.data.copy()
            st.beta.data = other.beta.data.copy()
            if statistics:
                st.running_mean = other.running_mean.copy()
                st.running_var = other.running_var.copy()
        for name, a in self.alpha.items():
            a.data = src.alpha[name].data.copy()


class PrecisionBank:
    """Per-bit-width BN and clipping state over one architecture, and the one
    record of which bit-widths a network can run: `bits` is the trained set,
    `entries` adds any untrained (zero-shot) entry, all within [2, bits.b1].

    share_bn / share_alpha alias the BN and clipping dicts across the trained
    entries, which is how the joint and switchable-BN baselines are expressed.
    """

    def __init__(self, bits: BitWidthSet, arch: ArchSpec, alpha_init: float = 6.0,
                 bn_momentum: float = 0.1, share_bn: bool = False, share_alpha: bool = False):
        self.bits = bits
        self.arch = arch
        self.alpha_init = float(alpha_init)
        self.bn_momentum = float(bn_momentum)
        self.entries: dict[int, BankEntry] = {}
        for b in bits:  # descending, so the b1 entry comes first
            first = self.entries.get(bits.b1)
            self.entries[b] = BankEntry(arch, alpha_init,
                                        first.bn if first and share_bn else None,
                                        first.alpha if first and share_alpha else None)

    def entry(self, b: int) -> BankEntry:
        """The entry for b; BitWidthError outside [2, b1], MissingBankError
        for a bit-width inside that range that has no entry."""
        try:
            return self.entries[int(b)]
        except KeyError:
            self._check_runnable(int(b))
            raise MissingBankError(int(b)) from None

    def has(self, b: int) -> bool:
        return int(b) in self.entries

    def _check_runnable(self, b: int) -> None:
        b1 = self.bits.b1
        if not 2 <= b <= b1:
            raise BitWidthError(f"cannot run bit-width {b}: codes are stored at "
                                f"b1={b1}, so b must be in [2, {b1}]")

    def ensure_entry(self, b: int) -> BankEntry:
        """The entry for b, created if missing by borrowing the BN affine
        parameters and clipping values of the nearest trained bit-width (ties
        round up). Running statistics are left to calibration. Untrained
        entries never lend, so the order they are added in does not matter."""
        b = int(b)
        if b in self.entries:
            return self.entries[b]
        self._check_runnable(b)
        nearest = min(self.bits, key=lambda t: (abs(t - b), -t))
        entry = BankEntry(self.arch, self.alpha_init)
        entry.copy_values(self.entries[nearest], statistics=False)
        self.entries[b] = entry
        return entry

    def named_parameters(self) -> tuple[dict[str, Tensor], dict[str, Tensor]]:
        """(BN params, alpha params), deduplicated across shared entries.

        Shared objects are named after the highest bit-width that holds them,
        so parameter names are stable for checkpoints and optimizers.
        """
        bn_params: dict[str, Tensor] = {}
        alpha_params: dict[str, Tensor] = {}
        seen: set[int] = set()
        for b in sorted(self.entries, reverse=True):
            entry = self.entries[b]
            for name, st in entry.bn.items():
                if id(st.gamma) not in seen:
                    seen.add(id(st.gamma))
                    bn_params[f"bank{b}.{name}.gamma"] = st.gamma
                    bn_params[f"bank{b}.{name}.beta"] = st.beta
            for name, a in entry.alpha.items():
                if id(a) not in seen:
                    seen.add(id(a))
                    alpha_params[f"bank{b}.{name}.alpha"] = a
        return bn_params, alpha_params


class StatsCollector:
    """Accumulates exact pooled per-channel moments during calibration."""

    def __init__(self):
        self.moments: dict[str, list] = {}  # per BN layer: [sum, sum of squares, count]

    def update(self, name: str, x: np.ndarray) -> None:
        axes = ag._bn_axes(x)[0]  # the axes batch norm reduces over
        s = x.sum(axis=axes)
        sq = (x * x).sum(axis=axes)
        count = x.size // x.shape[1]
        acc = self.moments.get(name)
        if acc is None:
            self.moments[name] = [s, sq, count]
        else:
            acc[0] += s
            acc[1] += sq
            acc[2] += count

    def finalize(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        out = {}
        for name, (s, sq, n) in self.moments.items():
            mean = s / n
            var = np.maximum(sq / n - mean * mean, 0.0)
            out[name] = (mean, var)
        return out


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

class QuantNet:
    """Shared latent weights over one precision bank, whose architecture and
    trained bit-width set the network takes as its own."""

    def __init__(self, bank: PrecisionBank, rng: np.random.Generator):
        """A live network, its latent weights drawn from rng."""
        if not isinstance(rng, np.random.Generator):
            raise ContractError(f"a network draws its weights from a np.random.Generator, not "
                                f"{rng!r}; one from stored codes is built with from_codes")
        self.bank, self.arch, self.bits = bank, bank.arch, bank.bits
        self.frozen, self._views = False, {}
        self.weights: dict[str, Tensor] = {}
        for name in self.arch.learnable_names:
            shape = self.arch.weight_shape(name)
            fan_in = shape[0] if len(shape) == 2 else int(np.prod(shape[1:]))
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
            self.weights[name] = Tensor(w, requires_grad=True)

    @classmethod
    def from_codes(cls, bank: PrecisionBank, views: dict[str, QuantizedWeightView],
                   fp_weights: dict[str, np.ndarray]) -> "QuantNet":
        """Eval-only network reconstructed from stored integer codes."""
        net = cls.__new__(cls)  # no weights to draw
        net.bank, net.arch, net.bits = bank, bank.arch, bank.bits
        net.frozen, net._views = True, views
        net.weights = {name: Tensor(w) for name, w in fp_weights.items()}
        return net

    def named_weights(self) -> dict[str, Tensor]:
        return {f"weights.{name}": w for name, w in self.weights.items()}

    def codes(self, name: str) -> QuantizedWeightView:
        """One quantized block's b1 codes: a loaded net's stored view, at the
        view's own b1, or a live net's latent weights coded at bits.b1."""
        if self.frozen:
            return self._views[name]
        return quantize_weights_dorefa(self.weights[name].data, self.bits.b1)

    def weight_at(self, name: str, b: int) -> Tensor:
        """Quantized weights of one block at bit-width b.

        Live nets code their latent weights (recording a straight-through node
        while a tape is active); nets loaded from codes derive b from the
        stored codes. Results are memoized in the innermost block's memo under
        (net, layer, b); outside any block they are recomputed.
        """
        def compute():
            if self.frozen:
                return Tensor(weights_from_codes(self._views[name], b))
            return quantize_weights_at(self.weights[name], b, self.bits.b1)

        return ag.memoized((self, name, int(b)), (), compute)

    # -- execution ----------------------------------------------------------

    def forward_at(self, x, b: int, mask: SwapMask | None = None,
                   teacher_b: int | None = None, mode: str = "train",
                   collector: StatsCollector | None = None) -> Tensor:
        """Run the network at bit-width b, optionally swapping blocks to a teacher.

        Swapped blocks execute entirely at the teacher precision: teacher
        weights, teacher clipping value, teacher BN entry. Unquantized
        first/last layers keep full-precision weights but use the student
        bit-width's BN entries. Eval-mode logits are checked for NaN/Inf.
        Train mode inside no_grad, where calibration collects BN inputs, changes no state.
        """
        b = int(b)
        if mode not in ("train", "eval"):
            raise ContractError(f"unknown mode {mode!r}")
        if self.frozen and mode != "eval":
            raise ContractError("a network loaded from codes is eval-only")
        if mode == "eval" and ag.active_tape() is not None:  # before any op records a node
            raise ContractError("eval-mode batchnorm has no backward rule; run eval under no_grad")
        entries = {b: self.bank.entry(b)}  # fail fast: b outside [2, b1], or no entry for b
        if mask is not None:
            if len(mask.beta) != self.arch.num_blocks:
                raise ContractError(
                    f"mask length {len(mask.beta)} != {self.arch.num_blocks} blocks"
                )
            if mask.any_teacher():
                if teacher_b is None:
                    raise ContractError("mask swaps in teacher blocks but teacher_b is missing")
                teacher_b = int(teacher_b)
                if teacher_b not in self.bits or teacher_b <= b:
                    raise ContractError(
                        f"teacher bit-width {teacher_b} must be in {self.bits.bits} and > {b}"
                    )
                entries[teacher_b] = self.bank.entry(teacher_b)
        cur = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
        # owner: the entry whose clipping values and BN state the next layers read
        owner, fused, layers = entries[b], -1, self.arch.layers
        for i, (spec, name) in enumerate(zip(layers, self.arch.names)):
            kind = spec.kind
            if i <= fused:  # run inside the batch norm before it
                continue
            if kind in _LEARNABLE:
                block, quant = self.arch.block_index.get(name), None
                if block is None:
                    w = self.weights[name]
                    owner = entries[b]
                else:
                    b_eff = b if mask is None or mask.beta[block - 1] else teacher_b
                    owner = entries[b_eff]
                    if mode == "train":  # quantized in the matmul or conv node, which keeps x
                        quant = activation_quantizer(owner.alpha[name], b_eff)
                    else:
                        cur = quantize_activation(cur, owner.alpha[name], b_eff)
                    w = self.weight_at(name, b_eff)
                if kind == "dense":
                    cur = ag.matmul(cur, w, quant)
                else:
                    cur = ag.conv2d(cur, w, spec.stride, spec.padding, quant)
            elif kind == "bn":
                st = owner.bn[name]
                if collector is not None:
                    collector.update(name, cur.data)
                # train mode runs a ReLU after a batch norm, and a max-pool after that, in its node
                after = layers[i + 1 : i + 3] if mode == "train" else ()
                relu = len(after) > 0 and after[0].kind == "relu"
                pool = after[1].window if relu and len(after) > 1 and after[1].kind == "pool" else 0
                fused = i + relu + (pool > 0)
                cur = ag.batchnorm(cur, st.gamma, st.beta, st.running_mean, st.running_var,
                                   self.bank.bn_momentum, mode, relu=relu, pool=pool)
            elif kind == "relu":
                cur = ag.relu(cur)
            elif kind == "pool":
                cur = ag.maxpool2d(cur, spec.window)
            else:
                cur = ag.flatten(cur)
        if mode == "eval":
            numerics.check_finite(cur.data, f"forward_at b={b} eval logits")
        return cur

    def model_distance(self, bi: int, bj: int) -> float:
        """Sum over quantized blocks of the mean |elementwise difference|
        between the two precisions' quantized weights."""
        bi, bj = int(bi), int(bj)
        for bb in (bi, bj):
            if bb not in self.bits:
                raise BitWidthError(f"bit-width {bb} not in {self.bits.bits}")
        total = 0.0
        for name in self.arch.quantized_names:
            wi = self.weight_at(name, bi).data
            wj = self.weight_at(name, bj).data
            total += float(np.mean(np.abs(wi - wj)))
        return total
