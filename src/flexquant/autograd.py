"""Dense float64 tensors with reverse-mode differentiation on an explicit tape.

The engine is deliberately small: enough ops to train MLPs and CNNs whose
layers quantize weights and activations. Everything runs in 64-bit floats
and single-threaded graph construction, so identical seeds give bitwise
identical forwards and gradients.

Recording model: while a Tape is active (``with tape:``), every op whose
inputs require gradients appends one node. Nodes are appended in execution
order, which is already a topological order, so ``backward`` is a single
reverse sweep. Backward rules receive the upstream gradient and return one
array per input; the engine owns accumulation. A rule may return None for an
input that needs no gradient (one with requires_grad False, such as the data
fed to a first dense or conv layer, or kl_div's target) and skip computing it;
the engine skips None. add takes operands of one shape.
A train-mode batch norm and the ReLU after it may record one node
(``batchnorm(..., relu=True)``), which keeps no pre-activation tensor and no
normalized copy.

Memo: each Tape and each ``no_grad`` block owns a ``memo`` dict that lives
and dies with it. Blocks nest per thread, so threads that each open their
own never see each other's. ``active_memo()`` returns the innermost block's and
``memoized`` gets or computes a value there. Values memoized there (a
network's quantized weights, eval batch norm's per-channel affine) are never
seen by another block, so what they derive from may change between blocks,
never inside one. A Tape's memo also holds op results that do not depend on
the bit-width (``once_per_tape``): a training step runs every bit-width on
the same batch, so the first layer's output and its per-channel batch
statistics (not a normalized copy), and each latent weight tensor's b1 codes,
are computed once per step. They are keyed by the identity of the input
arrays. A conv2d node keeps its input, not its im2col columns, and a
train-mode batch norm its input, not x_hat: each backward rebuilds what its
forward let go. So no tensor's .data is written in place from a tape's first
op until its backward has run. Each call still records its own node, so the
tape and the bits are the same as without the reuse. ``no_grad`` blocks
reuse parameter-derived values only, never per-batch results: a long one (a
serving loop) would otherwise keep every batch's results until it ends. Nor
does one change state: train-mode batch norm folds its statistics into the
running estimates everywhere but inside one.

Gradient ownership: a rule never writes into its upstream gradient or into
any array captured from its forward, so calling it twice gives the same
result. It returns arrays it has just allocated, or views (of the upstream
gradient or of anything else). The engine adopts a fresh array as the
input's .grad without copying it and copies everything else: the upstream
gradient itself, views, read-only arrays, and an array already adopted for
another input of the same node. Later uses of the input add into that
buffer in place. The sweep frees each node output's .grad as that node's
rule runs, so after ``backward`` only leaves (tensors no node produced:
weights, batch-norm parameters, clipping values, inputs) hold one.
"""

from __future__ import annotations

import threading

import numpy as np

from . import numerics


class GraphError(numerics.FlexquantError, RuntimeError):
    """Structural problem in the recorded graph."""


class DimensionError(numerics.FlexquantError, ValueError):
    """Operand shapes are incompatible."""


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Node:
    __slots__ = ("inputs", "output", "backward_fn", "name")

    def __init__(self, inputs, output, backward_fn, name):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.name = name


class _Block:
    """A with-block on the tape stack, owning a memo that lives and dies with it."""

    def __init__(self):
        self.memo: dict = {}

    def __enter__(self):
        _blocks.stack.append(self)
        return self

    def __exit__(self, *exc):
        popped = _blocks.stack.pop()
        if popped is not self:
            raise GraphError("tape stack corrupted")
        return False


class Tape(_Block):
    """Ordered record of differentiable ops (execution order == topo order)."""

    def __init__(self):
        super().__init__()
        self.nodes: list[Node] = []

    def __len__(self):
        return len(self.nodes)

    def backward(self, loss: Tensor) -> None:
        backward(self, loss)


class no_grad(_Block):
    """Context manager that suppresses recording entirely."""


class _ThreadBlocks(threading.local):
    def __init__(self):
        self.stack: list[_Block] = []  # this thread's open blocks, innermost last


_blocks = _ThreadBlocks()


def active_tape() -> Tape | None:
    """The innermost block if it is a Tape; None inside no_grad or outside any block."""
    top = stack[-1] if (stack := _blocks.stack) else None
    return top if isinstance(top, Tape) else None


def active_memo() -> dict | None:
    """The innermost Tape's or no_grad block's memo; None outside any block."""
    return stack[-1].memo if (stack := _blocks.stack) else None


def memoized(key: tuple, arrays: tuple, compute):
    """compute(), at most once per innermost block for key and these arrays.

    The result is kept in the block's memo under key and the ids of arrays;
    the entry holds the arrays, so no id is recycled while the block lives.
    Outside any block compute() runs on every call and nothing is kept.
    """
    memo = active_memo()
    if memo is None:
        return compute()
    k = (*key, *map(id, arrays))
    hit = memo.get(k)
    if hit is None:
        hit = memo[k] = (arrays, compute())
    return hit[1]


def once_per_tape(key: tuple, arrays: tuple, compute):
    """memoized(key, arrays, compute) under a Tape; compute() anywhere else."""
    return compute() if active_tape() is None else memoized(key, arrays, compute)


def record(out_data: np.ndarray, inputs: tuple, backward_fn, name: str) -> Tensor:
    """Create the output tensor of an op and record its node on the active tape.

    ``backward_fn(grad)`` must return one gradient array (or None) per input.
    It must not write into ``grad`` or into any array its forward captured.
    Each returned array is either one it has just allocated, which the engine
    may keep as the input's .grad, or a view, which the engine copies.
    """
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = False
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(Node(inputs, out, backward_fn, name))
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Add d loss / d t into .grad of every requires_grad leaf t reachable
    from loss; a leaf whose .grad is None gets a fresh array.

    Node outputs end the sweep with .grad None: each is freed as its rule
    runs. So a second backward over the same tape adds exactly the same
    gradients into the leaves again.
    """
    if loss.data.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.data.shape}")
    if not loss.requires_grad:
        raise GraphError("loss does not depend on any requires_grad tensor")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        # every use of this output ran later, so its gradient is complete and
        # no other rule reads it: the rule's call holds the last reference
        out_grad, node.output.grad = node.output.grad, None
        if out_grad is not None:
            _accumulate(node.inputs, node.backward_fn(out_grad), out_grad)


def _accumulate(inputs: tuple, grads, out_grad: np.ndarray) -> None:
    """Add a rule's gradients into its inputs' .grad, adopting or copying
    as the module docstring says; nothing the rule returned outlives the call
    except what an input adopts."""
    adopted = []
    for inp, g in zip(inputs, grads):
        if g is None or not inp.requires_grad:
            continue
        if inp.grad is None:
            # keep what the rule just allocated; copy anything shared
            if (g is out_grad or g.base is not None or not g.flags.writeable
                    or any(g is a for a in adopted)):
                g = np.array(g)
            inp.grad = g
            adopted.append(g)
        else:
            inp.grad += g


# ---------------------------------------------------------------------------
# elementwise / linear algebra
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add expects one shape, got {a.data.shape} + {b.data.shape}")
    out = a.data + b.data

    def bwd(g):
        return g, g

    return record(out, (a, b), bwd, "add")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims disagree: {a.data.shape} @ {b.data.shape}")
    out = once_per_tape(("matmul",), (a.data, b.data), lambda: a.data @ b.data)

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None), a.data.T @ g

    return record(out, (a, b), bwd, "matmul")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def bwd(g):
        return (g * (a.data > 0.0),)

    return record(out, (a,), bwd, "relu")


def sum_(a: Tensor) -> Tensor:
    out = np.asarray(np.sum(a.data))

    def bwd(g):
        return (np.broadcast_to(g, a.data.shape),)

    return record(out, (a,), bwd, "sum")


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.data.shape),)

    return record(out, (a,), bwd, "reshape")


def flatten(a: Tensor) -> Tensor:
    """Collapse all but the leading (batch) dimension."""
    return reshape(a, (a.data.shape[0], -1))


# ---------------------------------------------------------------------------
# softmax / losses
# ---------------------------------------------------------------------------

def softmax(a: Tensor) -> Tensor:
    """Row softmax (last axis), shifted by the row max for stability."""
    z = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.sum(e, axis=-1, keepdims=True)

    def bwd(g):
        dot = np.sum(g * p, axis=-1, keepdims=True)
        return (p * (g - dot),)

    return record(p, (a,), bwd, "softmax")


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log p[label]; probs are row distributions."""
    p = probs.data
    if p.ndim != 2:
        raise DimensionError(f"cross_entropy expects 2-D probabilities, got {p.shape}")
    labels = np.asarray(labels)
    if labels.shape != (p.shape[0],):
        raise DimensionError(f"labels shape {labels.shape} != ({p.shape[0]},)")
    n = p.shape[0]
    picked = p[np.arange(n), labels]
    out = np.asarray(-np.sum(numerics.clamped_log(picked, "ce_clamp")) / n)

    def bwd(g):
        dp = np.zeros_like(p)
        inside = picked >= numerics.EPS
        dp[np.arange(n), labels] = np.where(
            inside, -float(g) / (n * np.maximum(picked, numerics.EPS)), 0.0
        )
        return (dp,)

    return record(out, (probs,), bwd, "cross_entropy")


def kl_div(p: Tensor, q: Tensor) -> Tensor:
    """Mean over the batch of sum_i p_i * log(p_i / q_i); rows are distributions.

    p is the target and takes no gradient, even where it requires one; only
    q does. Zero entries of p contribute nothing (0 * log 0 := 0); zero
    entries of q under positive p are clamped to EPS and counted.
    """
    pd, qd = p.data, q.data
    if pd.shape != qd.shape or pd.ndim != 2:
        raise DimensionError(f"kl_div expects matching 2-D inputs, got {pd.shape} vs {qd.shape}")
    n = pd.shape[0]
    pos = pd > 0.0
    log_ratio = numerics.clamped_log(pd, "kl_clamp") - numerics.clamped_log(qd, "kl_clamp")
    out = np.asarray(np.sum(np.where(pos, pd * log_ratio, 0.0)) / n)

    def bwd(g):
        return None, np.where(pos & (qd >= numerics.EPS),
                              -float(g) * pd / (n * np.maximum(qd, numerics.EPS)), 0.0)

    return record(out, (p, q), bwd, "kl_div")


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------

def _bn_axes(x: np.ndarray):
    if x.ndim == 2:
        return (0,), (1, x.shape[1])
    if x.ndim == 4:
        return (0, 2, 3), (1, x.shape[1], 1, 1)
    raise DimensionError(f"batchnorm expects 2-D or 4-D input, got {x.shape}")


def batchnorm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    momentum: float,
    mode: str,
    relu: bool = False,
) -> Tensor:
    """Normalize per feature/channel. Train mode uses batch statistics and
    folds them into the running estimates, except inside no_grad (which
    changes no state); eval mode applies the running estimates as one
    per-channel affine map and records nothing, so never runs under a Tape.
    Variances are biased (ddof=0) throughout. A train-mode node keeps its
    input, its output and the per-channel mu and s; its backward rebuilds
    x_hat from the input by the forward's operations, so the bits are those
    of keeping it. relu, in train mode only, applies the ReLU after it in the
    output buffer and masks the gradient by that output (> 0 where its input
    is): one node, the bits of two, no pre-activation.
    """
    xd = x.data
    axes, pshape = _bn_axes(xd)
    if gamma.data.shape[0] != pshape[1]:
        raise DimensionError(
            f"batchnorm: {gamma.data.shape[0]} params vs {pshape[1]} channels"
        )
    gam = gamma.data.reshape(pshape)
    bet = beta.data.reshape(pshape)
    if mode == "train":
        m = xd.size // pshape[1]

        def stats():
            # np.mean is a sum then a true divide, and np.var squares the
            # centred input in place: the same operations, in the same
            # order, give the same bits
            mu = np.add.reduce(xd, axes) / m
            d = xd - mu.reshape(pshape)
            var = np.add.reduce(np.multiply(d, d, out=d), axes) / m
            return mu, var, np.sqrt(var.reshape(pshape) + numerics.EPS)

        # the batch statistics depend on the input only, so every bit-width
        # whose BN layer sees the same input (the first layer's) shares them
        mu, var, s = once_per_tape(("batchnorm",), (xd,), stats)
        # a no_grad block (its eval affines derive from the running estimates)
        # and a non-finite batch (a step the trainer will reject) leave them be
        if ((active_tape() is not None or not _blocks.stack)
                and np.isfinite(mu).all() and np.isfinite(var).all()):
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * var
        # x_hat, made the output in place: IEEE multiplication commutes, so
        # x_hat * gam has the bits of gam * x_hat
        out = xd - mu.reshape(pshape)
        out /= s
        out *= gam
        out += bet
        if relu:
            np.maximum(out, 0.0, out=out)

        def bwd(g):
            if relu:
                g = g * (out > 0.0)  # the rule's own array, so dx is formed in it
            # x_hat rebuilt from the input by the forward's two operations,
            # then (gam / s) * (g - g_mean - x_hat * gx_mean), with the factor
            # applied last; IEEE multiplication commutes, so the bits match
            x_hat = xd - mu.reshape(pshape)
            x_hat /= s
            buf = g * x_hat
            dgamma = np.add.reduce(buf, axes)
            dbeta = np.add.reduce(g, axes)
            g_mean = (dbeta / m).reshape(pshape)
            gx_mean = (dgamma / m).reshape(pshape)
            dx = np.subtract(g, g_mean, out=g if relu else buf)
            x_hat *= gx_mean
            dx -= x_hat
            dx *= gam / s
            return dx, dgamma, dbeta

        return record(out, (x, gamma, beta), bwd, "batchnorm_train")

    if mode == "eval":
        if relu:
            raise numerics.ContractError("eval-mode batchnorm fuses no ReLU; apply relu after it")
        if active_tape() is not None:
            raise numerics.ContractError("eval-mode batchnorm has no backward rule; "
                                         "run it under no_grad")

        def affine():
            scale = gam / np.sqrt(running_var.reshape(pshape) + numerics.EPS)
            return scale, bet - running_mean.reshape(pshape) * scale

        # fixed for a whole eval pass, so once per (layer, bank entry) per block
        scale, shift = memoized(("batchnorm_eval",),
                                (gamma.data, beta.data, running_mean, running_var), affine)
        out = xd * scale
        out += shift
        return Tensor(out)

    raise numerics.ContractError(f"batchnorm mode must be 'train' or 'eval', got {mode!r}")


# ---------------------------------------------------------------------------
# convolution / pooling
# ---------------------------------------------------------------------------

def _conv_out_size(h: int, k: int, stride: int, padding: int) -> int:
    return (h + 2 * padding - k) // stride + 1


def _im2col(xd: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            ho: int, wo: int) -> np.ndarray:
    """Receptive fields of NCHW xd as rows in (kh, kw, C) order, cut from a
    channel-last padded copy, so each window offset copies contiguous channels."""
    n, c, h, wid = xd.shape
    xp = np.zeros((n, h + 2 * padding, wid + 2 * padding, c))
    xp[:, padding : padding + h, padding : padding + wid] = xd.transpose(0, 2, 3, 1)
    sn, sh, sw, sc = xp.strides
    windows = np.lib.stride_tricks.as_strided(xp, shape=(n, ho, wo, kh, kw, c), strides=(
        sn, sh * stride, sw * stride, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(windows).reshape(n * ho * wo, kh * kw * c)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with FCKK kernels. The node keeps the
    input, not its im2col columns: the backward rebuilds them for dw."""
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input and kernel, got {xd.shape}, {wd.shape}")
    n, c, h, wid = xd.shape
    f, cw, kh, kw = wd.shape
    if cw != c:
        raise DimensionError(f"conv2d channel mismatch: input {c}, kernel {cw}")
    hp, wp = h + 2 * padding, wid + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(wid, kw, stride, padding)
    wmat = wd.transpose(0, 2, 3, 1).reshape(f, kh * kw * c)  # the columns' K order
    im2col = (xd, kh, kw, stride, padding, ho, wo)
    # the first layer sees the same batch and weights at every bit-width
    out = once_per_tape(("conv2d", stride, padding), (xd, wd), lambda: np.ascontiguousarray(
        (_im2col(*im2col) @ wmat.T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)))

    def bwd(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        dw = (g2.T @ _im2col(*im2col)).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
        if not x.requires_grad:
            return None, dw
        dcols = (g2 @ wmat).reshape(n, ho, wo, kh, kw, c)
        # col2im into a channel-last (N, H, W, C) buffer, so each window
        # offset adds a block with contiguous channels; the (i, j) order
        # fixes the order of every overlapping sum.
        dxp = np.zeros((n, hp, wp, c))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i : i + ho * stride : stride, j : j + wo * stride : stride] += (
                    dcols[:, :, :, i, j]
                )
        if padding:
            dxp = dxp[:, padding:-padding, padding:-padding]
        return np.ascontiguousarray(dxp.transpose(0, 3, 1, 2)), dw

    return record(out, (x, w), bwd, "conv2d")


def maxpool2d(x: Tensor, k: int = 2) -> Tensor:
    """Non-overlapping max pooling (stride == window); trailing rows/cols drop.

    Output and gradient go to the first maximum of each window in row-major
    window order, as argmax would pick it (ties include -0.0 == 0.0).
    """
    xd = x.data
    if xd.ndim != 4:
        raise DimensionError(f"maxpool2d expects 4-D input, got {xd.shape}")
    n, c, h, w = xd.shape
    ho, wo = h // k, w // k
    if ho == 0 or wo == 0:
        raise DimensionError(f"pool window {k} larger than input {h}x{w}")
    # One (n, c, ho, wo) view per window offset, in window order.
    offsets = [(i, j) for i in range(k) for j in range(k)]
    views = [xd[:, :, i : ho * k : k, j : wo * k : k] for i, j in offsets]
    top = views[0].copy()
    for v in views[1:]:
        np.maximum(top, v, out=top)
    # np.maximum may keep either zero of a -0.0/0.0 tie, so each routed entry
    # is copied over `top`; a window holding NaN routes none and keeps the
    # NaN np.maximum propagated.
    out = top
    free = np.ones((n, c, ho, wo), dtype=bool)
    firsts = []
    for v in views:
        first = v == top
        first &= free
        free ^= first
        np.copyto(out, v, where=first)
        firsts.append(first)

    def bwd(g):
        dx = np.zeros_like(xd)
        for (i, j), first in zip(offsets, firsts):
            np.copyto(dx[:, :, i : ho * k : k, j : wo * k : k], g, where=first)
        return (dx,)

    return record(out, (x,), bwd, "maxpool2d")
