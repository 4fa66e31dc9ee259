"""Bitwise oracles for the training and eval kernels.

Each reference below is the earlier, plainer formulation of a kernel
(np.mean/np.var batch statistics, a channel-first col2im, an argmax max-pool,
and activation rounding through the general level quantizer), or, for eval
batch norm, its per-channel affine map in plain numpy, and for conv2d an
im2col cut window by window. The library kernels
compute the same floating-point operations in the same order with fewer
array passes, so their outputs and gradients must match these references bit
for bit, signed zeros included. A quantized block's matmul or conv2d node,
which runs the activation quantizer inside itself, must match the two nodes
it replaces (quantize_activation's, then the op's) the same way.
"""

import contextlib

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant import numerics
from flexquant.autograd import Tape, Tensor, no_grad
from flexquant.quantizers import activation_quantizer, quantize_activation


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def forward_backward(op, g):
    """Run op() under a tape; return its output and its node's gradients for g."""
    with Tape() as tape:
        out = op()
    return out.data, tape.nodes[-1].backward_fn(g)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ref_batchnorm_train(xd, gamma, beta, running_mean, running_var, momentum, g):
    axes = (0,) if xd.ndim == 2 else (0, 2, 3)
    pshape = (1, xd.shape[1]) if xd.ndim == 2 else (1, xd.shape[1], 1, 1)
    gam, bet = gamma.reshape(pshape), beta.reshape(pshape)
    mu = np.mean(xd, axis=axes)
    var = np.var(xd, axis=axes)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mu
    running_var *= 1.0 - momentum
    running_var += momentum * var
    s = np.sqrt(var.reshape(pshape) + numerics.EPS)
    x_hat = (xd - mu.reshape(pshape)) / s
    out = gam * x_hat + bet
    dgamma = np.sum(g * x_hat, axis=axes)
    dbeta = np.sum(g, axis=axes)
    g_mean = np.mean(g, axis=axes).reshape(pshape)
    gx_mean = np.mean(g * x_hat, axis=axes).reshape(pshape)
    dx = (gam / s) * (g - g_mean - x_hat * gx_mean)
    return out, dx, dgamma, dbeta


def ref_batchnorm_eval(xd, gamma, beta, running_mean, running_var):
    pshape = (1, xd.shape[1]) + (1,) * (xd.ndim - 2)
    scale = gamma.reshape(pshape) / np.sqrt(running_var.reshape(pshape) + numerics.EPS)
    shift = beta.reshape(pshape) - running_mean.reshape(pshape) * scale
    return xd * scale + shift


def ref_batchnorm_eval_four_pass(xd, gamma, beta, running_mean, running_var):
    """The formulation before the affine map: subtract, divide, scale, shift."""
    pshape = (1, xd.shape[1]) + (1,) * (xd.ndim - 2)
    s = np.sqrt(running_var.reshape(pshape) + numerics.EPS)
    return gamma.reshape(pshape) * ((xd - running_mean.reshape(pshape)) / s) + beta.reshape(pshape)


def ref_conv2d(xd, wd, stride, padding, g):
    """im2col with rows in (kh, kw, C) order, cut window by window from a
    channel-last padded copy, and a channel-first col2im."""
    n, c, h, wid = xd.shape
    f, _, kh, kw = wd.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    xl = xp.transpose(0, 2, 3, 1)
    cols = np.zeros((n, ho, wo, kh, kw, c))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xl[:, i : i + ho * stride : stride, j : j + wo * stride : stride]
    cols = cols.reshape(n * ho * wo, kh * kw * c)
    wmat = np.ascontiguousarray(wd.transpose(0, 2, 3, 1)).reshape(f, kh * kw * c)
    out = np.ascontiguousarray((cols @ wmat.T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2))
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
    dw = np.ascontiguousarray((g2.T @ cols).reshape(f, kh, kw, c).transpose(0, 3, 1, 2))
    dcols = (g2 @ wmat).reshape(n, ho, wo, kh, kw, c)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += (
                dcols[:, :, :, i, j].transpose(0, 3, 1, 2)
            )
    dx = dxp[:, :, padding : padding + h, padding : padding + wid]
    return out, dx, dw


def ref_conv2d_channel_first(xd, wd, stride, padding, g):
    """The formulation before the channel-last im2col: rows in (C, kh, kw)
    order. Only the forward gemm's sum order differs from ref_conv2d's."""
    n, c, h, wid = xd.shape
    f, _, kh, kw = wd.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * ho * wo, c * kh * kw)
    wmat = wd.reshape(f, c * kh * kw)
    out = np.ascontiguousarray((cols @ wmat.T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2))
    g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
    dw = (g2.T @ cols).reshape(f, c, kh, kw)
    dcols = (g2 @ wmat).reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += (
                dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    dx = dxp[:, :, padding : padding + h, padding : padding + wid]
    return out, dx, dw


def _windows(y, k):
    """The k x k pooling windows of NCHW y, trailing rows and columns dropped,
    as (n, c, ho, wo, k * k)."""
    n, c, h, w = y.shape
    ho, wo = h // k, w // k
    return y[:, :, : ho * k, : wo * k].reshape(n, c, ho, k, wo, k).transpose(
        0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)


def ref_maxpool2d(xd, k, g):
    n, c, h, w = xd.shape
    ho, wo = h // k, w // k
    blocks = _windows(xd, k)
    arg = np.argmax(blocks, axis=-1)
    out = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]
    dblocks = np.zeros((n, c, ho, wo, k * k))
    np.put_along_axis(dblocks, arg[..., None], g[..., None], axis=-1)
    dx = np.zeros_like(xd)
    dx[:, :, : ho * k, : wo * k] = dblocks.reshape(n, c, ho, wo, k, k).transpose(
        0, 1, 2, 4, 3, 5).reshape(n, c, ho * k, wo * k)
    return out, dx


def ref_quantize_activation(ad, alpha, b):
    if alpha <= 0.0:
        alpha = numerics.ALPHA_FLOOR
    x = np.clip(np.clip(ad, 0.0, alpha) / alpha, 0.0, 1.0)
    n = (1 << b) - 1
    v = n * x
    return alpha * (np.sign(v) * np.floor(np.abs(v) + 0.5) / n)


def ref_quantize_activation_grads(ad, alpha, g):
    """Both gradients as the quantizer once built them: masks made in the forward."""
    if alpha <= 0.0:
        alpha = numerics.ALPHA_FLOOR
    pass_mask = (ad >= 0.0) & (ad <= alpha)
    sat_mask = ad > alpha
    return g * pass_mask, np.asarray(np.sum(g, where=sat_mask))


def with_signed_zeros(rng, a, frac=0.2):
    """Replace a random fraction of entries by -0.0 and another by +0.0."""
    a = a.copy()
    pick = rng.random(a.shape)
    a[pick < frac / 2] = -0.0
    a[(pick >= frac / 2) & (pick < frac)] = 0.0
    return a


# ---------------------------------------------------------------------------
# batch-norm, train mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(7, 5), (1, 3), (3, 4, 5, 6), (2, 3, 1, 7)])
@pytest.mark.parametrize("seed", range(4))
def test_batchnorm_train_matches_reference(shape, seed):
    rng = np.random.default_rng(seed)
    c = shape[1]
    xd = rng.normal(10.0 * seed, 1.0 + seed, size=shape)
    gamma = rng.uniform(0.5, 1.5, size=c)
    beta = rng.normal(size=c)
    g = with_signed_zeros(rng, rng.normal(size=shape))
    rm0, rv0 = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)

    rm, rv = rm0.copy(), rv0.copy()
    out, (dx, dgamma, dbeta) = forward_backward(
        lambda: ag.batchnorm(Tensor(xd, requires_grad=True), Tensor(gamma, requires_grad=True),
                             Tensor(beta, requires_grad=True), rm, rv, 0.1, "train"), g)
    ref_rm, ref_rv = rm0.copy(), rv0.copy()
    want = ref_batchnorm_train(xd, gamma, beta, ref_rm, ref_rv, 0.1, g)

    for got_arr, want_arr in zip((out, dx, dgamma, dbeta, rm, rv),
                                 (*want, ref_rm, ref_rv)):
        assert_bitwise(got_arr, want_arr)


# ---------------------------------------------------------------------------
# batch-norm + ReLU, train mode: one node
# ---------------------------------------------------------------------------

def _bn_relu_input(rng, shape):
    """Normal entries with signed zeros, and channel 1 of signed zeros only:
    its batch mean is +0, so it normalizes to exact zeros of both signs."""
    xd = with_signed_zeros(rng, rng.normal(1.0, 2.0, size=shape))
    zeros = xd[:, 1]
    zeros[...] = np.where(rng.random(zeros.shape) < 0.5, -0.0, 0.0)
    return xd


def assert_same_bits(got, want):
    """Every float64 bit equal: signed zeros, and NaN in the same places."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _bn_relu_run(x, params, g, fused, pre, relu=True, pool=0):
    """Outputs, running statistics and gradients of one tape that runs each
    (gamma, beta, rm, rv) set on x in turn: the first call computes the batch
    statistics, the others reuse them. Each runs batch norm, then a ReLU if
    relu, then a pool-window max-pool if pool: as one node if fused, else as
    a node each, with each batch-norm output going to pre and each max-pool
    checked against the argmax reference."""
    outs, chains = [], []
    with Tape() as tape:
        for gamma, beta, rm, rv in params:
            start = len(tape.nodes)
            if fused:
                y = ag.batchnorm(x, gamma, beta, rm, rv, 0.1, "train", relu=relu, pool=pool)
            else:
                y = ag.batchnorm(x, gamma, beta, rm, rv, 0.1, "train")
                pre.append(y.data)
                y = ag.relu(y) if relu else y
                y = ag.maxpool2d(y, pool) if pool else y
            outs.append(y)
            chains.append(tape.nodes[start:])
    names = ["batchnorm_train"] + ([] if fused else ["relu"] * relu + ["maxpool2d"] * (pool > 0))
    grads = []
    for chain in chains:
        assert [n.name for n in chain] == names
        gy = g
        for node, before in reversed(list(zip(chain[1:], chain))):
            assert node.inputs == (before.output,)
            (dy,) = node.backward_fn(gy)
            if node.name == "maxpool2d":  # the routing the fused node shares, against argmax's
                # a NaN window routes no gradient; argmax routes it to the first NaN
                nan = np.isnan(node.output.data)
                want_out, want_dx = ref_maxpool2d(before.output.data, pool, np.where(nan, 0.0, gy))
                assert_same_bits(node.output.data, want_out)
                assert_same_bits(dy, want_dx)
            gy = dy
        grads.append(chain[0].backward_fn(gy))
    return [(o.data, rm, rv, *gs) for o, (_, _, rm, rv), gs in zip(outs, params, grads)]


def assert_fused_matches_unfused(xd, g, params, pre, relu=True, pool=0):
    """_bn_relu_run unfused and fused on fresh copies of params agree bit for bit."""
    runs = []
    for fused in (False, True):
        tensors = [(Tensor(gm, requires_grad=True), Tensor(bt, requires_grad=True),
                    rm.copy(), rv.copy()) for gm, bt, rm, rv in params]
        with np.errstate(invalid="ignore"):
            runs.append(_bn_relu_run(Tensor(xd, requires_grad=True), tensors, g, fused, pre,
                                     relu, pool))
    for want, got in zip(*runs):
        for w, a in zip(want, got):
            assert_same_bits(a, w)


@pytest.mark.parametrize("shape", [(9, 4), (3, 4, 5, 6)])
@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("shared", [1, 2])
def test_batchnorm_relu_matches_batchnorm_then_relu(shape, special, shared):
    rng = np.random.default_rng(len(shape) + 2 * special + 4 * shared)
    c = shape[1]
    xd = _bn_relu_input(rng, shape)
    if special:
        xd[0, 0], xd[-1, 2], xd[0, 3] = np.inf, -np.inf, np.nan
    g = with_signed_zeros(rng, rng.normal(size=shape))
    # beta of +-0 on the zero channel, so its outputs keep both signs
    params = [(rng.uniform(0.5, 1.5, size=c), np.where(np.arange(c) == 1, sign * 0.0,
                                                       rng.normal(size=c)),
               rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
              for sign in (-1.0, 1.0)[:shared]]

    pre = []
    assert_fused_matches_unfused(xd, g, params, pre)
    # the ReLU saw exact zeros of both signs, and non-finite values when asked
    zeros = np.signbit(np.concatenate([y[y == 0.0] for y in pre]))
    assert zeros.any() and not zeros.all()
    assert all(np.isnan(y).any() == special for y in pre)


def test_generated_batchnorm_relu_matches_batchnorm_then_relu():
    """Generated 2-D and 4-D shapes, one or two parameter sets on one input
    (the second reuses the first's statistics): fused and unfused agree bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(2, 4),
           st.integers(1, 2), st.integers(0, 2**32 - 1))
    def check(dims, c, shared, seed):
        shape = (dims[0], c) if len(dims) < 3 else (dims[0], c, *dims[1:])
        rng = np.random.default_rng(seed)
        xd, g = _bn_relu_input(rng, shape), with_signed_zeros(rng, rng.normal(size=shape))
        params = [(rng.uniform(0.5, 1.5, size=c), rng.normal(size=c), rng.normal(size=c),
                   rng.uniform(0.5, 2.0, size=c)) for _ in range(shared)]
        assert_fused_matches_unfused(xd, g, params, [])

    check()


@pytest.mark.parametrize("k,shape", [(2, (3, 4, 6, 6)), (2, (2, 4, 7, 9)), (3, (2, 4, 8, 10))])
@pytest.mark.parametrize("relu", [False, True])
@pytest.mark.parametrize("special", [False, True])
@pytest.mark.parametrize("shared", [1, 2])
def test_batchnorm_pool_matches_batchnorm_then_pool(k, shape, relu, special, shared):
    """batchnorm(..., relu, pool=k) against batch-norm, ReLU and maxpool2d
    nodes, trailing rows and columns dropped: channel 1's exact zeros of both
    signs tie in their windows, and when special, channel 2 holds NaN in some
    windows and none in others."""
    rng = np.random.default_rng(k + shape[2] + 2 * relu + 4 * special + 8 * shared)
    c = shape[1]
    xd = _bn_relu_input(rng, shape)
    gamma = rng.uniform(0.5, 1.5, size=c)
    if special:
        # channel 2 sums to exactly 0, so under an infinite gamma it
        # normalizes to +-inf, and to NaN (0 * inf) wherever it is 0
        half = rng.integers(1, 3, size=xd[:, 2].size // 2).astype(float)
        half[::8] = 0.0
        vals = np.concatenate([half, -half, np.zeros(xd[:, 2].size % 2)])
        xd[:, 2] = rng.permutation(vals).reshape(xd[:, 2].shape)
        gamma[2] = np.inf
    g = with_signed_zeros(rng, rng.normal(size=(shape[0], c, shape[2] // k, shape[3] // k)))
    params = [(gamma.copy(), np.where(np.arange(c) == 1, sign * 0.0, rng.normal(size=c)),
               rng.normal(size=c), rng.uniform(0.5, 2.0, size=c))
              for sign in (-1.0, 1.0)[:shared]]

    pre = []
    assert_fused_matches_unfused(xd, g, params, pre, relu, k)
    # some window tied +0.0 with -0.0, and NaN reached some windows but not all
    signs = np.signbit(_windows(pre[0], k)[:, 1])
    assert (signs.any(-1) & ~signs.all(-1)).any()
    for y in pre:
        nan = np.isnan(_windows(y, k)[:, 2]).any(-1)
        assert nan.any() == special and not nan.all()


def test_generated_batchnorm_pool_matches_batchnorm_then_pool():
    """Generated windows of 2 and 3 over odd and even sizes, with and without
    the ReLU, one or two parameter sets on one input, on values from a small
    set with both zeros, so windows tie often: fused and unfused agree bit for bit."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40)
    @given(st.integers(2, 3), st.integers(1, 3), st.integers(2, 3), st.integers(0, 4),
           st.integers(0, 4), st.booleans(), st.integers(1, 2), st.integers(0, 2**32 - 1))
    def check(k, n, c, dh, dw, relu, shared, seed):
        rng = np.random.default_rng(seed)
        shape = (n, c, k + dh, k + dw)
        xd = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=shape)
        g = with_signed_zeros(rng, rng.normal(size=(n, c, shape[2] // k, shape[3] // k)))
        params = [(rng.uniform(0.5, 1.5, size=c), rng.normal(size=c), rng.normal(size=c),
                   rng.uniform(0.5, 2.0, size=c)) for _ in range(shared)]
        assert_fused_matches_unfused(xd, g, params, [], relu, k)

    check()


@pytest.mark.parametrize("shape", [(9, 4), (3, 4, 5, 6)])
@pytest.mark.parametrize("relu", [False, True])
def test_batchnorm_train_keeps_no_normalized_copy(shape, relu):
    """A train-mode node holds its input, its output and per-channel arrays:
    its rule captures no other input-sized array (the backward rebuilds
    x_hat), and the tape memo's batch statistics are per channel."""
    op, (x, _, _) = _bn_case(shape, relu)(np.random.default_rng(3))
    with Tape() as tape:
        out = op()
    (node,) = tape.nodes
    captured = [cell.cell_contents for cell in node.backward_fn.__closure__]
    assert any(a is out.data for a in captured)
    extra = [a.shape for a in captured if isinstance(a, np.ndarray)
             and a.size == x.data.size and a is not x.data and a is not out.data]
    assert extra == []
    (stats,) = [hit for key, (_, hit) in tape.memo.items() if key[0] == "batchnorm"]
    assert [np.shape(a) for a in stats if np.size(a) != shape[1]] == []


def test_batchnorm_pool_window_larger_than_input_changes_no_state():
    """The pool's shape check runs before the running estimates fold in."""
    rm, rv = np.zeros(3), np.ones(3)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 2, 2)), requires_grad=True)
    with Tape(), pytest.raises(ag.DimensionError, match="pool window 3 larger than input 2x2"):
        ag.batchnorm(x, Tensor(np.ones(3), requires_grad=True),
                     Tensor(np.zeros(3), requires_grad=True), rm, rv, 0.1, "train",
                     relu=True, pool=3)
    assert_same_bits(rm, np.zeros(3))
    assert_same_bits(rv, np.ones(3))


def _captured(fn):
    """Every object fn's closure holds, through the functions, lists and
    tuples it holds."""
    found, todo = [], [cell.cell_contents for cell in fn.__closure__]
    while todo:
        obj = todo.pop()
        if isinstance(obj, (list, tuple)):
            todo += obj
        elif getattr(obj, "__closure__", None):
            todo += [cell.cell_contents for cell in obj.__closure__]
        else:
            found.append(obj)
    return found


@pytest.mark.parametrize("k,shape", [(2, (3, 4, 6, 6)), (3, (2, 4, 7, 8))])
@pytest.mark.parametrize("relu", [False, True])
def test_batchnorm_pool_keeps_no_full_resolution_output(k, shape, relu):
    """With a pool window the node's output is the pooled tensor, and its
    rule, the pool's scatter included, captures no array larger than that
    output but its input: neither the full-resolution output nor x_hat."""
    op, (x, _, _) = _bn_case(shape, relu, pool=k)(np.random.default_rng(3))
    with Tape() as tape:
        out = op()
    (node,) = tape.nodes
    assert out.shape == (shape[0], shape[1], shape[2] // k, shape[3] // k)
    captured = [a for a in _captured(node.backward_fn) if isinstance(a, np.ndarray)]
    assert any(a is out.data for a in captured)
    assert [a.shape for a in captured if a.size > out.data.size and a is not x.data] == []


# ---------------------------------------------------------------------------
# batch-norm, eval mode
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", [(7, 5), (1, 3), (3, 4, 5, 6), (2, 3, 1, 7)])
@pytest.mark.parametrize("seed", range(4))
def test_batchnorm_eval_matches_reference(shape, seed):
    rng = np.random.default_rng(seed)
    c = shape[1]
    gamma = rng.uniform(0.5, 1.5, size=c)
    beta = rng.normal(size=c)
    # running statistics near the inputs' own, as a trained or calibrated bank holds
    rm = 10.0 * seed + rng.normal(scale=0.2, size=c)
    rv = (1.0 + seed) ** 2 * rng.uniform(0.5, 2.0, size=c)
    xs = [with_signed_zeros(rng, rng.normal(10.0 * seed, 1.0 + seed, size=shape))
          for _ in range(2)]
    params = (Tensor(gamma), Tensor(beta), rm, rv)

    # in a no_grad block the second batch reuses the first one's affine map;
    # outside any block each call computes its own
    for block in (no_grad, contextlib.nullcontext):
        with block():
            outs = [ag.batchnorm(Tensor(xd), *params, 0.1, "eval").data for xd in xs]
        for xd, out in zip(xs, outs):
            assert_bitwise(out, ref_batchnorm_eval(xd, gamma, beta, rm, rv))
            np.testing.assert_allclose(
                out, ref_batchnorm_eval_four_pass(xd, gamma, beta, rm, rv), rtol=0, atol=1e-14)
    # only train mode fuses the ReLU and max-pool after it
    with pytest.raises(numerics.ContractError, match="eval-mode batchnorm fuses no ReLU"):
        ag.batchnorm(Tensor(xs[0]), *params, 0.1, "eval", relu=True)
    with pytest.raises(numerics.ContractError, match="eval-mode batchnorm fuses no ReLU or pool"):
        ag.batchnorm(Tensor(xs[0]), *params, 0.1, "eval", pool=2)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("kernel", [1, 2, 3])
def test_conv2d_matches_reference(stride, padding, kernel):
    rng = np.random.default_rng(100 * stride + 10 * padding + kernel)
    xd = rng.normal(size=(2, 3, 7, 9))
    wd = rng.normal(size=(4, 3, kernel, kernel))
    ho = (7 + 2 * padding - kernel) // stride + 1
    wo = (9 + 2 * padding - kernel) // stride + 1
    g = with_signed_zeros(rng, rng.normal(size=(2, 4, ho, wo)))
    want_out, want_dx, want_dw = ref_conv2d(xd, wd, stride, padding, g)

    for input_grad in (True, False):
        out, (dx, dw) = forward_backward(
            lambda: ag.conv2d(Tensor(xd, requires_grad=input_grad),
                              Tensor(wd, requires_grad=True), stride, padding), g)
        assert_bitwise(out, want_out)
        assert_bitwise(dw, want_dw)
        if input_grad:
            assert_bitwise(dx, want_dx)
            assert dx.flags.c_contiguous
        else:
            assert dx is None


def test_generated_conv2d_matches_reference():
    """Generated batch, channel, size, filter, kernel, stride and padding."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    @settings(max_examples=60)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 7), st.integers(1, 7),
           st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.booleans(), st.integers(0, 2**32 - 1))
    def check(n, c, h, w, f, kernel, stride, padding, input_grad, seed):
        assume(kernel <= min(h, w) + 2 * padding)
        rng = np.random.default_rng(seed)
        xd = with_signed_zeros(rng, rng.normal(size=(n, c, h, w)))
        wd = rng.normal(size=(f, c, kernel, kernel))
        ho = (h + 2 * padding - kernel) // stride + 1
        wo = (w + 2 * padding - kernel) // stride + 1
        g = with_signed_zeros(rng, rng.normal(size=(n, f, ho, wo)))
        want_out, want_dx, want_dw = ref_conv2d(xd, wd, stride, padding, g)
        out, (dx, dw) = forward_backward(
            lambda: ag.conv2d(Tensor(xd, requires_grad=input_grad),
                              Tensor(wd, requires_grad=True), stride, padding), g)
        assert_bitwise(out, want_out)
        assert_bitwise(dw, want_dw)
        if input_grad:
            assert_bitwise(dx, want_dx)
        else:
            assert dx is None

    check()


@pytest.mark.parametrize("n,c,size,f", [(2, 3, 7, 4), (64, 16, 8, 16), (256, 16, 8, 32),
                                        (8, 1, 16, 16), (2, 1, 7, 4)])
@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
def test_conv2d_channel_last_moves_only_the_forward_sum_order(n, c, size, f, stride, padding):
    """Against the channel-first formulation: dx and dw are bitwise equal
    (their sums run over the batch and over the kernels, in the same order);
    the output's sum over (C, kh, kw) runs in another order, so it is equal
    within rounding, and bitwise with one input channel."""
    rng = np.random.default_rng(n + c + f)
    xd = rng.normal(size=(n, c, size, size + 1))
    wd = rng.normal(size=(f, c, 3, 3))
    ho = (size + 2 * padding - 3) // stride + 1
    wo = (size + 1 + 2 * padding - 3) // stride + 1
    g = rng.normal(size=(n, f, ho, wo))
    out, dx, dw = ref_conv2d(xd, wd, stride, padding, g)
    first_out, first_dx, first_dw = ref_conv2d_channel_first(xd, wd, stride, padding, g)
    assert_bitwise(dx, first_dx)
    assert_bitwise(dw, first_dw)
    np.testing.assert_allclose(out, first_out, rtol=0, atol=1e-13)
    if c == 1:
        assert_bitwise(out, first_out)


# ---------------------------------------------------------------------------
# max-pool
# ---------------------------------------------------------------------------

def post_relu_input(rng, shape):
    """ReLU-like input on a coarse grid: many tied zeros of both signs and
    tied positive maxima inside a window."""
    x = np.maximum(np.round(rng.normal(size=shape) * 2.0) / 2.0, 0.0)
    return with_signed_zeros(rng, x, frac=0.3)


@pytest.mark.parametrize("k,shape", [
    (2, (2, 3, 8, 8)),
    (2, (2, 3, 7, 9)),
    (3, (2, 2, 9, 9)),
    (3, (1, 3, 10, 11)),
])
@pytest.mark.parametrize("seed", range(3))
def test_maxpool2d_matches_reference(k, shape, seed):
    rng = np.random.default_rng(seed)
    for xd in (rng.normal(size=shape), post_relu_input(rng, shape), np.zeros(shape),
               np.full(shape, -0.0)):
        g = with_signed_zeros(rng, rng.normal(size=(shape[0], shape[1],
                                                    shape[2] // k, shape[3] // k)))
        want_out, want_dx = ref_maxpool2d(xd, k, g)
        out, (dx,) = forward_backward(
            lambda: ag.maxpool2d(Tensor(xd, requires_grad=True), k), g)
        assert_bitwise(out, want_out)
        assert_bitwise(dx, want_dx)


def test_generated_maxpool2d_matches_reference():
    """Generated windows of 2 and 3 over odd and even sizes, on values from a
    small set with both zeros, so windows tie often, -0.0 against 0.0 included."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60)
    @given(st.integers(2, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 7),
           st.integers(0, 7), st.integers(0, 2**32 - 1))
    def check(k, n, c, dh, dw, seed):
        rng = np.random.default_rng(seed)
        shape = (n, c, k + dh, k + dw)
        xd = rng.choice(np.array([-1.0, -0.0, 0.0, 0.5, 1.0]), size=shape)
        g = with_signed_zeros(rng, rng.normal(size=(n, c, shape[2] // k, shape[3] // k)))
        want_out, want_dx = ref_maxpool2d(xd, k, g)
        out, (dx,) = forward_backward(lambda: ag.maxpool2d(Tensor(xd, requires_grad=True), k), g)
        assert_bitwise(out, want_out)
        assert_bitwise(dx, want_dx)

    check()


# ---------------------------------------------------------------------------
# activation quantizer
# ---------------------------------------------------------------------------

def exact_half_levels(alpha, b):
    """Inputs whose scaled ratio n * (x / alpha) is exactly k + 0.5."""
    n = (1 << b) - 1
    cands = (np.arange(n) + 0.5) * alpha / n
    return cands[n * (cands / alpha) == np.arange(n) + 0.5]


@pytest.mark.parametrize("b", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("alpha", [1.0, 3.0, 0.7, 6.0, 0.0, -1.0])
def test_quantize_activation_matches_reference(b, alpha):
    rng = np.random.default_rng(b)
    eff = alpha if alpha > 0.0 else numerics.ALPHA_FLOOR
    halves = exact_half_levels(eff, b)
    # +/-inf are clipped like any other value: to alpha and to 0
    special = np.array([0.0, -0.0, eff, np.nextafter(eff, 0.0), np.nextafter(eff, 2.0 * eff),
                        2.0 * eff, -eff, -1e-300, 1e-300, np.inf, -np.inf])
    ad = np.concatenate([halves, special, rng.uniform(-0.5 * eff, 1.5 * eff, size=200)])
    ad = with_signed_zeros(rng, ad, frac=0.05)
    g = with_signed_zeros(rng, rng.normal(size=ad.shape))

    out, (da, dalpha) = forward_backward(
        lambda: quantize_activation(Tensor(ad, requires_grad=True),
                                    Tensor(alpha, requires_grad=True), b), g)
    assert_bitwise(out, ref_quantize_activation(ad, alpha, b))
    assert out[ad == np.inf][0] == eff and out[ad == -np.inf][0] == 0.0
    ref_da, ref_dalpha = ref_quantize_activation_grads(ad, alpha, g)
    assert_bitwise(da, ref_da)
    assert_bitwise(dalpha, ref_dalpha)


def test_exact_half_levels_exist():
    assert exact_half_levels(3.0, 2).size > 0
    assert exact_half_levels(2.0, 1).size > 0


# ---------------------------------------------------------------------------
# activation quantizer fused into a matmul or conv2d node
# ---------------------------------------------------------------------------

def quantizer_input(rng, shape, alpha):
    """Entries around [0, alpha], with a fraction each set to exactly 0.0,
    -0.0 and alpha, and some saturated above alpha."""
    eff = alpha if alpha > 0.0 else numerics.ALPHA_FLOOR
    xd = rng.uniform(-0.5 * eff, 1.5 * eff, size=shape)
    pick = rng.random(shape)
    xd[pick < 0.1] = 0.0
    xd[(pick >= 0.1) & (pick < 0.2)] = -0.0
    xd[(pick >= 0.2) & (pick < 0.3)] = eff
    xd[(pick >= 0.3) & (pick < 0.35)] = 4.0 * eff
    return xd


def matmul_op(x, w, quant):
    return ag.matmul(x, w, quant)


def conv_op(stride, padding):
    return lambda x, w, quant: ag.conv2d(x, w, stride, padding, quant)


def assert_fused_quantizer_matches_unfused(op, xd, alpha, b, wd, input_grad, rng):
    """op's node with the quantizer fused against quantize_activation's node
    and then op's, each rule fed the gradient the engine would give it: the
    output, dx (when x requires one), dalpha and dw, bit for bit."""
    x = Tensor(xd, requires_grad=input_grad)
    a = Tensor(alpha, requires_grad=True)
    w = Tensor(wd, requires_grad=True)
    with Tape() as tape:
        fused = op(x, w, activation_quantizer(a, b))
        unfused = op(quantize_activation(x, a, b), w, None)
    fused_node, quant_node, op_node = tape.nodes
    assert fused_node.inputs == (x, a, w)
    assert_same_bits(fused.data, unfused.data)
    g = with_signed_zeros(rng, rng.normal(size=fused.shape))
    dx, dalpha, dw = fused_node.backward_fn(g)
    dq, want_dw = op_node.backward_fn(g)
    want_dx, want_dalpha = quant_node.backward_fn(dq)
    assert_same_bits(dw, want_dw)
    assert_same_bits(dalpha, want_dalpha)
    if input_grad:
        assert_same_bits(dx, want_dx)


@pytest.mark.parametrize("alpha", [1.5, 0.0, -2.0])
@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("b", [1, 3, 8])
def test_quantized_matmul_matches_quantizer_then_matmul(alpha, input_grad, b):
    rng = np.random.default_rng(b)
    assert_fused_quantizer_matches_unfused(
        matmul_op, quantizer_input(rng, (9, 6), alpha), alpha, b, rng.normal(size=(6, 4)),
        input_grad, rng)


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0), (2, 2)])
@pytest.mark.parametrize("alpha", [1.5, 0.0, -2.0])
@pytest.mark.parametrize("input_grad", [True, False])
def test_quantized_conv2d_matches_quantizer_then_conv2d(stride, padding, alpha, input_grad):
    rng = np.random.default_rng(10 * stride + padding)
    assert_fused_quantizer_matches_unfused(
        conv_op(stride, padding), quantizer_input(rng, (2, 3, 7, 8), alpha), alpha, 2,
        rng.normal(size=(4, 3, 3, 3)), input_grad, rng)


def test_generated_quantized_ops_match_quantizer_then_op():
    """Generated matmul and conv shapes, kernels, strides, paddings, bit-widths
    and clipping values, non-positive ones included."""
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    alphas = st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1.0]), st.floats(1e-3, 8.0))

    @settings(max_examples=60)
    @given(st.booleans(), st.integers(1, 3), st.integers(1, 3), st.integers(1, 7),
           st.integers(1, 7), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
           st.integers(0, 2), st.integers(1, 8), alphas, st.booleans(),
           st.integers(0, 2**32 - 1))
    def check(conv, n, c, h, w, f, kernel, stride, padding, b, alpha, input_grad, seed):
        rng = np.random.default_rng(seed)
        if conv:
            assume(kernel <= min(h, w) + 2 * padding)
            op, shape, wd = (conv_op(stride, padding), (n, c, h, w),
                             rng.normal(size=(f, c, kernel, kernel)))
        else:
            op, shape, wd = matmul_op, (n * h, c * w), rng.normal(size=(c * w, f))
        assert_fused_quantizer_matches_unfused(
            op, quantizer_input(rng, shape, alpha), alpha, b, wd, input_grad, rng)

    check()


@pytest.mark.parametrize("conv, message", [
    (False, r"matmul inner dims disagree: \(4, 5\) @ \(6, 3\)"),
    (True, "conv2d channel mismatch: input 3, kernel 2")])
def test_quantized_op_rejects_a_width_mismatch_naming_both(conv, message):
    x = Tensor(np.ones((2, 3, 5, 5) if conv else (4, 5)), requires_grad=True)
    w = Tensor(np.ones((4, 2, 3, 3) if conv else (6, 3)), requires_grad=True)
    with Tape(), pytest.raises(ag.DimensionError, match=message):
        (conv_op(1, 0) if conv else matmul_op)(
            x, w, activation_quantizer(Tensor(1.0, requires_grad=True), 3))


@pytest.mark.parametrize("conv", [False, True])
def test_quantized_node_keeps_no_activation(conv):
    """The node keeps x, the quantizer's input: its rule captures no other
    array of the quantized activation's size, and the tape memo holds
    nothing (no other bit-width's block sees the same x)."""
    rng = np.random.default_rng(4)
    shape, wshape = ((4, 3, 8, 8), (5, 3, 3, 3)) if conv else ((20, 6), (6, 4))
    x = Tensor(quantizer_input(rng, shape, 1.0), requires_grad=True)
    w = Tensor(rng.normal(size=wshape), requires_grad=True)
    op = conv_op(1, 1) if conv else matmul_op
    with Tape() as tape:
        op(x, w, activation_quantizer(Tensor(1.0, requires_grad=True), 3))
    (node,) = tape.nodes
    captured = [a for a in _captured(node.backward_fn) if isinstance(a, np.ndarray)]
    assert any(a is x.data for a in captured)
    assert [a.shape for a in captured if a.size == x.data.size and a is not x.data] == []
    assert tape.memo == {}


# ---------------------------------------------------------------------------
# backward rules are pure
# ---------------------------------------------------------------------------

def _bn_case(shape, relu=False, pool=0):
    def build(rng):
        c = shape[1]
        x = Tensor(rng.normal(2.0, 3.0, size=shape), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=c), requires_grad=True)
        beta = Tensor(rng.normal(size=c), requires_grad=True)
        rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, size=c)
        return (lambda: ag.batchnorm(x, gamma, beta, rm, rv, 0.1, "train", relu=relu,
                                     pool=pool)), (x, gamma, beta)
    return build


def _conv_case(rng):
    x = Tensor(rng.normal(size=(2, 3, 7, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    return (lambda: ag.conv2d(x, w, 2, 1)), (x, w)


def test_maxpool2d_propagates_nan():
    """A window holding NaN pools to NaN, as argmax routes it in the
    reference; every other window keeps its bits."""
    rng = np.random.default_rng(0)
    xd = rng.normal(size=(2, 3, 4, 4))
    xd[1, 2, 0, 1] = np.nan
    want, _ = ref_maxpool2d(xd, 2, np.zeros((2, 3, 2, 2)))
    out = ag.maxpool2d(Tensor(xd), 2).data
    assert np.isnan(out[1, 2, 0, 0]) and np.isnan(out).sum() == 1
    out[1, 2, 0, 0] = want[1, 2, 0, 0] = 0.0
    assert_bitwise(out, want)


def _maxpool_case(rng):
    x = Tensor(post_relu_input(rng, (2, 3, 7, 8)), requires_grad=True)
    return (lambda: ag.maxpool2d(x, 2)), (x,)


def _relu_case(rng):
    x = Tensor(with_signed_zeros(rng, rng.normal(size=(5, 6))), requires_grad=True)
    return (lambda: ag.relu(x)), (x,)


def _matmul_case(rng):
    a = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    return (lambda: ag.matmul(a, b)), (a, b)


def _quantize_activation_case(rng):
    a = Tensor(rng.uniform(-0.5, 2.0, size=(6, 7)), requires_grad=True)
    alpha = Tensor(1.25, requires_grad=True)
    return (lambda: quantize_activation(a, alpha, 3)), (a, alpha)


def _quantized_case(conv):
    def build(rng):
        x = Tensor(quantizer_input(rng, (2, 3, 7, 6) if conv else (6, 7), 1.25),
                   requires_grad=True)
        alpha = Tensor(1.25, requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3) if conv else (7, 3)), requires_grad=True)
        op = conv_op(2, 1) if conv else matmul_op
        return (lambda: op(x, w, activation_quantizer(alpha, 3))), (x, alpha, w)
    return build


PURE_BACKWARD_CASES = {
    "batchnorm_train_2d": _bn_case((9, 4)),
    "batchnorm_train_4d": _bn_case((3, 4, 5, 6)),
    "batchnorm_relu_train": _bn_case((3, 4, 5, 6), relu=True),
    "batchnorm_relu_pool_train": _bn_case((3, 4, 6, 7), relu=True, pool=2),
    "conv2d": _conv_case,
    "maxpool2d": _maxpool_case,
    "relu": _relu_case,
    "matmul": _matmul_case,
    "quantize_activation": _quantize_activation_case,
    "quantized_matmul": _quantized_case(conv=False),
    "quantized_conv2d": _quantized_case(conv=True),
}


@pytest.mark.parametrize("case", sorted(PURE_BACKWARD_CASES))
def test_backward_rule_is_pure(case):
    """A rule writes into neither its upstream gradient nor its forward's
    arrays, and keeps no reference to the fresh arrays it returns (the
    engine adopts those as .grad and adds into them later)."""
    rng = np.random.default_rng(7)
    op, inputs = PURE_BACKWARD_CASES[case](rng)
    with Tape() as tape:
        out = op()
    node = tape.nodes[-1]
    g = with_signed_zeros(rng, rng.normal(size=out.shape))
    saved_g, saved_out = g.copy(), out.data.copy()
    saved_inputs = [t.data.copy() for t in inputs]

    first = node.backward_fn(g)
    kept = [None if a is None else np.array(a) for a in first]
    for a in first:  # scribble over what the engine would adopt
        if isinstance(a, np.ndarray) and a.base is None and a.flags.writeable:
            a[...] = np.nan
    second = node.backward_fn(g)

    assert len(second) == len(inputs)
    for got, want in zip(second, kept):
        if want is None:
            assert got is None
        else:
            assert_bitwise(got, want)
    assert_bitwise(g, saved_g)
    assert_bitwise(out.data, saved_out)
    for t, saved in zip(inputs, saved_inputs):
        assert_bitwise(t.data, saved)
