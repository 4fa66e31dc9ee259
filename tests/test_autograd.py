"""Tensor engine tests: forward values, hand-checked gradients, and the
finite-difference oracle over every smooth op."""

import tracemalloc

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant.autograd import DimensionError, GraphError, Tape, Tensor, no_grad
from flexquant.numerics import ContractError
from flexquant.optim import SGD, ParamGroup, StepError

from conftest import numerical_gradient


def grad_of(build, *tensors):
    """Run build() under a tape, backward from its scalar output."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return [t.grad for t in tensors]


def weighted_sum(t, c: np.ndarray):
    """sum_i t_i c_i as one matmul, whose gradient with respect to t is exactly c."""
    n = t.data.size
    return ag.sum_(ag.matmul(ag.reshape(t, (1, n)), Tensor(c.reshape(n, 1))))


def sum_of_squares(t):
    """sum_i t_i^2 as a square matmul that reads t twice: gradient 2t."""
    n = t.data.size
    return ag.sum_(ag.matmul(ag.reshape(t, (1, n)), ag.reshape(t, (n, 1))))


def training_loss(x, w, labels, teacher):
    """The loss a training step records for a student: CE plus KL to a teacher."""
    p = ag.softmax(ag.matmul(x, w))
    return ag.add(ag.cross_entropy(p, labels), ag.kl_div(Tensor(teacher), p))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

class TestMatmul:
    def test_identity(self):
        eye = Tensor(np.eye(3))
        out = ag.matmul(eye, Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, np.eye(3))

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[0.0], [1.0]])
        np.testing.assert_array_equal(ag.matmul(a, b).data, [[2.0], [4.0]])

    def test_annihilator(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        z = Tensor(np.zeros((4, 2)))
        np.testing.assert_array_equal(ag.matmul(a, z).data, np.zeros((3, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 1, 5, 5)))
        k = Tensor(np.ones((1, 1, 1, 1)))
        out = ag.conv2d(x, k, stride=1, padding=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_convolution(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = ag.conv2d(x, k)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_zero_input(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        k = Tensor(np.random.default_rng(2).normal(size=(3, 2, 3, 3)))
        out = ag.conv2d(x, k, padding=1)
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 4, 4)))

    def test_output_size_formula(self):
        x = Tensor(np.zeros((1, 1, 7, 9)))
        k = Tensor(np.zeros((1, 1, 3, 3)))
        out = ag.conv2d(x, k, stride=2, padding=1)
        assert out.shape == (1, 1, 4, 5)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            ag.conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_matches_direct_convolution(self):
        # brute-force cross-correlation as the independent oracle
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 6, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        stride, pad = 2, 1
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho = (6 + 2 * pad - 3) // stride + 1
        wo = (5 + 2 * pad - 3) // stride + 1
        expect = np.zeros((2, 4, ho, wo))
        for n in range(2):
            for f in range(4):
                for i in range(ho):
                    for j in range(wo):
                        patch = xp[n, :, i * stride : i * stride + 3, j * stride : j * stride + 3]
                        expect[n, f, i, j] = np.sum(patch * w[f])
        out = ag.conv2d(Tensor(x), Tensor(w), stride=stride, padding=pad)
        np.testing.assert_allclose(out.data, expect, rtol=1e-12)


class TestLosses:
    def test_kl_identical_is_zero(self):
        p = Tensor([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        assert abs(float(ag.kl_div(p, Tensor(p.data.copy())).data)) < 1e-12

    def test_kl_onehot_vs_uniform(self):
        p = np.zeros((1, 10))
        p[0, 3] = 1.0
        q = np.full((1, 10), 0.1)
        out = ag.kl_div(Tensor(p), Tensor(q))
        assert float(out.data) == pytest.approx(np.log(10.0), abs=1e-12)

    def test_kl_nonnegative_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.random((3, 6))
            p /= p.sum(axis=1, keepdims=True)
            q = rng.random((3, 6))
            q /= q.sum(axis=1, keepdims=True)
            assert float(ag.kl_div(Tensor(p), Tensor(q)).data) >= -1e-9

    def test_cross_entropy_uniform(self):
        m = 7
        probs = Tensor(np.full((4, m), 1.0 / m))
        labels = np.array([0, 3, 6, 2])
        assert float(ag.cross_entropy(probs, labels).data) == pytest.approx(np.log(m),
                                                                           abs=1e-12)

    def test_clamped_log_counts_under_the_callers_event(self):
        from flexquant import numerics
        x = np.array([0.0, 1e-300, 0.5])
        with pytest.raises(TypeError):
            numerics.clamped_log(x)
        before = numerics.event_counts()
        np.testing.assert_array_equal(numerics.clamped_log(x, "ce_clamp"),
                                      np.log([numerics.EPS, numerics.EPS, 0.5]))
        after = numerics.event_counts()
        assert after["ce_clamp"] - before.get("ce_clamp", 0) == 2
        assert after.get("log_clamp", 0) == before.get("log_clamp", 0)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        p = ag.softmax(Tensor(rng.normal(scale=5.0, size=(8, 11))))
        np.testing.assert_allclose(p.data.sum(axis=1), np.ones(8), atol=1e-9)

    def test_softmax_shift_invariant(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 9))
        a = ag.softmax(Tensor(x)).data
        b = ag.softmax(Tensor(x + 13.7)).data
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestBatchnorm:
    def test_eval_identity_stats(self):
        x = Tensor(np.random.default_rng(7).normal(size=(6, 4)))
        out = ag.batchnorm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                           np.zeros(4), np.ones(4), 0.1, "eval")
        np.testing.assert_allclose(out.data, x.data, atol=1e-9)

    def test_eval_under_a_tape_raises(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape, pytest.raises(ContractError, match="run it under no_grad"):
            ag.batchnorm(x, Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3)),
                         np.zeros(3), np.ones(3), 0.1, "eval")
        assert len(tape) == 0

    def test_running_update_only_outside_no_grad(self):
        """A no_grad block memoizes eval affines from the running statistics,
        so train mode changes them everywhere but inside one."""
        x = Tensor(np.random.default_rng(9).normal(size=(5, 3)))
        mean, var = np.zeros(3), np.ones(3)

        def train():
            ag.batchnorm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), mean, var, 0.1, "train")

        def moments():
            return mean.tobytes() + var.tobytes()

        untouched = moments()
        with no_grad():
            train()
        with Tape(), no_grad():
            train()
        assert moments() == untouched
        with no_grad(), Tape():  # the innermost block decides
            train()
        folded = moments()
        assert folded != untouched
        train()  # outside any block
        assert moments() != folded

    def test_train_constant_batch_gives_beta(self):
        x = Tensor(np.full((5, 3), 2.5))
        beta = np.array([1.0, -2.0, 0.5])
        out = ag.batchnorm(x, Tensor(np.ones(3)), Tensor(beta),
                           np.zeros(3), np.ones(3), 0.1, "train")
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (5, 3)), atol=1e-9)

    def test_gamma_zero_gives_beta(self):
        x = Tensor(np.random.default_rng(8).normal(size=(5, 3)))
        beta = np.array([3.0, 0.0, -1.0])
        out = ag.batchnorm(x, Tensor(np.zeros(3)), Tensor(beta),
                           np.zeros(3), np.ones(3), 0.1, "train")
        np.testing.assert_allclose(out.data, np.broadcast_to(beta, (5, 3)), atol=1e-12)

    def test_running_stats_update(self):
        rng = np.random.default_rng(9)
        x = rng.normal(loc=2.0, scale=3.0, size=(64, 2))
        mean = np.zeros(2)
        var = np.ones(2)
        ag.batchnorm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     mean, var, 0.5, "train")
        np.testing.assert_allclose(mean, 0.5 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(var, 0.5 * 1.0 + 0.5 * x.var(axis=0), rtol=1e-12)

    def test_channelwise_4d(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 4, 4))
        out = ag.batchnorm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                           np.zeros(3), np.ones(3), 0.1, "train")
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)), np.ones(3), rtol=1e-6)


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (g,) = grad_of(lambda: ag.sum_(x), x)
        np.testing.assert_array_equal(g, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (g,) = grad_of(lambda: sum_of_squares(x), x)
        np.testing.assert_allclose(g, [2.0, 4.0, 6.0], rtol=1e-12)

    def test_grad_accumulates_across_uses(self):
        x = Tensor([2.0], requires_grad=True)
        (g,) = grad_of(lambda: ag.add(ag.sum_(x), sum_of_squares(x)), x)
        np.testing.assert_allclose(g, [1.0 + 4.0], rtol=1e-12)

    def test_fresh_gradient_adopted_without_copy(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        returned = []

        def bwd(g):
            returned.append(g * 2.0)
            return (returned[-1],)

        with Tape() as tape:
            loss = ag.sum_(ag.record(x.data * 2.0, (x,), bwd, "double"))
        tape.backward(loss)
        assert x.grad is returned[0]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])

    def test_upstream_gradient_and_views_are_copied(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.ones(6), requires_grad=True)
        upstream, views = [], []

        def identity(g):  # hands back its upstream gradient itself
            upstream.append(g)
            return (g,)

        def unflatten(g):  # hands back a view of its upstream gradient
            upstream.append(g)
            views.append(g.reshape(6))
            return (views[-1],)

        with Tape() as tape:
            same = ag.record(x.data.copy(), (x,), identity, "identity")
            grid = ag.record(y.data.reshape(2, 3), (y,), unflatten, "unflatten")
            loss = ag.sum_(ag.add(same, grid))
        tape.backward(loss)
        assert len(upstream) == 2 and views[0].base is not None
        for leaf in (x, y):
            assert leaf.grad.base is None and leaf.grad.flags.writeable
            for held in (*upstream, *views):
                assert not np.shares_memory(leaf.grad, held)
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(y.grad, np.ones(6))

    def test_add_inputs_get_separate_buffers(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            sq = sum_of_squares(x)  # runs first, so its gradient reaches x last
            loss = ag.add(sq, ag.sum_(ag.add(x, y)))
        tape.backward(loss)
        assert x.grad is not y.grad and not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, [1.0 + 2.0, 1.0 + 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_one_fresh_array_for_two_inputs_is_not_shared(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)

        def bwd(g):
            both = g * 1.0
            return both, both

        with Tape() as tape:
            sq = sum_of_squares(x)
            both = ag.record(x.data + y.data, (x, y), bwd, "add_shared")
            loss = ag.add(sq, ag.sum_(both))
        tape.backward(loss)
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(x.grad, [1.0 + 2.0, 1.0 + 4.0])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])

    def test_second_backward_adds_the_same_gradients(self):
        x = Tensor([[1.0, -2.0], [3.0, 1.0]], requires_grad=True)
        w = Tensor([[1.0], [2.0]], requires_grad=True)
        with Tape() as tape:
            loss = ag.sum_(ag.relu(ag.matmul(x, w)))  # relu masks the first row
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(w.grad, [[3.0], [1.0]])
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [2.0, 4.0]])
        np.testing.assert_array_equal(w.grad, [[6.0], [2.0]])

    @pytest.mark.parametrize("op", [ag.add])
    @pytest.mark.parametrize("shapes", [((3,), ()), ((2, 3), (3,)), ((2, 3), (2, 1)),
                                        ((1,), ())])
    def test_add_and_mul_take_one_shape(self, op, shapes):
        a, b = (Tensor(np.ones(shape), requires_grad=True) for shape in shapes)
        with Tape() as tape:
            for args in ((a, b), (b, a)):
                with pytest.raises(DimensionError, match=f"^{op.__name__} expects one shape"):
                    op(*args)
        assert len(tape) == 0

    def test_kl_target_takes_no_gradient(self):
        rng = np.random.default_rng(53)
        target = Tensor(ag.softmax(Tensor(rng.normal(size=(4, 3)))).data, requires_grad=True)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            loss = ag.kl_div(target, ag.softmax(logits))
        assert tape.nodes[-1].backward_fn(np.asarray(1.0))[0] is None
        tape.backward(loss)
        assert target.grad is None
        assert logits.grad is not None and np.any(logits.grad != 0.0)

    def test_only_leaves_hold_gradients_after_backward(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(4, 2, 6, 6)), requires_grad=True)
        k = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        w = Tensor(rng.normal(size=(27, 5)), requires_grad=True)
        frozen = Tensor(rng.normal(size=(27, 5)))
        with Tape() as tape:
            h = ag.conv2d(x, k, padding=1)
            h = ag.batchnorm(h, gamma, beta, np.zeros(3), np.ones(3), 0.1, "train")
            h = ag.flatten(ag.maxpool2d(ag.relu(h)))
            logits = ag.add(ag.matmul(h, w), ag.matmul(h, frozen))
            loss = ag.cross_entropy(ag.softmax(logits), np.array([0, 1, 2, 3]))
        tape.backward(loss)
        assert len(tape) == 10
        assert all(node.output.grad is None for node in tape.nodes)
        for leaf in (x, k, gamma, beta, w):
            assert leaf.grad is not None and leaf.grad.shape == leaf.shape
        assert frozen.grad is None

    def test_backward_holds_few_buffers_over_a_long_chain(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=2**17), requires_grad=True)  # 1 MB
        shift = Tensor(rng.normal(size=2**17))
        with Tape() as tape:
            y = x
            for _ in range(20):
                y = ag.relu(ag.add(y, shift))
            loss = ag.sum_(y)
        assert len(tape) == 41
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the gradient in hand, the one being made, relu's mask and x.grad;
        # keeping every node output's gradient would hold about 40
        assert peak < 4 * x.data.nbytes

    def test_loss_must_be_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = ag.add(x, x)
        with pytest.raises(GraphError):
            tape.backward(y)

    def test_no_grad_suppresses_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            with no_grad():
                y = ag.sum_(ag.add(x, x))
        assert len(tape) == 0
        assert not y.requires_grad

    def test_active_memo_is_the_innermost_blocks(self):
        assert ag.active_memo() is None and ag.active_tape() is None
        with Tape() as tape:
            assert ag.active_memo() is tape.memo and ag.active_tape() is tape
            with no_grad() as block:
                assert ag.active_memo() is block.memo is not tape.memo
                assert ag.active_tape() is None
            assert ag.active_memo() is tape.memo and ag.active_tape() is tape
        assert ag.active_memo() is None

    def test_deterministic_bitwise_repeat(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.normal(size=(16, 8)), requires_grad=True)
            w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
            with Tape() as tape:
                p = ag.softmax(ag.matmul(ag.relu(x), w))
                loss = ag.cross_entropy(p, rng.integers(0, 4, size=16))
            tape.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


SMOOTH_OP_TRIALS = 100


class TestFiniteDifferences:
    """Analytic gradients vs central differences: 100 random 10-element trials."""

    def _check(self, make_loss, x, rtol=1e-5):
        (analytic,) = grad_of(make_loss, x)

        def forward_value():
            with no_grad():
                return float(make_loss().data)

        numeric = numerical_gradient(forward_value, x.data)
        np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=1e-8)

    @pytest.mark.parametrize("trial", range(SMOOTH_OP_TRIALS))
    def test_composite_smooth_graph(self, trial):
        rng = np.random.default_rng(1000 + trial)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 2)))
        labels = rng.integers(0, 2, size=2)
        teacher = ag.softmax(Tensor(rng.normal(size=(2, 2)))).data
        self._check(lambda: training_loss(x, w, labels, teacher), x)

    @pytest.mark.parametrize("op_name", ["add"])
    def test_elementwise_ops(self, op_name):
        rng = np.random.default_rng(hash(op_name) % 2**32)
        for trial in range(20):
            x = Tensor(rng.uniform(0.5, 2.0, size=10), requires_grad=True)
            other = Tensor(rng.uniform(0.5, 2.0, size=10))
            self._check(lambda: sum_of_squares(ag.add(x, other)), x)

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
            labels = rng.integers(0, 5, size=2)
            self._check(lambda: ag.cross_entropy(ag.softmax(x), labels), x)

    def test_kl_student_side(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            logits_p = Tensor(rng.normal(size=(2, 5)))
            logits_q = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
            self._check(lambda: ag.kl_div(ag.softmax(logits_p), ag.softmax(logits_q)), logits_q)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(44)
        a = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        c = rng.normal(size=(2, 2))
        self._check(lambda: weighted_sum(ag.matmul(a, b), c), a)
        self._check(lambda: weighted_sum(ag.matmul(a, b), c), b)

    def test_conv2d_input_and_kernel(self):
        rng = np.random.default_rng(45)
        x = Tensor(rng.normal(size=(1, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        c = rng.normal(size=(1, 2, 4, 4))
        self._check(lambda: weighted_sum(ag.conv2d(x, w, stride=1, padding=1), c), x)
        self._check(lambda: weighted_sum(ag.conv2d(x, w, stride=1, padding=1), c), w)

    def test_conv2d_strided_unpadded_non_square(self):
        rng = np.random.default_rng(49)
        x = Tensor(rng.normal(size=(2, 2, 5, 7)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        c = rng.normal(size=(2, 3, 2, 3))
        for t in (x, w):
            self._check(lambda: weighted_sum(ag.conv2d(x, w, stride=2, padding=0), c), t)

    def test_conv2d_constant_input_gets_no_gradient(self):
        rng = np.random.default_rng(50)
        xd = rng.normal(size=(2, 2, 5, 5))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        c = rng.normal(size=(2, 3, 5, 5))
        grads = {}
        for input_grad in (True, False):
            x = Tensor(xd, requires_grad=input_grad)
            (grads[input_grad],) = grad_of(
                lambda: weighted_sum(ag.conv2d(x, w, stride=1, padding=1), c), w)
            assert (x.grad is not None) == input_grad
        np.testing.assert_array_equal(grads[False], grads[True])

    def test_matmul_constant_input_gets_no_gradient(self):
        # the first dense layer's input is the data: its backward skips g @ w.T
        rng = np.random.default_rng(52)
        xd = rng.normal(size=(6, 4))
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        g = rng.normal(size=(6, 3))
        for input_grad in (True, False):
            x = Tensor(xd, requires_grad=input_grad)
            with Tape() as tape:
                ag.matmul(x, w)
            dx, dw = tape.nodes[-1].backward_fn(g)
            assert (dx is not None) == input_grad
            np.testing.assert_array_equal(dw, xd.T @ g)

    def test_batchnorm_all_inputs(self):
        rng = np.random.default_rng(46)
        x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(rng.normal(size=3), requires_grad=True)
        c = rng.normal(size=(6, 3))

        def make_loss():
            out = ag.batchnorm(x, gamma, beta, np.zeros(3), np.ones(3), 0.1, "train")
            return weighted_sum(out, c)

        for t in (x, gamma, beta):
            self._check(make_loss, t)

    def test_batchnorm_4d_all_inputs(self):
        rng = np.random.default_rng(51)
        x = Tensor(rng.normal(size=(3, 2, 3, 2)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=2), requires_grad=True)
        beta = Tensor(rng.normal(size=2), requires_grad=True)
        c = rng.normal(size=(3, 2, 3, 2))

        def make_loss():
            out = ag.batchnorm(x, gamma, beta, np.zeros(2), np.ones(2), 0.1, "train")
            return weighted_sum(out, c)

        for t in (x, gamma, beta):
            self._check(make_loss, t)

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(47)
        x = Tensor(rng.uniform(0.5, 2.0, size=10) * rng.choice([-1.0, 1.0], size=10),
                   requires_grad=True)
        self._check(lambda: sum_of_squares(ag.relu(x)), x)

    def test_maxpool_gradient(self):
        rng = np.random.default_rng(48)
        x = Tensor(rng.normal(size=(1, 1, 4, 4)), requires_grad=True)
        self._check(lambda: sum_of_squares(ag.maxpool2d(x, 2)), x)

    def test_maxpool_k3_trailing_row(self):
        # distinct values, so no window's maximum is within a step of a tie
        rng = np.random.default_rng(52)
        x = Tensor(rng.permutation(70).reshape(1, 2, 7, 5) * 0.1, requires_grad=True)
        c = rng.normal(size=(1, 2, 2, 1))
        self._check(lambda: weighted_sum(ag.maxpool2d(x, 3), c), x)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class TestSGD:
    def test_zero_gradient_leaves_params(self):
        p = Tensor([1.0, -2.0], requires_grad=True)
        p.grad = np.zeros(2)
        SGD([ParamGroup({"p": p}, lr=0.1)]).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_single_step_hand_value(self):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.ones(1)
        SGD([ParamGroup({"p": p}, lr=0.1)]).step()
        np.testing.assert_allclose(p.data, [-0.1], rtol=1e-15)

    def test_two_steps_with_momentum(self):
        p = Tensor([0.0], requires_grad=True)
        opt = SGD([ParamGroup({"p": p}, lr=0.1, momentum=0.9)])
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.1, abs=1e-15)
        p.grad = np.ones(1)
        opt.step()
        assert p.data[0] == pytest.approx(-0.29, abs=1e-12)

    def test_nan_gradient_aborts(self):
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([np.nan])
        with pytest.raises(StepError):
            SGD([ParamGroup({"p": p}, lr=0.1)]).step()

    def test_nan_gradient_on_later_param_updates_nothing(self):
        a = Tensor([0.0], requires_grad=True)
        b = Tensor([0.0], requires_grad=True)
        opt = SGD([ParamGroup({"a": a, "b": b}, lr=0.1, momentum=0.9)])
        a.grad, b.grad = np.ones(1), np.ones(1)
        opt.step()
        a_before, velocity_before = a.data.copy(), opt.state()
        a.grad, b.grad = np.ones(1), np.array([np.nan])
        with pytest.raises(StepError, match="'b'"):
            opt.step()
        assert a.data.tobytes() == a_before.tobytes()
        assert opt.state().keys() == velocity_before.keys()
        for name, v in opt.state().items():
            assert v.tobytes() == velocity_before[name].tobytes(), name

    def test_grouped_optimizer_weight_decay(self):
        p = Tensor(np.array([2.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = SGD([ParamGroup({"p": p}, lr=0.5, weight_decay=0.1)])
        opt.step()
        # v = 1 + 0.1*2 = 1.2; p = 2 - 0.5*1.2
        np.testing.assert_allclose(p.data, [1.4], rtol=1e-15)

    def test_min_value_projection(self):
        p = Tensor(np.asarray(0.05), requires_grad=True)
        p.grad = np.asarray(10.0)
        opt = SGD([ParamGroup({"a": p}, lr=0.1, min_value=1e-3)])
        opt.step()
        assert p.data == pytest.approx(1e-3)

    def test_skips_params_without_grad(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = SGD([ParamGroup({"p": p}, lr=0.5, momentum=0.9, weight_decay=0.5)])
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0])
