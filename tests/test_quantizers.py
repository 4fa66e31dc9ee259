"""Quantizer oracles: level rounding, the code-truncation pipeline verified
against an independently coded re-implementation, and straight-through
gradients checked for exact identity."""

import numpy as np
import pytest

from flexquant import autograd as ag
from flexquant.autograd import Tape, Tensor
from flexquant.quantizers import (
    BitWidthError,
    dequantize_codes,
    mean_align,
    quantize_activation,
    quantize_levels,
    quantize_weights_at,
    quantize_weights_dorefa,
    truncate_codes,
    weight_forward,
)

from test_autograd import grad_of, weighted_sum


def reference_weight_pipeline(w: np.ndarray, b: int, b1: int) -> np.ndarray:
    """Independent step-by-step oracle: normalize, code at b1, drop bits,
    dequantize, shift the mean back to the b1 tensor's mean.

    Written directly from the definitions, sharing no code with the library
    path it checks.
    """
    n1 = 2**b1 - 1
    t = np.tanh(w)
    u = t / (2.0 * np.abs(t).max()) + 0.5
    scaled = n1 * u
    codes_b1 = np.floor(scaled + 0.5)  # half away from zero; u >= 0 here
    w_hat_b1 = 2.0 * codes_b1 / n1 - 1.0
    codes_b = codes_b1.astype(np.int64) // (2 ** (b1 - b))
    n = 2**b - 1
    w_hat_b = 2.0 * codes_b / n - 1.0
    return w_hat_b + (w_hat_b1.mean() - w_hat_b.mean())


class TestQuantizeLevels:
    @pytest.mark.parametrize("b", [1, 2, 4, 8, 16])
    def test_endpoints_are_fixed(self, b):
        assert quantize_levels(np.asarray(0.0), b) == 0.0
        assert quantize_levels(np.asarray(1.0), b) == 1.0

    def test_two_bit_hand_value(self):
        # 3 * 0.4 = 1.2 rounds to 1, so the output level is 1/3
        assert quantize_levels(np.asarray(0.4), 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("b", [2, 3, 5, 8])
    def test_exhaustive_against_level_grid(self, b):
        # nearest-level oracle over a dense grid, ties resolved upward
        x = np.linspace(0.0, 1.0, 1001)
        n = 2**b - 1
        scaled = n * x
        low = np.floor(scaled)
        expect = np.where(scaled - low >= 0.5, low + 1, low) / n
        np.testing.assert_allclose(quantize_levels(x, b), expect, atol=1e-15)

    def test_idempotent_on_random_inputs(self):
        rng = np.random.default_rng(0)
        x = rng.random(10_000)
        for b in (2, 4, 8):
            once = quantize_levels(x, b)
            np.testing.assert_array_equal(quantize_levels(once, b), once)

    def test_monotone(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.random(10_000))
        for b in (2, 3, 8):
            q = quantize_levels(x, b)
            assert np.all(np.diff(q) >= 0.0)

    def test_level_cardinality(self):
        rng = np.random.default_rng(2)
        x = rng.random(100_000)
        for b in (2, 4, 6):
            assert len(np.unique(quantize_levels(x, b))) <= 2**b

    def test_output_is_exact_level(self):
        rng = np.random.default_rng(3)
        x = rng.random(1000)
        for b in (2, 5):
            q = quantize_levels(x, b)
            k = q * (2**b - 1)
            np.testing.assert_allclose(k, np.round(k), atol=1e-9)

    def test_small_excursions_clamped(self):
        assert quantize_levels(np.asarray(-1e-10), 4) == 0.0
        assert quantize_levels(np.asarray(1.0 + 1e-10), 4) == 1.0

    def test_far_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantize_levels(np.asarray(1.5), 4)

    @pytest.mark.parametrize("b", [0, 17, -3])
    def test_bit_range_enforced(self, b):
        with pytest.raises(BitWidthError):
            quantize_levels(np.asarray(0.5), b)


class TestDorefaWeights:
    def test_symmetric_extremes_map_to_unit(self):
        for b1 in (2, 4, 8):
            view = quantize_weights_dorefa(np.array([-0.9, 0.9]), b1)
            np.testing.assert_allclose(dequantize_codes(view.codes, b1), [-1.0, 1.0],
                                       atol=1e-15)

    def test_constant_positive_tensor(self):
        view = quantize_weights_dorefa(np.array([0.3, 0.3, 0.3]), 8)
        np.testing.assert_allclose(dequantize_codes(view.codes, 8), [1.0, 1.0, 1.0],
                                   atol=1e-15)

    def test_codes_within_range_and_dequant_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for b1 in (2, 8, 16):
            view = quantize_weights_dorefa(rng.normal(size=200), b1)
            assert view.codes.max() < 2**b1
            w_hat = dequantize_codes(view.codes, b1)
            assert w_hat.min() >= -1.0 and w_hat.max() <= 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(16, 16))
        view = quantize_weights_dorefa(w, 8)
        t = np.tanh(w)
        u = t / (2 * np.abs(t).max()) + 0.5
        codes = np.floor(255 * u + 0.5)
        w_hat = 2 * codes / 255 - 1
        np.testing.assert_allclose(dequantize_codes(view.codes, 8), w_hat, atol=1e-12)
        assert view.mean_b1 == pytest.approx(w_hat.mean(), abs=1e-12)

    def test_all_zero_weights_hit_middle_level(self):
        with pytest.warns(UserWarning):
            view = quantize_weights_dorefa(np.zeros(5), 8)
        assert np.all(view.codes == 128)  # round(255/2) half away from zero


class TestTruncation:
    def test_max_code_maps_to_max(self):
        view = quantize_weights_dorefa(np.array([-1.0, 1.0]), 8)
        assert view.codes.max() == 255
        assert truncate_codes(view, 4).max() == 15

    def test_hand_truncation_200(self):
        from flexquant.quantizers import QuantizedWeightView
        view = QuantizedWeightView(codes=np.array([200], dtype=np.uint16), b1=8, mean_b1=0.0)
        codes4 = truncate_codes(view, 4)
        assert codes4[0] == 12
        assert dequantize_codes(codes4, 4)[0] == pytest.approx(0.6, abs=1e-12)

    def test_zero_code_stays_zero(self):
        from flexquant.quantizers import QuantizedWeightView
        view = QuantizedWeightView(codes=np.zeros(3, dtype=np.uint16), b1=8, mean_b1=0.0)
        for b in (2, 3, 7, 8):
            assert np.all(truncate_codes(view, b) == 0)

    def test_shift_composition_exhaustive(self):
        # truncating 8 -> b -> b' must equal truncating 8 -> b' for all codes
        from flexquant.quantizers import QuantizedWeightView
        codes = np.arange(256, dtype=np.uint16)
        view8 = QuantizedWeightView(codes=codes, b1=8, mean_b1=0.0)
        for b in (7, 6, 5, 4, 3):
            mid = truncate_codes(view8, b)
            view_b = QuantizedWeightView(codes=mid, b1=b, mean_b1=0.0)
            for b2 in range(2, b):
                np.testing.assert_array_equal(
                    truncate_codes(view_b, b2), truncate_codes(view8, b2)
                )

    def test_equal_bits_is_identity(self):
        view = quantize_weights_dorefa(np.random.default_rng(6).normal(size=10), 8)
        np.testing.assert_array_equal(truncate_codes(view, 8), view.codes)

    def test_upward_truncation_rejected(self):
        view = quantize_weights_dorefa(np.array([1.0, -1.0]), 4)
        with pytest.raises(BitWidthError):
            truncate_codes(view, 8)


class TestMeanAlign:
    def test_already_aligned_is_identity(self):
        w = np.array([0.1, 0.3, -0.4])
        np.testing.assert_array_equal(mean_align(w, w.mean()), w)

    def test_hand_shift(self):
        np.testing.assert_allclose(mean_align(np.zeros(2), 0.25), [0.25, 0.25], atol=1e-15)

    def test_idempotent(self):
        # the second pass shifts by the first pass's residual mean error,
        # which the alignment contract bounds at 1e-12
        rng = np.random.default_rng(7)
        w = rng.normal(size=50)
        once = mean_align(w, 0.123)
        np.testing.assert_allclose(mean_align(once, 0.123), once, atol=1e-12)

    def test_alignment_exact_on_random_tensors(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.normal(size=rng.integers(5, 200))
            ref = float(rng.normal())
            assert abs(mean_align(w, ref).mean() - ref) < 1e-12


class TestWeightPipeline:
    def test_equal_bits_matches_plain_dorefa(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=64)
        view = quantize_weights_dorefa(w, 8)
        np.testing.assert_array_equal(weight_forward(w, 8, 8),
                                      dequantize_codes(view.codes, 8))

    @pytest.mark.parametrize("b", [8, 6, 4, 2])
    def test_matches_independent_oracle(self, b):
        rng = np.random.default_rng(10 + b)
        for _ in range(100):
            w = rng.normal(size=rng.integers(4, 100))
            np.testing.assert_allclose(weight_forward(w, b, 8),
                                       reference_weight_pipeline(w, b, 8), atol=1e-12)

    @pytest.mark.parametrize("b", [8, 6, 4, 2])
    def test_mean_alignment_invariant(self, b):
        rng = np.random.default_rng(20 + b)
        for _ in range(100):
            w = rng.normal(size=50)
            view = quantize_weights_dorefa(w, 8)
            target = dequantize_codes(view.codes, 8).mean()
            assert abs(weight_forward(w, b, 8).mean() - target) < 1e-12

    def test_ste_gradient_is_exactly_ones(self):
        w = Tensor(np.random.default_rng(11).normal(size=(6, 5)), requires_grad=True)
        for b in (8, 4, 2):
            (g,) = grad_of(lambda: ag.sum_(quantize_weights_at(w, b, 8)), w)
            np.testing.assert_array_equal(g, np.ones((6, 5)))

    def test_ste_passes_arbitrary_upstream_exactly(self):
        rng = np.random.default_rng(12)
        w = Tensor(rng.normal(size=20), requires_grad=True)
        c = rng.normal(size=20)
        (g,) = grad_of(lambda: weighted_sum(quantize_weights_at(w, 4, 8), c), w)
        np.testing.assert_array_equal(g, c)


class TestActivationQuantizer:
    def test_saturated_input_gives_alpha(self):
        alpha = Tensor(np.asarray(0.5), requires_grad=True)
        a = Tensor(np.array([0.6, 2.0, 5.0]), requires_grad=True)
        out = quantize_activation(a, alpha, 4)
        np.testing.assert_allclose(out.data, [0.5, 0.5, 0.5], atol=1e-15)

    def test_zero_input_gives_zero(self):
        alpha = Tensor(np.asarray(1.0))
        out = quantize_activation(Tensor(np.zeros(4)), alpha, 2)
        np.testing.assert_array_equal(out.data, np.zeros(4))

    def test_reuses_level_quantizer(self):
        alpha = Tensor(np.asarray(1.0))
        out = quantize_activation(Tensor(np.array([0.4])), alpha, 2)
        assert out.data[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_scaling_by_alpha(self):
        alpha = Tensor(np.asarray(2.0))
        a = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
        out = quantize_activation(Tensor(a), alpha, 2)
        expect = 2.0 * quantize_levels(np.clip(a, 0, 2.0) / 2.0, 2)
        np.testing.assert_allclose(out.data, expect, atol=1e-15)

    def test_gradients_pass_through_in_range_only(self):
        alpha = Tensor(np.asarray(1.0), requires_grad=True)
        a = Tensor(np.array([-0.5, 0.2, 0.8, 1.3]), requires_grad=True)
        (ga,) = grad_of(lambda: ag.sum_(quantize_activation(a, alpha, 4)), a)
        np.testing.assert_array_equal(ga, [0.0, 1.0, 1.0, 0.0])

    def test_alpha_gradient_sums_saturated_upstream(self):
        rng = np.random.default_rng(13)
        alpha = Tensor(np.asarray(0.7), requires_grad=True)
        a_vals = rng.uniform(-1.0, 2.0, size=40)
        upstream = rng.normal(size=40)
        a = Tensor(a_vals, requires_grad=True)
        (galpha,) = grad_of(lambda: weighted_sum(quantize_activation(a, alpha, 4), upstream),
                            alpha)
        # brute-force per-element oracle
        expect = sum(upstream[i] for i in range(40) if a_vals[i] > 0.7)
        assert float(galpha) == pytest.approx(expect, abs=1e-12)

    def test_pact_zero_gradient_regions(self):
        alpha = Tensor(np.asarray(0.5), requires_grad=True)
        a = Tensor(np.array([-2.0, -0.1, 0.7, 3.0]), requires_grad=True)
        (ga,) = grad_of(lambda: ag.sum_(quantize_activation(a, alpha, 2)), a)
        np.testing.assert_array_equal(ga, np.zeros(4))

    def test_nonpositive_alpha_projected(self):
        alpha = Tensor(np.asarray(-1.0))
        out = quantize_activation(Tensor(np.array([0.5])), alpha, 4)
        assert out.data[0] <= 1e-3  # clipped at the projected floor

    def test_ste_inside_clip_range_is_exact_identity(self):
        rng = np.random.default_rng(14)
        alpha = Tensor(np.asarray(1.0))
        a = Tensor(rng.uniform(0.05, 0.95, size=30), requires_grad=True)
        c = rng.normal(size=30)
        (ga,) = grad_of(lambda: weighted_sum(quantize_activation(a, alpha, 3), c), a)
        np.testing.assert_array_equal(ga, c)


class TestGeneratedProperties:
    def test_weight_codes_and_top_precision(self):
        """Codes lie in [0, 2^b1 - 1]; at b = b1 (at least 2, as every net
        runs) the weights are the dequantized codes shifted to mean_b1,
        which is their own mean."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        from flexquant.quantizers import weights_from_codes

        @settings(max_examples=60)
        @given(st.integers(2, 16), st.integers(1, 40), st.floats(1e-3, 1e3),
               st.integers(0, 2**32 - 1))
        def check(b1, size, scale, seed):
            w = scale * np.random.default_rng(seed).normal(size=size)
            view = quantize_weights_dorefa(w, b1)
            assert view.codes.dtype == np.uint16
            assert view.codes.min() >= 0 and view.codes.max() <= 2**b1 - 1
            dequantized = dequantize_codes(view.codes, b1)
            assert np.mean(dequantized) == view.mean_b1
            top = weights_from_codes(view, b1)
            np.testing.assert_array_equal(top, mean_align(dequantized, view.mean_b1))
            np.testing.assert_array_equal(top, dequantized)

        check()

    def test_activation_outputs_lie_on_the_levels(self):
        """Every output is (k / n) * alpha for an integer k in [0, n], n = 2^b - 1."""
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=60)
        @given(st.integers(1, 16), st.floats(1e-3, 1e3), st.integers(1, 40),
               st.integers(0, 2**32 - 1))
        def check(b, alpha, size, seed):
            rng = np.random.default_rng(seed)
            a = alpha * rng.uniform(-0.5, 1.5, size=size)
            a[rng.random(size) < 0.1] = np.inf
            out = quantize_activation(Tensor(a), Tensor(np.asarray(alpha)), b).data
            n = 2**b - 1
            assert (out >= 0.0).all() and (out <= alpha).all()
            k = np.rint(out / alpha * n)
            assert ((k >= 0) & (k <= n)).all()
            np.testing.assert_array_equal(out, k / n * alpha)

        check()
