"""Tape, primitive ops, and gradient verification.

Forward oracles here are written independently of the library code: naive
triple-loop matmul and sliding-window convolutions, direct bin arithmetic for
the adaptive pools. Gradients are verified against central differences.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda.diffcore import (
    ShapeError,
    Tape,
    Tensor,
    active_tape,
    adaptive_max_pool1d,
    add,
    add_bias,
    backward,
    check_parameter_gradients,
    clamp_min,
    concat,
    conv1d,
    conv2d,
    cosine_rows,
    flatten,
    grad_check,
    layer_norm,
    make_rng,
    matmul,
    max_,
    mean,
    mul,
    pairwise_absdiff,
    permute,
    primitive_checks,
    relu,
    reshape,
    scale_rows,
    sigmoid,
    softmax_rows,
    sum_,
    transpose,
    using_dtype,
)
from hsda.errors import ConfigError
from hsda.loss import cross_entropy
from hsda.model import HsdaNet, synth_config
from hsda.model.embeddings import pool_signal


# ---------------------------------------------------------------------------
# independent forward oracles


def matmul_oracle(a, b):
    m, n = a.shape
    n2, p = b.shape
    assert n == n2
    out = np.zeros((m, p), dtype=np.float64)
    for i in range(m):
        for j in range(p):
            for k in range(n):
                out[i, j] += a[i, k] * b[k, j]
    return out


def conv1d_oracle(x, w, b, stride, padding, groups):
    C_in, T = x.shape
    C_out, C_g, k = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding)))
    T_out = (T + 2 * padding - k) // stride + 1
    og = C_out // groups
    y = np.zeros((C_out, T_out), dtype=np.float64)
    for co in range(C_out):
        gi = co // og
        for t in range(T_out):
            acc = 0.0
            for cg in range(C_g):
                for j in range(k):
                    acc += w[co, cg, j] * xp[gi * C_g + cg, t * stride + j]
            y[co, t] = acc + (b[co] if b is not None else 0.0)
    return y


def conv2d_oracle(x, w, b, stride, padding, groups):
    C_in, H, W = x.shape
    C_out, C_g, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    H_out = (H + 2 * padding - kh) // stride + 1
    W_out = (W + 2 * padding - kw) // stride + 1
    og = C_out // groups
    y = np.zeros((C_out, H_out, W_out), dtype=np.float64)
    for co in range(C_out):
        gi = co // og
        for r in range(H_out):
            for c in range(W_out):
                acc = 0.0
                for cg in range(C_g):
                    for i in range(kh):
                        for j in range(kw):
                            acc += w[co, cg, i, j] * xp[gi * C_g + cg, r * stride + i, c * stride + j]
                y[co, r, c] = acc + (b[co] if b is not None else 0.0)
    return y


# ---------------------------------------------------------------------------
# forward values


class TestForward:
    def test_matmul_known_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        out = matmul(Tensor(a), Tensor(b)).values
        assert np.array_equal(out, np.array([[19.0, 22.0], [43.0, 50.0]], dtype=out.dtype))
        assert np.array_equal(out, matmul_oracle(a, b).astype(out.dtype))

    def test_matmul_random_against_oracle(self):
        rng = make_rng(7, "check")
        with using_dtype(np.float64):
            for _ in range(5):
                m, n, p = rng.integers(1, 6, size=3)
                a = rng.normal(size=(m, n))
                b = rng.normal(size=(n, p))
                got = matmul(Tensor(a), Tensor(b)).values
                np.testing.assert_allclose(got, matmul_oracle(a, b), rtol=1e-12)

    @pytest.mark.parametrize(
        "C_in,C_out,k,T,stride,padding,groups",
        [
            (1, 1, 3, 7, 1, 0, 1),
            (2, 3, 3, 8, 1, 1, 1),
            (2, 4, 5, 10, 2, 2, 1),
            (4, 4, 3, 6, 1, 1, 4),
            (4, 6, 3, 9, 2, 1, 2),
            (3, 2, 1, 5, 1, 0, 1),
        ],
    )
    def test_conv1d_against_oracle(self, C_in, C_out, k, T, stride, padding, groups):
        rng = make_rng(11, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(1, C_in, T))
            w = rng.normal(size=(C_out, C_in // groups, k))
            b = rng.normal(size=C_out)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=groups)
            np.testing.assert_allclose(
                got.values[0], conv1d_oracle(x[0], w, b, stride, padding, groups), rtol=1e-12, atol=1e-12
            )

    def test_conv1d_batched_matches_per_sample(self):
        rng = make_rng(12, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(3, 2, 8))
            w = rng.normal(size=(4, 2, 3))
            b = rng.normal(size=4)
            batched = conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1).values
            for i in range(3):
                np.testing.assert_allclose(
                    batched[i], conv1d_oracle(x[i], w, b, 1, 1, 1), rtol=1e-12, atol=1e-12
                )

    def test_matmul_batched_matches_per_sample(self):
        rng = make_rng(8, "check")
        with using_dtype(np.float64):
            a = rng.normal(size=(3, 2, 4))
            shared = rng.normal(size=(4, 5))
            paired = rng.normal(size=(3, 4, 5))
            got_shared = matmul(Tensor(a), Tensor(shared)).values
            got_paired = matmul(Tensor(a), Tensor(paired)).values
            for i in range(3):
                np.testing.assert_allclose(got_shared[i], matmul_oracle(a[i], shared), rtol=1e-12)
                np.testing.assert_allclose(got_paired[i], matmul_oracle(a[i], paired[i]), rtol=1e-12)

    def test_conv2d_batched_matches_per_sample(self):
        rng = make_rng(14, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(3, 4, 6, 5))
            w = rng.normal(size=(6, 2, 3, 3))
            b = rng.normal(size=6)
            batched = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1, groups=2).values
            for i in range(3):
                np.testing.assert_allclose(
                    batched[i], conv2d_oracle(x[i], w, b, 2, 1, 2), rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize(
        "C_in,C_out,k,H,W,stride,padding,groups",
        [
            (1, 1, 3, 5, 5, 1, 0, 1),
            (2, 3, 3, 6, 6, 1, 1, 1),
            (3, 4, 3, 7, 5, 2, 1, 1),
            (4, 4, 3, 5, 5, 1, 1, 4),
            (2, 5, 1, 4, 4, 1, 0, 1),
            (4, 6, 3, 6, 5, 2, 1, 2),
        ],
    )
    def test_conv2d_against_oracle(self, C_in, C_out, k, H, W, stride, padding, groups):
        rng = make_rng(13, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(1, C_in, H, W))
            w = rng.normal(size=(C_out, C_in // groups, k, k))
            b = rng.normal(size=C_out)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=groups)
            np.testing.assert_allclose(
                got.values[0], conv2d_oracle(x[0], w, b, stride, padding, groups), rtol=1e-12, atol=1e-12
            )

    # The signal average pool runs off the tape (hsda.model.embeddings), but
    # it shares its bin edges with adaptive_max_pool1d, so both pools are
    # checked here against the same bin arithmetic.
    def test_adaptive_avg_pool_known_values(self):
        out = pool_signal(np.array([[1.0, 2.0, 3.0, 4.0]]), 2)
        np.testing.assert_allclose(out, [[1.5, 3.5]])

    def test_adaptive_avg_pool_uneven_bins(self):
        # length 7 into 3 bins: [0,3), [2,5) rounds to [2,5)? bins are
        # floor(i*7/3)..ceil((i+1)*7/3) = [0,3), [2,5), [4,7)
        out = pool_signal(np.arange(7.0)[None, :], 3)
        np.testing.assert_allclose(out, [[1.0, 3.0, 5.0]])

    @pytest.mark.parametrize("T, out_len", [(23, 5), (3, 7)])
    def test_adaptive_avg_pool_matches_per_bin_loop(self, T, out_len):
        # overlapping bins (T not a multiple of out_len), and bins sharing samples (T < out_len)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(9, T))
        bins = [(i * T // out_len, -(-(i + 1) * T // out_len)) for i in range(out_len)]
        want_y = np.stack([x[:, s:e].mean(axis=1) for s, e in bins], axis=1)
        y = pool_signal(x, out_len)  # float64 input, pooled in the float32 default
        assert y.dtype == np.float32
        np.testing.assert_allclose(y, want_y, rtol=1e-6, atol=1e-6)
        with using_dtype(np.float64):
            np.testing.assert_allclose(pool_signal(x, out_len), want_y, rtol=1e-12, atol=1e-12)

    def test_adaptive_max_pool_known_values(self):
        x = Tensor(np.array([[[1.0, 5.0, 2.0, 4.0, 3.0, 0.0]]]))
        out = adaptive_max_pool1d(x, 2).values
        np.testing.assert_allclose(out, [[[5.0, 4.0]]])

    def test_adaptive_max_pool_halving_floor(self):
        x = Tensor(np.arange(10.0).reshape(1, 2, 5))
        out = adaptive_max_pool1d(x, 2).values
        # bins [0,3) and [2,5): maxima 2,4 and 7,9
        np.testing.assert_allclose(out, [[[2.0, 4.0], [7.0, 9.0]]])
        # a batch pools each sample on its own
        batched = adaptive_max_pool1d(Tensor(np.concatenate([x.values, -x.values])), 2).values
        np.testing.assert_array_equal(batched[0], out[0])
        np.testing.assert_allclose(batched[1], [[-0.0, -2.0], [-5.0, -7.0]])

    def test_softmax_rows_known_values(self):
        x = Tensor(np.array([[0.0, 0.0], [np.log(1.0), np.log(3.0)]]))
        out = softmax_rows(x).values
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.25, 0.75]], rtol=1e-6)

    def test_layer_norm_zero_mean_unit_var(self):
        rng = make_rng(5, "check")
        with using_dtype(np.float64):
            x = Tensor(rng.normal(size=(4, 9)) * 3 + 1)
            g = Tensor(np.ones(9))
            b = Tensor(np.zeros(9))
            y = layer_norm(x, g, b).values
            np.testing.assert_allclose(y.mean(axis=-1), 0, atol=1e-12)
            np.testing.assert_allclose(y.var(axis=-1), 1, atol=1e-4)

    def test_cosine_similarity_endpoints(self):
        a = Tensor(np.array([[1.0, 0.0]]))
        assert cosine_rows(a, Tensor(np.array([[2.0, 0.0]]))).item() == pytest.approx(1.0)
        assert cosine_rows(a, Tensor(np.array([[0.0, 3.0]]))).item() == pytest.approx(0.0)
        assert cosine_rows(a, Tensor(np.array([[-1.0, 0.0]]))).item() == pytest.approx(-1.0)
        # one row pair per output entry
        rows = cosine_rows(Tensor(np.array([[1.0, 0.0], [0.0, 2.0]])), Tensor(np.array([[3.0, 0.0], [-1.0, 0.0]])))
        np.testing.assert_allclose(rows.values, [1.0, 0.0], atol=1e-7)

    def test_pairwise_absdiff_values(self):
        q = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]))
        k = Tensor(np.array([[1.0, 1.0]]))
        out = pairwise_absdiff(q, k).values
        np.testing.assert_allclose(out, [[[1.0, 0.0]], [[1.0, 2.0]]])


# ---------------------------------------------------------------------------
# shape and config guards


class TestGuards:
    def test_elementwise_shape_mismatch(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize(
        "op,x_shape,w_shape",
        [(conv1d, (1, 1, 8), (1, 1, 2)), (conv2d, (1, 1, 8, 8), (1, 1, 3, 2))],
        ids=["conv1d", "conv2d"],
    )
    def test_even_kernel_rejected(self, op, x_shape, w_shape):
        with pytest.raises(ConfigError):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)))

    @pytest.mark.parametrize(
        "op,x_shape,w_shape",
        [(conv1d, (1, 3, 8), (2, 1, 3)), (conv2d, (1, 3, 8, 8), (2, 1, 3, 3))],
        ids=["conv1d", "conv2d"],
    )
    def test_groups_must_divide(self, op, x_shape, w_shape):
        with pytest.raises(ConfigError):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), groups=2)

    @pytest.mark.parametrize(
        "op,x_shape,w_shape,b_shape,check",
        [
            (conv1d, (8,), (1, 1, 3), None, "input must be a batch"),
            (conv1d, (1, 1, 1, 8), (1, 1, 3), None, "input must be a batch"),
            (conv2d, (1, 8), (1, 1, 3, 3), None, "input must be a batch"),
            (conv2d, (1, 1, 1, 1, 8), (1, 1, 3, 3), None, "input must be a batch"),
            (conv1d, (1, 8), (1, 1, 3), None, "input must be a batch"),
            (conv2d, (1, 8, 8), (1, 1, 3, 3), None, "input must be a batch"),
            (conv1d, (1, 1, 8, 8), (1, 1, 3, 3), None, "weight must be"),
            (conv2d, (1, 1, 8, 8), (1, 1, 3), None, "weight must be"),
            (conv1d, (1, 4, 8), (2, 3, 3), None, "inconsistent with C_in"),
            (conv2d, (1, 4, 8, 8), (2, 3, 3, 3), None, "inconsistent with C_in"),
            (conv1d, (1, 1, 8), (2, 1, 3), (3,), "bias must be"),
            (conv2d, (1, 1, 8, 8), (2, 1, 3, 3), (2, 1), "bias must be"),
            (conv1d, (1, 1, 2), (1, 1, 5), None, "output .* < 1"),
            (conv2d, (1, 1, 8, 2), (1, 1, 5, 5), None, "output .* < 1"),
        ],
        ids=[
            "conv1d-input-rank-1",
            "conv1d-input-rank-4",
            "conv2d-input-rank-2",
            "conv2d-input-rank-5",
            "conv1d-single-sample",
            "conv2d-single-sample",
            "conv1d-weight-rank",
            "conv2d-weight-rank",
            "conv1d-weight-channels",
            "conv2d-weight-channels",
            "conv1d-bias",
            "conv2d-bias",
            "conv1d-output-below-1",
            "conv2d-output-below-1",
        ],
    )
    def test_conv_shape_rejected(self, op, x_shape, w_shape, b_shape, check):
        bias = None if b_shape is None else Tensor(np.zeros(b_shape))
        with pytest.raises(ShapeError, match=check):
            op(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), bias)

    def test_pool_single_sample_rejected(self):
        with pytest.raises(ShapeError, match=r"\(B, C, T\)"):
            adaptive_max_pool1d(Tensor(np.zeros((2, 7))), 3)

    def test_add_bias_guard(self):
        with pytest.raises(ShapeError):
            add_bias(Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)))

    def test_scale_rows_guard(self):
        with pytest.raises(ShapeError):
            scale_rows(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 1))))

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = mul(x, x)
        with pytest.raises(ValueError):
            backward(y, tape)


# ---------------------------------------------------------------------------
# tape mechanics


class TestTape:
    def test_fanout_gradients_sum(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([2.0, -3.0]), requires_grad=True)
            with Tape() as tape:
                y = sum_(add(mul(x, x), x))  # sum(x^2 + x)
            backward(y, tape)
            np.testing.assert_allclose(x.grad, 2 * x.values + 1)

    def test_grad_accumulates_across_backwards(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.0]), requires_grad=True)
            for _ in range(2):
                with Tape() as tape:
                    y = sum_(mul(x, x))
                backward(y, tape)
            np.testing.assert_allclose(x.grad, [4.0])
            x.zero_grad()
            assert x.grad is None

    def test_tape_cleared_after_backward(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        with Tape() as tape:
            y = sum_(mul(x, x))
        backward(y, tape)
        assert len(tape) == 0

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        assert y.requires_grad
        with Tape() as tape:
            pass
        assert len(tape) == 0

    def test_shared_gradient_array_not_mutated(self):
        # add hands one array to both inputs; a then gets a second gradient
        with using_dtype(np.float64):
            a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
            k = Tensor(np.array([0.5, -2.0]))
            with Tape() as tape:
                e = mul(a, k)
                c = add(a, b)
                y = sum_(add(c, e))
            backward(y, tape)
            np.testing.assert_array_equal(b.grad, [1.0, 1.0])
            np.testing.assert_array_equal(a.grad, 1.0 + k.values)

    @pytest.mark.parametrize("op, x_shape, w_shape", [
        (conv1d, (2, 4, 9), (6, 2, 3)),
        (conv2d, (2, 4, 6, 6), (6, 2, 3, 3)),
    ])
    def test_conv_param_grads_same_without_input_grad(self, op, x_shape, w_shape):
        rng = np.random.default_rng(5)
        xv, wv, bv = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=6)
        gw = rng.normal(size=op(Tensor(xv), Tensor(wv), Tensor(bv), stride=2, padding=1, groups=2).shape)
        grads = []
        for x_needs in (True, False):
            x = Tensor(xv, requires_grad=x_needs)
            w, b = Tensor(wv, requires_grad=True), Tensor(bv, requires_grad=True)
            with Tape() as tape:
                y = sum_(mul(op(x, w, b, stride=2, padding=1, groups=2), Tensor(gw)))
            backward(y, tape)
            assert (x.grad is not None) == x_needs
            grads.append((w.grad, b.grad))
        for with_x, without_x in zip(*grads):
            np.testing.assert_array_equal(with_x, without_x)

    def test_constants_get_no_grad(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            c = Tensor(np.array([3.0, 4.0]))
            with Tape() as tape:
                y = sum_(mul(x, c))
            backward(y, tape)
            assert c.grad is None
            np.testing.assert_allclose(x.grad, c.values)


class TestTapeMemory:
    def test_relu_output_feeding_a_conv_is_freed_before_backward(self):
        # neither the tape nor conv2d's backward rule needs the relu output's values
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)

        def forward():
            h = relu(conv2d(x, w1, padding=1))
            return sum_(conv2d(h, w2)), weakref.ref(h.values)

        with Tape() as tape:
            y, h_values = forward()
        assert h_values() is None
        backward(y, tape)
        assert x.grad is not None and w1.grad is not None and w2.grad is not None

    def test_backward_leaves_grads_on_leaves_only_and_empties_the_tape(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
            c = Tensor(np.array([0.5, 0.25, 2.0]))
            with Tape() as tape:
                h = mul(x, x)
                y = sum_(add(mul(h, c), x))
            assert len(tape) == 4
            backward(y, tape)
            assert h.grad is None and y.grad is None and c.grad is None
            np.testing.assert_array_equal(x.grad, 2.0 * x.values * c.values + 1.0)
            assert len(tape) == 0

    def test_backward_peak_stays_near_the_forward_end(self):
        # backward frees each node's activations and output gradient as it walks,
        # so beyond the forward's live set it adds little more than the parameter grads
        cfg = synth_config()
        net = HsdaNet(cfg, seed=0)
        rng = np.random.default_rng(3)
        images = [rng.random((3, cfg.canvas_size, cfg.canvas_size)) for _ in range(8)]
        signals = [rng.normal(size=(9, 120)) for _ in range(8)]
        grad_bytes = sum(t.values.nbytes for t in net.parameter_dict().values())
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                logits, _ = net(images, signals)
                loss = cross_entropy(softmax_rows(logits), np.arange(8) % 2)
            forward_end = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            backward(loss, tape)
            backward_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert backward_peak <= forward_end + grad_bytes + 2 * 2**20, (backward_peak, forward_end, grad_bytes)


# ---------------------------------------------------------------------------
# gradients vs central differences


class TestGradients:
    def test_sum_matmul_ones_direction(self):
        # d/dA sum(A·B) with B all-ones is constant p (the row-sum direction)
        with using_dtype(np.float64):
            rng = make_rng(3, "check")
            a = rng.normal(size=(3, 4))
            ones = np.ones((4, 2))

            def f(x):
                return sum_(matmul(x, Tensor(ones)))

            err = grad_check(f, Tensor(a))
            assert err < 1e-6

            xt = Tensor(a, requires_grad=True)
            with Tape() as tape:
                y = f(xt)
            backward(y, tape)
            np.testing.assert_allclose(xt.grad, np.full((3, 4), 2.0))

    def test_every_primitive_under_tolerance(self):
        results = primitive_checks(seed=0)
        assert len(results) >= 50
        bad = [(n, e) for n, e in results if not e < 1e-4]
        assert bad == []

    def test_composed_expression(self):
        # small stem-like composite: conv2d -> relu -> pool-ish mean -> linear
        rng = make_rng(9, "check")
        with using_dtype(np.float64):
            w1 = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4)
            wl = Tensor(rng.normal(size=(3, 2)) * 0.4)

            def f(x):
                h = conv2d(x, w1, stride=2, padding=1)
                h = sigmoid(h)
                pooled = mean(reshape(h, (3, 9)), axis=1, keepdims=True)
                return sum_(matmul(transpose(pooled), wl))

            err = grad_check(f, Tensor(rng.normal(size=(1, 2, 6, 6))))
            assert err < 1e-4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "bad",
        [np.full(4, np.nan), np.array([1.0, np.nan, 1.0, 1.0]), np.array([1.0, 1.0, np.inf, 1.0])],
        ids=["all-nan", "one-nan", "one-inf"],
    )
    def test_non_finite_backward_fails_check(self, bad):
        # identity forward whose backward scales the incoming gradient by `bad`
        def broken(a):
            out = Tensor(a.values.copy(), requires_grad=a.requires_grad, dtype=a.values.dtype)
            tape = active_tape()
            if tape is not None:
                tape.record((a,), out, lambda g: (g * bad,), "broken")
            return out

        x0 = np.array([0.3, -0.2, 0.5, 0.1])
        assert not grad_check(lambda t: sum_(broken(t)), Tensor(x0)) < 1e-4
        with using_dtype(np.float64):
            p = Tensor(x0, requires_grad=True)
            errs = check_parameter_gradients(lambda: sum_(broken(p)), {"p": p})
        assert not errs["p"] < 1e-4

    def test_abs_and_clamp_away_from_kinks(self):
        with using_dtype(np.float64):
            x = np.array([[-2.0, -0.5, 0.5, 2.0]])
            assert grad_check(lambda t: sum_(clamp_min(t, 0.0)), Tensor(x)) < 1e-6

    def test_max_ties_send_grad_to_first(self):
        with using_dtype(np.float64):
            x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
            with Tape() as tape:
                y = sum_(max_(x, axis=1))
            backward(y, tape)
            np.testing.assert_allclose(x.grad, [[0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# properties


finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, width=64)


class TestProperties:
    @given(
        st.integers(1, 5),
        st.integers(2, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_rows_stochastic(self, m, n, seed):
        rng = make_rng(seed, "check")
        with using_dtype(np.float64):
            y = softmax_rows(Tensor(rng.normal(size=(m, n)) * 10)).values
        assert np.all(y > 0)
        np.testing.assert_allclose(y.sum(axis=1), np.ones(m), atol=1e-12)

    @given(st.lists(finite_floats, min_size=6, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_reshape_permute_roundtrip(self, vals):
        x = Tensor(np.array(vals).reshape(2, 3))
        back = permute(permute(x, (1, 0)), (1, 0)).values
        np.testing.assert_array_equal(back, x.values)
        flat = flatten(reshape(x, (1, 2, 3)))  # one sample: flatten keeps the batch axis
        assert flat.shape == (1, 6)
        np.testing.assert_array_equal(reshape(flat, (2, 3)).values, x.values)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_concat_then_split_identity(self, m, n, seed):
        rng = make_rng(seed, "check")
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(m, n))
        out = concat([Tensor(a), Tensor(b)], axis=0).values
        np.testing.assert_array_equal(out[:m], a.astype(out.dtype))
        np.testing.assert_array_equal(out[m:], b.astype(out.dtype))


# ---------------------------------------------------------------------------
# rng streams


class TestRng:
    def test_same_key_same_draws(self):
        a = make_rng(42, "init").normal(size=8)
        b = make_rng(42, "init").normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        a = make_rng(42, "init").normal(size=8)
        b = make_rng(42, "shuffle").normal(size=8)
        assert not np.array_equal(a, b)

    def test_substreams_differ(self):
        a = make_rng(42, "shuffle", substream=0).normal(size=8)
        b = make_rng(42, "shuffle", substream=1).normal(size=8)
        assert not np.array_equal(a, b)

    def test_unknown_stream_name(self):
        with pytest.raises(ConfigError):
            make_rng(0, "nope")
