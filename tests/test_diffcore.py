"""Tape, primitive ops, and gradient verification.

Forward oracles here are written independently of the library code: naive
triple-loop matmul and sliding-window convolutions, direct bin arithmetic for
the adaptive pools. Gradients are verified against central differences.
"""

import itertools
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
    add_centered,
    backward,
    check_parameter_gradients,
    clamp_min,
    concat,
    conv1d,
    conv2d,
    conv_keys,
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
from hsda.loss import contrastive, cross_entropy, make_templates, total_loss
from hsda.model import HsdaNet, synth_config, toy_config
from hsda.model.embeddings import pool_signal
from hsda.model.layers import ChannelNorm2d


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
# the implementations the fast primitives replaced, kept as bitwise references


def where_relu(v):
    """relu's forward as a select: np.where(v > 0, v, 0)."""
    return np.where(v > 0, v, 0)


def three_exp_sigmoid(v):
    """sigmoid's forward with one clipped exp per sign branch (three exps in all)."""
    y = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.clip(v, 0, None))),
                 np.exp(np.clip(v, None, 0)) / (1.0 + np.exp(np.clip(v, None, 0))))
    return y.astype(v.dtype)


def padded_kernel_sum(w5, w3, w1):
    """w5 + zero-pad(w3) + zero-pad(w1) on the tape, built by concat with zero taps."""

    def pad(w, each_side):
        zeros = Tensor(np.zeros(w.shape[:2] + (each_side,), dtype=w.dtype))
        return concat([zeros, w, zeros], axis=2)

    return add(add(w5, pad(w3, 1)), pad(w1, 2))


def loop_max_pool(v, out_len):
    """(max, first argmax) of every adaptive bin of a (B, C, T) array, one bin at a time."""
    T = v.shape[-1]
    y = np.empty(v.shape[:-1] + (out_len,), dtype=v.dtype)
    arg = np.empty(y.shape, dtype=np.int64)
    for i in range(out_len):
        start, end = i * T // out_len, -(-(i + 1) * T // out_len)
        aw = v[..., start:end].argmax(axis=-1)
        arg[..., i] = start + aw
        y[..., i] = np.take_along_axis(v[..., start:end], aw[..., None], axis=-1)[..., 0]
    return y, arg


def sample_major_conv(x, w, b, g, stride, padding, groups):
    """The (B, C, *S) convolution that channel-major conv1d/conv2d replaced, run forward and back.

    Returns (y, dx, dw, db) for the output gradient g, which (like the tape
    did) may be a strided view.
    """
    B, C_in = x.shape[:2]
    C_out, kernel = w.shape[0], w.shape[2:]
    out_shape = tuple((L + 2 * padding - k) // stride + 1 for L, k in zip(x.shape[2:], kernel))
    inner = (slice(None), slice(None)) + tuple(slice(padding, padding + L) for L in x.shape[2:])
    xp = np.zeros(x.shape[:2] + tuple(L + 2 * padding for L in x.shape[2:]), dtype=x.dtype)
    xp[inner] = x
    windows = [
        (tap, (slice(None), slice(None)) + tuple(slice(o, o + stride * n, stride) for o, n in zip(offsets, out_shape)))
        for tap, offsets in enumerate(itertools.product(*map(range, kernel)))
    ]
    cols = np.empty((C_in, len(windows), B) + out_shape, dtype=x.dtype)
    for tap, window in windows:
        cols[:, tap] = xp[window].swapaxes(0, 1)
    wg = w.reshape(groups, C_out // groups, -1)
    cg = cols.reshape(groups, wg.shape[2], -1)
    y = np.matmul(wg, cg).reshape(C_out, -1)
    y += b[:, None]
    y = np.ascontiguousarray(y.reshape((C_out, B) + out_shape).swapaxes(0, 1))
    gy = g.swapaxes(0, 1).reshape(C_out, -1)
    gg = gy.reshape(groups, wg.shape[1], -1)
    dw = np.matmul(gg, cg.transpose(0, 2, 1)).reshape(w.shape)
    dcols = np.matmul(wg.transpose(0, 2, 1), gg).reshape(cols.shape)
    dxp = np.zeros_like(xp)
    for tap, window in windows:
        dxp[window] += dcols[:, tap].swapaxes(0, 1)
    return y, dxp[inner], dw, gy.sum(axis=1)


def tape_grads(fn, g, *inputs):
    """[fn(*inputs), then each input's gradient] with g as the output gradient."""
    with Tape() as tape:
        y = fn(*inputs)
        backward(sum_(mul(y, Tensor(g, dtype=g.dtype))), tape)
    return [y.values] + [t.grad for t in inputs]


def bits(a):
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.itemsize])


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
            x = rng.normal(size=(C_in, 1, T))
            w = rng.normal(size=(C_out, C_in // groups, k))
            b = rng.normal(size=C_out)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=groups)
            np.testing.assert_allclose(
                got.values[:, 0], conv1d_oracle(x[:, 0], w, b, stride, padding, groups), rtol=1e-12, atol=1e-12
            )

    def test_conv1d_batched_matches_per_sample(self):
        rng = make_rng(12, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(2, 3, 8))  # channel-major: 2 channels, 3 samples
            w = rng.normal(size=(4, 2, 3))
            b = rng.normal(size=4)
            batched = conv1d(Tensor(x), Tensor(w), Tensor(b), padding=1).values
            for i in range(3):
                np.testing.assert_allclose(
                    batched[:, i], conv1d_oracle(x[:, i], w, b, 1, 1, 1), rtol=1e-12, atol=1e-12
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
            x = rng.normal(size=(4, 3, 6, 5))  # channel-major: 4 channels, 3 samples
            w = rng.normal(size=(6, 2, 3, 3))
            b = rng.normal(size=6)
            batched = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1, groups=2).values
            for i in range(3):
                np.testing.assert_allclose(
                    batched[:, i], conv2d_oracle(x[:, i], w, b, 2, 1, 2), rtol=1e-12, atol=1e-12
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
            x = rng.normal(size=(C_in, 1, H, W))
            w = rng.normal(size=(C_out, C_in // groups, k, k))
            b = rng.normal(size=C_out)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding, groups=groups)
            np.testing.assert_allclose(
                got.values[:, 0], conv2d_oracle(x[:, 0], w, b, stride, padding, groups), rtol=1e-12, atol=1e-12
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


class TestBitIdentity:
    """The fast relu, sigmoid, kernel merge, max pool and convolution layouts reproduce the code they replaced bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op,B,C_in,C_out,S,k,stride,padding,groups",
        [
            (conv2d, 16, 4, 6, (7, 5), 3, 1, 1, 1),
            (conv2d, 16, 4, 6, (9, 9), 3, 2, 1, 2),
            (conv2d, 16, 4, 6, (8, 6), 3, 2, 1, 2),
            (conv2d, 16, 4, 4, (6, 6), 3, 1, 1, 4),
            (conv2d, 3, 3, 4, (7, 7), 5, 2, 2, 1),
            (conv2d, 16, 3, 4, (6, 5), 5, 1, 2, 1),
            (conv2d, 16, 4, 5, (3, 3), 1, 1, 0, 1),
            (conv2d, 16, 8, 8, (2, 2), 3, 2, 1, 1),
            (conv2d, 16, 8, 8, (1, 1), 3, 1, 1, 8),
            (conv1d, 16, 4, 6, (11,), 5, 2, 2, 2),
            (conv1d, 16, 4, 6, (10,), 3, 2, 1, 1),
            (conv1d, 16, 8, 8, (9,), 3, 1, 1, 8),
            (conv1d, 16, 3, 5, (8,), 1, 1, 0, 1),
            (conv1d, 16, 8, 8, (1,), 3, 1, 1, 8),
        ],
        ids=[
            "2d-s1-p1", "2d-s2-odd-grouped", "2d-s2-even-grouped", "2d-depthwise", "2d-k5-s2-p2", "2d-k5-s1-p2",
            "2d-pointwise-p0", "2d-one-position", "2d-depthwise-one-position",
            "1d-k5-s2-grouped", "1d-s2-even", "1d-depthwise", "1d-pointwise-p0", "1d-depthwise-one-position",
        ],
    )
    def test_channel_major_conv_matches_sample_major(self, dtype, op, B, C_in, C_out, S, k, stride, padding, groups):
        rng = np.random.default_rng(B + C_in + len(S))
        x = rng.normal(size=(B, C_in) + S).astype(dtype)
        w = rng.normal(size=(C_out, C_in // groups) + (k,) * len(S)).astype(dtype)
        b = rng.normal(size=C_out).astype(dtype)
        g = rng.normal(size=(B, C_out) + tuple((L + 2 * padding - k) // stride + 1 for L in S)).astype(dtype)
        want_y, want_dx, want_dw, want_db = sample_major_conv(x, w, b, g, stride, padding, groups)

        def cm(a):
            return np.ascontiguousarray(a.swapaxes(0, 1))

        got = tape_grads(
            lambda xt, wt, bt: op(xt, wt, bt, stride=stride, padding=padding, groups=groups),
            cm(g),
            *(Tensor(v, requires_grad=True, dtype=dtype) for v in (cm(x), w, b)),
        )
        for got_v, want_v in zip(got, (cm(want_y), cm(want_dx), want_dw, want_db)):
            assert got_v.shape == want_v.shape and got_v.dtype == dtype
            assert np.array_equal(bits(got_v), bits(want_v))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 8, 4, 4), (3, 5, 3, 2), (16, 6, 1, 1)])
    def test_channel_norm_matches_sample_major_layer_norm(self, dtype, shape):
        rng = np.random.default_rng(shape[1])
        x = (rng.normal(size=shape) * 2.0 + 1.0).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=shape[1]), requires_grad=True, dtype=dtype)
        beta = Tensor(rng.normal(size=shape[1]), requires_grad=True, dtype=dtype)
        want = tape_grads(
            lambda xt, gt, bt: layer_norm(xt, gt, bt, axis=1), g, Tensor(x, requires_grad=True, dtype=dtype), gamma, beta
        )
        norm = ChannelNorm2d(shape[1])
        norm.ln.gamma, norm.ln.beta = gamma, beta
        gamma.grad = beta.grad = None
        got = tape_grads(
            lambda xt: norm(xt), np.ascontiguousarray(g.swapaxes(0, 1)),
            Tensor(np.ascontiguousarray(x.swapaxes(0, 1)), requires_grad=True, dtype=dtype),
        )
        got += [gamma.grad, beta.grad]
        want[:2] = [np.ascontiguousarray(a.swapaxes(0, 1)) for a in want[:2]]
        for got_v, want_v in zip(got, want):
            assert got_v.shape == want_v.shape and got_v.dtype == dtype
            assert np.array_equal(bits(got_v), bits(want_v))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead,n,C,k", [((2, 10), 10, 8, 5), ((16, 10), 10, 12, 5), ((3,), 7, 4, 3), ((4, 2), 6, 16, 1)])
    def test_conv_keys_matches_transposed_conv1d(self, dtype, lead, n, C, k):
        rng = np.random.default_rng(n * C)
        x = rng.normal(size=lead + (n, C)).astype(dtype)
        w = rng.normal(size=(C, C, k)).astype(dtype)
        b = rng.normal(size=C).astype(dtype)
        g = rng.normal(size=x.shape).astype(dtype)
        # the replaced path: keys moved last by a copy, one sample-major conv1d, and back;
        # backward handed conv1d the moved-back gradient as a transposed view
        N = int(np.prod(lead))
        stacked = np.ascontiguousarray(np.swapaxes(x.reshape(N, n, C), 1, 2))
        y, dx, dw, db = sample_major_conv(stacked, w, b, np.swapaxes(g.reshape(N, n, C), 1, 2), 1, k // 2, 1)
        want = [np.swapaxes(y, 1, 2).reshape(x.shape), np.swapaxes(dx, 1, 2).reshape(x.shape), dw, db]
        got = tape_grads(conv_keys, g, *(Tensor(v, requires_grad=True, dtype=dtype) for v in (x, w, b)))
        for got_v, want_v in zip(got, want):
            assert got_v.shape == want_v.shape and got_v.dtype == dtype
            assert np.array_equal(bits(got_v), bits(want_v))

    @pytest.mark.parametrize(
        "x_shape,w_shape,b_shape,err",
        [((2, 5, 4), (3, 4, 4), (3,), ConfigError), ((2, 5, 4), (3, 5, 3), (3,), ShapeError),
         ((2, 5, 4), (3, 4, 3), (4,), ShapeError), ((4,), (3, 4, 3), (3,), ShapeError)],
        ids=["even-kernel", "channels", "bias", "rank"],
    )
    def test_conv_keys_shape_rejected(self, x_shape, w_shape, b_shape, err):
        with pytest.raises(err, match="conv_keys"):
            conv_keys(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_three_exps(self, dtype):
        fi = np.finfo(dtype)
        payload = np.array([0x7FC00001 if dtype is np.float32 else 0x7FF8000000000001],
                           dtype={np.float32: np.uint32, np.float64: np.uint64}[dtype]).view(dtype)[0]
        special = [np.nan, -np.nan, payload, -payload, 0.0, -0.0, np.inf, -np.inf,
                   fi.smallest_subnormal, -fi.smallest_subnormal, fi.tiny / 4, -fi.tiny / 4,
                   fi.tiny, -fi.tiny, fi.max, -fi.max, 30.0, -30.0, 800.0, -800.0]
        rng = np.random.default_rng(1)
        v = np.concatenate([np.array(special * 20, dtype=dtype),
                            (rng.normal(size=330) * rng.choice([1.0, 10.0, 100.0], size=330)).astype(dtype)])
        # short arrays and odd offsets reach the unvectorised loop tails too
        for arr in (v, v[1:], v[3:40], v.reshape(-1, 10)[:, 1:], v[:1], v[4:5]):
            with np.errstate(all="ignore"):
                want = three_exp_sigmoid(arr)
            y = sigmoid(Tensor(arr, dtype=dtype)).values
            assert y.dtype == dtype
            assert np.array_equal(bits(y), bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_matches_where(self, dtype):
        fi = np.finfo(dtype)
        special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, fi.tiny / 4, -fi.tiny / 4, fi.max, -fi.max]
        # long enough for the vectorised loops, with every special value at several offsets
        v = np.concatenate([np.array(special * 40), np.random.default_rng(0).normal(size=330)]).astype(dtype)
        for arr in (v, v[1:], v.reshape(-1, 10)[:, 1:]):
            y = relu(Tensor(arr, dtype=dtype)).values
            assert y.dtype == dtype
            assert np.array_equal(bits(y), bits(where_relu(arr)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_add_centered_matches_padded_sum(self, dtype):
        rng = np.random.default_rng(5)
        w5, w3, w1 = (rng.normal(size=(4, 3, k)).astype(dtype) for k in (5, 3, 1))
        # -0.0 on outer and centre taps, also where all three kernels hold -0.0
        w5[0, :, :] = -0.0
        w3[0, :2, :] = -0.0
        w1[0, 0, 0] = -0.0
        w5[1, 1, [0, 4]] = -0.0
        gy = rng.normal(size=w5.shape).astype(dtype)

        def run(build):
            ws = [Tensor(w.copy(), requires_grad=True, dtype=dtype) for w in (w5, w3, w1)]
            with Tape() as tape:
                k = build(*ws)
                loss = sum_(mul(k, Tensor(gy, dtype=dtype)))
            backward(loss, tape)
            return [k.values] + [w.grad for w in ws]

        got = run(lambda a, b, c: add_centered(add_centered(a, b), c))
        want = run(padded_kernel_sum)
        assert np.signbit(want[0]).any()
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            assert np.array_equal(bits(g), bits(w))

    @pytest.mark.parametrize("a_shape,b_shape", [((2, 3, 5), (2, 3, 2)), ((2, 3, 5), (3, 3, 3)), ((2, 3, 3), (2, 3, 5))])
    def test_add_centered_shape_rejected(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="add_centered"):
            add_centered(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    @pytest.mark.parametrize("T,out_len", [(23, 5), (3, 7), (64, 32)])
    def test_adaptive_max_pool_matches_per_bin_loop(self, T, out_len):
        rng = np.random.default_rng(T)
        v = rng.integers(0, 4, size=(3, 4, T)).astype(np.float64)  # few values: many ties
        v[0, 0, T // 2] = np.nan
        v[1, 2, :] = 0.0
        v[1, 2, ::2] = -0.0
        want_y, want_arg = loop_max_pool(v, out_len)
        g = rng.normal(size=want_y.shape)
        want_grad = np.zeros((12, T))
        np.add.at(want_grad, (np.arange(12)[:, None].repeat(out_len, 1), want_arg.reshape(12, out_len)), g.reshape(12, out_len))

        x = Tensor(v, requires_grad=True, dtype=np.float64)
        with Tape() as tape:
            y = adaptive_max_pool1d(x, out_len)
            loss = sum_(mul(y, Tensor(g, dtype=np.float64)))
        assert np.isnan(y.values).any()
        assert np.array_equal(bits(y.values), bits(want_y))
        backward(loss, tape)
        assert np.array_equal(bits(x.grad), bits(want_grad.reshape(v.shape)))


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
        [(conv1d, (3, 1, 8), (2, 1, 3)), (conv2d, (3, 1, 8, 8), (2, 1, 3, 3))],
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
            (conv1d, (4, 1, 8), (2, 3, 3), None, "inconsistent with C_in=4"),
            (conv2d, (4, 1, 8, 8), (2, 3, 3, 3), None, "inconsistent with C_in=4"),
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

    def test_nested_tape_records_and_outer_is_restored(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as outer:
            y = mul(x, x)
            with Tape() as inner:
                assert active_tape() is inner
                mul(y, y)
            assert active_tape() is outer
            sum_(y)
        assert active_tape() is None
        assert (len(outer), len(inner)) == (2, 1)

    def test_out_of_order_exit_raises(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        inner.__enter__()
        try:
            with pytest.raises(RuntimeError, match="out of order"):
                outer.__exit__(None, None, None)
        finally:
            inner.__exit__(None, None, None)
            outer.__exit__(None, None, None)
        assert active_tape() is None

    def test_using_dtype_restored_after_an_exception(self):
        before = Tensor(0.0).dtype
        with pytest.raises(KeyError):
            with using_dtype(np.float64):
                assert Tensor(0.0).dtype == np.float64
                raise KeyError("boom")
        assert Tensor(0.0).dtype == before == np.float32

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
        (conv1d, (4, 2, 9), (6, 2, 3)),
        (conv2d, (4, 2, 6, 6), (6, 2, 3, 3)),
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
        x = Tensor(rng.normal(size=(3, 2, 6, 6)), requires_grad=True)
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

    def test_conv_backward_drops_columns_before_dcols(self):
        # a stem-shaped stride-2 convolution: the columns go once dw is taken,
        # so they never coexist with the equally large column gradient
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(32, 16, 64, 64)), requires_grad=True)
        w = Tensor(rng.normal(size=(32, 32, 3, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(32, 16, 32, 32)))
        cols_bytes = 32 * 9 * 16 * 32 * 32 * x.values.itemsize
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = sum_(mul(conv2d(x, w, stride=2, padding=1), c))
            backward(loss, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and w.grad is not None
        assert peak < 2 * cols_bytes, (peak, cols_bytes)

    @pytest.mark.parametrize("reduce", [sum_, mean, lambda h: sum_(max_(h, axis=1))], ids=["sum", "mean", "max"])
    def test_reduction_keeps_only_its_input_shape(self, reduce):
        # sum_, mean and max_ need their input's shape and dtype in backward, not its values
        x = Tensor(np.random.default_rng(4).normal(size=(3, 5)), requires_grad=True)

        def forward():
            h = relu(x)
            return reduce(h), weakref.ref(h.values)

        with Tape() as tape:
            y, h_values = forward()
        assert h_values() is None
        backward(y, tape)
        assert x.grad is not None

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

    def test_training_step_uses_only_checked_primitives(self, monkeypatch):
        # every primitive a training step records must also be exercised by primitive_checks
        names = []
        record = Tape.record

        def spy(tape, inputs, output, backward_fn, name):
            names.append(name)
            return record(tape, inputs, output, backward_fn, name)

        monkeypatch.setattr(Tape, "record", spy)
        cfg = toy_config()
        rng = np.random.default_rng(0)
        images = rng.uniform(size=(2, 3, cfg.canvas_size, cfg.canvas_size))
        signals = [rng.normal(size=(cfg.n_channels, 30)), rng.normal(size=(cfg.n_channels, 24))]
        labels = np.array([0, 1])
        net = HsdaNet(cfg, seed=0)
        with Tape() as tape:
            logits, feats = net(images, signals)
            ce = cross_entropy(softmax_rows(logits), labels)
            loss = total_loss(ce, contrastive(feats, labels, make_templates(cfg.d, make_rng(0, "init"))), 0.5)
        backward(loss, tape)
        step = set(names)
        names.clear()
        primitive_checks()
        assert step - set(names) == set()
        assert len(step) >= 20

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

            err = grad_check(f, Tensor(rng.normal(size=(2, 1, 6, 6))))
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
        with pytest.raises(ConfigError):  # a raw id is not a name
            make_rng(0, 0)
