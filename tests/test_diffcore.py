"""Tape, primitive ops, and gradient verification.

Forward oracles here are written independently of the library code: naive
triple-loop matmul and sliding-window convolutions, direct bin arithmetic for
the adaptive pools. Gradients are verified against central differences.
"""

import contextlib
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
    backward,
    check_parameter_gradients,
    clamp_min,
    concat,
    conv1d,
    conv2d,
    cosine_rows,
    flatten,
    grad_check,
    key_difference_conv,
    layer_norm,
    make_rng,
    matmul,
    max_,
    mean,
    mul,
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
from hsda.diffcore import ops
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


def absdiff_reference(q, k):
    """The former pairwise_absdiff primitive: |q_i - k_j| (..., m, n, d) and its backward rule."""
    diff = q[..., :, None, :] - k[..., None, :, :]
    # the sign as one byte per difference; a NaN difference gets 0
    sign = np.subtract(diff > 0, diff < 0, dtype=np.int8)

    def bwd(g):
        gs = g * sign
        return gs.sum(axis=-2), -gs.sum(axis=-3)

    return np.abs(diff), bwd


def centred_sum_reference(a, b):
    """The former add_centered primitive: a + b with b's taps centred on a's last axis, and its backward rule."""
    ka, kb = a.shape[-1], b.shape[-1]
    lo, hi = (ka - kb) // 2, (ka + kb) // 2
    y = a + 0.0
    for j in range(kb):
        np.add(a[..., lo + j], b[..., j], out=y[..., lo + j])
    return y, lambda g: (g, g[..., lo:hi])


def keys_conv_reference(x, w, b, g):
    """The former conv_keys primitive on a channels-last (..., n, C) stack: (y, dx, dw, db) for output gradient g.

    It ran as one sample-major conv1d over the key axis; backward handed that
    convolution the moved-back gradient as a transposed view.
    """
    n, C_in, C_out = x.shape[-2], x.shape[-1], w.shape[0]
    N = x.size // (n * C_in)
    stacked = np.ascontiguousarray(np.swapaxes(x.reshape(N, n, C_in), 1, 2))
    y, dx, dw, db = sample_major_conv(stacked, w, b, np.swapaxes(g.reshape(N, n, C_out), 1, 2), 1, w.shape[2] // 2, 1)
    return np.swapaxes(y, 1, 2).reshape(g.shape), np.swapaxes(dx, 1, 2).reshape(x.shape), dw, db


def key_difference_reference(q, k, ws, bs, g):
    """key_difference_conv as the three former primitives ran it: the output and its eight gradients.

    pairwise_absdiff, add_centered(add_centered(w5, w3), w1), (b5 + b3) + b1
    and conv_keys, forward and back; every bias gets the one bias gradient.
    """
    diff, diff_bwd = absdiff_reference(q, k)
    inner, inner_bwd = centred_sum_reference(ws[0], ws[1])
    kernel, outer_bwd = centred_sum_reference(inner, ws[2])
    y, dx, dw, db = keys_conv_reference(diff, kernel, (bs[0] + bs[1]) + bs[2], g)
    d_inner, dw1 = outer_bwd(dw)
    return [y, *diff_bwd(dx), *inner_bwd(d_inner), dw1, db, db, db]


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
        "C_in,C_out,k,T,stride,groups",
        [
            (2, 3, 3, 8, 1, 1),
            (2, 4, 5, 10, 2, 1),
            (4, 4, 3, 6, 1, 4),
            (4, 6, 3, 9, 2, 2),
            (3, 2, 1, 5, 1, 1),
        ],
    )
    def test_conv1d_against_oracle(self, C_in, C_out, k, T, stride, groups):
        rng = make_rng(11, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(C_in, 1, T))
            w = rng.normal(size=(C_out, C_in // groups, k))
            b = rng.normal(size=C_out)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups)
            np.testing.assert_allclose(
                got.values[:, 0], conv1d_oracle(x[:, 0], w, b, stride, k // 2, groups), rtol=1e-12, atol=1e-12
            )

    def test_conv1d_batched_matches_per_sample(self):
        rng = make_rng(12, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(2, 3, 8))  # channel-major: 2 channels, 3 samples
            w = rng.normal(size=(4, 2, 3))
            b = rng.normal(size=4)
            batched = conv1d(Tensor(x), Tensor(w), Tensor(b)).values
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
            batched = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, groups=2).values
            for i in range(3):
                np.testing.assert_allclose(
                    batched[:, i], conv2d_oracle(x[:, i], w, b, 2, 1, 2), rtol=1e-12, atol=1e-12
                )

    @pytest.mark.parametrize(
        "C_in,C_out,k,H,W,stride,groups",
        [
            (2, 3, 3, 6, 6, 1, 1),
            (3, 4, 3, 7, 5, 2, 1),
            (4, 4, 3, 5, 5, 1, 4),
            (2, 5, 1, 4, 4, 1, 1),
            (4, 6, 3, 6, 5, 2, 2),
        ],
    )
    def test_conv2d_against_oracle(self, C_in, C_out, k, H, W, stride, groups):
        rng = make_rng(13, "check")
        with using_dtype(np.float64):
            x = rng.normal(size=(C_in, 1, H, W))
            w = rng.normal(size=(C_out, C_in // groups, k, k))
            b = rng.normal(size=C_out)
            got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, groups=groups)
            np.testing.assert_allclose(
                got.values[:, 0], conv2d_oracle(x[:, 0], w, b, stride, k // 2, groups), rtol=1e-12, atol=1e-12
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

    def test_key_difference_conv_values(self):
        # an identity 1-tap kernel and no bias leave the differences |q_i - k_j| themselves
        q = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]))
        k = Tensor(np.array([[1.0, 1.0]]))
        out = key_difference_conv(q, k, [Tensor(np.eye(2)[:, :, None])], [Tensor(np.zeros(2))]).values
        np.testing.assert_allclose(out, [[[1.0, 0.0]], [[1.0, 2.0]]])


class TestBitIdentity:
    """The fast relu, sigmoid, kernel merge, max pool and convolution layouts reproduce the code they replaced bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op,B,C_in,C_out,S,k,stride,groups",
        [
            (conv2d, 16, 4, 6, (7, 5), 3, 1, 1),
            (conv2d, 16, 4, 6, (9, 9), 3, 2, 2),
            (conv2d, 16, 4, 6, (8, 6), 3, 2, 2),
            (conv2d, 16, 4, 4, (6, 6), 3, 1, 4),
            (conv2d, 3, 3, 4, (7, 7), 5, 2, 1),
            (conv2d, 16, 3, 4, (6, 5), 5, 1, 1),
            (conv2d, 16, 4, 5, (3, 3), 1, 1, 1),
            (conv2d, 16, 8, 8, (2, 2), 3, 2, 1),
            (conv2d, 16, 8, 8, (1, 1), 3, 1, 8),
            (conv2d, 16, 8, 8, (1, 1), 3, 2, 1),
            (conv2d, 4, 2, 3, (3, 2), 7, 1, 1),
            (conv1d, 16, 4, 6, (11,), 5, 2, 2),
            (conv1d, 16, 4, 6, (10,), 3, 2, 1),
            (conv1d, 16, 8, 8, (9,), 3, 1, 8),
            (conv1d, 16, 3, 5, (8,), 1, 1, 1),
            (conv1d, 16, 8, 8, (1,), 3, 1, 8),
            (conv1d, 16, 8, 8, (1,), 3, 2, 1),
            (conv1d, 4, 2, 3, (2,), 7, 1, 1),
        ],
        ids=[
            "2d-s1-p1", "2d-s2-odd-grouped", "2d-s2-even-grouped", "2d-depthwise", "2d-k5-s2-p2", "2d-k5-s1-p2",
            "2d-pointwise-p0", "2d-one-position", "2d-depthwise-one-position", "2d-s2-one-position-extended",
            "2d-kernel-wider-than-map", "1d-k5-s2-grouped", "1d-s2-even", "1d-depthwise", "1d-pointwise-p0",
            "1d-depthwise-one-position", "1d-s2-one-position-extended", "1d-kernel-wider-than-map",
        ],
    )
    def test_channel_major_conv_matches_sample_major(self, dtype, op, B, C_in, C_out, S, k, stride, groups):
        rng = np.random.default_rng(B + C_in + len(S))
        x = rng.normal(size=(B, C_in) + S).astype(dtype)
        w = rng.normal(size=(C_out, C_in // groups) + (k,) * len(S)).astype(dtype)
        b = rng.normal(size=C_out).astype(dtype)
        g = rng.normal(size=(B, C_out) + tuple(-(-L // stride) for L in S)).astype(dtype)
        want_y, want_dx, want_dw, want_db = sample_major_conv(x, w, b, g, stride, k // 2, groups)

        def cm(a):
            return np.ascontiguousarray(a.swapaxes(0, 1))

        got = tape_grads(
            lambda xt, wt, bt: op(xt, wt, bt, stride=stride, groups=groups),
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
    @pytest.mark.parametrize(
        "lead,m,n,d,C_out",
        [((), 7, 7, 4, 4), ((), 5, 9, 3, 6), ((2,), 5, 6, 3, 3), ((16,), 10, 10, 12, 12), ((2, 3), 4, 5, 8, 2)],
        ids=["unbatched", "unbatched-rect", "batched", "batched-model", "two-lead-axes"],
    )
    def test_key_difference_conv_matches_the_three_primitives(self, dtype, lead, m, n, d, C_out):
        # ties q_i == k_j and -0.0 entries give zero signs; g of both signs makes their zero products +0.0 and -0.0
        rng = np.random.default_rng(m * n + d)
        q = rng.normal(size=lead + (m, d)).astype(dtype)
        k = rng.normal(size=lead + (n, d)).astype(dtype)
        k[..., 1, :] = q[..., 2, :]
        k[..., 4, 0] = q[..., 0, 0]
        q[..., 3, :] = -0.0
        k[..., n - 1, :] = 0.0
        ws = [(rng.normal(size=(C_out, d, t)) * 0.5).astype(dtype) for t in (5, 3, 1)]
        ws[0][0] = -0.0  # -0.0 on outer and centre taps, also where all three kernels hold -0.0
        ws[1][0, :1] = -0.0
        ws[2][0, 0] = -0.0
        bs = [rng.normal(size=C_out).astype(dtype) for _ in range(3)]
        g = rng.normal(size=lead + (m, n, C_out)).astype(dtype)
        g[..., 2, :, :] = -np.abs(g[..., 2, :, :])
        g[..., 3, :, :] = np.abs(g[..., 3, :, :])
        want = key_difference_reference(q, k, ws, bs, g)
        ts = [Tensor(v, requires_grad=True, dtype=dtype) for v in [q, k] + ws + bs]
        got = tape_grads(lambda q, k, *p: key_difference_conv(q, k, p[:3], p[3:]), g, *ts)
        assert len(got) == len(want) == 9
        for got_v, want_v in zip(got, want):
            assert got_v.shape == want_v.shape and got_v.dtype == dtype
            assert np.array_equal(bits(got_v), bits(want_v))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_key_difference_conv_with_nan_input_matches_without_warning(self, dtype):
        # a NaN difference gets sign 0; it spreads to the output and dw, not to dq and dk
        rng = np.random.default_rng(9)
        q = rng.normal(size=(2, 4, 3)).astype(dtype)
        k = rng.normal(size=(2, 5, 3)).astype(dtype)
        q[0, 1, 0] = np.nan
        k[1, 2, 2] = np.nan
        ws = [rng.normal(size=(3, 3, t)).astype(dtype) for t in (5, 3, 1)]
        bs = [rng.normal(size=3).astype(dtype) for _ in range(3)]
        g = rng.normal(size=(2, 4, 5, 3)).astype(dtype)
        want = key_difference_reference(q, k, ws, bs, g)
        got = tape_grads(
            lambda q, k, *p: key_difference_conv(q, k, p[:3], p[3:]), g,
            *(Tensor(v, requires_grad=True, dtype=dtype) for v in [q, k] + ws + bs),
        )
        assert np.isnan(got[0]).any() and not np.isnan(got[1]).any()
        for got_v, want_v in zip(got, want):
            assert np.array_equal(bits(got_v), bits(want_v))

    @pytest.mark.parametrize(
        "q_shape,k_shape,w_shapes,b_shapes,err",
        [
            ((2, 5, 4), (2, 6, 4), [(3, 4, 4)], [(3,)], ConfigError),
            ((2, 5, 4), (2, 6, 4), [(3, 5, 3)], [(3,)], ShapeError),
            ((2, 5, 4), (2, 6, 4), [(3, 4, 3)], [(4,)], ShapeError),
            ((2, 5, 4), (2, 6, 4), [(3, 4, 3)], [], ShapeError),
            ((4,), (4,), [(3, 4, 3)], [(3,)], ShapeError),
            ((2, 5, 4), (3, 6, 4), [(3, 4, 3)], [(3,)], ShapeError),
            ((2, 5, 4), (2, 6, 3), [(3, 4, 3)], [(3,)], ShapeError),
            ((2, 5, 4), (2, 6, 4), [(3, 4, 5), (3, 4, 2)], [(3,)], ShapeError),
            ((2, 5, 4), (2, 6, 4), [(3, 4, 5), (2, 4, 3)], [(3,)], ShapeError),
            ((2, 5, 4), (2, 6, 4), [(3, 4, 3), (3, 4, 5)], [(3,)], ShapeError),
        ],
        ids=["even-kernel", "channels", "bias", "no-bias", "rank", "batch", "features",
             "even-centred", "centred-leading-axes", "centred-too-wide"],
    )
    def test_key_difference_conv_shape_rejected(self, q_shape, k_shape, w_shapes, b_shapes, err):
        with pytest.raises(err, match="key_difference_conv"):
            key_difference_conv(
                Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)),
                [Tensor(np.zeros(w)) for w in w_shapes], [Tensor(np.zeros(b)) for b in b_shapes],
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("a_shape, b_shape", [((40, 1), (1, 7)), ((6, 9, 1), (6, 1, 33))], ids=["2d", "batched"])
    def test_outer_product_matches_matmul(self, dtype, a_shape, b_shape):
        # a contracted extent of 1 runs as a multiply, whose -0.0 products come back as matmul's +0.0
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=a_shape).astype(dtype), rng.normal(size=b_shape).astype(dtype)
        a.reshape(-1)[::3] = 0.0
        a.reshape(-1)[1::5] = -0.0
        plain = a * b
        assert np.signbit(plain[plain == 0]).any()
        got, want = ops._product(a, b), np.matmul(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()

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
    @pytest.mark.parametrize(
        "op, mask", [(relu, lambda v: v > 0), (lambda t: clamp_min(t, 0.0), lambda v: v >= 0.0)], ids=["relu", "clamp_min"]
    )
    def test_bit_mask_gradient_matches_the_byte_mask(self, dtype, op, mask):
        # the mask is stored one bit per value; g times it equals g times the bool mask, zero products' signs included
        fi = np.finfo(dtype)
        special = [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, fi.smallest_subnormal, -fi.smallest_subnormal,
                   fi.tiny / 4, -fi.tiny / 4, fi.max, -fi.max]
        rng = np.random.default_rng(3)
        v = np.concatenate([np.array(special * 30), rng.normal(size=333)]).astype(dtype)
        g = np.concatenate([rng.permutation(np.array(special * 30)), rng.normal(size=333)]).astype(dtype)
        # lengths that are not a multiple of 8, so the packed tail is reached, and a strided input
        for arr, ga in ((v, g), (v[1:], g[1:]), (v[:-3].reshape(-1, 10)[:, 1:], g[:-3].reshape(-1, 10)[:, 1:])):
            with np.errstate(all="ignore"):  # the loss sum(y * g) overflows; its gradient does not
                want = ga * mask(arr)
                got = tape_grads(op, np.ascontiguousarray(ga), Tensor(arr, requires_grad=True, dtype=dtype))[1]
            assert got.dtype == dtype and got.shape == arr.shape
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("op", [relu, lambda t: clamp_min(t, 1e-3)], ids=["relu", "clamp_min"])
    def test_only_a_recorded_node_builds_a_mask(self, monkeypatch, op):
        packed = []
        packbits = np.packbits
        monkeypatch.setattr(np, "packbits", lambda *args, **kwargs: packed.append(1) or packbits(*args, **kwargs))
        x = np.random.default_rng(0).normal(size=(4, 6))
        untaped = op(Tensor(x, requires_grad=True)).values
        with Tape():
            constant = op(Tensor(x)).values
        assert packed == []
        with Tape():
            taped = op(Tensor(x, requires_grad=True)).values
        assert packed == [1]
        assert untaped.tobytes() == constant.tobytes() == taped.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_centred_kernels_match_one_padded_kernel(self, dtype):
        # the merged kernel is the padded sum bit for bit, and each shorter kernel's gradient its centred slice
        rng = np.random.default_rng(5)
        w5, w3, w1 = (rng.normal(size=(4, 3, k)).astype(dtype) for k in (5, 3, 1))
        # -0.0 on outer and centre taps, also where all three kernels hold -0.0
        w5[0, :, :] = -0.0
        w3[0, :2, :] = -0.0
        w1[0, 0, 0] = -0.0
        w5[1, 1, [0, 4]] = -0.0
        q, k = rng.normal(size=(2, 4, 3)).astype(dtype), rng.normal(size=(2, 6, 3)).astype(dtype)
        b = rng.normal(size=4).astype(dtype)
        g = rng.normal(size=(2, 4, 6, 4)).astype(dtype)
        padded = padded_kernel_sum(*(Tensor(w, dtype=dtype) for w in (w5, w3, w1)))
        assert np.signbit(padded.values).any()
        assert np.array_equal(bits(ops._merge_centred([w5, w3, w1])), bits(padded.values))  # outer -0.0 taps too

        def run(*kernels):
            ts = [Tensor(w, requires_grad=True, dtype=dtype) for w in kernels]
            got = tape_grads(lambda *ws: key_difference_conv(Tensor(q), Tensor(k), ws, [Tensor(b)]), g, *ts)
            return got[0], got[1:]

        y3, (dw5, dw3, dw1) = run(w5, w3, w1)
        y1, (dw,) = run(padded.values)
        for got_v, want_v in ((y3, y1), (dw5, dw), (dw3, dw[..., 1:4]), (dw1, dw[..., 2:3])):
            assert got_v.shape == want_v.shape and got_v.dtype == want_v.dtype
            assert np.array_equal(bits(got_v), bits(want_v))

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
            (conv1d, (1, 1, 0), (1, 1, 5), None, "output .* < 1"),
            (conv2d, (1, 1, 8, 0), (1, 1, 5, 5), None, "output .* < 1"),
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
        with pytest.raises(ShapeError, match="expects a 3-axis map"):
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
        gw = rng.normal(size=op(Tensor(xv), Tensor(wv), Tensor(bv), stride=2, groups=2).shape)
        grads = []
        for x_needs in (True, False):
            x = Tensor(xv, requires_grad=x_needs)
            w, b = Tensor(wv, requires_grad=True), Tensor(bv, requires_grad=True)
            with Tape() as tape:
                y = sum_(mul(op(x, w, b, stride=2, groups=2), Tensor(gw)))
            backward(y, tape)
            assert (x.grad is not None) == x_needs
            grads.append((w.grad, b.grad))
        for with_x, without_x in zip(*grads):
            np.testing.assert_array_equal(with_x, without_x)

    def test_on_leaf_gets_each_leaf_once_its_gradient_is_final(self):
        # w feeds two matmuls: the callback may change it in place only after
        # both rules ran, since the first-recorded one reads w for x's gradient
        with using_dtype(np.float64):
            rng = np.random.default_rng(6)
            xv, wv, cv = rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(3, 4))

            def step(on_leaf):
                x, w = Tensor(xv.copy(), requires_grad=True), Tensor(wv.copy(), requires_grad=True)
                with Tape(on_leaf=on_leaf) as tape:
                    h = matmul(x, w)
                    y = sum_(mul(matmul(h, w), Tensor(cv)))
                backward(y, tape)
                return x, w

            ref_x, ref_w = step(None)
            seen = []

            def update(leaf):
                seen.append((leaf, leaf.grad))
                leaf.values -= 0.5 * leaf.grad

            x, w = step(update)
            assert [leaf for leaf, _ in seen] == [x, w]
            for (leaf, grad), ref in zip(seen, (ref_x, ref_w)):
                assert grad.tobytes() == ref.grad.tobytes()
                assert leaf.values.tobytes() == (ref.values - 0.5 * ref.grad).tobytes()

    def test_on_leaf_skips_constants(self):
        x, seen = Tensor(np.ones(3), requires_grad=True), []
        with Tape(on_leaf=seen.append) as tape:
            y = sum_(mul(x, Tensor(np.full(3, 2.0))))
        backward(y, tape)
        assert seen == [x]

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
        # a stride-2 conv2d keeps a copy of its input's phase planes, not the relu output's values
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 2, 6, 6)), requires_grad=True)
        w1 = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)

        def forward():
            h = relu(conv2d(x, w1))
            return sum_(conv2d(h, w2, stride=2)), weakref.ref(h.values)

        with Tape() as tape:
            y, h_values = forward()
        assert h_values() is None
        backward(y, tape)
        assert x.grad is not None and w1.grad is not None and w2.grad is not None

    @pytest.mark.parametrize(
        "op, S, w_shape", [(conv2d, (16, 16), (8, 8, 3, 3)), (conv1d, (256,), (8, 8, 5))], ids=["conv2d", "conv1d"]
    )
    def test_stride1_conv_keeps_its_input_not_its_columns(self, op, S, w_shape):
        # stride-1 columns are shifted copies of the input map, rebuilt in backward
        rng = np.random.default_rng(2)
        taps = int(np.prod(w_shape[2:]))
        x = Tensor(rng.normal(size=(8, 4) + S), requires_grad=True)
        w = Tensor(rng.normal(size=w_shape), requires_grad=True)
        cols_bytes = taps * x.values.nbytes

        def forward():
            h = relu(x)
            return sum_(op(h, w)), weakref.ref(h.values)

        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y, h_values = forward()
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert h_values() is not None
        assert live < 2 * x.values.nbytes < cols_bytes, (live, cols_bytes)
        backward(y, tape)
        assert h_values() is None and x.grad is not None and w.grad is not None

    @pytest.mark.parametrize("extent", [64, 63], ids=["even", "odd"])
    def test_stride2_conv_keeps_its_phase_planes_not_its_columns(self, extent):
        # the planes are the input zero-extended to an even extent; the 9/4x columns are rebuilt in backward
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(8, 4, extent, extent)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
        out = -(-extent // 2)
        cols_bytes = 9 * 8 * 4 * out * out * x.values.itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = sum_(conv2d(x, w, stride=2))
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert live < 1.1 * x.values.nbytes < cols_bytes / 2, (live, x.values.nbytes, cols_bytes)
        backward(y, tape)
        assert x.grad is not None and w.grad is not None

    def test_untaped_stride2_conv_drops_its_phase_planes_before_the_gemm(self):
        # with nothing to record, only the columns and the output are live at the GEMM; the bits stay the same
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 2, 32, 32)))
        w = Tensor(rng.normal(size=(32, 4, 3, 3)), requires_grad=True)
        planes_bytes = x.values.nbytes
        cols_bytes, y_bytes = 9 * 4 * 2 * 16 * 16 * x.values.itemsize, 32 * 2 * 16 * 16 * x.values.itemsize
        assert y_bytes > planes_bytes  # so the planes beside the columns are not the peak by themselves
        peaks, outputs = [], []
        for taped in (True, False):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                with Tape() if taped else contextlib.nullcontext():
                    outputs.append(conv2d(x, w, stride=2).values)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] < cols_bytes + y_bytes + planes_bytes / 2 < peaks[0], (peaks, cols_bytes, y_bytes)
        assert outputs[0].tobytes() == outputs[1].tobytes()

    def test_key_difference_conv_keeps_no_bytes_per_difference(self):
        # backward rebuilds the differences, their signs and the channel-major map from q and k
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(4, 32, 16)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 48, 16)), requires_grad=True)
        ws = [Tensor(rng.normal(size=(16, 16, t)), requires_grad=True) for t in (5, 3, 1)]
        bs = [Tensor(rng.normal(size=16), requires_grad=True) for _ in range(3)]
        n_diff = 4 * 32 * 48 * 16
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = sum_(key_difference_conv(q, k, ws, bs))
            live = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert live < n_diff / 16, (live, n_diff)
        backward(y, tape)
        assert all(t.grad is not None for t in [q, k] + ws + bs)

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
                loss = sum_(mul(conv2d(x, w, stride=2), c))
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
        forward_end, backward_peak, grad_bytes = synth_backward_memory(on_leaf=None, batch=8)
        assert backward_peak <= forward_end + grad_bytes + 2 * 2**20, (backward_peak, forward_end, grad_bytes)

    def test_backward_peak_with_on_leaf_stays_within_the_forward_end(self):
        # a callback that takes each gradient as it completes keeps them from piling up (at this
        # batch they hold 11.6 MB): up to the last DAW parameter, past every rebuild of the
        # differences, the peak stays within 1 MB of the forward's end, and the overall peak, at
        # the stem perceptron's 8 MB weight gradient, holds under 2 MB beside that gradient
        def drop(leaf):
            leaf.grad = None

        peaks = {}
        forward_end, backward_peak, _ = synth_backward_memory(on_leaf=drop, batch=16, peaks=peaks)
        daw_peak = max(peak for name, peak in peaks.items() if ".daw." in name)
        assert daw_peak <= forward_end + 2**20, (daw_peak, forward_end)
        largest = max(t.values.nbytes for t in HsdaNet(synth_config(), seed=0).parameter_dict().values())
        assert backward_peak <= largest + 2 * 2**20, (backward_peak, largest)


def synth_backward_memory(on_leaf, batch, peaks=None):
    """Traced bytes live at a synth-scale forward's end, the backward's peak, and the parameters' bytes.

    With `on_leaf` and a `peaks` dict, `peaks` maps each parameter's name to the backward's
    peak so far when its gradient completes.
    """
    cfg = synth_config()
    net = HsdaNet(cfg, seed=0)
    rng = np.random.default_rng(3)
    images = [rng.random((3, cfg.canvas_size, cfg.canvas_size)) for _ in range(batch)]
    signals = [rng.normal(size=(9, 120)) for _ in range(batch)]
    grad_bytes = sum(t.values.nbytes for t in net.parameter_dict().values())
    if peaks is not None:
        names = {id(t): name for name, t in net.parameter_dict().items()}
        inner = on_leaf

        def on_leaf(leaf):
            peaks[names[id(leaf)]] = tracemalloc.get_traced_memory()[1] - base
            inner(leaf)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Tape(on_leaf=on_leaf) as tape:
            logits, _ = net(images, signals)
            loss = cross_entropy(softmax_rows(logits), np.arange(batch) % 2)
        forward_end = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss, tape)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return forward_end, backward_peak, grad_bytes


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

    # one line per (call, input): the gradcheck report reads these names
    CHECK_NAMES = """
        add:lhs add:rhs add:scalar sub:lhs sub:rhs mul:lhs mul:rhs mul:scalar neg sigmoid relu log clamp_min
        sum:all sum:axis0 sum:axis1-keep mean:all mean:axis1 max:axis1 max:axis0-keep
        reshape flatten permute transpose transpose:batched concat:first concat:second
        matmul:lhs matmul:rhs matmul:batched-lhs matmul:batched-rhs matmul:paired-lhs matmul:paired-rhs
        add_bias:mat add_bias:vec add_bias:batched-x add_bias:batched-vec add_bias:batched-mat
        scale_rows:mat scale_rows:s scale_rows:batched-mat scale_rows:batched-s
        softmax_rows softmax_rows:batched layer_norm:x layer_norm:gamma layer_norm:beta
        layer_norm:axis1-x layer_norm:axis1-gamma layer_norm:axis1-beta cosine_rows:a cosine_rows:b max_pool1d
        conv1d:x conv1d:w conv1d:b conv1d:stride2 conv1d:depthwise conv1d:grouped-x conv1d:grouped-w
        conv2d:x conv2d:w conv2d:b conv2d:stride2 conv2d:depthwise conv2d:pointwise conv2d:grouped-x conv2d:grouped-w
        key_difference_conv:q key_difference_conv:k key_difference_conv:w5 key_difference_conv:w3
        key_difference_conv:w1 key_difference_conv:b5 key_difference_conv:b3 key_difference_conv:b1
        layer_norm:axis0-x layer_norm:axis0-gamma layer_norm:axis0-beta
    """.split()

    def test_every_checked_input_reported_once(self):
        names = [name for name, _ in primitive_checks(0)]
        assert len(self.CHECK_NAMES) == 79
        assert len(names) == len(set(names))
        assert set(names) == set(self.CHECK_NAMES)

    def test_primitive_checks_record_only_64_bit_nodes(self, monkeypatch):
        # a constant made at the 32-bit default drags ops such as add_bias down to float32
        dtypes = []
        record = Tape.record

        def spy(tape, inputs, output, backward_fn, name):
            dtypes.append((name, output.dtype))
            return record(tape, inputs, output, backward_fn, name)

        monkeypatch.setattr(Tape, "record", spy)
        primitive_checks(0)
        assert len(dtypes) >= 81
        assert [(name, dtype) for name, dtype in dtypes if dtype != np.float64] == []

    def test_composed_expression(self):
        # small stem-like composite: conv2d -> relu -> pool-ish mean -> linear
        rng = make_rng(9, "check")
        with using_dtype(np.float64):
            w1 = Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.4)
            wl = Tensor(rng.normal(size=(3, 2)) * 0.4)

            def f(x):
                h = conv2d(x, w1, stride=2)
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
