"""Differentiable primitives.

Every function takes/returns :class:`Tensor` and registers a backward rule on
the active tape. Broadcasting is deliberately narrow: elementwise ops accept
identical shapes or a scalar on one side, nothing else. Dedicated primitives
(add_bias, add_centered, scale_rows, pairwise_absdiff, cosine_rows) cover the
row/column and kernel-tap patterns the network needs, which keeps every
backward rule simple enough to audit.

The model runs a whole batch of samples through one call, so the matrix ops
take a leading batch axis: matmul, add_bias, scale_rows, pairwise_absdiff,
softmax_rows, transpose and layer_norm act on the trailing axes of (B, ...)
inputs, flatten keeps the batch axis, and the convolutions and
adaptive_max_pool1d take only (B, C, ...) maps: one sample is a batch of one.
Each records one tape node for the whole batch. layer_norm normalizes the
last axis unless its ``axis`` argument names another; axis=1 normalizes the
channels of a (B, C, H, W) map without moving them last.

The backward rules of matmul and the convolutions skip the gradient of an
operand that does not require one and return None for it.

The signal average pool is never differentiated, so it is plain numpy in
hsda.model.embeddings; it shares _pool_bins with adaptive_max_pool1d.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .tensor import ShapeError, Tensor, active_tape


def _as_tensor(x, like: Optional[Tensor] = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.dtype if like is not None else None
    return Tensor(np.asarray(x), dtype=dtype)


def _out(values: np.ndarray, requires_grad: bool) -> Tensor:
    return Tensor(values, requires_grad=requires_grad, dtype=values.dtype)


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn, name: str) -> Tensor:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(inputs, out, backward_fn, name)
    return out


def _requires(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


# ---------------------------------------------------------------------------
# elementwise arithmetic (same shape or scalar-vs-tensor)


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError("%s: shapes %s and %s (only identical or scalar allowed)" % (op, a.shape, b.shape))


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Collapse a gradient onto a scalar operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.asarray(g.sum(), dtype=g.dtype).reshape(shape)


def add(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b, "add")
    out = _out(a.values + b.values, _requires(a, b))

    def bwd(g, sa=a.shape, sb=b.shape):  # shapes only: the rule keeps neither input alive
        return _reduce_to(g, sa), _reduce_to(g, sb)

    return _record((a, b), out, bwd, "add")


def sub(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b, "sub")
    out = _out(a.values - b.values, _requires(a, b))

    def bwd(g, sa=a.shape, sb=b.shape):
        return _reduce_to(g, sa), _reduce_to(-g, sb)

    return _record((a, b), out, bwd, "sub")


def mul(a, b) -> Tensor:
    a = _as_tensor(a, like=b if isinstance(b, Tensor) else None)
    b = _as_tensor(b, like=a)
    _check_elementwise(a, b, "mul")
    av, bv = a.values, b.values
    out = _out(av * bv, _requires(a, b))

    def bwd(g):
        return _reduce_to(g * bv, a.shape), _reduce_to(g * av, b.shape)

    return _record((a, b), out, bwd, "mul")


def neg(a: Tensor) -> Tensor:
    out = _out(-a.values, a.requires_grad)
    return _record((a,), out, lambda g: (-g,), "neg")


def sigmoid(a: Tensor) -> Tensor:
    # Split by sign so exp never overflows; one exp of -|x|, taken as
    # min(x, -x), which (unlike -abs) keeps a NaN's sign bit.
    v = a.values
    e = np.exp(np.minimum(v, -v))
    y = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(v.dtype)
    out = _out(y, a.requires_grad)
    return _record((a,), out, lambda g: (g * y * (1.0 - y),), "sigmoid")


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    out = _out(np.fmax(a.values, 0), a.requires_grad)  # fmax: NaN and -0.0 map to +0.0, like the mask
    return _record((a,), out, lambda g: (g * mask,), "relu")


def log(a: Tensor) -> Tensor:
    out = _out(np.log(a.values), a.requires_grad)
    return _record((a,), out, lambda g: (g / a.values,), "log")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes where x >= floor, zero where clamped."""
    mask = a.values >= floor
    out = _out(np.maximum(a.values, floor), a.requires_grad)
    return _record((a,), out, lambda g: (g * mask,), "clamp_min")


# ---------------------------------------------------------------------------
# reductions


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape)


def sum_(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    out = _out(a.values.sum(axis=axis, keepdims=keepdims), a.requires_grad)

    def bwd(g, shape=a.shape):
        return (_expand_reduced(g, shape, axis, keepdims).astype(g.dtype, copy=True),)

    return _record((a,), out, bwd, "sum")


def mean(a: Tensor, axis: Optional[int] = None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    out = _out(a.values.mean(axis=axis, keepdims=keepdims), a.requires_grad)

    def bwd(g, shape=a.shape):
        return (_expand_reduced(g, shape, axis, keepdims) / count,)

    return _record((a,), out, bwd, "mean")


def max_(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    """Max along one axis; gradient flows to the first maximal entry."""
    idx = np.argmax(a.values, axis=axis)
    out_v = np.take_along_axis(a.values, np.expand_dims(idx, axis), axis=axis)
    if not keepdims:
        out_v = np.squeeze(out_v, axis=axis)
    out = _out(out_v, a.requires_grad)

    def bwd(g, shape=a.shape, dtype=a.values.dtype):
        gx = np.zeros(shape, dtype=dtype)
        ge = g if keepdims else np.expand_dims(g, axis)
        np.put_along_axis(gx, np.expand_dims(idx, axis), ge, axis=axis)
        return (gx,)

    return _record((a,), out, bwd, "max")


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(a: Tensor, shape) -> Tensor:
    out = _out(a.values.reshape(shape), a.requires_grad)
    return _record((a,), out, lambda g, shape=a.shape: (g.reshape(shape),), "reshape")


def flatten(a: Tensor) -> Tensor:
    """Flatten each sample of a batch (B, ...) to one row (B, size / B), ready for a perceptron."""
    return reshape(a, (a.shape[0], -1))


def permute(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = _out(np.ascontiguousarray(a.values.transpose(axes)), a.requires_grad)
    return _record((a,), out, lambda g: (g.transpose(inv),), "permute")


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: a matrix's transpose, taken per sample for (B, m, n)."""
    nd = a.values.ndim
    if nd < 2:
        raise ShapeError("transpose expects at least a matrix, got shape %s" % (a.shape,))
    return permute(a, tuple(range(nd - 2)) + (nd - 1, nd - 2))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ShapeError("concat of zero tensors")
    out = _out(np.concatenate([t.values for t in tensors], axis=axis), _requires(*tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))

    return _record(tensors, out, bwd, "concat")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product over the last two axes.

    (m, k) @ (k, n) is the plain matrix product. A batch (B, m, k) takes either
    a shared (k, n) right operand, computed as one (B*m, k) @ (k, n) product, or
    a per-sample (B, k, n) one.
    """
    ad, bd = a.values.ndim, b.values.ndim
    shared = bd == 2 and ad in (2, 3)
    paired = ad == bd == 3 and a.shape[0] == b.shape[0]
    if not (shared or paired):
        raise ShapeError("matmul expects (m,k) or (B,m,k) times (k,n) or (B,k,n), got %s and %s" % (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul inner dimensions disagree: %s vs %s" % (a.shape, b.shape))
    if shared:
        a2 = a.values.reshape(-1, a.shape[-1])
        out = _out((a2 @ b.values).reshape(a.shape[:-1] + b.shape[1:]), _requires(a, b))

        def bwd(g):
            g2 = g.reshape(-1, g.shape[-1])
            da = (g2 @ b.values.T).reshape(a.shape) if a.requires_grad else None
            db = a2.T @ g2 if b.requires_grad else None
            return da, db

    else:
        out = _out(np.matmul(a.values, b.values), _requires(a, b))

        def bwd(g):
            da = np.matmul(g, b.values.transpose(0, 2, 1)) if a.requires_grad else None
            db = np.matmul(a.values.transpose(0, 2, 1), g) if b.requires_grad else None
            return da, db

    return _record((a, b), out, bwd, "matmul")


def add_bias(a: Tensor, b: Tensor) -> Tensor:
    """Add b to a at every leading index; b's shape must equal a's trailing axes.

    A length-n vector goes onto every row of (m, n) or (B, m, n); an (m, n)
    matrix goes onto every sample of (B, m, n).
    """
    nb = b.values.ndim
    if nb < 1 or a.values.ndim < nb or a.shape[-nb:] != b.shape:
        raise ShapeError("add_bias: array %s with bias %s" % (a.shape, b.shape))
    lead = tuple(range(a.values.ndim - nb))
    out = _out(a.values + b.values, _requires(a, b))

    def bwd(g):
        return g, g.sum(axis=lead)

    return _record((a, b), out, bwd, "add_bias")


def add_centered(a: Tensor, b: Tensor) -> Tensor:
    """a + b with b's taps centred on a's last axis, as if b were zero-padded to a's extent.

    Outer taps of a get + 0.0, so a -0.0 there becomes +0.0 as under the padding.
    """
    ka, kb = a.shape[-1], b.shape[-1]
    if a.shape[:-1] != b.shape[:-1] or kb > ka or (ka - kb) % 2:
        raise ShapeError("add_centered: %s with %s (leading axes differ or b not centrable)" % (a.shape, b.shape))
    lo, hi = (ka - kb) // 2, (ka + kb) // 2
    y = a.values + 0.0
    for j in range(kb):  # one long strided add per tap: a slice add would loop over a 1-5 long axis
        np.add(a.values[..., lo + j], b.values[..., j], out=y[..., lo + j])
    out = _out(y, _requires(a, b))
    return _record((a, b), out, lambda g: (g, g[..., lo:hi]), "add_centered")


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of an (..., m, n) matrix by scalar s[..., i, 0] from an (..., m, 1) column."""
    if a.values.ndim < 2 or s.shape != a.shape[:-1] + (1,):
        raise ShapeError("scale_rows: matrix %s with scales %s" % (a.shape, s.shape))
    out = _out(a.values * s.values, _requires(a, s))

    def bwd(g):
        return g * s.values, (g * a.values).sum(axis=-1, keepdims=True)

    return _record((a, s), out, bwd, "scale_rows")


def pairwise_absdiff(q: Tensor, k: Tensor) -> Tensor:
    """D[..., i, j, :] = |q_i - k_j| for row sets q (..., m, d) and k (..., n, d)."""
    if q.values.ndim < 2 or k.values.ndim != q.values.ndim or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise ShapeError("pairwise_absdiff: %s vs %s" % (q.shape, k.shape))
    diff = q.values[..., :, None, :] - k.values[..., None, :, :]
    sign = np.sign(diff)
    out = _out(np.abs(diff), _requires(q, k))

    def bwd(g):
        gs = g * sign
        return gs.sum(axis=-2), -gs.sum(axis=-3)

    return _record((q, k), out, bwd, "pairwise_absdiff")


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the last axis with max subtraction; every output row sums to 1."""
    if a.values.ndim < 2:
        raise ShapeError("softmax_rows expects a matrix or a batch of them, got %s" % (a.shape,))
    shifted = a.values - a.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _out(y, a.requires_grad)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _record((a,), out, bwd, "softmax_rows")


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5, axis: int = -1) -> Tensor:
    """Normalize one axis (the last by default) to mean 0 / population variance 1, then affine.

    gamma and beta have that axis's length and act along it: axis=1 of a
    (B, C, H, W) map normalizes the channels at every sample and position.
    """
    axis = axis % a.values.ndim
    d = a.shape[axis]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            "layer_norm: axis %d has length %d but gamma %s, beta %s" % (axis, d, gamma.shape, beta.shape)
        )
    along = (d,) + (1,) * (a.values.ndim - 1 - axis)  # gamma/beta broadcast along `axis`
    gv, bv = gamma.values.reshape(along), beta.values.reshape(along)
    # Large maps make every fresh temporary cost page faults, so the steps
    # below update their own temporaries in place where the formula allows.
    xhat = a.values - a.values.mean(axis=axis, keepdims=True)
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axis, keepdims=True) + eps)
    xhat *= inv
    y = xhat * gv
    y += bv
    out = _out(y, _requires(a, gamma, beta))

    def bwd(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
        others = tuple(i for i in range(g.ndim) if i != axis)
        tmp = g * xhat
        dgamma = tmp.sum(axis=others)
        dbeta = g.sum(axis=others)
        dx = g * gv
        np.multiply(dx, xhat, out=tmp)
        proj = tmp.mean(axis=axis, keepdims=True)
        dx -= dx.mean(axis=axis, keepdims=True)
        np.multiply(xhat, proj, out=tmp)
        dx -= tmp
        dx *= inv
        return dx, dgamma, dbeta

    return _record((a, gamma, beta), out, bwd, "layer_norm")


def cosine_rows(a: Tensor, b: Tensor, floor: float = 1e-8) -> Tensor:
    """Cosine of the angle between row i of a and row i of b, for (n, d) inputs -> (n,).

    Each row's norm product is floored at `floor`; while the floor is active
    that row's denominator is treated as a constant for the gradient.
    """
    if a.values.ndim != 2 or a.shape != b.shape:
        raise ShapeError("cosine_rows: %s vs %s (need two (n, d) matrices)" % (a.shape, b.shape))
    av, bv = a.values, b.values
    na = np.sqrt((av * av).sum(axis=1))
    nb = np.sqrt((bv * bv).sum(axis=1))
    prod = na * nb
    live = prod >= floor
    denom = np.maximum(prod, floor)
    c = (av * bv).sum(axis=1) / denom
    out = _out(c.astype(av.dtype), _requires(a, b))

    def bwd(g):
        # the norm terms vanish on floored rows, whose denominator is a constant
        ca = c * np.divide(1.0, na * na, out=np.zeros_like(na), where=live)
        cb = c * np.divide(1.0, nb * nb, out=np.zeros_like(nb), where=live)
        gs = g[:, None]
        da = gs * (bv / denom[:, None] - ca[:, None] * av)
        db = gs * (av / denom[:, None] - cb[:, None] * bv)
        return da.astype(av.dtype), db.astype(bv.dtype)

    return _record((a, b), out, bwd, "cosine_rows")


# ---------------------------------------------------------------------------
# pooling


def _pool_bins(length: int, out_len: int):
    """Bin i of out_len over a length-long axis is [starts[i], ends[i])."""
    i = np.arange(out_len)
    starts = (i * length) // out_len
    ends = -(-((i + 1) * length) // out_len)
    return starts, ends


def adaptive_max_pool1d(a: Tensor, out_len: int) -> Tensor:
    """Max over each bin of the last axis of a batch (B, C, T).

    The gradient goes to the first maximal entry per bin.
    """
    if a.values.ndim != 3:
        raise ShapeError("adaptive_max_pool1d expects (B, C, T), got %s" % (a.shape,))
    T = a.shape[-1]
    starts, ends = _pool_bins(T, out_len)
    # every bin at once: a short bin repeats its last index, which moves neither its max nor its first argmax
    take = np.minimum(starts[:, None] + np.arange((ends - starts).max()), ends[:, None] - 1)
    windows = a.values[..., take]  # (B, C, out_len, widest)
    aw = windows.argmax(axis=-1)
    arg = starts + aw
    out = _out(np.take_along_axis(windows, aw[..., None], axis=-1)[..., 0], a.requires_grad)

    def bwd(g):
        gx = np.zeros((g.size // out_len, T), dtype=g.dtype)
        rows = np.broadcast_to(np.arange(gx.shape[0])[:, None], (gx.shape[0], out_len))
        np.add.at(gx, (rows, arg.reshape(-1, out_len)), g.reshape(-1, out_len))
        return (gx.reshape(g.shape[:-1] + (T,)),)

    return _record((a,), out, bwd, "adaptive_max_pool1d")


# ---------------------------------------------------------------------------
# convolutions (cross-correlation semantics, no kernel flip)


def _conv_out_len(L: int, k: int, stride: int, padding: int) -> int:
    return (L + 2 * padding - k) // stride + 1


# One lowering serves every spatial rank. The padded input (B, C_in, *S) is
# unfolded into columns laid out (C_in, taps, B, *out), read by the GEMM as
# (C_in * taps, B * out): batch and output positions share the column axis, so
# every group of every sample goes through one stacked matmul. Taps run in C
# order over the kernel extents, and col2im adds them back in that order. The
# backward closure keeps the columns (for dw) but only the padded *shape*: the
# padded input itself would stay alive until backward for nothing.


def _group_matmul(w: np.ndarray, cols: np.ndarray, groups: int) -> np.ndarray:
    """Grouped weights (C_out, C_in/groups, *kernel) times columns (C_in, taps, N) -> (C_out, N)."""
    wg = w.reshape(groups, w.shape[0] // groups, -1)
    cg = cols.reshape(groups, wg.shape[2], -1)
    return np.matmul(wg, cg).reshape(w.shape[0], -1)


def _group_matmul_grads(w: np.ndarray, cols: np.ndarray, gy: np.ndarray, groups: int, need_cols: bool):
    """(dw, dcols) of _group_matmul for the output gradient gy (C_out, N); dcols is None unless needed."""
    wg = w.reshape(groups, w.shape[0] // groups, -1)
    cg = cols.reshape(groups, wg.shape[2], -1)
    gg = gy.reshape(groups, wg.shape[1], -1)
    dw = np.matmul(gg, cg.transpose(0, 2, 1)).reshape(w.shape)
    if not need_cols:
        return dw, None
    return dw, np.matmul(wg.transpose(0, 2, 1), gg).reshape(cols.shape)


def _windows(kernel: Tuple[int, ...], stride: int, out: Tuple[int, ...]):
    """Yield (tap, index): index picks the (B, C, *out) window a tap reads from a padded (B, C, *S) map."""
    for tap, offsets in enumerate(itertools.product(*map(range, kernel))):
        yield tap, (slice(None), slice(None)) + tuple(slice(o, o + stride * n, stride) for o, n in zip(offsets, out))


def _conv(x: Tensor, w: Tensor, bias: Optional[Tensor], stride: int, padding: int, groups: int, name: str):
    """Cross-correlation over the last w.ndim - 2 axes of a batch (B, C_in, *S)."""
    nd = w.values.ndim - 2
    if x.values.ndim != nd + 2:
        raise ShapeError("%s input must be a batch with %d axes, got %s" % (name, nd + 2, x.shape))
    B, C_in = x.shape[:2]
    C_out, C_g, kernel = w.shape[0], w.shape[1], w.shape[2:]
    if any(k % 2 == 0 for k in kernel):
        raise ConfigError("%s kernel extents must be odd, got %s" % (name, kernel))
    if C_in % groups or C_out % groups:
        raise ConfigError(
            "%s channels (%d in, %d out) not divisible by groups=%d" % (name, C_in, C_out, groups)
        )
    if C_g != C_in // groups:
        raise ShapeError("%s weight %s inconsistent with C_in=%d groups=%d" % (name, w.shape, C_in, groups))
    if bias is not None and bias.shape != (C_out,):
        raise ShapeError("%s bias must be (C_out,), got %s" % (name, bias.shape))
    out_shape = tuple(_conv_out_len(L, k, stride, padding) for L, k in zip(x.shape[2:], kernel))
    if min(out_shape) < 1:
        raise ShapeError("%s output %s < 1 (input %s, kernel %s)" % (name, out_shape, x.shape[2:], kernel))

    inner = (slice(None), slice(None)) + tuple(slice(padding, padding + L) for L in x.shape[2:])
    padded = x.shape[:2] + tuple(L + 2 * padding for L in x.shape[2:])
    xp = x.values
    if padding:
        xp = np.zeros(padded, dtype=xp.dtype)
        xp[inner] = x.values
    cols = np.empty((C_in, int(np.prod(kernel)), B) + out_shape, dtype=xp.dtype)
    for tap, window in _windows(kernel, stride, out_shape):
        cols[:, tap] = xp[window].swapaxes(0, 1)
    y = _group_matmul(w.values, cols, groups)  # (C_out, B * prod(out_shape))
    if bias is not None:
        y += bias.values[:, None]
    y = np.ascontiguousarray(y.reshape((C_out, B) + out_shape).swapaxes(0, 1))

    inputs = (x, w) if bias is None else (x, w, bias)
    out = _out(y, _requires(*inputs))
    wv, need_dx, has_bias = w.values, x.requires_grad, bias is not None  # not x: its values may go

    def bwd(g):
        gy = g.swapaxes(0, 1).reshape(C_out, -1)
        dw, dcols = _group_matmul_grads(wv, cols, gy, groups, need_dx)
        dx = None
        if dcols is not None:
            dxp = np.zeros(padded, dtype=dcols.dtype)
            for tap, window in _windows(kernel, stride, out_shape):
                dxp[window] += dcols[:, tap].swapaxes(0, 1)
            dx = dxp[inner]
        if not has_bias:
            return dx, dw
        return dx, dw, gy.sum(axis=1)

    return _record(inputs, out, bwd, name)


def conv1d(
    x: Tensor,
    w: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """1D cross-correlation over the last axis.

    x is a batch (B, C_in, T); w is (C_out, C_in/groups, k). Depthwise =
    groups == C_in with C_out == C_in.
    """
    if w.values.ndim != 3:
        raise ShapeError("conv1d weight must be (C_out, C_in/g, k), got %s" % (w.shape,))
    return _conv(x, w, bias, stride, padding, groups, "conv1d")


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Optional[Tensor] = None,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> Tensor:
    """2D cross-correlation.

    x is a batch (B, C_in, H, W); w is (C_out, C_in/groups, kh, kw).
    """
    if w.values.ndim != 4:
        raise ShapeError("conv2d weight must be (C_out, C_in/g, kh, kw), got %s" % (w.shape,))
    return _conv(x, w, bias, stride, padding, groups, "conv2d")
