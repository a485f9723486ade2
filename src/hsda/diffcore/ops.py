"""Differentiable primitives.

Every function takes/returns :class:`Tensor` and registers a backward rule on
the active tape. Broadcasting is deliberately narrow: elementwise ops accept
identical shapes or a scalar on one side, nothing else. Dedicated primitives
(add_bias, scale_rows, cosine_rows, key_difference_conv) cover the row/column
and pairwise patterns the network needs, which keeps every backward rule
simple enough to audit.

The model runs a whole batch of samples through one call, so the matrix ops
take a leading batch axis: matmul, add_bias, scale_rows, softmax_rows,
transpose, layer_norm and key_difference_conv act on the trailing axes of
(B, ...) inputs, and flatten keeps the batch axis. The convolutions take only
channel-major maps (C, B, *S), the layout their GEMM produces, and
adaptive_max_pool1d pools the last axis of any 3-axis map: one sample is a
batch of one. key_difference_conv builds the pairwise differences |q_i - k_j|
channel-major and convolves them along the key axis through the same lowering.
Every convolution has one contract: odd kernels, each axis padded by half its
kernel, so an axis of extent L gives ceil(L / stride) outputs. Each op records
one tape node for the whole batch.
layer_norm normalizes the last axis unless its ``axis`` argument names
another; axis=0 normalizes the channels of a (C, B, H, W) map where they lie.

The backward rules of matmul and the convolutions skip the gradient of an
operand that does not require one and return None for it.

The signal average pool is never differentiated, so it is plain numpy in
hsda.model.embeddings; it shares _pool_bins with adaptive_max_pool1d.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from .tensor import ShapeError, Tensor, active_tape

LAYER_NORM_EPS = 1e-5  # added to the variance
COSINE_FLOOR = 1e-8  # least norm product cosine_rows divides by


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


def _gated(a: Tensor, out: Tensor, mask, name: str) -> Tensor:
    """Record out, whose gradient is g * mask(); only a recorded node builds the mask, kept as one bit per value."""
    if not (a.requires_grad and active_tape() is not None):
        return out
    bits = np.packbits(mask())
    return _record((a,), out, lambda g: (g * np.unpackbits(bits, count=g.size).reshape(g.shape).view(np.bool_),), name)


def relu(a: Tensor) -> Tensor:
    out = _out(np.fmax(a.values, 0), a.requires_grad)  # fmax: NaN and -0.0 map to +0.0, like the mask
    return _gated(a, out, lambda: a.values > 0, "relu")


def log(a: Tensor) -> Tensor:
    out = _out(np.log(a.values), a.requires_grad)
    return _record((a,), out, lambda g: (g / a.values,), "log")


def clamp_min(a: Tensor, floor: float) -> Tensor:
    """max(x, floor); gradient passes where x >= floor, zero where clamped."""
    out = _out(np.maximum(a.values, floor), a.requires_grad)
    return _gated(a, out, lambda: a.values >= floor, "clamp_min")


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
            da = _product(g2, b.values.T).reshape(a.shape) if a.requires_grad else None
            db = a2.T @ g2 if b.requires_grad else None
            return da, db

    else:
        out = _out(np.matmul(a.values, b.values), _requires(a, b))

        def bwd(g):
            da = np.matmul(g, b.values.transpose(0, 2, 1)) if a.requires_grad else None
            db = np.matmul(a.values.transpose(0, 2, 1), g) if b.requires_grad else None
            return da, db

    return _record((a, b), out, bwd, "matmul")


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b), with a contracted extent of 1 taken as a broadcast multiply.

    numpy runs such outer products in a loop several times slower than the
    multiply. Its sums start at +0.0, so the + 0.0 here turns a -0.0 product
    into the +0.0 it returns; every other entry is the same one rounded product.
    """
    if a.shape[-1] != 1:
        return np.matmul(a, b)
    p = a * b
    p += 0.0
    return p


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


def scale_rows(a: Tensor, s: Tensor) -> Tensor:
    """Multiply row i of an (..., m, n) matrix by scalar s[..., i, 0] from an (..., m, 1) column."""
    if a.values.ndim < 2 or s.shape != a.shape[:-1] + (1,):
        raise ShapeError("scale_rows: matrix %s with scales %s" % (a.shape, s.shape))
    out = _out(a.values * s.values, _requires(a, s))

    def bwd(g):
        return g * s.values, (g * a.values).sum(axis=-1, keepdims=True)

    return _record((a, s), out, bwd, "scale_rows")


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


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, axis: int = -1) -> Tensor:
    """Normalize one axis (the last by default) to mean 0 / population variance 1, then affine.

    gamma and beta have that axis's length and act along it: axis=0 of a
    channel-major (C, B, H, W) map normalizes the channels at every sample
    and position.
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
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axis, keepdims=True) + LAYER_NORM_EPS)
    xhat *= inv
    y = xhat * gv
    y += bv
    out = _out(y, _requires(a, gamma, beta))

    def bwd(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), dxhat = g * gamma
        tmp = g * xhat
        dgamma, dbeta = _sum_except(tmp, axis), _sum_except(g, axis)
        dx = g * gv
        np.multiply(dx, xhat, out=tmp)
        proj = tmp.mean(axis=axis, keepdims=True)
        dx -= dx.mean(axis=axis, keepdims=True)
        np.multiply(xhat, proj, out=tmp)
        dx -= tmp
        dx *= inv
        return dx, dgamma, dbeta

    return _record((a, gamma, beta), out, bwd, "layer_norm")


def _sum_except(t: np.ndarray, axis: int) -> np.ndarray:
    """Sum t over every axis but `axis`.

    For axis 0 of a (C, B, *S) map each (channel, sample) row is summed over
    its positions first, then the samples are added in order: the order a
    sample-major (B, C, *S) map reduces in, which keeps seeded results bit
    for bit.
    """
    if axis or t.ndim < 3:
        return t.sum(axis=tuple(i for i in range(t.ndim) if i != axis))
    return np.ascontiguousarray(t.reshape(t.shape[0], t.shape[1], -1).sum(-1).T).sum(0)


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between row i of a and row i of b, for (n, d) inputs -> (n,).

    Each row's norm product is floored at COSINE_FLOOR; while the floor is
    active that row's denominator is treated as a constant for the gradient.
    """
    if a.values.ndim != 2 or a.shape != b.shape:
        raise ShapeError("cosine_rows: %s vs %s (need two (n, d) matrices)" % (a.shape, b.shape))
    av, bv = a.values, b.values
    na = np.sqrt((av * av).sum(axis=1))
    nb = np.sqrt((bv * bv).sum(axis=1))
    prod = na * nb
    live = prod >= COSINE_FLOOR
    denom = np.maximum(prod, COSINE_FLOOR)
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
    """Max over each bin of the last axis of a 3-axis map, (C, B, T) in the model.

    The gradient goes to the first maximal entry per bin.
    """
    if a.values.ndim != 3:
        raise ShapeError("adaptive_max_pool1d expects a 3-axis map, got %s" % (a.shape,))
    T = a.shape[-1]
    starts, ends = _pool_bins(T, out_len)
    # every bin at once: a short bin repeats its last index, which moves neither its max nor its first argmax
    take = np.minimum(starts[:, None] + np.arange((ends - starts).max()), ends[:, None] - 1)
    windows = a.values[..., take]  # (C, B, out_len, widest) in the model
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


# One lowering, _conv_core, serves every spatial rank and key_difference_conv.
# Kernels are odd and every axis is padded by half its kernel, so an axis of
# extent L gives ceil(L / stride) outputs. A channel-major map (C_in, B, *S)
# is unfolded into columns laid out (C_in, taps, B, *out), read by the GEMM as
# (C_in * taps, B * out): batch and output positions share the column axis, so
# every group of every sample goes through one stacked matmul, and its (C_out,
# B * out) product is already the channel-major output. Taps run in C order
# over the kernel extents, and col2im adds them back in that order. With more
# than one tap the columns are shifted copies of the map's phase planes, taps /
# stride**nd times their size: the backward closure keeps the planes (a view
# of the input at stride 1, one copy of it otherwise) and only the input's
# *shape*, and rebuilds the same column bytes with the same _im2col call at
# the start of its backward. A 1x1 convolution keeps its columns, no larger
# than its input; key_difference_conv keeps neither and rebuilds its map too.
# _conv_grads lets the columns go once dw is taken, before the equally large
# dcols exist. The output gradient comes in as (C_out, B * out); key_difference_conv
# passes the transposed view of its channels-last gradient, not a copy, and
# BLAS reads it transposed. A convolution no tape records keeps nothing: its
# planes go as soon as its columns exist, before the GEMM.
#
# The map, zero-extended at its far end to stride times the output extent,
# is split once into stride**nd phase planes of the output's extent, and each
# tap reads one plane shifted by one flat offset: one long copy per tap, then
# zeros where the shifted read left the plane along some axis. col2im adds
# each tap back into its plane by the same shift, its out-of-plane entries
# zeroed first, writes each plane into its strided slice of the map, and
# crops the map: a +0.0 leaves every partial sum's bits alone, since a sum
# begun at +0.0 is never -0.0.


@functools.lru_cache(maxsize=256)
def _phase_shifts(kernel, stride: int, out: Tuple[int, ...], n: int):
    """(tap, phase, shift, span, edges) per tap, for a map split into phase planes of extent out.

    Tap offsets from the output position run from -(k // 2) to k // 2 along
    each axis, in C order. Output position f of the flattened (B, *out) plane
    reads plane `phase` at f + shift; span = (lo, hi) is the range of reads
    that land in the flattened plane, None when none do, and each edge indexes
    the out-of-plane slab of one axis in a (C, B, *out) array. The plan
    depends on shapes only, so it is made once per shape.
    """
    plan = []
    for tap, offsets in enumerate(itertools.product(*(range(-(k // 2), k // 2 + 1) for k in kernel))):
        shift, pitch, edges = 0, 1, []
        for axis in reversed(range(len(out))):
            q, m = offsets[axis] // stride, out[axis]
            shift += q * pitch
            pitch *= m
            if q:
                # a kernel wider than the map can reach past the whole axis
                edge = slice(max(m - q, 0), None) if q > 0 else slice(None, -q)
                edges.append((slice(None),) * (axis + 2) + (edge,))
        span = (max(shift, 0), n + min(shift, 0)) if abs(shift) < n else None
        plan.append((tap, tuple(d % stride for d in offsets), shift, span, tuple(edges)))
    return tuple(plan)


def _phase_axes(nd: int):
    """Axis order taking a (C, B, m_1, s, ..., m_nd, s) split map to (s, ..., s, C, B, m_1, ..., m_nd)."""
    return tuple(3 + 2 * a for a in range(nd)) + (0, 1) + tuple(2 + 2 * a for a in range(nd))


def _planes(x: np.ndarray, stride: int) -> np.ndarray:
    """Phase planes (stride,) * nd + (C, B, *out) of x (C, B, *S), out = ceil(S / stride); a view at stride 1."""
    C, B, extent = x.shape[0], x.shape[1], x.shape[2:]
    out = tuple(-(-L // stride) for L in extent)
    if any(L != stride * m for L, m in zip(extent, out)):
        x_ext = np.zeros((C, B) + tuple(stride * m for m in out), dtype=x.dtype)
        x_ext[(slice(None), slice(None)) + tuple(slice(L) for L in extent)] = x
        x = x_ext
    split = x.reshape((C, B) + tuple(v for m in out for v in (m, stride)))
    return np.ascontiguousarray(split.transpose(_phase_axes(len(out))))


def _im2col(planes: np.ndarray, kernel, stride: int) -> np.ndarray:
    """Columns (C, taps, B, *out) from the phase planes of a map, as _planes gives them."""
    nd = len(kernel)
    C, B, out = planes.shape[nd], planes.shape[nd + 1], planes.shape[nd + 2 :]
    cols = np.empty((C, int(np.prod(kernel)), B) + out, dtype=planes.dtype)
    cf, n = cols.reshape(C, cols.shape[1], -1), B * int(np.prod(out))
    for tap, phase, shift, span, edges in _phase_shifts(kernel, stride, out, n):
        if span is not None:
            lo, hi = span
            cf[:, tap, lo - shift : hi - shift] = planes[phase].reshape(C, -1)[:, lo:hi]
        for edge in edges:
            cols[:, tap][edge] = 0
    return cols


def _col2im(dcols: np.ndarray, shape: Tuple[int, ...], kernel, stride: int) -> np.ndarray:
    """The (C, B, *S) map gradient from column gradients (C, taps, B, *out); may overwrite dcols."""
    C, B, extent, out = shape[0], shape[1], shape[2:], dcols.shape[3:]
    nd = len(out)
    planes = np.zeros((stride,) * nd + (C, B) + out, dtype=dcols.dtype)
    dcf, n = dcols.reshape(C, dcols.shape[1], -1), B * int(np.prod(out))
    for tap, phase, shift, span, edges in _phase_shifts(kernel, stride, out, n):
        for edge in edges:
            dcols[:, tap][edge] = 0
        if span is not None:
            lo, hi = span
            planes[phase].reshape(C, -1)[:, lo:hi] += dcf[:, tap, lo - shift : hi - shift]
    del dcols, dcf  # the merge allocates the map: let the column gradient go first
    if stride == 1:
        merged = planes[(0,) * nd]
    else:  # one strided slice per phase: a transposed gather would step a whole plane per element
        merged = np.empty((C, B) + tuple(stride * m for m in out), dtype=planes.dtype)
        for phase in itertools.product(range(stride), repeat=nd):
            merged[(slice(None), slice(None)) + tuple(slice(p, None, stride) for p in phase)] = planes[phase]
    return merged[(slice(None), slice(None)) + tuple(slice(L) for L in extent)]


def _conv_core(
    x: np.ndarray, w: np.ndarray, bias: Optional[np.ndarray], stride: int, groups: int, need_dx: bool,
    recorded: bool,
):
    """(y, bwd) for a channel-major map x (C_in, B, *S): y is (C_out, B * out), bias added.

    bwd takes an output gradient of y's shape and returns _conv_grads' tuple.
    Unless recorded, bwd is None and nothing is kept for it.
    """
    C_out, kernel = w.shape[0], w.shape[2:]
    planes = _planes(x, stride)
    cols = _im2col(planes, kernel, stride)
    rebuild = cols.shape[1] > 1
    # columns of more than one tap are rebuilt from the planes in backward; with none to come, the planes go now
    kept = [planes if rebuild else cols] if recorded else None  # backward pops it, so its columns can go
    del planes
    wg = w.reshape(groups, C_out // groups, -1)  # grouped weights times grouped columns, one stacked matmul
    y = np.matmul(wg, cols.reshape(groups, wg.shape[2], -1)).reshape(C_out, -1)
    if bias is not None:
        y += bias[:, None]
    if not recorded:
        return y, None

    def bwd(gy, x_shape=x.shape, with_bias=bias is not None):
        columns = (lambda: _im2col(kept.pop(), kernel, stride)) if rebuild else kept.pop
        return _conv_grads(gy, columns, w, x_shape, stride, groups, need_dx, with_bias)

    return y, bwd


def _conv_grads(gy, columns, w: np.ndarray, x_shape, stride: int, groups: int, need_dx: bool, with_bias: bool):
    """(dx, dw[, db]) of a (C_in, B, *S) map's convolution from gy (C_out, B * out); its columns go once dw is taken."""
    kernel, B = w.shape[2:], x_shape[1]
    wg = w.reshape(groups, w.shape[0] // groups, -1)
    cols = columns()
    gg = gy.reshape(groups, wg.shape[1], -1)
    dw = np.matmul(gg, cols.reshape(groups, wg.shape[2], -1).transpose(0, 2, 1)).reshape(w.shape)
    shape, cols = cols.shape, None
    dx = None
    if need_dx:
        dx = _col2im(_product(wg.transpose(0, 2, 1), gg).reshape(shape), x_shape, kernel, stride)
    if not with_bias:
        return dx, dw
    # One position per sample: add the samples in order, as a sample-major
    # (B, C_out) gradient sums, which keeps seeded results bit for bit.
    return dx, dw, gy.sum(axis=1) if gy.shape[1] > B else np.ascontiguousarray(gy.T).sum(axis=0)


def _conv(x: Tensor, w: Tensor, bias: Optional[Tensor], stride: int, groups: int, name: str):
    """Cross-correlation over the last w.ndim - 2 axes of a channel-major map (C_in, B, *S)."""
    nd = w.values.ndim - 2
    if x.values.ndim != nd + 2:
        raise ShapeError("%s input must be a batch with %d axes, got %s" % (name, nd + 2, x.shape))
    C_in, B = x.shape[:2]
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
    out_shape = tuple(-(-L // stride) for L in x.shape[2:])
    if min(out_shape) < 1:
        raise ShapeError("%s output %s < 1 (input %s, kernel %s)" % (name, out_shape, x.shape[2:], kernel))

    inputs = (x, w) if bias is None else (x, w, bias)
    bias_values = None if bias is None else bias.values
    requires = _requires(*inputs)
    recorded = requires and active_tape() is not None
    y, core_bwd = _conv_core(x.values, w.values, bias_values, stride, groups, x.requires_grad, recorded)
    out = _out(y.reshape((C_out, B) + out_shape), requires)
    return _record(inputs, out, lambda g: core_bwd(g.reshape(C_out, -1)), name)


def conv1d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None, stride: int = 1, groups: int = 1) -> Tensor:
    """1D cross-correlation over the last axis, padded by k // 2 at each end.

    x is a channel-major batch (C_in, B, T); w is (C_out, C_in/groups, k)
    with k odd; the output is (C_out, B, ceil(T / stride)). Depthwise =
    groups == C_in with C_out == C_in.
    """
    if w.values.ndim != 3:
        raise ShapeError("conv1d weight must be (C_out, C_in/g, k), got %s" % (w.shape,))
    return _conv(x, w, bias, stride, groups, "conv1d")


def conv2d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None, stride: int = 1, groups: int = 1) -> Tensor:
    """2D cross-correlation, each axis padded by half its kernel at each end.

    x is a channel-major batch (C_in, B, H, W); w is (C_out, C_in/groups, kh,
    kw) with kh, kw odd; the output is (C_out, B, ceil(H / stride),
    ceil(W / stride)).
    """
    if w.values.ndim != 4:
        raise ShapeError("conv2d weight must be (C_out, C_in/g, kh, kw), got %s" % (w.shape,))
    return _conv(x, w, bias, stride, groups, "conv2d")


def key_difference_conv(q: Tensor, k: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor]) -> Tensor:
    """Convolve |q_i - k_j| along key j, features as channels: (..., m, d) and (..., n, d) -> (..., m, n, C_out).

    The kernel is the sum of the (C_out, d, k) kernels centred on the first, the widest, whose k is odd; the bias
    is the biases' sum. The node keeps q, k and the parameters, which must not change before backward: it
    rebuilds the differences, their signs, the merged kernel and the columns bit for bit.
    """
    qv, kv, ws, bs = q.values, k.values, [t.values for t in kernels], [t.values for t in biases]
    if qv.ndim < 2 or kv.ndim != qv.ndim or q.shape[:-2] != k.shape[:-2] or ws[0].ndim != 3 or not (
        q.shape[-1] == k.shape[-1] == ws[0].shape[1]
    ):
        raise ShapeError("key_difference_conv: rows %s and %s with kernel %s" % (q.shape, k.shape, ws[0].shape))
    (C_out, d, K), n = ws[0].shape, k.shape[-2]
    if K % 2 == 0:
        raise ConfigError("key_difference_conv kernel extent must be odd, got %d" % K)
    centrable = all(w.shape[:-1] == (C_out, d) and w.shape[-1] <= K and (K - w.shape[-1]) % 2 == 0 for w in ws)
    if not (centrable and bs and all(b.shape == (C_out,) for b in bs)):
        shapes = ([w.shape for w in ws], [b.shape for b in bs])
        raise ShapeError("key_difference_conv: kernels %s and biases %s are not one centred convolution" % shapes)

    def differences():
        """q_i - k_j laid out (d, rows, n), channel-major, rows being everything before the key axis."""
        return (np.moveaxis(qv, -1, 0)[..., :, None] - np.moveaxis(kv, -1, 0)[..., None, :]).reshape(d, -1, n)

    x_cm = differences()
    y, _ = _conv_core(np.abs(x_cm, out=x_cm), _merge_centred(ws), functools.reduce(np.add, bs), 1, 1, False, False)
    out = _out(np.ascontiguousarray(y.T).reshape(q.shape[:-1] + (n, C_out)), _requires(q, k, *kernels, *biases))

    def bwd(g):
        kept = [differences()]
        # one byte per sign: g * sign casts it back exactly, and a NaN difference gets 0
        sign = np.subtract(kept[0] > 0, kept[0] < 0, dtype=np.int8)
        np.abs(kept[0], out=kept[0])
        merged, columns = _merge_centred(ws), lambda: _im2col(_planes(kept.pop(), 1), (K,), 1)
        dx, dw, db = _conv_grads(g.reshape(-1, C_out).T, columns, merged, kept[0].shape, 1, 1, True, True)
        gs = np.ascontiguousarray(np.moveaxis(dx, 0, -1)).reshape(g.shape[:-1] + (d,))
        gs *= np.moveaxis(sign, 0, -1).reshape(gs.shape)
        centred = ((K - w.shape[-1]) // 2 for w in ws[1:])
        return (gs.sum(axis=-2), -gs.sum(axis=-3), dw) + tuple(dw[..., c : K - c] for c in centred) + (db,) * len(bs)

    return _record((q, k, *kernels, *biases), out, bwd, "key_difference_conv")


def _merge_centred(kernels: Sequence[np.ndarray]) -> np.ndarray:
    """Sum the kernels centred on the first, as zero-padded: each step is the sum so far + 0.0, then its centre taps."""
    y = kernels[0]
    for b in kernels[1:]:
        lo = (y.shape[-1] - b.shape[-1]) // 2
        a, y = y, y + 0.0
        for j in range(b.shape[-1]):
            np.add(a[..., lo + j], b[..., j], out=y[..., lo + j])
    return y
