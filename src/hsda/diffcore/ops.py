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
inputs, and flatten keeps the batch axis. The convolutions take only
channel-major maps (C, B, *S), the layout their GEMM produces, and
adaptive_max_pool1d pools the last axis of any 3-axis map: one sample is a
batch of one. conv_keys instead convolves a channels-last (..., n, C) stack
along its n axis. Each op records one tape node for the whole batch.
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
    inv = 1.0 / np.sqrt((xhat * xhat).mean(axis=axis, keepdims=True) + eps)
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
    """Max over each bin of the last axis of a 3-axis map, (C, B, T) in the model.

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


# One lowering serves every spatial rank. A channel-major map (C_in, B, *S) is
# unfolded into columns laid out (C_in, taps, B, *out), read by the GEMM as
# (C_in * taps, B * out): batch and output positions share the column axis, so
# every group of every sample goes through one stacked matmul, and its
# (C_out, B * out) product is already the channel-major output. Taps run in C
# order over the kernel extents, and col2im adds them back in that order. The
# backward closure keeps the columns (for dw) but only the input's *shape*,
# and drops the columns once dw is taken, before the equally large dcols
# exist.
#
# When every input extent is stride times the output extent (stride 1 with a
# padding that keeps the extent, or an even map halved at stride 2), the map
# is split once into stride**nd phase planes of the output's extent, and each
# tap reads one plane shifted by one flat offset: one long copy per tap, then
# zeros where the shifted read left the plane along some axis. col2im adds
# each tap back into its plane by the same shift, its out-of-plane entries
# zeroed first: a +0.0 leaves every partial sum's bits alone, since a sum
# begun at +0.0 is never -0.0. Other shapes copy one strided window per tap
# from a zero-padded map.


def _group_matmul(w: np.ndarray, cols: np.ndarray, groups: int) -> np.ndarray:
    """Grouped weights (C_out, C_in/groups, *kernel) times columns (C_in, taps, N) -> (C_out, N)."""
    wg = w.reshape(groups, w.shape[0] // groups, -1)
    cg = cols.reshape(groups, wg.shape[2], -1)
    return np.matmul(wg, cg).reshape(w.shape[0], -1)


def _taps(kernel: Tuple[int, ...], padding: int):
    """Yield (tap, offsets): each tap's read offset from its output position, per spatial axis, in C order."""
    for tap, origin in enumerate(itertools.product(*map(range, kernel))):
        yield tap, tuple(o - padding for o in origin)


@functools.lru_cache(maxsize=256)
def _phase_shifts(kernel, stride: int, padding: int, out: Tuple[int, ...], n: int):
    """(tap, phase, shift, span, edges) per tap, for a map split into phase planes of extent out.

    Output position f of the flattened (B, *out) plane reads plane `phase` at
    f + shift; span = (lo, hi) is the range of reads that land in the
    flattened plane, None when none do, and each edge indexes the
    out-of-plane slab of one axis in a (C, B, *out) array. The plan depends
    on shapes only, so it is made once per shape.
    """
    plan = []
    for tap, offsets in _taps(kernel, padding):
        shift, pitch, edges = 0, 1, []
        for axis in reversed(range(len(out))):
            q, m = offsets[axis] // stride, out[axis]
            shift += q * pitch
            pitch *= m
            if q:
                edges.append((slice(None),) * (axis + 2) + (slice(m - q, None) if q > 0 else slice(None, -q),))
        span = (max(shift, 0), n + min(shift, 0)) if abs(shift) < n else None
        plan.append((tap, tuple(d % stride for d in offsets), shift, span, tuple(edges)))
    return tuple(plan)


def _phase_axes(nd: int):
    """Axis order taking a (C, B, m_1, s, ..., m_nd, s) split map to (s, ..., s, C, B, m_1, ..., m_nd)."""
    return tuple(3 + 2 * a for a in range(nd)) + (0, 1) + tuple(2 + 2 * a for a in range(nd))


def _im2col(x: np.ndarray, kernel, stride: int, padding: int, out: Tuple[int, ...]) -> np.ndarray:
    """Columns (C, taps, B, *out) of a channel-major map x (C, B, *S)."""
    C, B, extent = x.shape[0], x.shape[1], x.shape[2:]
    cols = np.empty((C, int(np.prod(kernel)), B) + out, dtype=x.dtype)
    if all(L == stride * m for L, m in zip(extent, out)):
        split = x.reshape((C, B) + tuple(v for m in out for v in (m, stride)))
        planes = np.ascontiguousarray(split.transpose(_phase_axes(len(out))))
        cf, n = cols.reshape(C, cols.shape[1], -1), B * int(np.prod(out))
        for tap, phase, shift, span, edges in _phase_shifts(kernel, stride, padding, out, n):
            if span is not None:
                lo, hi = span
                cf[:, tap, lo - shift : hi - shift] = planes[phase].reshape(C, -1)[:, lo:hi]
            for edge in edges:
                cols[:, tap][edge] = 0
        return cols
    xp = np.zeros((C, B) + tuple(L + 2 * padding for L in extent), dtype=x.dtype)
    xp[(slice(None), slice(None)) + tuple(slice(padding, padding + L) for L in extent)] = x
    for tap, offsets in _taps(kernel, padding):
        cols[:, tap] = xp[(slice(None), slice(None)) + tuple(
            slice(d + padding, d + padding + stride * m, stride) for d, m in zip(offsets, out))]
    return cols


def _col2im(dcols: np.ndarray, shape: Tuple[int, ...], kernel, stride: int, padding: int) -> np.ndarray:
    """The (C, B, *S) map gradient from column gradients (C, taps, B, *out); may overwrite dcols."""
    C, B, extent, out = shape[0], shape[1], shape[2:], dcols.shape[3:]
    nd = len(out)
    if all(L == stride * m for L, m in zip(extent, out)):
        planes = np.zeros((stride,) * nd + (C, B) + out, dtype=dcols.dtype)
        dcf, n = dcols.reshape(C, dcols.shape[1], -1), B * int(np.prod(out))
        for tap, phase, shift, span, edges in _phase_shifts(kernel, stride, padding, out, n):
            for edge in edges:
                dcols[:, tap][edge] = 0
            if span is not None:
                lo, hi = span
                planes[phase].reshape(C, -1)[:, lo:hi] += dcf[:, tap, lo - shift : hi - shift]
        del dcols, dcf  # the merge allocates the map: let the column gradient go first
        return planes.transpose(np.argsort(_phase_axes(nd))).reshape(shape)
    dxp = np.zeros((C, B) + tuple(L + 2 * padding for L in extent), dtype=dcols.dtype)
    for tap, offsets in _taps(kernel, padding):
        dxp[(slice(None), slice(None)) + tuple(
            slice(d + padding, d + padding + stride * m, stride) for d, m in zip(offsets, out))] += dcols[:, tap]
    return dxp[(slice(None), slice(None)) + tuple(slice(padding, padding + L) for L in extent)]


def _conv(x: Tensor, w: Tensor, bias: Optional[Tensor], stride: int, padding: int, groups: int, name: str):
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
    out_shape = tuple(_conv_out_len(L, k, stride, padding) for L, k in zip(x.shape[2:], kernel))
    if min(out_shape) < 1:
        raise ShapeError("%s output %s < 1 (input %s, kernel %s)" % (name, out_shape, x.shape[2:], kernel))

    cols = _im2col(x.values, kernel, stride, padding, out_shape)
    y = _group_matmul(w.values, cols, groups)  # (C_out, B * prod(out_shape))
    if bias is not None:
        y += bias.values[:, None]

    inputs = (x, w) if bias is None else (x, w, bias)
    out = _out(y.reshape((C_out, B) + out_shape), _requires(*inputs))
    wv, need_dx, has_bias, x_shape = w.values, x.requires_grad, bias is not None, x.shape  # not x: its values may go

    def bwd(g):
        nonlocal cols
        wg = wv.reshape(groups, C_out // groups, -1)
        gy = g.reshape(groups, wg.shape[1], -1)
        dw = np.matmul(gy, cols.reshape(groups, wg.shape[2], -1).transpose(0, 2, 1)).reshape(wv.shape)
        shape, cols = cols.shape, None
        dx = None
        if need_dx:
            dx = _col2im(np.matmul(wg.transpose(0, 2, 1), gy).reshape(shape), x_shape, kernel, stride, padding)
        if not has_bias:
            return dx, dw
        gy = gy.reshape(C_out, -1)
        # One position per sample: add the samples in order, as a sample-major
        # (B, C_out) gradient sums, which keeps seeded results bit for bit.
        return dx, dw, gy.sum(axis=1) if gy.shape[1] > B else np.ascontiguousarray(gy.T).sum(axis=0)

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

    x is a channel-major batch (C_in, B, T); w is (C_out, C_in/groups, k);
    the output is (C_out, B, T_out). Depthwise = groups == C_in with
    C_out == C_in.
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

    x is a channel-major batch (C_in, B, H, W); w is (C_out, C_in/groups, kh,
    kw); the output is (C_out, B, H_out, W_out).
    """
    if w.values.ndim != 4:
        raise ShapeError("conv2d weight must be (C_out, C_in/g, kh, kw), got %s" % (w.shape,))
    return _conv(x, w, bias, stride, padding, groups, "conv2d")


def conv_keys(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Same-padded cross-correlation along axis -2 of a channels-last stack: (..., n, C_in) -> (..., n, C_out).

    w is (C_out, C_in, k) with k odd and bias (C_out,). The difference
    attention runs it over the key axis of the pairwise differences
    (..., n_q, n_k, d_h), whose features are already the last axis, so no
    tape node moves them. Inside, the stack is lowered as a channel-major
    conv1d map (C_in, rows / n, n), and the GEMMs keep conv1d's operand
    layouts, with the output gradient read as a transposed view: BLAS rounds
    the transposed products differently.
    """
    if w.values.ndim != 3 or x.values.ndim < 2 or x.shape[-1] != w.shape[1] or bias.shape != (w.shape[0],):
        raise ShapeError("conv_keys: input %s, weight %s, bias %s" % (x.shape, w.shape, bias.shape))
    C_out, C_in, k = w.shape
    if k % 2 == 0:
        raise ConfigError("conv_keys kernel extent must be odd, got %d" % k)
    n = x.shape[-2]
    x_cm = np.ascontiguousarray(np.moveaxis(x.values, -1, 0)).reshape(C_in, -1, n)
    cols = _im2col(x_cm, (k,), 1, k // 2, (n,)).reshape(C_in * k, -1)
    w2 = w.values.reshape(C_out, -1)
    y = w2 @ cols
    y += bias.values[:, None]
    out = _out(np.ascontiguousarray(y.T).reshape(x.shape[:-1] + (C_out,)), _requires(x, w, bias))
    cm_shape, need_dx = x_cm.shape, x.requires_grad

    def bwd(g):
        nonlocal cols
        gy = g.reshape(-1, C_out).T
        dw = (gy @ cols.T).reshape(w2.shape[:1] + (C_in, k))
        cols = None  # dcols is as large
        dx = None
        if need_dx:
            dx_cm = _col2im((w2.T @ gy).reshape((C_in, k) + cm_shape[1:]), cm_shape, (k,), 1, k // 2)
            dx = np.ascontiguousarray(np.moveaxis(dx_cm, 0, -1)).reshape(g.shape[:-1] + (C_in,))
        return dx, dw, gy.sum(axis=1)

    return _record((x, w, bias), out, bwd, "conv_keys")
