"""Parameter containers and the small layer vocabulary the network uses.

A module's parameters are its Tensor attributes: parameters() walks the
attributes, submodules and lists of submodules, and yields dotted names in
construction order, which is also the documented rng draw order for
initialization.

trunc_normal writes each weight straight into an array of the default dtype,
drawing and clipping float64 values a chunk at a time; the chunks continue
one generator stream, so the draw order and every value stay those of one
whole-tensor draw. A chunk stays under glibc's 128 KiB mmap threshold so it
is reused from the heap: a freed mmap'd chunk would raise the threshold
and leave later training buffers on the heap, lifting the peak resident size.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor


_DRAW_CHUNK = 8192  # float64 values: 64 KiB


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) draws clipped to two standard deviations, in the default dtype.

    Bit for bit np.clip(rng.normal(0, std, shape), -2 std, 2 std) cast to that
    dtype, and rng ends in the state that one draw leaves.
    """
    out = np.empty(shape, dtype=dc.default_dtype())
    flat = out.reshape(-1)
    for start in range(0, flat.size, _DRAW_CHUNK):
        z = rng.normal(0.0, std, size=min(_DRAW_CHUNK, flat.size - start))
        flat[start : start + z.size] = np.clip(z, -2.0 * std, 2.0 * std, out=z)
    return out


class Module:
    def parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Own tensors in assignment order, then each submodule's, lists as name.0., name.1., ..."""
        subs = []
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield prefix + name, value
            elif isinstance(value, Module):
                subs.append((name, value))
            elif isinstance(value, (list, tuple)):
                subs.extend(("%s.%d" % (name, i), m) for i, m in enumerate(value) if isinstance(m, Module))
        for name, m in subs:
            yield from m.parameters(prefix + name + ".")

    def parameter_dict(self) -> Dict[str, Tensor]:
        return dict(self.parameters())

    def zero_grad(self) -> None:
        for _, p in self.parameters():
            p.zero_grad()


class Linear(Module):
    """x @ w + b over the last axis: (m, in) -> (m, out), or (B, m, in) -> (B, m, out)."""

    def __init__(self, d_in: int, d_out: int, rng, zero_init: bool = False, bias: bool = True):
        self.w = Tensor(
            np.zeros((d_in, d_out)) if zero_init else trunc_normal(rng, (d_in, d_out)),
            requires_grad=True,
        )
        self.b = Tensor(np.zeros(d_out), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        y = dc.matmul(x, self.w)
        return dc.add_bias(y, self.b) if self.b is not None else y


class Mlp(Module):
    """Linear -> relu -> Linear."""

    def __init__(self, d_in: int, d_hidden: int, d_out: int, rng, zero_last: bool = False):
        self.fc1 = Linear(d_in, d_hidden, rng)
        self.fc2 = Linear(d_hidden, d_out, rng, zero_init=zero_last)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(dc.relu(self.fc1(x)))


class LayerNorm(Module):
    """Normalizes one axis (the last by default) of any rank; affine per feature."""

    def __init__(self, width: int, axis: int = -1):
        self.gamma = Tensor(np.ones(width), requires_grad=True)
        self.beta = Tensor(np.zeros(width), requires_grad=True)
        self.axis = axis

    def __call__(self, x: Tensor) -> Tensor:
        return dc.layer_norm(x, self.gamma, self.beta, axis=self.axis)


class Conv2d(Module):
    """k x k convolution of a channel-major (C, B, H, W) map, padded by k // 2 on each side."""

    def __init__(self, c_in, c_out, k, rng, stride=1, groups=1, zero_init=False):
        shape = (c_out, c_in // groups, k, k)
        self.w = Tensor(
            np.zeros(shape) if zero_init else trunc_normal(rng, shape), requires_grad=True
        )
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride, self.groups = stride, groups

    def __call__(self, x: Tensor) -> Tensor:
        return dc.conv2d(x, self.w, self.b, stride=self.stride, groups=self.groups)


class Conv1d(Module):
    """Stride-1, length-keeping convolution of a channel-major (C, B, T) map."""

    def __init__(self, c_in, c_out, k, rng, groups=1, zero_init=False):
        shape = (c_out, c_in // groups, k)
        self.w = Tensor(
            np.zeros(shape) if zero_init else trunc_normal(rng, shape), requires_grad=True
        )
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.groups = groups

    def __call__(self, x: Tensor) -> Tensor:
        return dc.conv1d(x, self.w, self.b, groups=self.groups)


class ChannelNorm2d(Module):
    """LayerNorm over the channel axis of a channel-major (C, B, H, W) map, per sample and position.

    Axis 0 is normalized where it lies, with no copy to channels-last.
    """

    def __init__(self, channels: int):
        self.ln = LayerNorm(channels, axis=0)

    def __call__(self, x: Tensor) -> Tensor:
        return self.ln(x)

