"""Parameter containers and the small layer vocabulary the network uses.

Modules register parameters and submodules by attribute assignment; the
parameters() walk yields dotted names in construction order, which is also
the documented rng draw order for initialization.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """N(0, std^2) draws clipped to two standard deviations."""
    return np.clip(rng.normal(0.0, std, size=shape), -2.0 * std, 2.0 * std)


class Module:
    def __setattr__(self, name, value):
        if isinstance(value, Tensor):
            self.__dict__.setdefault("_params", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        elif isinstance(value, (list, tuple)) and value and all(isinstance(m, Module) for m in value):
            for i, m in enumerate(value):
                self.__dict__.setdefault("_modules", {})["%s.%d" % (name, i)] = m
        object.__setattr__(self, name, value)

    def parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for name, p in self.__dict__.get("_params", {}).items():
            yield prefix + name, p
        for name, m in self.__dict__.get("_modules", {}).items():
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
    def __init__(self, c_in, c_out, k, rng, stride=1, padding=0, groups=1, zero_init=False):
        shape = (c_out, c_in // groups, k, k)
        self.w = Tensor(
            np.zeros(shape) if zero_init else trunc_normal(rng, shape), requires_grad=True
        )
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride, self.padding, self.groups = stride, padding, groups

    def __call__(self, x: Tensor) -> Tensor:
        return dc.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding, groups=self.groups)


class Conv1d(Module):
    def __init__(self, c_in, c_out, k, rng, stride=1, padding=0, groups=1, zero_init=False):
        shape = (c_out, c_in // groups, k)
        self.w = Tensor(
            np.zeros(shape) if zero_init else trunc_normal(rng, shape), requires_grad=True
        )
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.stride, self.padding, self.groups = stride, padding, groups

    def __call__(self, x: Tensor) -> Tensor:
        return dc.conv1d(x, self.w, self.b, stride=self.stride, padding=self.padding, groups=self.groups)


class ChannelNorm2d(Module):
    """LayerNorm over the channel axis of a channel-major (C, B, H, W) map, per sample and position.

    Axis 0 is normalized where it lies, with no copy to channels-last.
    """

    def __init__(self, channels: int):
        self.ln = LayerNorm(channels, axis=0)

    def __call__(self, x: Tensor) -> Tensor:
        return self.ln(x)

