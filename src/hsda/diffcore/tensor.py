"""Dense tensors and the recording tape for reverse-mode differentiation.

Tensors wrap a numpy array plus an optional gradient buffer. Operations in
:mod:`hsda.diffcore.ops` record themselves on the active tape; calling
:func:`backward` on a scalar output walks the tape in reverse and accumulates
gradients into every tensor that requires them.

Training runs in float32 by default; gradient checking switches to float64
via :func:`default_dtype` / :class:`using_dtype`.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


_state = threading.local()


def _tls():
    if not hasattr(_state, "tape_stack"):
        _state.tape_stack = []
        _state.dtype = np.float32
    return _state


def default_dtype() -> np.dtype:
    """Dtype given to tensors created without an explicit dtype."""
    return _tls().dtype


class using_dtype:
    """Context manager that temporarily switches the default dtype.

    Gradient checks run inside ``using_dtype(np.float64)``.
    """

    def __init__(self, dtype):
        self._dtype = np.dtype(dtype)

    def __enter__(self):
        tls = _tls()
        self._saved = tls.dtype
        tls.dtype = self._dtype
        return self

    def __exit__(self, *exc):
        _tls().dtype = self._saved
        return False


class Tensor:
    """Shape-tagged dense array that can participate in differentiation.

    ``grad`` is populated by :func:`backward` for every tensor with
    ``requires_grad`` set, leaves and intermediates alike. It holds the array
    a backward rule returned, without a copy, so one array may be the
    ``grad`` of several tensors: replace a ``grad``, never mutate it in place.
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        self.values = np.asarray(values, dtype=dtype if dtype is not None else default_dtype())
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self):
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    def item(self) -> float:
        if self.values.size != 1:
            raise ShapeError("item() needs a single-element tensor, got shape %s" % (self.shape,))
        return float(self.values.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.values.shape:
            raise ShapeError(
                "gradient shape %s does not match tensor shape %s" % (g.shape, self.values.shape)
            )
        # Never in place: a backward rule may hand one array to several inputs.
        if self.grad is not None:
            g = self.grad + g
        self.grad = np.asarray(g, dtype=self.values.dtype)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(shape=%s, dtype=%s%s)" % (self.shape, self.values.dtype.name, flag)


class _Node:
    __slots__ = ("inputs", "output", "backward_fn", "name")

    def __init__(self, inputs, output, backward_fn, name):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.name = name


class Tape:
    """Ordered record of executed primitives, replayed in reverse by backward().

    Use as a context manager; ops executed inside record themselves when any
    of their inputs requires a gradient. Nesting is allowed (innermost wins).
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        _tls().tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        stack = _tls().tape_stack
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape context exited out of order")
        stack.pop()
        return False

    def record(
        self,
        inputs: Sequence[Tensor],
        output: Tensor,
        backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
        name: str,
    ) -> None:
        self._nodes.append(_Node(tuple(inputs), output, backward_fn, name))

    def __len__(self):
        return len(self._nodes)

    def clear(self) -> None:
        self._nodes.clear()


def active_tape() -> Optional[Tape]:
    stack = _tls().tape_stack
    return stack[-1] if stack else None


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(tensor) into .grad of every recorded tensor.

    The loss must be scalar. Gradients sum at fan-out points. A backward rule
    may return None for an input that does not require a gradient, and skip
    computing it; such inputs get no ``grad``. The tape is cleared
    afterwards, so a second backward needs a fresh forward pass.
    """
    if loss.values.size != 1:
        raise ValueError("backward() needs a scalar loss, got shape %s" % (loss.shape,))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(tape._nodes):
        out_grad = node.output.grad
        if out_grad is None:
            continue
        grads = node.backward_fn(out_grad)
        for inp, g in zip(node.inputs, grads):
            if g is None or not inp.requires_grad:
                continue
            inp.accumulate_grad(g)
    tape.clear()
