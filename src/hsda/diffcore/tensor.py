"""Dense tensors and the recording tape for reverse-mode differentiation.

Tensors wrap a numpy array plus an optional gradient buffer. Operations in
:mod:`hsda.diffcore.ops` record themselves on the active tape; calling
:func:`backward` on a scalar output walks the tape in reverse, releasing it
as it goes, and accumulates gradients into every leaf that requires them.

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

    :func:`backward` populates ``grad`` on leaves only: tensors with
    ``requires_grad`` that no recorded op produced (parameters, inputs). An
    op's output points at its tape node instead, which holds its gradient
    only while backward passes it on. ``grad`` holds the array a backward
    rule returned, without a copy: replace a ``grad``, never mutate it.
    """

    __slots__ = ("values", "requires_grad", "grad", "_node")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        self.values = np.asarray(values, dtype=dtype if dtype is not None else default_dtype())
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

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
        if g.shape != self.shape:
            raise ShapeError("gradient shape %s does not match tensor shape %s" % (g.shape, self.shape))
        # Never in place: a backward rule may hand one array to several inputs.
        if self.grad is not None:
            g = self.grad + g
        self.grad = np.asarray(g, dtype=self.dtype)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(shape=%s, dtype=%s%s)" % (self.shape, self.values.dtype.name, flag)


class _Node:
    """One recorded op: its output's shape, dtype and gradient, and where that gradient goes.

    Per op input, ``inputs`` holds its producing node, a leaf Tensor, or None
    for a constant: the tape keeps only the values a backward rule captured.
    """

    __slots__ = ("inputs", "shape", "dtype", "backward_fn", "name", "grad")

    def __init__(self, inputs, output: Tensor, backward_fn, name):
        self.inputs = tuple(t._node or (t if t.requires_grad else None) for t in inputs)
        self.shape, self.dtype = output.shape, output.dtype
        self.backward_fn = backward_fn
        self.name = name
        self.grad: Optional[np.ndarray] = None

    accumulate_grad = Tensor.accumulate_grad


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
        output._node = _Node(inputs, output, backward_fn, name)
        self._nodes.append(output._node)

    def __len__(self):
        return len(self._nodes)


def active_tape() -> Optional[Tape]:
    stack = _tls().tape_stack
    return stack[-1] if stack else None


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every leaf the loss depends on.

    The loss must be scalar. Gradients sum at fan-out points. A backward rule
    may return None for an input that does not require a gradient, and skip
    computing it; such inputs get no ``grad``. Each node is popped and drops
    its closure, inputs and output gradient once used, so the graph is freed
    as it is walked; a second backward needs a fresh forward pass.
    """
    if loss.values.size != 1:
        raise ValueError("backward() needs a scalar loss, got shape %s" % (loss.shape,))
    (loss._node or loss).grad = np.ones_like(loss.values)
    nodes = tape._nodes
    while nodes:
        node = nodes.pop()
        g, fn, inputs = node.grad, node.backward_fn, node.inputs
        node.grad = node.backward_fn = node.inputs = None
        if g is not None:
            for inp, gi in zip(inputs, fn(g)):
                if gi is not None and inp is not None:
                    inp.accumulate_grad(gi)
