"""Dense tensors and the recording tape for reverse-mode differentiation.

Tensors wrap a numpy array plus an optional gradient buffer. Operations in
:mod:`hsda.diffcore.ops` record themselves on the active tape; calling
:func:`backward` on a scalar output walks the tape in reverse, releasing it
as it goes, and accumulates gradients into every leaf that requires them.
A tape made with an ``on_leaf`` callback hands each leaf to it as soon as
the leaf's gradient is final, so training can apply and drop each gradient
before the next one is complete.

Training runs in float32 by default; gradient checking switches to float64
via :func:`default_dtype` / :func:`using_dtype`.

The default dtype and the active tape are per process, not per thread: the
package starts no threads, and parallel work runs in separate processes.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


_dtype = np.dtype(np.float32)
_tape: Optional["Tape"] = None


def default_dtype() -> np.dtype:
    """Dtype given to tensors created without an explicit dtype."""
    return _dtype


@contextlib.contextmanager
def using_dtype(dtype):
    """Switch the default dtype for the block; gradient checks run in float64."""
    global _dtype
    saved, _dtype = _dtype, np.dtype(dtype)
    try:
        yield
    finally:
        _dtype = saved


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
    ``on_leaf``, if given, is called by :func:`backward` with each leaf an op
    took as input, once that leaf's gradient is final.
    """

    def __init__(self, on_leaf: Optional[Callable[[Tensor], None]] = None):
        self._nodes: list[_Node] = []
        self._outer: Optional[Tape] = None
        self.on_leaf = on_leaf

    def __enter__(self):
        global _tape
        self._outer, _tape = _tape, self
        return self

    def __exit__(self, *exc):
        global _tape
        if _tape is not self:
            raise RuntimeError("tape context exited out of order")
        _tape = self._outer
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
    return _tape


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every leaf the loss depends on.

    The loss must be scalar. Gradients sum at fan-out points. A backward rule
    may return None for an input that does not require a gradient, and skip
    computing it; such inputs get no ``grad``. Each node is popped and drops
    its closure, inputs and output gradient once used, so the graph is freed
    as it is walked; a second backward needs a fresh forward pass.

    With the tape's ``on_leaf`` set, each leaf an op took as input is passed
    to it right after the walk leaves the first node recorded with that leaf
    as input: every later node has been walked, so the leaf's gradient is
    final (None if no gradient reached it). No node walked after that point
    reads the leaf, so the callback may update the leaf's values in place.
    """
    if loss.values.size != 1:
        raise ValueError("backward() needs a scalar loss, got shape %s" % (loss.shape,))
    (loss._node or loss).grad = np.ones_like(loss.values)
    nodes, on_leaf = tape._nodes, tape.on_leaf
    final_at = _first_uses(nodes) if on_leaf is not None else {}
    while nodes:
        node = nodes.pop()
        g, fn, inputs = node.grad, node.backward_fn, node.inputs
        node.grad = node.backward_fn = node.inputs = None
        if g is not None:
            for inp, gi in zip(inputs, fn(g)):
                if gi is not None and inp is not None:
                    inp.accumulate_grad(gi)
        for leaf in final_at.pop(len(nodes), ()):
            on_leaf(leaf)


def _first_uses(nodes: Sequence[_Node]) -> dict:
    """{node index: leaves first taken as input by that node}, each leaf listed once."""
    seen, at = set(), {}
    for i, node in enumerate(nodes):
        for inp in node.inputs:
            if isinstance(inp, Tensor) and id(inp) not in seen:
                seen.add(id(inp))
                at.setdefault(i, []).append(inp)
    return at
