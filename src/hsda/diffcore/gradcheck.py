"""Finite-difference verification of tape gradients.

check_parameter_gradients takes one analytic backward pass and compares a
random sample of coordinates per parameter against central differences, which
keeps composed models fast to check. grad_check is its exhaustive case for one
input: every coordinate, exact comparison even near zero. primitive_checks
runs that exhaustive case over the whole op inventory at small random batched
shapes, one entry per call of a primitive, checking every input of the call
from the same backward pass.

All checks run at 64-bit regardless of the ambient default dtype; the
comparison is |a - n| / max(|a|, |n|, 1e-8).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import ops
from .rng import make_rng
from .tensor import Tape, Tensor, backward, using_dtype

EPS = 1e-5  # central-difference step


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def _central_difference(f: Callable[[], Tensor], flat: np.ndarray, i: int) -> float:
    """(f() at flat[i] + EPS minus f() at flat[i] - EPS) / (2 EPS); flat[i] is restored."""
    orig = flat[i]
    flat[i] = orig + EPS
    fp = f().item()
    flat[i] = orig - EPS
    fm = f().item()
    flat[i] = orig
    return (fp - fm) / (2.0 * EPS)


def grad_check(f: Callable[[Tensor], Tensor], x) -> float:
    """Max relative error of the tape gradient of scalar f at x.

    f must be deterministic and return a single-element tensor. Every
    coordinate of x is perturbed by +/-EPS, so keep x small.
    """
    xt = Tensor(np.copy(x.values if isinstance(x, Tensor) else x), requires_grad=True, dtype=np.float64)
    errs = check_parameter_gradients(lambda: f(xt), {"x": xt}, samples_per_param=xt.size, zero_atol=0.0)
    return errs["x"]


def check_parameter_gradients(
    loss_fn: Callable[[], Tensor],
    params: Dict[str, Tensor],
    samples_per_param: int = 8,
    rng: Optional[np.random.Generator] = None,
    zero_atol: float = 1e-6,
) -> Dict[str, float]:
    """Spot-check tape gradients of a composed model against central differences.

    loss_fn recomputes the scalar loss from the current parameter values. One
    taped backward supplies analytic gradients for all parameters; then up to
    samples_per_param coordinates of each parameter are perturbed in place.
    Returns per-parameter max relative error over the sampled coordinates;
    a NaN or infinite gradient on either side makes that error NaN, which
    fails every `err < tol` test.

    Coordinates where both sides are below zero_atol count as exact agreement:
    central differences bottom out at ulp(loss) / (2 EPS), so such pairs are
    roundoff noise, not evidence. Softmax row shifts make mathematically zero
    gradients with nonzero bitwise effect common in attention stacks.
    """
    if rng is None:
        rng = make_rng(0, "check")
    with using_dtype(np.float64):
        for t in params.values():
            t.zero_grad()
        with Tape() as tape:
            loss = loss_fn()
        backward(loss, tape)
        analytic = {
            name: (np.zeros_like(t.values) if t.grad is None else t.grad.copy())
            for name, t in params.items()
        }

        report: Dict[str, float] = {}
        for name, t in params.items():
            flat = t.values.reshape(-1)
            n = flat.size
            if n <= samples_per_param:
                idx = np.arange(n)
            else:
                idx = rng.choice(n, size=samples_per_param, replace=False)
            a = analytic[name].reshape(-1)
            errs = [0.0]
            for i in idx:
                numeric = _central_difference(loss_fn, flat, i)
                if abs(a[i]) < zero_atol and abs(numeric) < zero_atol:
                    continue
                errs.append(_rel_err(np.asarray(a[i]), np.asarray(numeric)))
            report[name] = float(np.max(errs))  # np.max keeps a NaN error; builtin max may drop it
        return report


# ---------------------------------------------------------------------------
# primitive inventory
#
# One entry per call of a primitive: run checks the gradient with respect to
# every tensor input of that call at once. Inputs are small random arrays
# bounded away from the op's nondifferentiable points (kinks of relu/abs/max,
# the clamp boundary, ties in argmax). A constant operand is built inside the
# call, where the check's 64-bit default applies.


def _away_from_zero(v: np.ndarray, margin: float = 0.15) -> np.ndarray:
    return v + np.sign(v) * margin + (v == 0) * margin


def _distinct(rng: np.random.Generator, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * 0.37 - n * 0.2).reshape(shape)


def primitive_checks(seed: int = 0) -> List[Tuple[str, float]]:
    """Check every differentiable primitive exhaustively; returns (name, max rel err) per checked input."""
    rng = make_rng(seed, "check")
    results: List[Tuple[str, float]] = []

    def run(name: str, op: Callable[..., Tensor], **inputs: np.ndarray) -> None:
        """Check op(*inputs) against each input: name:input, name-input if name is a variant, name if one input."""
        with using_dtype(np.float64):
            leaves = {key: Tensor(np.array(v), requires_grad=True) for key, v in inputs.items()}
            w = Tensor(rng.normal(size=op(*leaves.values()).shape))
        errs = check_parameter_gradients(
            lambda: ops.sum_(ops.mul(op(*leaves.values()), w)),
            leaves,
            samples_per_param=max(t.size for t in leaves.values()),
            zero_atol=0.0,
        )
        sep = "-" if ":" in name else ":"
        results.extend((name if len(errs) == 1 else name + sep + key, err) for key, err in errs.items())

    m34 = rng.normal(size=(3, 4))
    m34b = rng.normal(size=(3, 4))

    run("add", ops.add, lhs=m34, rhs=m34b)
    run("add:scalar", lambda x: ops.add(x, 1.5), x=m34)
    run("sub", ops.sub, lhs=m34, rhs=m34b)
    run("mul", ops.mul, lhs=m34, rhs=m34b)
    run("mul:scalar", lambda x: ops.mul(x, -0.7), x=m34)
    run("neg", ops.neg, x=m34)
    run("sigmoid", ops.sigmoid, x=3.0 * rng.normal(size=(3, 4)))
    run("relu", ops.relu, x=_away_from_zero(rng.normal(size=(3, 4))))
    run("log", ops.log, x=rng.uniform(0.5, 2.0, size=(3, 4)))
    run("clamp_min", lambda x: ops.clamp_min(x, 0.0), x=_away_from_zero(rng.normal(size=(3, 4))))

    run("sum:all", ops.sum_, x=m34)
    run("sum:axis0", lambda x: ops.sum_(x, axis=0), x=m34)
    run("sum:axis1-keep", lambda x: ops.sum_(x, axis=1, keepdims=True), x=m34)
    run("mean:all", ops.mean, x=m34)
    run("mean:axis1", lambda x: ops.mean(x, axis=1), x=m34)
    run("max:axis1", lambda x: ops.max_(x, axis=1), x=_distinct(rng, (3, 4)))
    run("max:axis0-keep", lambda x: ops.max_(x, axis=0, keepdims=True), x=_distinct(rng, (3, 4)))

    b234 = rng.normal(size=(2, 3, 4))

    run("reshape", lambda x: ops.reshape(x, (4, 3)), x=m34)
    run("flatten", ops.flatten, x=rng.normal(size=(2, 3, 4)))
    run("permute", lambda x: ops.permute(x, (2, 0, 1)), x=rng.normal(size=(2, 3, 4)))
    run("transpose", ops.transpose, x=m34)
    run("transpose:batched", ops.transpose, x=b234)
    # unequal widths, so a split at the wrong offset or along the wrong axis shows
    run("concat", lambda first, second: ops.concat([first, second], axis=1), first=m34, second=rng.normal(size=(3, 2)))

    mm_r = rng.normal(size=(4, 2))
    run("matmul", ops.matmul, lhs=m34, rhs=mm_r)
    run("matmul:batched", ops.matmul, lhs=b234, rhs=mm_r)
    run("matmul:paired", ops.matmul, lhs=b234, rhs=rng.normal(size=(2, 4, 2)))
    bias = rng.normal(size=4)
    run("add_bias", ops.add_bias, mat=m34, vec=bias)
    run("add_bias:batched", ops.add_bias, x=b234, vec=bias)
    run("add_bias:batched-mat", lambda mat: ops.add_bias(Tensor(b234), mat), mat=m34b)
    run("scale_rows", ops.scale_rows, mat=m34, s=rng.normal(size=(3, 1)))
    run("scale_rows:batched", ops.scale_rows, mat=b234, s=rng.normal(size=(2, 3, 1)))

    run("softmax_rows", ops.softmax_rows, x=2.0 * rng.normal(size=(3, 5)))
    run("softmax_rows:batched", ops.softmax_rows, x=2.0 * rng.normal(size=(2, 3, 5)))
    gam = rng.uniform(0.5, 1.5, size=5)
    bet = rng.normal(size=5)
    run("layer_norm", ops.layer_norm, x=rng.normal(size=(3, 5)), gamma=gam, beta=bet)
    ln_map = rng.normal(size=(2, 5, 3, 2))
    run("layer_norm:axis1", lambda x, g, b: ops.layer_norm(x, g, b, axis=1), x=ln_map, gamma=gam, beta=bet)
    run("cosine_rows", ops.cosine_rows, a=rng.normal(size=(3, 6)) + 0.3, b=rng.normal(size=(3, 6)) - 0.2)

    run("max_pool1d", lambda x: ops.adaptive_max_pool1d(x, 3), x=_distinct(rng, (2, 2, 7)))

    # convolutions take and return channel-major maps, (C, B, *S)
    w1 = rng.normal(size=(3, 2, 3)) * 0.5
    run("conv1d", ops.conv1d, x=rng.normal(size=(2, 2, 8)), w=w1, b=rng.normal(size=3))
    run("conv1d:stride2", lambda x: ops.conv1d(x, Tensor(w1), None, stride=2), x=rng.normal(size=(2, 2, 9)))
    wdw = rng.normal(size=(4, 1, 3)) * 0.5
    run("conv1d:depthwise", lambda x: ops.conv1d(x, Tensor(wdw), None, groups=4), x=rng.normal(size=(4, 2, 6)))
    wg1 = rng.normal(size=(6, 2, 3)) * 0.5
    run("conv1d:grouped", lambda x, w: ops.conv1d(x, w, None, stride=2, groups=2), x=rng.normal(size=(4, 2, 7)), w=wg1)

    w2 = rng.normal(size=(3, 2, 3, 3)) * 0.5
    run("conv2d", ops.conv2d, x=rng.normal(size=(2, 2, 6, 6)), w=w2, b=rng.normal(size=3))
    run("conv2d:stride2", lambda x: ops.conv2d(x, Tensor(w2), None, stride=2), x=rng.normal(size=(2, 2, 7, 7)))
    wdw2 = rng.normal(size=(4, 1, 3, 3)) * 0.5
    run("conv2d:depthwise", lambda x: ops.conv2d(x, Tensor(wdw2), None, groups=4), x=rng.normal(size=(4, 2, 5, 5)))
    w11 = rng.normal(size=(5, 4, 1, 1)) * 0.5
    run("conv2d:pointwise", lambda x: ops.conv2d(x, Tensor(w11)), x=rng.normal(size=(4, 2, 5, 5)))
    wg2 = rng.normal(size=(4, 2, 3, 3)) * 0.5
    run("conv2d:grouped", lambda x, w: ops.conv2d(x, w, None, groups=2), x=rng.normal(size=(4, 2, 4, 4)), w=wg2)

    kernels = {"w%d" % t: rng.normal(size=(3, 4, t)) * 0.5 for t in (5, 3, 1)}
    biases = {"b%d" % t: rng.normal(size=3) for t in (5, 3, 1)}
    run("key_difference_conv", lambda q, k, *p: ops.key_difference_conv(q, k, p[:3], p[3:]),
        q=_distinct(rng, (2, 3, 4)), k=_distinct(rng, (2, 5, 4)) + 0.11, **kernels, **biases)
    ln_cm = rng.normal(size=(5, 2, 3, 2))
    run("layer_norm:axis0", lambda x, g, b: ops.layer_norm(x, g, b, axis=0), x=ln_cm, gamma=gam, beta=bet)

    return results
