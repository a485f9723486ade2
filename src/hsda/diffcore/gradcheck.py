"""Finite-difference verification of tape gradients.

check_parameter_gradients takes one analytic backward pass and compares a
random sample of coordinates per parameter against central differences, which
keeps composed models fast to check. grad_check is its exhaustive case for one
input: every coordinate, exact comparison even near zero. primitive_checks
runs grad_check over the whole op inventory at small random batched shapes.

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
# Each entry builds small random inputs bounded away from the op's
# nondifferentiable points (kinks of relu/abs/max, the clamp boundary, ties
# in argmax) and checks the gradient with respect to each tensor input.


def _weights(rng: np.random.Generator, op: Callable[[Tensor], Tensor], x0: np.ndarray) -> np.ndarray:
    probe = op(Tensor(np.array(x0, dtype=np.float64)))
    return rng.normal(size=probe.shape)


def _scalar(op: Callable[[Tensor], Tensor], w: np.ndarray) -> Callable[[Tensor], Tensor]:
    def f(x: Tensor) -> Tensor:
        return ops.sum_(ops.mul(op(x), Tensor(w, dtype=np.float64)))

    return f


def _away_from_zero(v: np.ndarray, margin: float = 0.15) -> np.ndarray:
    return v + np.sign(v) * margin + (v == 0) * margin


def _distinct(rng: np.random.Generator, shape) -> np.ndarray:
    n = int(np.prod(shape))
    return (rng.permutation(n).astype(np.float64) * 0.37 - n * 0.2).reshape(shape)


def primitive_checks(seed: int = 0) -> List[Tuple[str, float]]:
    """grad_check every differentiable primitive; returns (name, max rel err)."""
    rng = make_rng(seed, "check")
    results: List[Tuple[str, float]] = []

    def run(name: str, op: Callable[[Tensor], Tensor], x0: np.ndarray) -> None:
        w = _weights(rng, op, x0)
        results.append((name, grad_check(_scalar(op, w), Tensor(x0))))

    m34 = rng.normal(size=(3, 4))
    m34b = rng.normal(size=(3, 4))

    run("add:lhs", lambda x: ops.add(x, Tensor(m34b)), m34)
    run("add:rhs", lambda x: ops.add(Tensor(m34b), x), m34)
    run("add:scalar", lambda x: ops.add(x, 1.5), m34)
    run("sub:lhs", lambda x: ops.sub(x, Tensor(m34b)), m34)
    run("sub:rhs", lambda x: ops.sub(Tensor(m34b), x), m34)
    run("mul:lhs", lambda x: ops.mul(x, Tensor(m34b)), m34)
    run("mul:rhs", lambda x: ops.mul(Tensor(m34b), x), m34)
    run("mul:scalar", lambda x: ops.mul(x, -0.7), m34)
    run("neg", ops.neg, m34)
    run("sigmoid", ops.sigmoid, 3.0 * rng.normal(size=(3, 4)))
    run("relu", ops.relu, _away_from_zero(rng.normal(size=(3, 4))))
    run("log", ops.log, rng.uniform(0.5, 2.0, size=(3, 4)))
    run("clamp_min", lambda x: ops.clamp_min(x, 0.0), _away_from_zero(rng.normal(size=(3, 4))))

    run("sum:all", lambda x: ops.sum_(x), m34)
    run("sum:axis0", lambda x: ops.sum_(x, axis=0), m34)
    run("sum:axis1-keep", lambda x: ops.sum_(x, axis=1, keepdims=True), m34)
    run("mean:all", lambda x: ops.mean(x), m34)
    run("mean:axis1", lambda x: ops.mean(x, axis=1), m34)
    run("max:axis1", lambda x: ops.max_(x, axis=1), _distinct(rng, (3, 4)))
    run("max:axis0-keep", lambda x: ops.max_(x, axis=0, keepdims=True), _distinct(rng, (3, 4)))

    b234 = rng.normal(size=(2, 3, 4))

    run("reshape", lambda x: ops.reshape(x, (4, 3)), m34)
    run("flatten", ops.flatten, rng.normal(size=(2, 3, 4)))
    run("permute", lambda x: ops.permute(x, (2, 0, 1)), rng.normal(size=(2, 3, 4)))
    run("transpose", ops.transpose, m34)
    run("transpose:batched", ops.transpose, b234)
    run("concat:first", lambda x: ops.concat([x, Tensor(m34b)], axis=1), m34)
    run("concat:second", lambda x: ops.concat([Tensor(m34b), x], axis=0), m34)

    mm_r = rng.normal(size=(4, 2))
    mm_l = rng.normal(size=(2, 3))
    run("matmul:lhs", lambda x: ops.matmul(x, Tensor(mm_r)), m34)
    run("matmul:rhs", lambda x: ops.matmul(Tensor(mm_l), x), m34)
    run("matmul:batched-lhs", lambda x: ops.matmul(x, Tensor(mm_r)), b234)
    run("matmul:batched-rhs", lambda x: ops.matmul(Tensor(b234), x), mm_r)
    mm_p = rng.normal(size=(2, 4, 2))
    run("matmul:paired-lhs", lambda x: ops.matmul(x, Tensor(mm_p)), b234)
    run("matmul:paired-rhs", lambda x: ops.matmul(Tensor(b234), x), mm_p)
    bias = rng.normal(size=4)
    run("add_bias:mat", lambda x: ops.add_bias(x, Tensor(bias)), m34)
    run("add_bias:vec", lambda x: ops.add_bias(Tensor(m34), x), bias)
    run("add_bias:batched-x", lambda x: ops.add_bias(x, Tensor(bias)), b234)
    run("add_bias:batched-vec", lambda x: ops.add_bias(Tensor(b234), x), bias)
    run("add_bias:batched-mat", lambda x: ops.add_bias(Tensor(b234), x), m34b)
    scales = rng.normal(size=(3, 1))
    run("scale_rows:mat", lambda x: ops.scale_rows(x, Tensor(scales)), m34)
    run("scale_rows:s", lambda x: ops.scale_rows(Tensor(m34), x), scales)
    b_scales = rng.normal(size=(2, 3, 1))
    run("scale_rows:batched-mat", lambda x: ops.scale_rows(x, Tensor(b_scales)), b234)
    run("scale_rows:batched-s", lambda x: ops.scale_rows(Tensor(b234), x), b_scales)

    q0 = _distinct(rng, (3, 5))
    k0 = _distinct(rng, (4, 5)) + 0.11
    run("pairwise_absdiff:q", lambda x: ops.pairwise_absdiff(x, Tensor(k0)), q0)
    run("pairwise_absdiff:k", lambda x: ops.pairwise_absdiff(Tensor(q0), x), k0)
    bq0 = _distinct(rng, (2, 3, 5))
    bk0 = _distinct(rng, (2, 4, 5)) + 0.11
    run("pairwise_absdiff:batched-q", lambda x: ops.pairwise_absdiff(x, Tensor(bk0)), bq0)
    run("pairwise_absdiff:batched-k", lambda x: ops.pairwise_absdiff(Tensor(bq0), x), bk0)

    run("softmax_rows", ops.softmax_rows, 2.0 * rng.normal(size=(3, 5)))
    run("softmax_rows:batched", ops.softmax_rows, 2.0 * rng.normal(size=(2, 3, 5)))
    gam = rng.uniform(0.5, 1.5, size=5)
    bet = rng.normal(size=5)
    ln_x = rng.normal(size=(3, 5))
    run("layer_norm:x", lambda x: ops.layer_norm(x, Tensor(gam), Tensor(bet)), ln_x)
    run("layer_norm:gamma", lambda x: ops.layer_norm(Tensor(ln_x), x, Tensor(bet)), gam)
    run("layer_norm:beta", lambda x: ops.layer_norm(Tensor(ln_x), Tensor(gam), x), bet)
    ln_map = rng.normal(size=(2, 5, 3, 2))
    run("layer_norm:axis1-x", lambda x: ops.layer_norm(x, Tensor(gam), Tensor(bet), axis=1), ln_map)
    run("layer_norm:axis1-gamma", lambda x: ops.layer_norm(Tensor(ln_map), x, Tensor(bet), axis=1), gam)
    run("layer_norm:axis1-beta", lambda x: ops.layer_norm(Tensor(ln_map), Tensor(gam), x, axis=1), bet)

    v0 = rng.normal(size=(3, 6)) + 0.3
    v1 = rng.normal(size=(3, 6)) - 0.2
    run("cosine_rows:a", lambda x: ops.cosine_rows(x, Tensor(v1)), v0)
    run("cosine_rows:b", lambda x: ops.cosine_rows(Tensor(v0), x), v1)

    run("max_pool1d", lambda x: ops.adaptive_max_pool1d(x, 3), _distinct(rng, (2, 2, 7)))

    # convolutions take and return channel-major maps, (C, B, *S)
    w1 = rng.normal(size=(3, 2, 3)) * 0.5
    b1 = rng.normal(size=3)
    x1 = rng.normal(size=(2, 2, 8))
    run("conv1d:x", lambda x: ops.conv1d(x, Tensor(w1), Tensor(b1), stride=1), x1)
    run("conv1d:w", lambda w: ops.conv1d(Tensor(x1), w, Tensor(b1), stride=1), w1)
    run("conv1d:b", lambda b: ops.conv1d(Tensor(x1), Tensor(w1), b, stride=1), b1)
    run("conv1d:stride2", lambda x: ops.conv1d(x, Tensor(w1), None, stride=2), rng.normal(size=(2, 2, 9)))
    wdw = rng.normal(size=(4, 1, 3)) * 0.5
    run(
        "conv1d:depthwise",
        lambda x: ops.conv1d(x, Tensor(wdw), None, stride=1, groups=4),
        rng.normal(size=(4, 2, 6)),
    )
    wg1 = rng.normal(size=(6, 2, 3)) * 0.5
    xg1 = rng.normal(size=(4, 2, 7))
    run("conv1d:grouped-x", lambda x: ops.conv1d(x, Tensor(wg1), None, stride=2, groups=2), xg1)
    run("conv1d:grouped-w", lambda w: ops.conv1d(Tensor(xg1), w, None, stride=2, groups=2), wg1)

    w2 = rng.normal(size=(3, 2, 3, 3)) * 0.5
    b2 = rng.normal(size=3)
    x2 = rng.normal(size=(2, 2, 6, 6))
    run("conv2d:x", lambda x: ops.conv2d(x, Tensor(w2), Tensor(b2), stride=1), x2)
    run("conv2d:w", lambda w: ops.conv2d(Tensor(x2), w, Tensor(b2), stride=1), w2)
    run("conv2d:b", lambda b: ops.conv2d(Tensor(x2), Tensor(w2), b, stride=1), b2)
    run("conv2d:stride2", lambda x: ops.conv2d(x, Tensor(w2), None, stride=2), rng.normal(size=(2, 2, 7, 7)))
    wdw2 = rng.normal(size=(4, 1, 3, 3)) * 0.5
    run(
        "conv2d:depthwise",
        lambda x: ops.conv2d(x, Tensor(wdw2), None, stride=1, groups=4),
        rng.normal(size=(4, 2, 5, 5)),
    )
    w11 = rng.normal(size=(5, 4, 1, 1)) * 0.5
    run("conv2d:pointwise", lambda x: ops.conv2d(x, Tensor(w11), None), rng.normal(size=(4, 2, 5, 5)))
    wg2 = rng.normal(size=(4, 2, 3, 3)) * 0.5
    xg2 = rng.normal(size=(4, 2, 4, 4))
    run("conv2d:grouped-x", lambda x: ops.conv2d(x, Tensor(wg2), None, groups=2), xg2)
    run("conv2d:grouped-w", lambda w: ops.conv2d(Tensor(xg2), w, None, groups=2), wg2)

    k5 = rng.normal(size=(3, 2, 5))
    k3 = rng.normal(size=(3, 2, 3))
    run("add_centered:a", lambda x: ops.add_centered(x, Tensor(k3)), k5)
    run("add_centered:b", lambda x: ops.add_centered(Tensor(k5), x), k3)
    run("add_centered:1-tap", lambda x: ops.add_centered(Tensor(k5), x), rng.normal(size=(3, 2, 1)))

    xk = rng.normal(size=(2, 3, 5, 4))  # (B, n_q, n_k, C_in)
    wk = rng.normal(size=(3, 4, 5)) * 0.5
    bk = rng.normal(size=3)
    run("conv_keys:x", lambda x: ops.conv_keys(x, Tensor(wk), Tensor(bk)), xk)
    run("conv_keys:w", lambda w: ops.conv_keys(Tensor(xk), w, Tensor(bk)), wk)
    run("conv_keys:b", lambda b: ops.conv_keys(Tensor(xk), Tensor(wk), b), bk)
    ln_cm = rng.normal(size=(5, 2, 3, 2))
    run("layer_norm:axis0-x", lambda x: ops.layer_norm(x, Tensor(gam), Tensor(bet), axis=0), ln_cm)
    run("layer_norm:axis0-gamma", lambda x: ops.layer_norm(Tensor(ln_cm), x, Tensor(bet), axis=0), gam)
    run("layer_norm:axis0-beta", lambda x: ops.layer_norm(Tensor(ln_cm), Tensor(gam), x, axis=0), bet)

    return results
