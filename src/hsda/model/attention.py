"""Hybrid similarity/difference attention with gated mixing.

Each head computes two row-stochastic weight matrices over the token pairs:
similarity weights from scaled dot products plus a learned position bias, and
difference weights from the pairwise absolute feature differences aggregated
by parallel convolutions over the key axis (kernels 5/3/1, run as one 5-tap
convolution whose kernel adds the shorter ones onto its centre taps) and
reduced to a scalar logit per pair. A per-query-row scalar gate blends the
two, which keeps the blend row-stochastic, and the blended weights aggregate
the values.

Tokens are (n, width) for one sample or (B, n, width) for a batch; every
weight matrix then carries the same leading axes, (B, n, n) for a batch.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from .layers import Conv1d, LayerNorm, Linear, Mlp, Module

ENTROPY_FLOOR = 1e-12


def saw(q: Tensor, k: Tensor, bias: Tensor) -> Tensor:
    """Similarity attention weights: softmax_rows(q k^T / sqrt(d_h) + bias).

    q and k are (n, d_h) or a batch (B, n, d_h); the (n, n) bias is shared by
    every sample.
    """
    d_h = q.shape[-1]
    logits = dc.mul(dc.matmul(q, dc.transpose(k)), 1.0 / math.sqrt(d_h))
    return dc.softmax_rows(dc.add_bias(logits, bias))


class DiscrepancyNet(Module):
    """M_theta: pairwise |q_i - k_j| -> row-stochastic difference weights.

    The three convolutions slide over the key index with the feature axis as
    channels, aggregating 2-neighbor, 1-neighbor, and self discrepancy; their
    sum is reduced to one logit per (i, j) by a small perceptron.

    The three are centred and linear, so their sum is one 5-tap convolution
    (padding 2) with the bias b5 + b3 + b1 and the kernel w5 + w3 + w1, each
    shorter kernel added onto the centre taps by add_centered. Each call
    merges the kernels on the tape, so the six parameters of
    conv5/conv3/conv1 get their gradients through it. conv_keys runs the
    merged convolution on the (..., n_q, n_k, d_h) differences as they lie,
    keys along axis -2 and features last, so no transpose enters the tape.
    """

    def __init__(self, d_h: int, rng):
        self.conv5 = Conv1d(d_h, d_h, 5, rng, padding=2)
        self.conv3 = Conv1d(d_h, d_h, 3, rng, padding=1)
        self.conv1 = Conv1d(d_h, d_h, 1, rng)
        self.reduce = Mlp(d_h, d_h, 1, rng)

    def __call__(self, q: Tensor, k: Tensor) -> Tensor:
        """q (..., n_q, d_h) and k (..., n_k, d_h) -> weights (..., n_q, n_k)."""
        diff = dc.pairwise_absdiff(q, k)  # (..., n_q, n_k, d_h)
        kernel = dc.add_centered(dc.add_centered(self.conv5.w, self.conv3.w), self.conv1.w)
        bias = dc.add(dc.add(self.conv5.b, self.conv3.b), self.conv1.b)
        agg = dc.conv_keys(diff, kernel, bias)  # keys are the sequence axis, features the channels
        logits = dc.reshape(self.reduce(dc.reshape(agg, (-1, q.shape[-1]))), diff.shape[:-1])
        return dc.softmax_rows(logits)


def _row_stats(w: Tensor) -> List[Tensor]:
    entropy = dc.neg(
        dc.sum_(dc.mul(w, dc.log(dc.clamp_min(w, ENTROPY_FLOOR))), axis=-1, keepdims=True)
    )
    return [
        dc.mean(w, axis=-1, keepdims=True),
        dc.max_(w, axis=-1, keepdims=True),
        entropy,
    ]


class GatingMix(Module):
    """Blend two row-stochastic matrices with a per-row learned gate.

    The gate sees six summary statistics per query row (mean, max, entropy of
    each weight row) and stays strictly inside (0, 1) through the sigmoid, so
    every blended row remains a convex combination.
    """

    def __init__(self, rng):
        self.gate = Linear(6, 1, rng)

    def __call__(self, saw_m: Tensor, daw_m: Tensor):
        stats = dc.concat(_row_stats(saw_m) + _row_stats(daw_m), axis=-1)  # (..., n, 6)
        g = dc.sigmoid(self.gate(stats))  # (..., n, 1)
        mix = dc.add(dc.scale_rows(saw_m, g), dc.scale_rows(daw_m, dc.sub(1.0, g)))
        return mix, g


class AttentionHead(Module):
    def __init__(self, width: int, d_h: int, n_tokens: int, rng):
        self.wq = Linear(width, d_h, rng, bias=False)
        self.wk = Linear(width, d_h, rng, bias=False)
        self.wv = Linear(width, d_h, rng, bias=False)
        self.bias = Tensor(np.zeros((n_tokens, n_tokens)), requires_grad=True)
        self.daw = DiscrepancyNet(d_h, rng)
        self.mixer = GatingMix(rng)

    def __call__(self, x: Tensor, collect: Optional[list] = None) -> Tensor:
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        saw_m = saw(q, k, self.bias)
        daw_m = self.daw(q, k)
        mix, g = self.mixer(saw_m, daw_m)
        if collect is not None:
            collect.append({"saw": saw_m, "daw": daw_m, "mix": mix, "gate": g})
        return dc.matmul(mix, v)


class HybridBlock(Module):
    """Pre-norm residual block: gated hybrid attention then a 4x FFN.

    The attention output projection and the FFN's second layer start at zero,
    so a freshly initialized block is the identity map.
    """

    def __init__(self, width: int, heads: int, n_tokens: int, rng):
        if width % heads != 0:
            raise ValueError("width %d not divisible by %d heads" % (width, heads))
        d_h = width // heads
        self.ln1 = LayerNorm(width)
        self.heads = [AttentionHead(width, d_h, n_tokens, rng) for _ in range(heads)]
        self.proj = Linear(width, width, rng, zero_init=True)
        self.ln2 = LayerNorm(width)
        self.ffn = Mlp(width, 4 * width, width, rng, zero_last=True)

    def __call__(self, x: Tensor, collect: Optional[list] = None) -> Tensor:
        h = self.ln1(x)
        head_outs = [head(h, collect) for head in self.heads]
        attn = self.proj(dc.concat(head_outs, axis=-1))
        y = dc.add(x, attn)
        return dc.add(y, self.ffn(self.ln2(y)))
