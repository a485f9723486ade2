"""Refinement modules that shrink the retained maps between stages.

Each stage transition halves the 2D map (strided conv) and the 1D map
(adaptive max pool), refines the result with a residual
pointwise/depthwise/pointwise branch, and summarizes the refined map into
narrow tokens that are concatenated onto every attention token's feature
axis. The branch has no activations and its last projection starts at zero,
so a fresh module passes the pooled map through unchanged.
"""

from __future__ import annotations

from typing import Tuple

from .. import diffcore as dc
from ..diffcore import Tensor
from .layers import Conv1d, Conv2d, Mlp, Module


def _halved(n: int) -> int:
    # k=3, stride 2, pad 1 output size; 1 is a fixed point, never drops below.
    return (n - 1) // 2 + 1


class Rfm2d(Module):
    def __init__(self, channels: int, d_prime: int, in_hw: int, rng):
        self.pool = Conv2d(channels, channels, 3, rng, stride=2)
        self.pw1 = Conv2d(channels, channels, 1, rng)
        self.dw = Conv2d(channels, channels, 3, rng, groups=channels)
        self.pw2 = Conv2d(channels, channels, 1, rng, zero_init=True)
        self.out_hw = _halved(in_hw)
        self.summary = Mlp(channels * self.out_hw * self.out_hw, d_prime, d_prime, rng)

    def __call__(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Channel-major (C, B, h, w) map -> refined (C, B, h', w') map and summary z' (B, d_prime)."""
        y = self.pool(x)
        refined = dc.add(y, self.pw2(self.dw(self.pw1(y))))
        z_prime = self.summary(dc.flatten(dc.permute(refined, (1, 0, 2, 3))))
        return refined, z_prime


class Rfm1d(Module):
    def __init__(self, channels: int, n_signal_tokens: int, d_prime: int, in_len: int, rng):
        self.out_len = max(1, in_len // 2)
        self.pw1 = Conv1d(channels, channels, 1, rng)
        self.dw = Conv1d(channels, channels, 3, rng, groups=channels)
        self.pw2 = Conv1d(channels, channels, 1, rng, zero_init=True)
        self.n_signal_tokens = n_signal_tokens
        self.d_prime = d_prime
        self.summary = Mlp(channels * self.out_len, d_prime, n_signal_tokens * d_prime, rng)

    def __call__(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Channel-major (C, B, T) map -> refined (C, B, T') map and summaries z'' (B, n, d_prime)."""
        y = dc.adaptive_max_pool1d(x, self.out_len)
        refined = dc.add(y, self.pw2(self.dw(self.pw1(y))))
        flat_summary = self.summary(dc.flatten(dc.permute(refined, (1, 0, 2))))  # (B, n * d_prime)
        z_dprime = dc.reshape(flat_summary, (x.shape[1], self.n_signal_tokens, self.d_prime))
        return refined, z_dprime


def multiscale_concat(tokens: Tensor, z_prime: Tensor, z_dprime: Tensor) -> Tensor:
    """Widen every token by d_prime: image token gets z', signal tokens z''.

    tokens (B, n, w), z' (B, d_prime), z'' (B, n - 1, d_prime) -> (B, n, w + d_prime).
    """
    batch = tokens.shape[0]
    if z_prime.values.ndim != 2 or z_prime.shape[0] != batch:
        raise dc.ShapeError("z' must be one row per sample, got %s for %d samples" % (z_prime.shape, batch))
    if z_dprime.values.ndim != 3 or z_dprime.shape[0] != batch or z_prime.shape[1] != z_dprime.shape[2]:
        raise dc.ShapeError(
            "summaries do not match: z' %s vs z'' %s" % (z_prime.shape, z_dprime.shape)
        )
    if tokens.shape[1] != 1 + z_dprime.shape[1]:
        raise dc.ShapeError(
            "token count %d does not match 1 + %d summaries"
            % (tokens.shape[1], z_dprime.shape[1])
        )
    z_image = dc.reshape(z_prime, (batch, 1, z_prime.shape[1]))
    widening = dc.concat([z_image, z_dprime], axis=1)  # (B, n, d_prime)
    return dc.concat([tokens, widening], axis=2)
