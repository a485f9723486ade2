"""Full classifier: dual embeddings, staged hybrid attention, pooled head.

Tokens start at width d (one image token plus one per signal channel). After
each of the first three stages the refinement modules summarize the shrinking
2D and 1D maps and every token grows by d_prime, so the four stages run at
widths d, d + d_prime, d + 2 d_prime, d + 3 d_prime. The last stage has no
transition. The head normalizes, averages the tokens, projects to the feature
vector f used by the template loss, and maps f to class logits.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor, make_rng
from ..errors import ConfigError
from .attention import HybridBlock
from .config import ModelConfig
from .embeddings import ImageStem, SignalEmbed
from .layers import LayerNorm, Linear, Module
from .multiscale import Rfm1d, Rfm2d, multiscale_concat


class HsdaNet(Module):
    def __init__(self, cfg: ModelConfig, seed: int):
        self.cfg = cfg
        rng = make_rng(seed, "init")
        self.stem = ImageStem(cfg, rng)
        self.signal_embed = SignalEmbed(cfg, rng)

        blocks = []
        for stage in range(1, cfg.stages + 1):
            width = cfg.stage_width(stage)
            for _ in range(cfg.blocks_per_stage):
                blocks.append(HybridBlock(width, cfg.heads, cfg.n_tokens, rng))
        self.blocks = blocks

        if cfg.use_multiscale:
            rfm2d, rfm1d = [], []
            hw, t_len = cfg.stem_map_size, cfg.signal_map_len
            for _ in range(cfg.stages - 1):
                rfm2d.append(Rfm2d(cfg.stem_channels, cfg.d_prime, hw, rng))
                hw = rfm2d[-1].out_hw
                rfm1d.append(
                    Rfm1d(cfg.signal_map_channels, cfg.n_channels, cfg.d_prime, t_len, rng)
                )
                t_len = rfm1d[-1].out_len
            self.rfm2d = rfm2d
            self.rfm1d = rfm1d

        final_width = cfg.stage_width(cfg.stages)
        self.head_norm = LayerNorm(final_width)
        # single affine layer: keeps f (and its gradients) at the norm's scale,
        # which the 1/|f| cosine pull of the template loss needs at init
        self.head_proj = Linear(final_width, cfg.d, rng)
        self.classifier = Linear(cfg.d, cfg.n_classes, rng)

    def __call__(
        self,
        images,
        signals,
        collect: Optional[list] = None,
    ) -> Tuple[Tensor, Tensor]:
        """Run a batch; returns (logits (B, n_classes), feature f (B, d)).

        images is (B, 3, S, S), or a sequence of B (3, S, S) arrays; signals
        is a sequence of B (n_channels, T_i) matrices whose lengths may
        differ. One (3, S, S) image with one (n_channels, T) signal is a
        batch of one.
        """
        cfg = self.cfg
        images = np.asarray(images)
        if images.ndim == 3:
            images, signals = images[None], [signals]
        if len(signals) != images.shape[0]:
            raise ConfigError("%d images but %d signals" % (images.shape[0], len(signals)))
        batch = images.shape[0]
        image_tokens, map2d = self.stem(Tensor(images))
        del images  # the stem's tape keeps what its backward needs, so the dense batch can go
        signal_tokens, map1d = self.signal_embed(signals)
        x = dc.concat([dc.reshape(image_tokens, (batch, 1, cfg.d)), signal_tokens], axis=1)

        for stage in range(1, cfg.stages + 1):
            base = (stage - 1) * cfg.blocks_per_stage
            for block in self.blocks[base : base + cfg.blocks_per_stage]:
                x = block(x, collect)
            if stage < cfg.stages and cfg.use_multiscale:
                map2d, z_prime = self.rfm2d[stage - 1](map2d)
                map1d, z_dprime = self.rfm1d[stage - 1](map1d)
                x = multiscale_concat(x, z_prime, z_dprime)

        pooled = dc.mean(self.head_norm(x), axis=1)  # (B, width)
        f = self.head_proj(pooled)
        logits = self.classifier(f)
        return logits, f
