"""Embeddings that turn the two input views into attention tokens.

The rendered image passes through a small convolutional stem (three stride-2
convolutions then one stride-1, each with a channel norm and ReLU) whose
flattened map a two-layer perceptron compresses into a single image token.
The kinematic signal matrix is average-pooled per channel, lifted by two
normalized fully connected layers, and projected per channel into one token
each; a pointwise convolution over the channel axis also produces the pooled
1D map that the refinement path keeps shrinking. The pool has no parameters
and the raw signals need no gradient, so it is plain numpy, off the tape.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .. import diffcore as dc
from ..diffcore import Tensor
from ..diffcore.ops import _pool_bins
from ..errors import ConfigError
from .config import ModelConfig
from .layers import ChannelNorm2d, Conv1d, Conv2d, LayerNorm, Linear, Mlp, Module


def pool_signal(signal, out_len: int) -> np.ndarray:
    """Average each row of a (C, T) signal into out_len bins, in the default dtype.

    Bins may overlap (T not a multiple of out_len) or repeat a sample
    (T < out_len); each one is summed by one reduceat segment.
    """
    x = np.asarray(signal, dtype=dc.default_dtype())
    starts, ends = _pool_bins(x.shape[1], out_len)
    # segment i*2 is [start_i, end_i); a zero column keeps end = T a valid index
    padded = np.concatenate([x, np.zeros((x.shape[0], 1), dtype=x.dtype)], axis=1)
    bounds = np.stack([starts, ends], axis=1).reshape(-1)
    return np.add.reduceat(padded, bounds, axis=1)[:, ::2] / (ends - starts).astype(x.dtype)


class ImageStem(Module):
    def __init__(self, cfg: ModelConfig, rng):
        c_full = cfg.stem_channels
        c_quarter = max(1, c_full // 4)
        c_half = max(1, c_full // 2)
        self.conv1 = Conv2d(3, c_quarter, 3, rng, stride=2)
        self.norm1 = ChannelNorm2d(c_quarter)
        self.conv2 = Conv2d(c_quarter, c_half, 3, rng, stride=2)
        self.norm2 = ChannelNorm2d(c_half)
        self.conv3 = Conv2d(c_half, c_full, 3, rng, stride=2)
        self.norm3 = ChannelNorm2d(c_full)
        self.conv4 = Conv2d(c_full, c_full, 3, rng, stride=1)
        self.norm4 = ChannelNorm2d(c_full)
        self.canvas_size = cfg.canvas_size
        map_hw = cfg.stem_map_size
        self.token_mlp = Mlp(c_full * map_hw * map_hw, cfg.token_hidden, cfg.d, rng)

    def __call__(self, images: Tensor) -> Tuple[Tensor, Tensor]:
        """(B, 3, S, S) images -> tokens (B, d) and channel-major stem maps (C, B, S/8, S/8).

        The batch is laid out channel-major once, as it enters, and the last
        map is permuted back to sample order once, for the token perceptron.
        """
        if images.values.ndim != 4 or images.shape[1:] != (3, self.canvas_size, self.canvas_size):
            raise ConfigError(
                "stem expects (B, 3, %d, %d) images, got %s"
                % (self.canvas_size, self.canvas_size, images.shape)
            )
        x = dc.relu(self.norm1(self.conv1(dc.permute(images, (1, 0, 2, 3)))))
        x = dc.relu(self.norm2(self.conv2(x)))
        x = dc.relu(self.norm3(self.conv3(x)))
        x = dc.relu(self.norm4(self.conv4(x)))
        tokens = self.token_mlp(dc.flatten(dc.permute(x, (1, 0, 2, 3))))  # (B, d)
        return tokens, x


class SignalEmbed(Module):
    def __init__(self, cfg: ModelConfig, rng):
        self.n_channels = cfg.n_channels
        self.pool_len = cfg.signal_pool_len
        self.fc1 = Linear(cfg.signal_pool_len, cfg.signal_hidden, rng)
        self.norm1 = LayerNorm(cfg.signal_hidden)
        self.fc2 = Linear(cfg.signal_hidden, cfg.signal_hidden, rng)
        self.norm2 = LayerNorm(cfg.signal_hidden)
        self.token_mlp = Mlp(cfg.signal_hidden, cfg.token_hidden, cfg.d, rng)
        self.map_len = cfg.signal_map_len
        self.map_conv = Conv1d(cfg.n_channels, cfg.signal_map_channels, 1, rng)

    def __call__(self, signals: Sequence[np.ndarray]) -> Tuple[Tensor, Tensor]:
        """B signal matrices (n, T_i) of any lengths -> tokens (B, n, d) and channel-major 1D maps (C1, B, T_1).

        Each signal is pooled to fixed lengths on its own, then the pooled
        matrices run through the layers as one batch.
        """
        pooled, pooled_map = [], []
        for signal in signals:
            sig = np.asarray(signal, dtype=dc.default_dtype())
            if sig.ndim != 2 or sig.shape[0] != self.n_channels:
                raise ConfigError(
                    "signal embed expects %d channels, got %s" % (self.n_channels, sig.shape)
                )
            if sig.shape[1] < 1:
                raise ConfigError("signal embed needs at least one time step")
            pooled.append(pool_signal(sig, self.pool_len))
            pooled_map.append(pool_signal(sig, self.map_len))
        h = dc.relu(self.norm1(self.fc1(Tensor(np.stack(pooled)))))  # (B, n, hidden)
        h = dc.relu(self.norm2(self.fc2(h)))
        tokens = self.token_mlp(h)  # (B, n, d)
        map1d = self.map_conv(Tensor(np.stack(pooled_map, axis=1)))  # (map_channels, B, map_len)
        return tokens, map1d
