"""Model hyperparameters and derived shape arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from ..errors import ConfigError
from ..features import N_CHANNELS
from ..ingest import LABELS


@dataclass
class ModelConfig:
    """Architecture settings; defaults give the full-size network."""

    d: int = 128  # token embedding width at stage 1
    stages: ClassVar[int] = 4  # the architecture is defined for exactly four stages
    blocks_per_stage: int = 1
    heads: ClassVar[int] = 2  # attention heads per hybrid block
    d_prime: int = 64  # width gained per multi-scale concat
    stem_channels: int = 128  # C, channels of the stem feature map
    signal_hidden: int = 2048  # D', fully connected lift per channel
    signal_pool_len: int = 64  # adaptive-pool length before the FC lift
    signal_map_channels: int = 64  # C1 of the 1D multi-scale map
    signal_map_len: int = 64  # T_1 of the 1D multi-scale map
    canvas_size: int = 128
    n_channels: ClassVar[int] = N_CHANNELS  # the rows of every signal matrix
    n_classes: ClassVar[int] = len(LABELS)  # the binary loss and metrics assume HC/AD
    use_multiscale: bool = True
    # Hidden width of the two token-projection perceptrons. Token magnitude
    # at init goes like 0.02^2 * sqrt(hidden * fan_in), so shrunken configs
    # must raise this to stay in the regime the full-size network trains in;
    # see synth_config.
    token_hidden: int = 128

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, int) and not isinstance(v, bool) and v < 1:
                raise ConfigError("%s must be positive, got %r" % (f.name, v))
        if self.canvas_size % 8 != 0:
            raise ConfigError("canvas size %d is not divisible by 8" % self.canvas_size)
        for l in range(1, self.stages + 1):
            w = self.stage_width(l)
            if w % self.heads != 0:
                raise ConfigError(
                    "stage %d token width %d is not divisible by %d heads" % (l, w, self.heads)
                )

    @property
    def n_tokens(self) -> int:
        """One image token plus one token per signal channel."""
        return self.n_channels + 1

    def stage_width(self, l: int) -> int:
        """Token width at stage l (1-based): d + (l-1)*d_prime while fusing."""
        if not self.use_multiscale:
            return self.d
        return self.d + (l - 1) * self.d_prime

    @property
    def stem_map_size(self) -> int:
        return self.canvas_size // 8


def toy_config(**overrides) -> ModelConfig:
    """Desk-scale configuration used by gradient checks and fast tests."""
    settings = dict(
        d=16,
        d_prime=8,
        stem_channels=16,
        signal_hidden=32,
        signal_pool_len=16,
        signal_map_channels=8,
        signal_map_len=8,
        canvas_size=16,
        token_hidden=16,
    )
    settings.update(overrides)
    return ModelConfig(**settings)


def synth_config(**overrides) -> ModelConfig:
    """Desk-scale configuration that still trains.

    The toy configuration with five wider values. It keeps the toy token
    count and attention width but restores full-scale token magnitudes:
    with trunc-normal(0.02) weights a token perceptron emits values of order 0.02^2 * sqrt(hidden * fan_in), and the first
    template-loss batches push biases by a few tenths. The full network
    sits near 0.3 per token; a naive shrink lands near 0.005, where those
    pushes inflate the head norm scale and erase the input signal before
    the classifier sees it. Wide token hiddens and a fatter stem keep the
    shrunken model on the trainable side at negligible extra flops.
    """
    settings = dict(
        stem_channels=64,
        signal_hidden=256,
        signal_pool_len=64,
        canvas_size=32,
        token_hidden=2048,
    )
    settings.update(overrides)
    return toy_config(**settings)
