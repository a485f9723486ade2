from .attention import AttentionHead, DiscrepancyNet, GatingMix, HybridBlock, saw
from .checkpoint import load_checkpoint, restore_parameters, save_checkpoint
from .config import ModelConfig, synth_config, toy_config
from .embeddings import ImageStem, SignalEmbed
from .layers import (
    ChannelNorm2d,
    Conv1d,
    Conv2d,
    LayerNorm,
    Linear,
    Mlp,
    Module,
    trunc_normal,
)
from .multiscale import Rfm1d, Rfm2d, multiscale_concat
from .network import HsdaNet

__all__ = [
    "AttentionHead",
    "ChannelNorm2d",
    "Conv1d",
    "Conv2d",
    "DiscrepancyNet",
    "GatingMix",
    "HsdaNet",
    "HybridBlock",
    "ImageStem",
    "LayerNorm",
    "Linear",
    "Mlp",
    "ModelConfig",
    "Module",
    "Rfm1d",
    "Rfm2d",
    "SignalEmbed",
    "load_checkpoint",
    "multiscale_concat",
    "restore_parameters",
    "save_checkpoint",
    "saw",
    "synth_config",
    "toy_config",
    "trunc_normal",
]
