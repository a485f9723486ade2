"""Kinematic channels, dynamics-colored rendering, synthesis."""

from .kinematics import (
    CHANNEL_NAMES,
    N_CHANNELS,
    SignalMatrix,
    compute_channels,
    kinematic_features,
    write_signal_csv,
)
from .render import RgbCanvas, render_image, write_ppm
from .synth import synth_generate, write_raw_csv

__all__ = [
    "CHANNEL_NAMES",
    "N_CHANNELS",
    "SignalMatrix",
    "compute_channels",
    "kinematic_features",
    "write_signal_csv",
    "RgbCanvas",
    "render_image",
    "write_ppm",
    "synth_generate",
    "write_raw_csv",
]
