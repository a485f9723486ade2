"""Kinematic signal channels derived from a pen trace.

Nine channels in a fixed order: the three recorded ones (x, y, p) and six
derived ones (speed, acceleration, jerk, pressure rate, curvature, angular
speed). Derivatives use central differences on the actual timestamps, so
non-uniform sampling is handled; boundary points fall back to one-sided
differences. compute_channels is the one finiteness check: derivatives that
overflow raise ProtocolError, and the dataset build and commands drop the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ProtocolError
from ..ingest import MIN_SAMPLES, StrokeSequence, zscore

CHANNEL_NAMES: Tuple[str, ...] = (
    "x",
    "y",
    "p",
    "speed",
    "acceleration",
    "jerk",
    "pressure_rate",
    "curvature",
    "angular_speed",
)

N_CHANNELS = len(CHANNEL_NAMES)

CURVATURE_FLOOR = 1e-8


@dataclass
class SignalMatrix:
    """Standardized kinematic channels, one row per channel."""

    channels: np.ndarray  # (N_CHANNELS, T)
    channel_names: Tuple[str, ...]

    def __post_init__(self):
        if self.channels.ndim != 2 or self.channels.shape[0] != len(self.channel_names):
            raise ProtocolError(
                "channel matrix %s does not match %d names"
                % (self.channels.shape, len(self.channel_names))
            )
        if not np.all(np.isfinite(self.channels)):
            raise ProtocolError("non-finite value in signal matrix")


def compute_channels(t_ms: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> Dict[str, np.ndarray]:
    """Raw (pre-standardization) kinematic channels keyed by name.

    Timestamps are milliseconds; derivatives are per second. A channel that
    is not finite everywhere raises ProtocolError.
    """
    t_ms = np.asarray(t_ms, dtype=np.float64)
    if t_ms.size < MIN_SAMPLES:
        raise ProtocolError("need at least %d samples for differencing, got %d" % (MIN_SAMPLES, t_ms.size))
    if np.any(np.diff(t_ms) <= 0):
        raise ProtocolError("timestamps must be strictly increasing")
    t = t_ms / 1000.0

    xd = np.gradient(x, t)
    yd = np.gradient(y, t)
    speed = np.hypot(xd, yd)
    acceleration = np.gradient(speed, t)
    jerk = np.gradient(acceleration, t)
    pressure_rate = np.gradient(p, t)

    xdd = np.gradient(xd, t)
    ydd = np.gradient(yd, t)
    denom = np.maximum((xd * xd + yd * yd) ** 1.5, CURVATURE_FLOOR)
    curvature = (xd * ydd - yd * xdd) / denom

    theta = np.unwrap(np.arctan2(yd, xd))
    angular_speed = np.gradient(theta, t)

    channels = {
        "x": np.asarray(x, dtype=np.float64),
        "y": np.asarray(y, dtype=np.float64),
        "p": np.asarray(p, dtype=np.float64),
        "speed": speed,
        "acceleration": acceleration,
        "jerk": jerk,
        "pressure_rate": pressure_rate,
        "curvature": curvature,
        "angular_speed": angular_speed,
    }
    for name, v in channels.items():
        if not np.all(np.isfinite(v)):
            raise ProtocolError("kinematic channel %s is not finite" % name)
    return channels


def kinematic_features(s: StrokeSequence) -> SignalMatrix:
    """Standardized 9-channel signal matrix for one stroke sequence."""
    raw = compute_channels(s.t, s.x, s.y, s.p)
    rows = [zscore(raw[name])[0] for name in CHANNEL_NAMES]
    return SignalMatrix(channels=np.vstack(rows), channel_names=CHANNEL_NAMES)


def write_signal_csv(m: SignalMatrix, path) -> None:
    """One column per channel, header row of channel names, one row per sample."""
    header = ",".join(m.channel_names)
    np.savetxt(path, m.channels.T, delimiter=",", header=header, comments="", fmt="%.9g")
