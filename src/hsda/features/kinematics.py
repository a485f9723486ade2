"""Kinematic signal channels derived from a pen trace.

Nine channels in a fixed order: the three recorded ones (x, y, p) and six
derived ones (speed, acceleration, jerk, pressure rate, curvature, angular
speed). Derivatives use central differences on the actual timestamps, so
non-uniform sampling is handled; boundary points fall back to one-sided
differences. The trace arrives in its recorded units, and kinematic_features
is the one place the channels are standardized. compute_channels is the one
finiteness check: derivatives that overflow raise ProtocolError, and the
dataset build and commands drop the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..errors import ProtocolError
from ..ingest import MIN_SAMPLES, StrokeSequence

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
    """Standardized kinematic channels, one row per CHANNEL_NAMES entry."""

    channels: np.ndarray  # (N_CHANNELS, T)

    def __post_init__(self):
        if self.channels.ndim != 2 or self.channels.shape[0] != N_CHANNELS:
            raise ProtocolError(
                "channel matrix %s does not match %d names" % (self.channels.shape, N_CHANNELS)
            )
        if not np.all(np.isfinite(self.channels)):
            raise ProtocolError("non-finite value in signal matrix")


def compute_channels(t_ms: np.ndarray, x: np.ndarray, y: np.ndarray, p: np.ndarray) -> Dict[str, np.ndarray]:
    """Kinematic channels keyed by name, in the units of the trace.

    Timestamps are milliseconds; derivatives are per second. A channel that
    is not finite everywhere raises ProtocolError.
    """
    t_ms = np.asarray(t_ms, dtype=np.float64)
    if t_ms.size < MIN_SAMPLES:
        raise ProtocolError("need at least %d samples for differencing, got %d" % (MIN_SAMPLES, t_ms.size))
    if np.any(np.diff(t_ms) <= 0):
        raise ProtocolError("timestamps must be strictly increasing")
    t = t_ms / 1000.0

    # near-equal timestamps overflow the derivatives; the finiteness check
    # below refuses the result, so numpy's warnings would only be noise
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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


def zscore(v: np.ndarray) -> np.ndarray:
    """Population z-score; constant input maps to zeros.

    A channel whose spread is float-rounding noise (std below 1e-9 of its
    magnitude) counts as constant: dividing by such a std would just amplify
    roundoff into a garbage channel.
    """
    # a spread that overflows is not finite, which the test below treats as constant
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(v.mean())
        sd = float(v.std())
    if not np.isfinite(sd) or sd <= 1e-9 * max(1.0, abs(mu)):
        return np.zeros_like(v)
    z = (v - mu) / sd
    return z - z.mean()


def kinematic_features(s: StrokeSequence) -> SignalMatrix:
    """Standardized 9-channel signal matrix for one stroke sequence.

    Every channel is z-scored over the record, so the model sees the same
    scale whatever units the trace was recorded in.
    """
    raw = compute_channels(s.t, s.x, s.y, s.p)
    return SignalMatrix(np.vstack([zscore(raw[name]) for name in CHANNEL_NAMES]))


def write_signal_csv(m: SignalMatrix, path) -> None:
    """One column per channel, header row of channel names, one row per sample."""
    header = ",".join(CHANNEL_NAMES)
    np.savetxt(path, m.channels.T, delimiter=",", header=header, comments="", fmt="%.9g")
