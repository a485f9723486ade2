"""Dynamics-colored rasterization of a pen trace.

The trajectory, in its recorded units, is mapped onto a square canvas with
one scale for both axes, set by the longer side of the bounding box, and a
fixed pixel margin, so the letter keeps its shape. A sample is on paper when
its pressure is above 0. Each segment between consecutive on-paper samples
is resampled into steps of at most one pixel, the way ``np.linspace`` spaces
its points; each step is a Bresenham line between its rounded end points.
All steps are painted in trace order and the last write to a pixel wins.
Color carries the dynamics: R, G, B are the min-max normalized pressure
rate, acceleration, and angular speed of the nearer sample, mapped to
[0.1, 1.0] so stroke pixels never fade to background.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..errors import ProtocolError
from ..ingest import StrokeSequence, record_name
from .kinematics import compute_channels

log = logging.getLogger(__name__)

COLOR_FLOOR = 0.1
MARGIN_PX = 4


@dataclass
class RgbCanvas:
    """Square RGB image, channels-first, values in [0, 1], background 0."""

    pixels: np.ndarray  # (3, H, W)

    def __post_init__(self):
        if self.pixels.ndim != 3 or self.pixels.shape[0] != 3:
            raise ValueError("expected (3, H, W) pixels, got %s" % (self.pixels.shape,))
        if not (self.pixels.min() >= 0 and self.pixels.max() <= 1):  # False for NaN too
            raise ValueError("pixel values outside [0, 1]")


def _minmax_unit(v: np.ndarray) -> np.ndarray:
    lo, hi = v.min(), v.max()
    if hi == lo:
        return np.zeros_like(v)
    with np.errstate(over="ignore", invalid="ignore"):  # a range near the float limit: refused below
        return (v - lo) / (hi - lo)


def render_image(s: StrokeSequence, size: int) -> RgbCanvas:
    """Rasterize one stroke sequence onto a size x size canvas.

    Kinematics, colors or canvas coordinates that are not finite raise ProtocolError.
    """
    raw = compute_channels(s.t, s.x, s.y, s.p)
    colors = np.stack(
        [
            _minmax_unit(raw["pressure_rate"]),
            _minmax_unit(raw["acceleration"]),
            _minmax_unit(raw["angular_speed"]),
        ]
    )
    if not np.all(np.isfinite(colors)):
        raise ProtocolError("kinematic channel range overflows the color scale")
    colors = COLOR_FLOOR + (1.0 - COLOR_FLOOR) * colors  # (3, T)

    x = np.asarray(s.x, dtype=np.float64)
    y = np.asarray(s.y, dtype=np.float64)
    xmin, xmax = x.min(), x.max()
    ymin, ymax = y.min(), y.max()
    canvas = np.zeros((3, size, size), dtype=np.float64)
    center = (size - 1) / 2.0
    # a subnormal extent overflows the scale, and coordinates near the float
    # limit overflow the extent (scale 0) or the midpoint: all are refused below
    with np.errstate(all="ignore"):
        extent = max(xmax - xmin, ymax - ymin)
        scale = (size - 1 - 2 * MARGIN_PX) / extent
        col = (x - (xmin + xmax) / 2.0) * scale + center
        row = center - (y - (ymin + ymax) / 2.0) * scale  # image rows grow downward

    if extent == 0.0:
        log.warning("%s: degenerate bounding box, rendering a single pixel", record_name(s))
        ci = int(round(center))
        canvas[:, ci, ci] = colors[:, 0]
        return RgbCanvas(canvas)
    if not (0.0 < scale < np.inf and np.all(np.isfinite(col)) and np.all(np.isfinite(row))):
        raise ProtocolError("pen coordinates overflow the canvas mapping")

    on_paper = s.p > 0

    d_row, d_col = np.diff(row), np.diff(col)
    seg = np.flatnonzero(on_paper[:-1] & on_paper[1:])
    n_steps = np.maximum(1, np.ceil(np.hypot(d_row[seg], d_col[seg])).astype(np.int64))
    ends = np.cumsum(n_steps)
    i = np.repeat(seg, n_steps)  # segment (first sample) of each step
    j = np.arange(len(i)) - np.repeat(ends - n_steps, n_steps)
    # np.linspace(0, 1, n + 1): point j is j * (1 / n), and the last is exactly 1
    spacing = 1.0 / np.repeat(n_steps, n_steps)
    t0 = j * spacing
    t1 = (j + 1) * spacing
    t1[ends - 1] = 1.0
    r0 = np.rint(row[i] + t0 * d_row[i]).astype(np.int64)
    c0 = np.rint(col[i] + t0 * d_col[i]).astype(np.int64)
    r1 = np.rint(row[i] + t1 * d_row[i]).astype(np.int64)
    c1 = np.rint(col[i] + t1 * d_col[i]).astype(np.int64)
    # steps are at most one pixel long, but rounding half to even can make a
    # step of 2 along an axis; Bresenham then lights one middle pixel
    two_r, two_c = np.abs(r1 - r0) == 2, np.abs(c1 - c0) == 2
    # writes in trace order: start, middle, end of each step
    rr = np.stack([r0, r0 + np.sign(r1 - r0) * two_r, r1], axis=1).ravel()
    cc = np.stack([c0, c0 + np.sign(c1 - c0) * two_c, c1], axis=1).ravel()
    write = np.ones((len(i), 3), dtype=bool)
    write[:, 1] = two_r | two_c
    write = write.ravel() & (rr >= 0) & (rr < size) & (cc >= 0) & (cc < size)
    color_of = np.repeat(np.where(t0 < 0.5, i, i + 1), 3)[write]
    pixel = (rr * size + cc)[write]
    # the first hit in reverse order is the last write, which wins
    pixel, last = np.unique(pixel[::-1], return_index=True)
    canvas.reshape(3, -1)[:, pixel] = colors[:, color_of[::-1][last]]

    return RgbCanvas(canvas)


def write_ppm(canvas: RgbCanvas, path) -> None:
    """Binary portable pixmap, maxval 255."""
    h, w = canvas.pixels.shape[1:]
    data = np.clip(np.rint(canvas.pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(data.transpose(1, 2, 0).tobytes())
