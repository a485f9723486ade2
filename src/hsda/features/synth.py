"""Synthetic pen traces for desk-scale validation.

Healthy-control traces are smooth Lissajous loops drawn briskly with steady,
slowly varying pen pressure. The impaired class mimics the motor signature of
cognitive decline: loops are drawn at roughly half the speed and run longer,
pen pressure decays over the trace (fatigue) with brief micro-drops, and both
coordinates carry amplitude-modulated 8-12 Hz tremor. Sampling is 200 Hz.
Every trace draws from its own rng substream, so a dataset is reproducible
regardless of generation order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..diffcore.rng import make_rng
from ..errors import ConfigError
from ..ingest import StrokeSequence

SAMPLING_HZ = 200.0
DURATION_RANGE_S = (2.0, 3.2)
DURATION_RANGE_IMPAIRED_S = (3.8, 5.0)
LOOP_BAND_HZ = (0.5, 0.9)
LOOP_BAND_IMPAIRED_HZ = (0.12, 0.25)
PRESSURE_DRIFT = 0.1
PRESSURE_DRIFT_IMPAIRED = -0.4
TREMOR_BAND_HZ = (8.0, 12.0)
TREMOR_AMPLITUDE = 0.08  # fraction of trace amplitude


def _base_trace(rng: np.random.Generator, impaired: bool):
    duration = rng.uniform(*(DURATION_RANGE_IMPAIRED_S if impaired else DURATION_RANGE_S))
    T = int(round(duration * SAMPLING_HZ))
    t = np.arange(T) / SAMPLING_HZ

    ax, ay = rng.uniform(0.9, 1.1, size=2)
    fx, fy = rng.uniform(*(LOOP_BAND_IMPAIRED_HZ if impaired else LOOP_BAND_HZ), size=2)
    phx, phy = rng.uniform(0.0, 2.0 * np.pi, size=2)
    x = ax * np.sin(2.0 * np.pi * fx * t + phx)
    y = ay * np.sin(2.0 * np.pi * fy * t + phy)

    fp = rng.uniform(0.1, 0.2)
    php = rng.uniform(0.0, 2.0 * np.pi)
    drift = PRESSURE_DRIFT_IMPAIRED if impaired else PRESSURE_DRIFT
    p = 0.55 + 0.05 * np.sin(2.0 * np.pi * fp * t + php) + drift * (t / t[-1])
    return t, x, y, p


def _add_tremor(t, x, y, p, rng: np.random.Generator):
    f_tr = rng.uniform(*TREMOR_BAND_HZ)
    f_am = rng.uniform(0.3, 1.0)
    ph_am, ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=3)
    envelope = TREMOR_AMPLITUDE * (0.6 + 0.4 * np.sin(2.0 * np.pi * f_am * t + ph_am))
    x = x + envelope * np.sin(2.0 * np.pi * f_tr * t + ph1)
    y = y + envelope * np.sin(2.0 * np.pi * f_tr * t + ph2)

    # brief pressure micro-drops at random instants
    n_drops = int(rng.integers(2, 6))
    for _ in range(n_drops):
        center = rng.uniform(t[0], t[-1])
        width = rng.uniform(0.02, 0.05)
        depth = rng.uniform(0.1, 0.3)
        p = p - depth * np.exp(-0.5 * ((t - center) / width) ** 2)
    return x, y, np.maximum(p, 0.05)


def synth_generate(n_per_class: int, seed: int) -> List[StrokeSequence]:
    """Balanced traces, each carrying its label: n_per_class healthy then n_per_class impaired."""
    if n_per_class < 1:
        raise ConfigError("n_per_class must be >= 1, got %d" % n_per_class)
    out: List[StrokeSequence] = []
    for i in range(2 * n_per_class):
        label = "HC" if i < n_per_class else "AD"
        rng = make_rng(seed, "synth", substream=i)
        t, x, y, p = _base_trace(rng, impaired=label == "AD")
        if label == "AD":
            x, y, p = _add_tremor(t, x, y, p, rng)
        seq = StrokeSequence(
            subject_id="%s_%03d" % (label.lower(), i % n_per_class),
            task_id=1,
            label=label,
            t=t * 1000.0,
            x=x,
            y=y,
            p=p,
        )
        out.append(seq)
    return out


def write_raw_csv(records: List[StrokeSequence], path) -> None:
    """Serialize traces in the block CSV layout the parser reads."""
    blocks = []
    for seq in records:
        lines = ["%s,%d,%s" % (seq.subject_id, seq.task_id, seq.label)]
        for i in range(len(seq)):
            lines.append(
                "%.6f,%.9g,%.9g,%.9g" % (seq.t[i], seq.x[i], seq.y[i], seq.p[i])
            )
        blocks.append("\n".join(lines))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")
