"""Seeded dirty csv-v1 input generator for the benchmark.

Writes pen traces of both classes in the raw block format that
``hsda.ingest.parse_raw`` reads, with three kinds of dirt at stated shares:

- ``NAN_FIELD_SHARE`` of the x, y and p fields are written as ``NaN``
  (ingest imputes them by interpolation);
- ``SPIKE_ROW_SHARE`` of the rows carry one channel pushed far outside the
  trace's range (ingest's robust z-score replaces them);
- exactly ``round(DUP_RECORD_SHARE * n)`` records repeat one timestamp.
  csv-v1 allows non-decreasing timestamps, but the kinematics demand
  strictly increasing ones, so these records raise ``ProtocolError`` in
  ``kinematic_features`` until ingest learns to repair or drop them.

The traces are made here, independently of ``hsda.features.synth``, so a
change to the program's own synthesizer cannot change the benchmark's inputs.
The same seed gives the same bytes; every record draws from its own
substream, so a record does not depend on how many others are made.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

SAMPLING_HZ = 200.0
NAN_FIELD_SHARE = 0.02
SPIKE_ROW_SHARE = 0.005
DUP_RECORD_SHARE = 0.125
SPIKE_SCALE = 25.0  # spike size in units of the channel's range


@dataclass
class CleanTrace:
    """One generated record before dirt: strictly increasing t in ms."""

    subject_id: str
    task_id: int
    label: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    duplicate_timestamp: bool


def _trace(rng: np.random.Generator, impaired: bool):
    # Healthy: brisk loops, steady pressure. Impaired: about half the loop
    # speed, longer, pressure fatigue and 8-12 Hz tremor on both coordinates.
    duration = rng.uniform(3.8, 5.0) if impaired else rng.uniform(2.0, 3.2)
    n = int(round(duration * SAMPLING_HZ))
    t_s = np.arange(n) / SAMPLING_HZ
    jitter = rng.uniform(0.0, 0.8, size=n) / 1000.0  # keeps steps >= 4.2 ms
    f_lo, f_hi = (0.12, 0.25) if impaired else (0.5, 0.9)
    fx, fy = rng.uniform(f_lo, f_hi, size=2)
    phx, phy, php = rng.uniform(0.0, 2.0 * np.pi, size=3)
    x = rng.uniform(0.9, 1.1) * np.sin(2.0 * np.pi * fx * t_s + phx)
    y = rng.uniform(0.9, 1.1) * np.sin(2.0 * np.pi * fy * t_s + phy)
    drift = -0.4 if impaired else 0.1
    p = 0.55 + 0.05 * np.sin(2.0 * np.pi * 0.15 * t_s + php) + drift * t_s / t_s[-1]
    if impaired:
        f_tr = rng.uniform(8.0, 12.0)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        x = x + 0.08 * np.sin(2.0 * np.pi * f_tr * t_s + ph1)
        y = y + 0.08 * np.sin(2.0 * np.pi * f_tr * t_s + ph2)
    return (t_s + jitter) * 1000.0, x, y, p


def make_traces(n_records: int, seed: int) -> List[CleanTrace]:
    """Alternating HC/AD records; the duplicate-timestamp ones are chosen by seed."""
    picker = np.random.default_rng([seed, 0])
    n_dup = int(round(DUP_RECORD_SHARE * n_records))
    dup = set(picker.choice(n_records, size=n_dup, replace=False).tolist())
    traces = []
    for i in range(n_records):
        rng = np.random.default_rng([seed, 1, i])
        impaired = i % 2 == 1
        t, x, y, p = _trace(rng, impaired)
        traces.append(
            CleanTrace(
                subject_id="%s_%03d" % ("ad" if impaired else "hc", i // 2),
                task_id=1 + i % 25,
                label="AD" if impaired else "HC",
                t=t,
                x=x,
                y=y,
                p=p,
                duplicate_timestamp=i in dup,
            )
        )
    return traces


def _dirty_block(trace: CleanTrace, rng: np.random.Generator) -> str:
    t = trace.t.copy()
    if trace.duplicate_timestamp:
        j = int(rng.integers(1, len(t)))
        t[j] = t[j - 1]
    values = np.stack([trace.x, trace.y, trace.p], axis=1)
    spikes = np.flatnonzero(rng.random(len(t)) < SPIKE_ROW_SHARE)
    for row in spikes:
        ch = int(rng.integers(0, 3))
        span = np.ptp(values[:, ch])
        values[row, ch] += rng.choice((-1.0, 1.0)) * SPIKE_SCALE * span
    cells = np.char.mod("%.9g", values)
    cells[rng.random(values.shape) < NAN_FIELD_SHARE] = "NaN"
    lines = ["%s,%d,%s" % (trace.subject_id, trace.task_id, trace.label)]
    lines.extend("%.3f,%s,%s,%s" % (ti, *row) for ti, row in zip(t, cells))
    return "\n".join(lines)


def write_csv(traces: List[CleanTrace], path: str, seed: int, first_index: int = 0) -> None:
    """Write traces as one csv-v1 file with their dirt drawn from ``seed``.

    ``first_index`` is the position of ``traces[0]`` in the full set, so a
    record gets the same dirt whether it is written alone or with others.
    """
    blocks = [
        _dirty_block(tr, np.random.default_rng([seed, 2, first_index + k]))
        for k, tr in enumerate(traces)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n\n".join(blocks) + "\n")
