"""Raw pen-stream parsing, imputation and outlier repair.

The raw format (csv-v1) is block-structured text: each block opens with a
``subject_id,task_id,label`` line followed by ``t_ms,x,y,p`` sample lines;
blocks are separated by blank lines. Field values that fail to parse become
missing samples rather than dropped rows; rows without a usable timestamp are
dropped, since timestamps define the interpolation axis and are never
imputed. The cleaned trace keeps the units it was recorded in; the features
standardize the model's inputs.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from .errors import ProtocolError, read_text
from .runconfig import RunConfig

log = logging.getLogger(__name__)

LABELS = ("HC", "AD")
CHANNELS = ("x", "y", "p")

# label <-> class index used everywhere downstream: HC=0, AD=1
LABEL_TO_INDEX = {name: i for i, name in enumerate(LABELS)}


@dataclass
class RawRecord:
    """One (subject, task) recording; NaN marks a missing value."""

    subject_id: str
    task_id: int
    label: str
    t: np.ndarray  # milliseconds, always finite, non-decreasing
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        if not 1 <= int(self.task_id) <= 25:
            raise ProtocolError("task_id %r outside 1..25" % (self.task_id,))
        if self.label not in LABELS:
            raise ProtocolError("label %r not one of %s" % (self.label, LABELS))
        lengths = {len(self.t), len(self.x), len(self.y), len(self.p)}
        if len(lengths) != 1:
            raise ProtocolError("channel lengths disagree: %s" % sorted(lengths))
        if np.any(np.diff(self.t) < 0):
            raise ProtocolError("timestamps decrease in subject %s task %d" % (self.subject_id, self.task_id))

    def __len__(self) -> int:
        return len(self.t)


@dataclass
class StrokeSequence:
    """Dense pen trace in its recorded units: every x, y and p is finite."""

    subject_id: str
    task_id: int
    label: str
    t: np.ndarray  # milliseconds
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        for name in CHANNELS:
            v = getattr(self, name)
            if not np.all(np.isfinite(v)):
                raise ProtocolError(
                    "non-finite %s channel in subject %s task %d" % (name, self.subject_id, self.task_id)
                )

    def __len__(self) -> int:
        return len(self.t)


def record_name(r) -> str:
    """How every report names a raw or cleaned record: ``<subject> task <NN>``."""
    return "%s task %02d" % (r.subject_id, r.task_id)


def drop_line(r, reason) -> str:
    """The one report of a dropped record: ``<name>: dropped (<reason>)``."""
    return "%s: dropped (%s)" % (record_name(r), reason)


def _parse_field(text: str) -> float:
    text = text.strip()
    if not text:
        return np.nan
    try:
        return float(text)
    except ValueError:
        return np.nan


def _finish_block(header, rows, header_line_no) -> RawRecord:
    subject_id, task_text, label = header
    try:
        task_id = int(task_text)
    except ValueError:
        raise ProtocolError("line %d: task_id %r is not an integer" % (header_line_no, task_text))
    arr = np.array(rows, dtype=np.float64).reshape(-1, 4)
    keep = np.isfinite(arr[:, 0])  # rows without a timestamp are unusable
    arr = arr[keep]
    order = np.argsort(arr[:, 0], kind="stable")
    arr = arr[order]
    try:
        return RawRecord(
            subject_id=subject_id,
            task_id=task_id,
            label=label.strip(),
            t=arr[:, 0],
            x=arr[:, 1],
            y=arr[:, 2],
            p=arr[:, 3],
        )
    except ProtocolError as exc:
        raise ProtocolError("line %d: %s" % (header_line_no, exc)) from None


def parse_raw(path) -> List[RawRecord]:
    """Parse a csv-v1 file into records, preserving block order."""
    lines = read_text(path, ProtocolError).splitlines()

    records: List[RawRecord] = []
    header = None
    header_line_no = 0
    rows: List[Tuple[float, float, float, float]] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            if header is not None:
                records.append(_finish_block(header, rows, header_line_no))
                header, rows = None, []
            continue
        fields = stripped.split(",")
        if header is None:
            if len(fields) != 3:
                raise ProtocolError(
                    "line %d: expected header 'subject_id,task_id,label', got %r" % (line_no, stripped)
                )
            header = tuple(f.strip() for f in fields)
            header_line_no = line_no
            continue
        if len(fields) != 4:
            raise ProtocolError("line %d: expected 't_ms,x,y,p', got %r" % (line_no, stripped))
        rows.append(tuple(_parse_field(f) for f in fields))
    if header is not None:
        records.append(_finish_block(header, rows, header_line_no))
    if not records:
        raise ProtocolError("%s: no records found" % path)
    return records


def merge_duplicate_times(r: RawRecord) -> RawRecord:
    """Collapse samples that share a timestamp into one sample.

    csv-v1 allows repeated timestamps, but the kinematics difference along
    strictly increasing time. Each channel takes the mean of its finite values
    at that time, or stays missing for impute_missing when it has none.
    """
    t, first = np.unique(r.t, return_index=True)
    if t.size == len(r):
        return r
    merged = {}
    for name in CHANNELS:
        v = getattr(r, name)
        finite = np.isfinite(v)
        # a sum near the float limit overflows to inf, which impute_missing refills
        with np.errstate(over="ignore"):
            total = np.add.reduceat(np.where(finite, v, 0.0), first)
        count = np.add.reduceat(finite.astype(np.int64), first)
        merged[name] = np.where(count > 0, total / np.maximum(count, 1), np.nan)
    return dataclasses.replace(r, t=t, **merged)


def impute_missing(r: RawRecord) -> RawRecord:
    """Fill missing x/y/p by linear interpolation along the timestamp axis."""
    updates = {}
    for name in CHANNELS:
        v = getattr(r, name)
        missing = ~np.isfinite(v)
        if not missing.any():
            continue
        if np.count_nonzero(~missing) < 2:
            raise ProtocolError(
                "subject %s task %d channel %s: fewer than 2 valid samples to interpolate from"
                % (r.subject_id, r.task_id, name)
            )
        filled = v.copy()
        # np.interp extrapolates by holding the nearest valid value constant
        filled[missing] = np.interp(r.t[missing], r.t[~missing], v[~missing])
        updates[name] = filled
    return dataclasses.replace(r, **updates) if updates else r


def remove_outliers(r: RawRecord, z_max: float) -> RawRecord:
    """Replace samples with robust z-score > z_max on any channel.

    z = |v - median| / (1.4826 * MAD). A flagged sample is blanked on all
    channels and refilled by the impute_missing interpolation, so sequence
    length is preserved for downstream differencing. Constant channels
    (MAD = 0) flag nothing. Flags that leave fewer than 2 samples to refill
    from raise ProtocolError.
    """
    n = len(r)
    if n == 0:
        return r
    flagged = np.zeros(n, dtype=bool)
    for name in CHANNELS:
        v = getattr(r, name)
        # values near the float limit overflow the statistics to inf; a NaN z
        # flags nothing
        with np.errstate(over="ignore", invalid="ignore"):
            med = np.median(v)
            mad = np.median(np.abs(v - med))
            if mad == 0:
                continue
            z = np.abs(v - med) / (1.4826 * mad)
        flagged |= z > z_max
    count = int(flagged.sum())
    if count == 0:
        return r
    if count > 0.2 * n:
        log.warning("%s: %d of %d samples flagged as outliers", record_name(r), count, n)
    if n - count < 2:
        raise ProtocolError(
            "outlier repair flags %d of %d samples, fewer than 2 left to refill from" % (count, n)
        )
    log.info("%s: replacing %d/%d outlier samples", record_name(r), count, n)
    blanked = {name: np.where(flagged, np.nan, getattr(r, name)) for name in CHANNELS}
    return impute_missing(dataclasses.replace(r, **blanked))


MIN_SAMPLES = 5  # downstream differencing needs this many points


def salvageable(r: RawRecord) -> bool:
    if len(r) < MIN_SAMPLES:
        return False
    for name in CHANNELS:
        if np.count_nonzero(np.isfinite(getattr(r, name))) < 2:
            return False
    return True


class Cleaned(NamedTuple):
    """What preprocessing made of one raw record."""

    sequence: StrokeSequence
    outliers: int  # samples whose x, y or p the outlier repair changed


def clean_record(r: RawRecord, z_max: float, seen: Optional[Set[Tuple[str, int]]] = None) -> Cleaned:
    """repeat check -> merge_duplicate_times -> salvageable check -> impute_missing -> remove_outliers.

    seen holds the (subject, task) of the blocks before r in the same input,
    whether they were kept or not; r joins it. A record that any step refuses
    raises ProtocolError naming why: it repeats an earlier block's subject and
    task (the first block stands), too few valid samples, outlier flags that
    leave fewer than two samples to refill the rest from, or an interpolation
    that overflows.
    """
    if seen is not None:
        if (r.subject_id, r.task_id) in seen:
            raise ProtocolError("repeats an earlier block")
        seen.add((r.subject_id, r.task_id))
    r = merge_duplicate_times(r)
    if not salvageable(r):
        raise ProtocolError("too few valid samples")
    imputed = impute_missing(r)
    repaired = remove_outliers(imputed, z_max=z_max)
    sequence = StrokeSequence(
        repaired.subject_id, repaired.task_id, repaired.label, repaired.t, repaired.x, repaired.y, repaired.p
    )
    changed = np.zeros(len(imputed), dtype=bool)
    for name in CHANNELS:
        changed |= getattr(imputed, name) != getattr(repaired, name)
    return Cleaned(sequence, int(changed.sum()))


def preprocess(records: Iterable[RawRecord], z_max: float = RunConfig.z_max) -> List[StrokeSequence]:
    """clean_record on every record; the kept sequences, in input order.

    A record that clean_record refuses, a repeat of an earlier block among
    them, is dropped with a warning that gives the reason. Other records of
    the same subject are unaffected.
    """
    kept, seen = [], set()
    for r in records:
        try:
            kept.append(clean_record(r, z_max, seen).sequence)
        except ProtocolError as exc:
            log.warning(drop_line(r, exc))
    return kept
