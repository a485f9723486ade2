"""The benchmark's four workloads and the loop that measures them.

Each workload sets up (timed, ``SETUP_REPEATS`` times), then repeats a unit
of work until the run's seconds are spent: one ``train_loop`` call for the
training workloads, one pass over the generated input files otherwise. Only
``ProtocolError`` from the program counts as a failed record; any other
exception propagates and aborts the run. Output checks run on the units
after the clock stops.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import resource
import statistics
import time
from typing import Dict, List

import numpy as np

import dirty
import hsda.features as features
import hsda.ingest as ingest
import hsda.train as train
from hsda.diffcore import make_rng
from hsda.errors import ProtocolError
from hsda.loss import make_templates
from hsda.model import HsdaNet, ModelConfig, synth_config, toy_config
from tracing import Tracer, layer_metrics

SETUP_REPEATS = 3
TRAIN_EPOCHS = 1  # one train_loop call = one epoch; every call starts from the same init


class CheckFailed(Exception):
    """The program produced an output the benchmark does not accept."""


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def tail(values: List[float]):
    """(value, percentile, n): the highest percentile with >= 10 samples beyond it.

    Below 21 samples no percentile at or above the median qualifies, and
    the median is returned with percentile 50.
    """
    v = sorted(values)
    n = len(v)
    if n < 21:
        return statistics.median(v), 50.0, n
    return v[n - 11], 100.0 * (n - 11) / (n - 1), n


class TrainWorkload:
    """train_loop on criterion 6's data and config, one fold, fixed epochs."""

    kind = "train"

    def __init__(self, scale: str, toy: bool):
        self.model_cfg = toy_config() if toy else (synth_config() if scale == "synth" else ModelConfig())
        self.n_per_class = 8 if toy else 60

    def setup(self, seed: int, work_dir: str) -> dict:
        t0 = time.perf_counter()
        records = features.synth_generate(self.n_per_class, seed)
        t1 = time.perf_counter()
        dataset = train.build_dataset(records, canvas_size=self.model_cfg.canvas_size)
        t2 = time.perf_counter()
        cfg = train.TrainConfig(seed=seed, max_epochs=TRAIN_EPOCHS, patience=TRAIN_EPOCHS)
        _, folds = train.split_and_fold([s.label for s in dataset], cfg)
        train_idx, val_idx = folds[0]
        t3 = time.perf_counter()
        net = HsdaNet(self.model_cfg, seed=seed)
        t4 = time.perf_counter()
        return {
            "seed": seed,
            "cfg": cfg,
            "train_set": [dataset[i] for i in train_idx],
            "val_set": [dataset[i] for i in val_idx],
            "model": net,
            "times": {"total": t4 - t0, "train.build_dataset.s": t2 - t1, "model.init.s": t4 - t3},
        }

    def run_unit(self, st: dict) -> dict:
        net = st.pop("model", None) or HsdaNet(self.model_cfg, seed=st["seed"])
        templates = make_templates(self.model_cfg.d, make_rng(st["seed"], "init", substream=1))
        step_ends = []
        sgd_step = train.sgd_step

        def stamped(*args, **kwargs):
            out = sgd_step(*args, **kwargs)
            step_ends.append(time.perf_counter())
            return out

        train.sgd_step = stamped
        try:
            t0 = time.perf_counter()
            result = train.train_loop(net, templates, st["train_set"], st["val_set"], st["cfg"])
            wall = time.perf_counter() - t0
        finally:
            train.sgd_step = sgd_step
        n = len(st["train_set"])
        return {
            "items": n,
            "ok": n,
            "failed": 0,
            "wall": wall,
            "latencies": list(np.diff([t0] + step_ends)),
            "history": result.history,
        }

    def check(self, st: dict, units: List[dict]) -> dict:
        first = units[0]["history"]
        _check(len(first) == TRAIN_EPOCHS, "history has %d epochs, want %d" % (len(first), TRAIN_EPOCHS))
        _check(all(np.isfinite(h[2]) for h in first), "non-finite train loss %s" % (first,))
        for u in units[1:]:
            _check(u["history"] == first, "train history differs between identical runs")
        return {"train.loss_end": first[-1][2]}


class InferWorkload:
    """One closed-loop client classifying one-record raw files with a full model."""

    kind = "records"

    def __init__(self, toy: bool):
        self.model_cfg = toy_config() if toy else ModelConfig()
        self.n_records = 8 if toy else 32

    def setup(self, seed: int, work_dir: str) -> dict:
        t0 = time.perf_counter()
        paths = []
        for i, trace in enumerate(dirty.make_traces(self.n_records, seed)):
            path = os.path.join(work_dir, "infer_%03d.csv" % i)
            dirty.write_csv([trace], path, seed, first_index=i)
            paths.append(path)
        t1 = time.perf_counter()
        net = HsdaNet(self.model_cfg, seed=seed)
        t2 = time.perf_counter()
        return {
            "paths": paths,
            "model": net,
            "times": {"total": t2 - t0, "train.build_dataset.s": 0.0, "model.init.s": t2 - t1},
        }

    def run_unit(self, st: dict) -> dict:
        net, size = st["model"], self.model_cfg.canvas_size
        latencies, outputs, failed = [], [], 0
        t_pass = time.perf_counter()
        for i, path in enumerate(st["paths"]):
            t0 = time.perf_counter()
            try:
                for seq in ingest.preprocess(ingest.parse_raw(path)):
                    signal = features.kinematic_features(seq)
                    image = features.render_image(seq, size=size)
                    logits, _ = net(image.pixels, signal.channels)
                    row = logits.values[0]
                    cls = int(np.argmax(row))
                    latencies.append(time.perf_counter() - t0)
                    outputs.append((i, cls, row.copy()))
            except ProtocolError:
                failed += 1
        return {
            "items": len(st["paths"]),
            "ok": len(outputs),
            "failed": failed,
            "wall": time.perf_counter() - t_pass,
            "latencies": latencies,
            "outputs": outputs,
        }

    def check(self, st: dict, units: List[dict]) -> dict:
        _check(all(u["ok"] for u in units), "a pass classified no record")
        digests = set()
        for u in units:
            for i, cls, row in u["outputs"]:
                _check(np.all(np.isfinite(row)), "record %d: non-finite logits %s" % (i, row))
                _check(cls in (0, 1), "record %d: class %r outside {0,1}" % (i, cls))
            digests.add(_digest(np.array([(i, c) for i, c, _ in u["outputs"]]), *[r for _, _, r in u["outputs"]]))
        _check(len(digests) == 1, "predictions differ between passes over the same files")
        return {}


class PreprocessWorkload:
    """parse_raw on one multi-record file, then per record preprocess -> signal CSV.

    The latency sample is one whole pass over the file, as ``hsda preprocess``
    would take it; per-record times in the millisecond range put the tail at
    the mercy of single scheduler hiccups.
    """

    kind = "records"
    MIN_CORR = 0.5  # repaired x/y must still follow the clean trace

    def __init__(self, toy: bool):
        self.n_records = 8 if toy else 64

    def setup(self, seed: int, work_dir: str) -> dict:
        t0 = time.perf_counter()
        traces = dirty.make_traces(self.n_records, seed)
        path = os.path.join(work_dir, "raw.csv")
        dirty.write_csv(traces, path, seed)
        out_dir = os.path.join(work_dir, "signals")
        os.makedirs(out_dir, exist_ok=True)
        return {
            "path": path,
            "out_dir": out_dir,
            "traces": traces,
            "times": {"total": time.perf_counter() - t0, "train.build_dataset.s": 0.0, "model.init.s": 0.0},
        }

    def run_unit(self, st: dict) -> dict:
        outputs, failed = [], 0
        t_pass = time.perf_counter()
        records = ingest.parse_raw(st["path"])
        for i, record in enumerate(records):
            try:
                for seq in ingest.preprocess([record]):
                    signal = features.kinematic_features(seq)
                    out = os.path.join(st["out_dir"], "sig_%03d.csv" % i)
                    features.write_signal_csv(signal, out)
                    outputs.append((i, seq, signal, out))
            except ProtocolError:
                failed += 1
        wall = time.perf_counter() - t_pass
        st["last_outputs"] = outputs  # only the last pass is kept, so memory does not grow with passes
        return {
            "items": len(records),
            "ok": len(outputs),
            "failed": failed,
            "wall": wall,
            "latencies": [wall],
            "digest": _digest(*[signal.channels for _, _, signal, _ in outputs]),
        }

    def check(self, st: dict, units: List[dict]) -> dict:
        for u in units:
            _check(u["items"] == self.n_records, "parsed %d of %d records" % (u["items"], self.n_records))
        _check(len({u["digest"] for u in units}) == 1, "signal matrices differ between passes over the same file")
        for i, seq, signal, out in st["last_outputs"]:
            trace = st["traces"][i]
            _check(signal.channels.shape == (9, len(seq)), "record %d: signal shape %s" % (i, signal.channels.shape))
            _check(np.all(np.isfinite(signal.channels)), "record %d: non-finite signal" % i)
            written = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
            _check(
                np.allclose(written, signal.channels.T, rtol=1e-7, atol=1e-7),
                "record %d: signal CSV does not read back" % i,
            )
            for ch in ("x", "y"):
                ref = np.interp(seq.t, trace.t, getattr(trace, ch))
                corr = np.corrcoef(ref, getattr(seq, ch))[0, 1]
                _check(corr >= self.MIN_CORR, "record %d: repaired %s drifts from the clean trace (r=%.3f)" % (i, ch, corr))
        return {}


def make(name: str, toy: bool):
    if name == "train_synth":
        return TrainWorkload("synth", toy)
    if name == "train_full":
        return TrainWorkload("full", toy)
    if name == "infer_full":
        return InferWorkload(toy)
    if name == "preprocess_raw":
        return PreprocessWorkload(toy)
    raise ValueError("unknown workload %r" % name)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _release_memory() -> None:
    """Hand freed heap pages back to the OS between set-ups.

    Without this, whether a repeated set-up reuses the pages of the one
    before depends on heap fragmentation, and ``peak_rss_mb`` jumps between
    two levels from seed to seed.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc
        pass


def _phase(wl, st: dict, seconds: float, min_units: int) -> dict:
    units = []
    t0, cpu0 = time.perf_counter(), _cpu_s()
    while len(units) < min_units or time.perf_counter() - t0 < seconds:
        c0 = _cpu_s()
        units.append(wl.run_unit(st))
        units[-1]["cpu"] = _cpu_s() - c0
    wall = time.perf_counter() - t0
    return {"units": units, "wall": wall, "cpu": _cpu_s() - cpu0}


def _sum(units, key):
    return sum(u[key] for u in units)


def run(name: str, seed: int, seconds: float, traced: bool, toy: bool, work_dir: str, import_s: float, spans_path: str):
    """Set up, measure, check. Returns (attempted, failed, metrics, detail)."""
    wl = make(name, toy)
    setups, st = [], None
    for _ in range(SETUP_REPEATS):
        st = None  # release the previous set-up before building the next
        _release_memory()
        st = wl.setup(seed, work_dir)
        setups.append(st["times"])

    def setup_median(key):
        return statistics.median(s[key] for s in setups)

    if traced:
        plain = _phase(wl, st, seconds / 2.0, 1)
        tracer = Tracer()
        tracer.install()
        try:
            measured = _phase(wl, st, seconds / 2.0, 1)
        finally:
            tracer.uninstall()
        phases = [plain, measured]
    else:
        measured = _phase(wl, st, seconds, 2)
        phases = [measured]
    units = [u for p in phases for u in p["units"]]
    checked = wl.check(st, units)

    m_units = measured["units"]
    latencies = [x for u in m_units for x in u["latencies"]]
    tail_value, tail_pct, tail_n = tail(latencies)
    attempted, failed = _sum(m_units, "items"), _sum(m_units, "failed")
    detail: Dict[str, object] = {
        "units": len(m_units),
        "items_attempted": attempted,
        "items_ok": _sum(m_units, "ok"),
        "fail_frac": failed / attempted,
        "latency_samples": tail_n,
        "tail_percentile": tail_pct,
        "setup_runs_s": [s["total"] for s in setups],
        "import_s": import_s,
        "samples": {
            "unit_wall_s": [u["wall"] for u in m_units],
            "unit_cpu_s": [u["cpu"] for u in m_units],
            "latency_s": latencies,
        },
    }
    detail.update(checked)

    if not traced:
        metrics = {
            "setup_s": import_s + setup_median("total"),
            "items_per_s": statistics.median(u["ok"] / u["wall"] for u in m_units),
            "latency_ms_p50": 1000.0 * statistics.median(latencies),
            "latency_ms_tail": 1000.0 * tail_value,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return attempted, failed, metrics, detail

    per_item = [_sum(p["units"], "wall") / _sum(p["units"], "items") for p in phases]
    steps = latencies if wl.kind == "train" else []
    extra = {
        "model.init.s": setup_median("model.init.s"),
        "train.build_dataset.s": setup_median("train.build_dataset.s"),
        "train.loss_end": checked.get("train.loss_end", 0.0),
        "train.step_s_p50": statistics.median(steps) if steps else 0.0,
        "train.step_s_tail": tail(steps)[0] if steps else 0.0,
        "process.cpu_s": plain["cpu"] / _sum(plain["units"], "items"),
        "process.cpu_per_wall": plain["cpu"] / plain["wall"],
        "trace.overhead_s": per_item[1] - per_item[0],
        "trace.overhead_frac": per_item[1] / per_item[0] - 1.0,
    }
    phase_info = {
        "items": attempted,
        "passes": 0 if wl.kind == "train" else len(m_units),
        "failed": failed,
    }
    metrics = layer_metrics(tracer, phase_info, extra)
    tracer.write_spans(spans_path)
    detail["spans"] = len(tracer.spans)
    return attempted, failed, metrics, detail
