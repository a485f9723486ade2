"""Traced runs: spans around the public calls of each hsda layer.

``Tracer.install`` replaces public functions and methods of ``hsda.ingest``,
``hsda.features``, ``hsda.model``, ``hsda.diffcore``, ``hsda.loss`` and
``hsda.train`` with wrappers that record a span (name, start, end, parent)
in memory; ``uninstall`` puts the originals back. Nothing under ``src/`` is
edited. Tape ops are too many for spans (about 9k per training batch), so
they get counters instead: forward calls and seconds from wrappers on the
``hsda.diffcore`` attributes the model calls through ``dc.<op>``, backward
seconds from wrapping each closure that ``Tape.record`` receives.

``layer_metrics`` turns the spans and counters into the ``per_layer``
metrics of ``BENCHMARK.json``. Unless a name says otherwise a ``.s`` metric
is seconds per work item (one training sample, or one record attempted)
spent in that layer during the traced phase, and a ``.calls`` metric is
calls per work item. Model sub-layers report self time: their span minus
the part of it that child spans cover. ``MOVES`` records which end-to-end
metric each per-layer metric should move, and on which workload.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from typing import Dict, List

import hsda.diffcore as dc
import hsda.features as features
import hsda.ingest as ingest
import hsda.loss as loss
import hsda.model as model
import hsda.model.attention as attention
import hsda.train as train
from hsda.diffcore import ops as dc_ops

# Tape ops reported one by one; every other diffcore op is summed as "other".
OPS = (
    "matmul",
    "conv2d",
    "conv1d",
    "layer_norm",
    "softmax_rows",
    "concat",
    "add_bias",
    "relu",
    "pairwise_absdiff",
    "take_row",
    "cosine_similarity",
    "adaptive_avg_pool1d",
)
STAGES = (1, 2, 3, 4)

# Per stage: saw (hsda.model.attention.saw), daw (DiscrepancyNet), gate
# (GatingMix), and block, the rest of each HybridBlock (norms, q/k/v and
# output projections, FFN).
STAGE_PARTS = ("saw", "daw", "gate", "block")

# per-layer metric -> (end-to-end metric it should move, workloads)
MOVES: Dict[str, tuple] = {
    "ingest.parse_raw.s": ("items_per_s", ("preprocess_raw", "infer_full")),
    "ingest.parse_raw.mb_per_s": ("items_per_s", ("preprocess_raw",)),
    "ingest.preprocess.s": ("items_per_s", ("preprocess_raw", "infer_full")),
    "ingest.records_dropped": ("items_per_s", ("preprocess_raw", "infer_full")),
    "ingest.records_failed": ("items_per_s", ("preprocess_raw", "infer_full")),
    "features.kinematic_features.s": ("items_per_s", ("preprocess_raw",)),
    "features.render_image.s": ("latency_ms_p50", ("infer_full",)),
    "features.write_signal_csv.s": ("items_per_s", ("preprocess_raw",)),
    "model.init.s": ("setup_s", ("train_synth", "train_full", "infer_full")),
    "model.forward.s": ("items_per_s", ("train_synth", "train_full", "infer_full")),
    "model.forward.calls": ("items_per_s", ("train_synth", "train_full")),
    "model.stem.s": ("latency_ms_p50", ("train_full", "infer_full")),
    "model.signal_embed.s": ("latency_ms_p50", ("train_full", "infer_full")),
    "model.rfm2d.s": ("latency_ms_p50", ("train_full", "infer_full")),
    "model.rfm1d.s": ("latency_ms_p50", ("train_synth", "train_full")),
    "model.head.s": ("latency_ms_p50", ("train_synth", "infer_full")),
    "diffcore.backward.s": ("items_per_s", ("train_synth", "train_full")),
    "diffcore.tape_nodes_per_step": ("items_per_s", ("train_synth", "train_full")),
    "loss.cross_entropy.s": ("items_per_s", ("train_synth", "train_full")),
    "loss.contrastive.s": ("items_per_s", ("train_synth", "train_full")),
    "loss.update_templates.s": ("items_per_s", ("train_synth", "train_full")),
    "train.build_dataset.s": ("setup_s", ("train_synth", "train_full")),
    "train.sgd_step.s": ("items_per_s", ("train_full",)),
    "train.step_s_p50": ("latency_ms_p50", ("train_synth", "train_full")),
    "train.step_s_tail": ("latency_ms_tail", ("train_synth", "train_full")),
    "train.validate.s": ("items_per_s", ("train_synth", "train_full")),
    "train.loss_end": ("none: deterministic, moves only when arithmetic changes", ("train_synth", "train_full")),
    "process.cpu_s": ("items_per_s", ("train_full",)),
    "process.cpu_per_wall": ("items_per_s", ("train_full",)),
    "trace.overhead_s": ("none: cost of tracing itself", ()),
    "trace.overhead_frac": ("none: cost of tracing itself", ()),
}
for _n in STAGES:
    for _part in STAGE_PARTS:
        MOVES["model.stage%d.%s.s" % (_n, _part)] = (
            "items_per_s",
            ("train_synth", "train_full", "infer_full"),
        )
for _op in OPS + ("other",):
    for _kind in ("calls", "fwd_s", "bwd_s"):
        MOVES["diffcore.%s.%s" % (_op, _kind)] = ("items_per_s", ("train_synth", "train_full"))

UNITS = {
    "ingest.parse_raw.mb_per_s": "MB/s",
    "ingest.records_dropped": "count",
    "ingest.records_failed": "count",
    "model.init.s": "s",
    "train.build_dataset.s": "s",
    "diffcore.tape_nodes_per_step": "count",
    "train.step_s_p50": "s",
    "train.step_s_tail": "s",
    "train.loss_end": "1",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "calls/item"
    return "s/item"


class Tracer:
    """Span and counter recorder; holds every patch it made until uninstall."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self._stack: List[int] = []
        self.op_calls: Dict[str, int] = defaultdict(int)
        self.op_fwd: Dict[str, float] = defaultdict(float)
        self.op_bwd: Dict[str, float] = defaultdict(float)
        self.tape_nodes: List[int] = []
        self.bytes_parsed = 0
        self.records_dropped = 0
        self._stage = 0
        self._blocks_seen = 0
        self._blocks_per_stage = 1
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn):
        """Wrap fn in a span; name may be a callable evaluated per call."""
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name() if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_attr(self, owner, attr: str, name) -> None:
        self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        tracer = self

        parse_raw = ingest.parse_raw

        def traced_parse(path, *args, **kwargs):
            tracer.bytes_parsed += os.path.getsize(path)
            return parse_raw(path, *args, **kwargs)

        self._patch(ingest, "parse_raw", self._spanned("ingest.parse_raw", traced_parse))

        preprocess = ingest.preprocess

        def traced_preprocess(records, *args, **kwargs):
            records = list(records)
            out = preprocess(records, *args, **kwargs)
            tracer.records_dropped += len(records) - len(out)
            return out

        self._patch(ingest, "preprocess", self._spanned("ingest.preprocess", traced_preprocess))
        for attr in ("kinematic_features", "render_image", "write_signal_csv"):
            self._span_attr(features, attr, "features." + attr)

        forward = model.HsdaNet.__call__

        def traced_forward(net, *args, **kwargs):
            tracer._blocks_seen = 0
            tracer._blocks_per_stage = net.cfg.blocks_per_stage
            return forward(net, *args, **kwargs)

        self._patch(model.HsdaNet, "__call__", self._spanned("model.forward", traced_forward))
        for cls, name in (
            (model.ImageStem, "model.stem"),
            (model.SignalEmbed, "model.signal_embed"),
            (model.Rfm2d, "model.rfm2d"),
            (model.Rfm1d, "model.rfm1d"),
        ):
            self._span_attr(cls, "__call__", name)

        block = model.HybridBlock.__call__

        def traced_block(blk, *args, **kwargs):
            tracer._stage = tracer._blocks_seen // tracer._blocks_per_stage + 1
            tracer._blocks_seen += 1
            idx = tracer._open("model.stage%d.block" % tracer._stage)
            try:
                return block(blk, *args, **kwargs)
            finally:
                tracer._close(idx)

        self._patch(model.HybridBlock, "__call__", traced_block)
        self._span_attr(attention, "saw", lambda: "model.stage%d.saw" % tracer._stage)
        self._span_attr(model.DiscrepancyNet, "__call__", lambda: "model.stage%d.daw" % tracer._stage)
        self._span_attr(model.GatingMix, "__call__", lambda: "model.stage%d.gate" % tracer._stage)

        # train_loop reaches the loss functions through hsda.train's own names
        for attr in ("cross_entropy", "contrastive", "update_templates"):
            wrapped = self._spanned("loss." + attr, getattr(loss, attr))
            self._patch(loss, attr, wrapped)
            self._patch(train, attr, wrapped)

        self._span_attr(train, "sgd_step", "train.sgd_step")
        self._span_attr(train, "predict", "train.validate")

        backward = dc.backward

        def traced_backward(loss_t, tape):
            tracer.tape_nodes.append(len(tape))
            return backward(loss_t, tape)

        self._patch(dc, "backward", self._spanned("diffcore.backward", traced_backward))

        for attr in dc.__all__:
            fn = getattr(dc, attr)
            if callable(fn) and getattr(dc_ops, attr, None) is fn:
                self._patch(dc, attr, self._counted(attr if attr in OPS else "other", fn))

        record = dc.Tape.record

        def traced_record(tape, inputs, output, backward_fn, name):
            key = name if name in OPS else "other"

            def timed(g):
                t0 = time.perf_counter()
                try:
                    return backward_fn(g)
                finally:
                    tracer.op_bwd[key] += time.perf_counter() - t0

            return record(tape, inputs, output, timed, name)

        self._patch(dc.Tape, "record", traced_record)

    def _counted(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.op_fwd[key] += time.perf_counter() - t0
                tracer.op_calls[key] += 1

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_totals(self):
        """name -> (calls, inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return totals

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start, "end": end, "parent": parent if parent >= 0 else None}
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, phase: dict, extra: dict) -> Dict[str, float]:
    """Every per-layer metric, from the traced phase and the workload's figures.

    ``phase`` holds the traced phase's ``items`` and ``passes`` (complete
    passes over the input set; 0 for training); ``extra`` holds the figures
    the workload measures itself (set-up medians, loss, process and overhead
    numbers), keyed by metric name.
    """
    items = max(1, phase["items"])
    passes = phase["passes"]
    totals = tracer.span_totals()

    def incl(name):
        return totals[name][1] / items if name in totals else 0.0

    def self_s(name):
        return totals[name][2] / items if name in totals else 0.0

    out: Dict[str, float] = {}
    parse_s = totals["ingest.parse_raw"][1] if "ingest.parse_raw" in totals else 0.0
    out["ingest.parse_raw.s"] = incl("ingest.parse_raw")
    out["ingest.parse_raw.mb_per_s"] = tracer.bytes_parsed / 1e6 / parse_s if parse_s else 0.0
    out["ingest.preprocess.s"] = incl("ingest.preprocess")
    out["ingest.records_dropped"] = tracer.records_dropped / passes if passes else 0.0
    out["ingest.records_failed"] = phase.get("failed", 0) / passes if passes else 0.0
    for attr in ("kinematic_features", "render_image", "write_signal_csv"):
        out["features.%s.s" % attr] = incl("features." + attr)

    out["model.forward.s"] = incl("model.forward")
    out["model.forward.calls"] = totals["model.forward"][0] / items if "model.forward" in totals else 0.0
    for part in ("stem", "signal_embed", "rfm2d", "rfm1d"):
        out["model.%s.s" % part] = self_s("model." + part)
    out["model.head.s"] = self_s("model.forward")
    for n in STAGES:
        for part in STAGE_PARTS:
            out["model.stage%d.%s.s" % (n, part)] = self_s("model.stage%d.%s" % (n, part))

    out["diffcore.backward.s"] = incl("diffcore.backward")
    nodes = sorted(tracer.tape_nodes)
    out["diffcore.tape_nodes_per_step"] = float(nodes[len(nodes) // 2]) if nodes else 0.0
    for op in OPS + ("other",):
        out["diffcore.%s.calls" % op] = tracer.op_calls.get(op, 0) / items
        out["diffcore.%s.fwd_s" % op] = tracer.op_fwd.get(op, 0.0) / items
        out["diffcore.%s.bwd_s" % op] = tracer.op_bwd.get(op, 0.0) / items

    for attr in ("cross_entropy", "contrastive", "update_templates"):
        out["loss.%s.s" % attr] = incl("loss." + attr)
    out["train.sgd_step.s"] = incl("train.sgd_step")
    out["train.validate.s"] = incl("train.validate")
    out.update(extra)
    return out
