"""Training protocol: SGD with momentum, cosine schedule, stratified folds.

The dataset is split once into a stratified 20% test set; the remainder is
partitioned into k stratified folds, each serving once as validation. Every
fold trains a freshly initialized model; the checkpoint with the best
validation accuracy across folds is evaluated on the held-out test set.
Everything is seeded and sequential, so a run is bit-reproducible.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor, make_rng
from .errors import ConfigError, ProtocolError
from .features import kinematic_features, render_image
from .ingest import LABEL_TO_INDEX, StrokeSequence
from .loss import (
    Templates,
    contrastive,
    cross_entropy,
    make_templates,
    total_loss,
    update_templates,
)
from .model import HsdaNet, ModelConfig, restore_parameters
from .runconfig import TrainConfig

log = logging.getLogger(__name__)


class Sample(NamedTuple):
    image: np.ndarray  # (3, S, S) rendered stroke
    signal: np.ndarray  # (9, T) kinematic channels, each z-scored over the record
    label: int


def build_dataset(strokes: Sequence[StrokeSequence], canvas_size: int) -> List[Sample]:
    """Turn preprocessed strokes into model-ready (image, signal, label) triples.

    The label is the stroke's own; a stroke whose kinematics or canvas
    coordinates are not finite is dropped with a warning naming it.
    """
    samples = []
    for stroke in strokes:
        try:
            sig = kinematic_features(stroke)
            canvas = render_image(stroke, size=canvas_size)
        except ProtocolError as exc:
            log.warning("dropping subject %s task %d (%s)", stroke.subject_id, stroke.task_id, exc)
            continue
        samples.append(Sample(canvas.pixels, sig.channels, LABEL_TO_INDEX[stroke.label]))
    return samples


def dataset_sha256(samples: Sequence[Sample]) -> str:
    """sha256 over each sample's label, image bytes and signal bytes, in order."""
    digest = hashlib.sha256()
    for s in samples:
        digest.update(b"%d" % s.label)
        digest.update(s.image.tobytes())
        digest.update(s.signal.tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# optimizer


def cosine_lr(epoch: int, lr0: float, t_max: int) -> float:
    if not 0 <= epoch <= t_max:
        raise ConfigError("epoch %d outside [0, %d]" % (epoch, t_max))
    return 0.5 * lr0 * (1.0 + math.cos(math.pi * epoch / t_max))


_BLOCK = 1 << 15  # elements per pass: a block of w, g, v and the scratch stays in cache


def sgd_step(
    params: Dict[str, Tensor], state: Dict[str, np.ndarray], lr: float, momentum: float, weight_decay: float
) -> None:
    """v <- momentum*v + (g + wd*w); w <- w - lr*v, both in place.

    state[name] is the momentum buffer v of a parameter, made on the first
    step. The six operations run in order block by block, through one
    scratch buffer shared by all parameters. A missing gradient counts as
    zero; a non-finite one raises before its parameter changes.
    """
    scratch = None
    for name, t in params.items():
        g = None if t.grad is None else t.grad.reshape(-1)
        if g is not None and not np.all(np.isfinite(g)):
            raise FloatingPointError("non-finite gradient in %s" % name)
        if name not in state:
            state[name] = np.zeros_like(t.values)
        if scratch is None or scratch.dtype != t.dtype:
            scratch = np.empty(_BLOCK, dtype=t.dtype)
        w, v = t.values.reshape(-1), state[name].reshape(-1)  # views: both are C-contiguous
        for lo in range(0, w.size, _BLOCK):
            wb, vb, s = w[lo : lo + _BLOCK], v[lo : lo + _BLOCK], scratch[: min(_BLOCK, w.size - lo)]
            np.multiply(wb, weight_decay, out=s)
            s += 0.0 if g is None else g[lo : lo + _BLOCK]
            vb *= momentum
            vb += s
            np.multiply(vb, lr, out=s)
            wb -= s


# ---------------------------------------------------------------------------
# split protocol


def split_and_fold(
    labels: Sequence[int], cfg: TrainConfig
) -> Tuple[np.ndarray, List[Tuple[np.ndarray, np.ndarray]]]:
    """Stratified test split plus k stratified folds over the remainder.

    Test slots go to classes by largest fractional remainder; the rest is
    dealt round-robin to the folds, class after class, which keeps per-class
    counts within 1 across folds and pools the slack evenly.
    Returns (test indices, [(train indices, val indices), ...]).
    """
    labels = np.asarray(labels)
    n = labels.size
    if n == 0:
        raise ProtocolError("no samples to split: every record was dropped")
    classes = np.unique(labels)
    rng = make_rng(cfg.seed, "shuffle", substream=0)
    order = rng.permutation(n)

    by_class = {c: order[labels[order] == c] for c in classes}
    for c in classes:
        if by_class[c].size < cfg.k_folds:
            raise ProtocolError(
                "class %d has %d samples, fewer than k=%d"
                % (c, by_class[c].size, cfg.k_folds)
            )

    n_test = int(round(cfg.test_fraction * n))
    ideal = {c: cfg.test_fraction * by_class[c].size for c in classes}
    take = {c: int(ideal[c]) for c in classes}
    remainders = sorted(classes, key=lambda c: (-(ideal[c] - take[c]), c))
    for c in remainders:
        if sum(take.values()) >= n_test:
            break
        take[c] += 1

    test_parts, pool_parts = [], {}
    for c in classes:
        test_parts.append(by_class[c][: take[c]])
        pool_parts[c] = by_class[c][take[c] :]
        if pool_parts[c].size < cfg.k_folds:
            raise ProtocolError(
                "class %d keeps %d samples after the test split, fewer than k=%d"
                % (c, pool_parts[c].size, cfg.k_folds)
            )
    test_idx = np.sort(np.concatenate(test_parts))

    pool = np.concatenate([pool_parts[c] for c in classes])
    fold_of = np.arange(pool.size) % cfg.k_folds
    folds = [(np.sort(pool[fold_of != i]), np.sort(pool[fold_of == i])) for i in range(cfg.k_folds)]
    return test_idx, folds


# ---------------------------------------------------------------------------
# metrics


@dataclass
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    accuracy: float
    precision: float
    recall: float
    f1: float
    zero_division: bool = False

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "Metrics":
        total = tp + fp + fn + tn
        if total == 0:
            raise ValueError("empty confusion matrix")
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return cls(
            tp=tp,
            fp=fp,
            fn=fn,
            tn=tn,
            accuracy=100.0 * (tp + tn) / total,
            precision=100.0 * precision,
            recall=100.0 * recall,
            f1=100.0 * f1,
            zero_division=not (tp + fp and tp + fn and precision + recall),
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "tn": self.tn,
            "accuracy": "%.2f" % self.accuracy,
            "precision": "%.2f" % self.precision,
            "recall": "%.2f" % self.recall,
            "f1": "%.2f" % self.f1,
            "zero_division": int(self.zero_division),
        }

    def table(self) -> str:
        head = "%-10s %-10s %-10s %-10s" % ("F1", "Accuracy", "Precision", "Recall")
        row = "%-10.2f %-10.2f %-10.2f %-10.2f" % (self.f1, self.accuracy, self.precision, self.recall)
        counts = "tp=%d fp=%d fn=%d tn=%d" % (self.tp, self.fp, self.fn, self.tn)
        return "\n".join((head, row, counts))


def predict(model: HsdaNet, samples: Sequence[Sample], batch_size: int) -> np.ndarray:
    """Predicted class of every sample, forwarding chunks of at most batch_size."""
    preds = []
    for start in range(0, len(samples), batch_size):
        chunk = samples[start : start + batch_size]
        logits, _ = model([s.image for s in chunk], [s.signal for s in chunk])
        preds.append(np.argmax(logits.values, axis=1))
    return np.concatenate(preds)


def evaluate(model: HsdaNet, test_set: Sequence[Sample], batch_size: int) -> Metrics:
    if len(test_set) == 0:
        raise ValueError("empty test set")
    pred = predict(model, test_set, batch_size) == 1
    truth = np.array([s.label for s in test_set]) == 1
    return Metrics.from_counts(
        int(np.sum(pred & truth)),
        int(np.sum(pred & ~truth)),
        int(np.sum(~pred & truth)),
        int(np.sum(~pred & ~truth)),
    )


# ---------------------------------------------------------------------------
# training loop


@dataclass
class FoldResult:
    fold: int
    best_epoch: int
    best_val_acc: float
    best_state: Dict[str, np.ndarray]
    history: List[Tuple[int, float, float, float]]  # (epoch, lr, train_loss, val_acc)


def train_loop(
    model: HsdaNet,
    templates: Templates,
    train_set: Sequence[Sample],
    val_set: Sequence[Sample],
    cfg: TrainConfig,
    fold: int = 0,
) -> FoldResult:
    if not train_set or not val_set:
        raise ProtocolError("fold %d has an empty train or validation set" % fold)
    params = model.parameter_dict()
    state: Dict[str, np.ndarray] = {}
    shuffle_rng = make_rng(cfg.seed, "shuffle", substream=1 + fold)
    history: List[Tuple[int, float, float, float]] = []
    # epoch 0 always beats -1 and fills best_state
    best_acc, best_epoch, since_best = -1.0, -1, 0
    best_state: Dict[str, np.ndarray] = {}
    val_labels = np.array([s.label for s in val_set])

    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(epoch, cfg.lr0, cfg.max_epochs)
        order = shuffle_rng.permutation(len(train_set))
        batch_losses = []
        for b_start in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[b_start : b_start + cfg.batch_size]]
            batch_labels = np.array([s.label for s in batch])
            model.zero_grad()
            with dc.Tape() as tape:
                logits, feats = model([s.image for s in batch], [s.signal for s in batch])
                ce = cross_entropy(dc.softmax_rows(logits), batch_labels)
                if cfg.contrastive_weight > 0.0:
                    loss = total_loss(
                        ce, contrastive(feats, batch_labels, templates), cfg.contrastive_weight
                    )
                else:
                    loss = ce
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise FloatingPointError(
                        "non-finite loss at epoch %d batch %d" % (epoch, b_start // cfg.batch_size)
                    )
                dc.backward(loss, tape)
            sgd_step(params, state, lr, cfg.momentum, cfg.weight_decay)
            templates = update_templates(templates, feats.values, batch_labels)
            batch_losses.append(loss_value)

        val_acc = int(np.sum(predict(model, val_set, cfg.batch_size) == val_labels)) / len(val_set)
        history.append((epoch, lr, float(np.mean(batch_losses)), val_acc))
        if val_acc > best_acc:
            best_acc, best_epoch, since_best = val_acc, epoch, 0
            best_state = {name: t.values.copy() for name, t in params.items()}
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break

    return FoldResult(fold, best_epoch, best_acc, best_state, history)


@dataclass
class ProtocolResult:
    fold_results: List[FoldResult]
    best_fold: int
    test_metrics: Metrics
    model: HsdaNet


def run_protocol(
    dataset: Sequence[Sample], model_cfg: ModelConfig, cfg: TrainConfig
) -> ProtocolResult:
    labels = [s.label for s in dataset]
    test_idx, folds = split_and_fold(labels, cfg)
    test_set = [dataset[i] for i in test_idx]

    fold_results = []
    for fold, (train_idx, val_idx) in enumerate(folds):
        model = HsdaNet(model_cfg, seed=cfg.seed)
        templates = make_templates(model_cfg.d, make_rng(cfg.seed, "init", substream=1 + fold))
        result = train_loop(
            model,
            templates,
            [dataset[i] for i in train_idx],
            [dataset[i] for i in val_idx],
            cfg,
            fold=fold,
        )
        fold_results.append(result)

    best_fold = max(range(len(fold_results)), key=lambda i: fold_results[i].best_val_acc)
    restore_parameters(model, fold_results[best_fold].best_state)  # the last fold's model, reused
    model.zero_grad()
    metrics = evaluate(model, test_set, cfg.batch_size)
    return ProtocolResult(fold_results, best_fold, metrics, model)


# ---------------------------------------------------------------------------
# artifacts


def write_history_csv(path: str, history: Sequence[Tuple[int, float, float, float]]) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,lr,train_loss,val_acc\n")
        for epoch, lr, loss_value, acc in history:
            fh.write("%d,%.17g,%.17g,%.17g\n" % (epoch, lr, loss_value, acc))


def write_metrics(path: str, metrics: Metrics) -> None:
    with open(path, "w") as fh:
        for key, value in metrics.as_dict().items():
            fh.write("%s=%s\n" % (key, value))
