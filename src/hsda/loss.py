"""Cross-entropy plus a cosine contrastive pull toward class templates.

The templates are one prototype feature vector per class, refreshed after
every batch by an exponential moving average of that batch's class means.
They stay off the differentiation tape: the gradient sees them as constants,
and only the EMA moves them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tensor

LOG_FLOOR = 1e-12
NORM_FLOOR = 1e-8
TEMPLATE_ALPHA = 0.9


@dataclass
class Templates:
    """Class prototype vectors: t_neg for label 0 (HC), t_pos for label 1 (AD)."""

    t_pos: np.ndarray
    t_neg: np.ndarray

    def __post_init__(self):
        self.t_pos = np.asarray(self.t_pos, dtype=np.float64).reshape(-1)
        self.t_neg = np.asarray(self.t_neg, dtype=np.float64).reshape(-1)
        if self.t_pos.shape != self.t_neg.shape:
            raise ValueError(
                "template widths differ: %s vs %s" % (self.t_pos.shape, self.t_neg.shape)
            )


def make_templates(d: int, rng: np.random.Generator) -> Templates:
    """Standard normal initialization for both prototypes."""
    return Templates(rng.standard_normal(d), rng.standard_normal(d))


def cross_entropy(probs: Tensor, labels: np.ndarray) -> Tensor:
    """-(1/N) sum log p(true class); the log argument is floored at 1e-12."""
    labels = np.asarray(labels)
    n, k = probs.shape
    if labels.shape != (n,):
        raise dc.ShapeError("labels shape %s for %d rows" % (labels.shape, n))
    onehot = np.zeros((n, k), dtype=probs.values.dtype)
    onehot[np.arange(n), labels] = 1.0
    picked = dc.sum_(dc.mul(probs, Tensor(onehot, dtype=onehot.dtype)), axis=1, keepdims=True)
    return dc.neg(dc.mean(dc.log(dc.clamp_min(picked, LOG_FLOOR))))


def contrastive(f: Tensor, labels: np.ndarray, tmpl: Templates) -> Tensor:
    """(1/N) sum of 1 - cos(f_i, template of the true class); range [0, 2]."""
    labels = np.asarray(labels)
    n = f.shape[0]
    if labels.shape != (n,):
        raise dc.ShapeError("labels shape %s for %d rows" % (labels.shape, n))
    anchors = np.stack([tmpl.t_neg, tmpl.t_pos])[labels]  # each row's true-class template
    cos = dc.cosine_rows(f, Tensor(anchors, dtype=f.values.dtype), NORM_FLOOR)
    return dc.mean(dc.sub(1.0, cos))


def total_loss(ce: Tensor, ctr: Tensor, weight: float) -> Tensor:
    return dc.add(ce, dc.mul(ctr, weight))


def update_templates(tmpl: Templates, f_values: np.ndarray, labels: np.ndarray) -> Templates:
    """EMA pull of each prototype toward its class mean; empty classes skip.

    Uses raw arrays, never tape tensors, so no gradient can reach the
    templates.
    """
    f_values = np.asarray(f_values, dtype=np.float64)
    labels = np.asarray(labels)
    t_pos, t_neg = tmpl.t_pos, tmpl.t_neg
    pos = labels == 1
    if pos.any():
        t_pos = TEMPLATE_ALPHA * t_pos + (1.0 - TEMPLATE_ALPHA) * f_values[pos].mean(axis=0)
    if (~pos).any():
        t_neg = TEMPLATE_ALPHA * t_neg + (1.0 - TEMPLATE_ALPHA) * f_values[~pos].mean(axis=0)
    return Templates(t_pos, t_neg)
