"""Acceptance suite: one test per shipped guarantee, at its stated tolerance.

Each criterion is a separate test so a verbose run prints one pass/fail line
per guarantee. Several of these repeat unit-level checks on purpose: this
file is the contract, the unit tests are the development aids.
"""

import os
import time

import numpy as np
import pytest

from hsda import cli
from hsda import diffcore as dc
from hsda.diffcore import Tensor, make_rng
from hsda.features import compute_channels, synth_generate
from hsda.loss import Templates, contrastive, make_templates, update_templates
from hsda.model import synth_config, toy_config
from hsda.model.attention import AttentionHead
from hsda.train import (
    Metrics,
    TrainConfig,
    build_dataset,
    dataset_sha256,
    run_protocol,
    split_and_fold,
    train_fold,
)

GRAD_TOL = 1e-4

# golden per-task metric rows (f1, accuracy, precision, recall in percent);
# each must be exactly representable by an integer confusion matrix, and the
# metrics layer must reproduce all four values to two decimals from it
REFERENCE_ROWS = {
    1: ("81.08", "79.41", "75.00", "88.24"),
    2: ("83.87", "84.85", "92.86", "76.47"),
    5: ("87.50", "87.88", "93.33", "82.35"),
    8: ("90.32", "90.91", "100.00", "82.35"),
    17: ("86.49", "84.85", "80.00", "94.12"),
    24: ("76.92", "81.25", "100.00", "62.50"),
}


def test_criterion_1_gradient_suite(capsys):
    """Every primitive and the composed small model, at batch 1 and 2, pass
    finite differences (`hsda gradcheck`, relative error below 1e-4)."""
    t0 = time.monotonic()
    assert cli.GRADCHECK_TOLERANCE <= GRAD_TOL
    cfg = toy_config(blocks_per_stage=2)
    assert cfg.canvas_size == 16 and cfg.d == 16 and cfg.d_prime == 8
    assert cfg.n_tokens == 10
    assert cli.main(["gradcheck", "--scale", "toy", "--seed", "0"]) == 0
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "max rel err" in text
    for name in ("add:lhs", "matmul:rhs", "softmax_rows", "layer_norm:x", "conv2d:pointwise"):
        assert name in text
    for batch in (1, 2):
        assert "composed toy model, batch %d" % batch in text
    assert time.monotonic() - t0 < 120.0


def test_criterion_2_attention_stochasticity():
    """SAW, DAW, and blended rows are distributions; the gate stays in (0,1)."""
    width, d_h = 16, 8
    for n_tokens in (4, 10):
        heads = [AttentionHead(width, d_h, n_tokens, make_rng(i, "init")) for i in range(4)]
        gen = np.random.default_rng(n_tokens)
        for draw in range(1000):
            head = heads[draw % len(heads)]
            x = Tensor(gen.normal(size=(n_tokens, width)) * gen.uniform(0.3, 3.0))
            collected = []
            head(x, collect=collected)
            (w,) = collected
            for key in ("saw", "daw", "mix"):
                sums = w[key].values.sum(axis=1)
                np.testing.assert_allclose(sums, 1.0, atol=1e-6)
                assert np.all(w[key].values >= 0.0)
            g = w["gate"].values
            assert np.all(g > 0.0) and np.all(g < 1.0)


def test_criterion_3_kinematics_oracle():
    """Analytic traces at 200 Hz: curvature and pressure rate within 1%."""
    t_ms = np.arange(400) * 5.0
    t = t_ms / 1000.0
    interior = slice(3, -3)

    r, omega = 2.0, 3.0  # counterclockwise circle
    ch = compute_channels(t_ms, r * np.cos(omega * t), r * np.sin(omega * t), np.full_like(t, 0.5))
    np.testing.assert_allclose(ch["curvature"][interior], 1.0 / r, rtol=1e-2)

    ch = compute_channels(t_ms, 0.3 + 1.7 * t, -0.2 + 0.4 * t, np.full_like(t, 0.5))
    assert np.max(np.abs(ch["curvature"][interior])) < 1e-2

    ch = compute_channels(t_ms, np.cos(t), np.sin(2 * t), 0.2 + 0.11 * t)
    np.testing.assert_allclose(ch["pressure_rate"][interior], 0.11, rtol=1e-2)


def _matching_matrices(f1, acc, prec, rec):
    """All confusion matrices whose metrics print as the given strings.

    Plain-arithmetic search, independent of the Metrics class: positives and
    negatives are bounded by the size of a one-task test split.
    """
    found = []
    for pos in range(1, 26):
        for tp in range(pos + 1):
            if "%.2f" % (100.0 * tp / pos) != rec:
                continue
            fn = pos - tp
            for fp in range(0, 26):
                if tp + fp == 0 or "%.2f" % (100.0 * tp / (tp + fp)) != prec:
                    continue
                if "%.2f" % (200.0 * tp / (2 * tp + fp + fn)) != f1:
                    continue
                for tn in range(0, 26):
                    n = tp + fp + fn + tn
                    if "%.2f" % (100.0 * (tp + tn) / n) == acc:
                        found.append((tp, fp, fn, tn))
    return found


def test_criterion_4_metric_parity():
    """The metrics layer reproduces every golden per-task row to 2 decimals."""
    for task, (f1, acc, prec, rec) in REFERENCE_ROWS.items():
        matrices = _matching_matrices(f1, acc, prec, rec)
        assert matrices, "task %d: no integer confusion matrix fits" % task
        for tp, fp, fn, tn in matrices:
            m = Metrics.from_counts(tp, fp, fn, tn)
            got = ("%.2f" % m.f1, "%.2f" % m.accuracy, "%.2f" % m.precision, "%.2f" % m.recall)
            assert got == (f1, acc, prec, rec), "task %d via %s" % (task, (tp, fp, fn, tn))
    # spot anchors: the uniquely determined splits for two of the rows
    assert (14, 0, 3, 16) in _matching_matrices(*REFERENCE_ROWS[8])
    assert (14, 1, 3, 15) in _matching_matrices(*REFERENCE_ROWS[5])


def test_criterion_5_template_loss():
    """EMA matches direct recomputation to 1e-12; loss bounded; zero at anchor."""
    gen = np.random.default_rng(0)
    tmpl = Templates(gen.normal(size=16), gen.normal(size=16))
    f = gen.normal(size=(8, 16))
    labels = np.array([0, 1, 1, 0, 1, 0, 0, 1])
    updated = update_templates(tmpl, f, labels)
    np.testing.assert_allclose(
        updated.t_pos, 0.9 * tmpl.t_pos + 0.1 * f[labels == 1].mean(axis=0), rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        updated.t_neg, 0.9 * tmpl.t_neg + 0.1 * f[labels == 0].mean(axis=0), rtol=0, atol=1e-12
    )
    only_neg = update_templates(tmpl, f[:2], np.array([0, 0]))
    np.testing.assert_array_equal(only_neg.t_pos, tmpl.t_pos)

    # the 1e-12 slack only means anything at 64-bit; float32 roundoff is 1e-7
    with dc.using_dtype(np.float64):
        for _ in range(2000):
            t2 = make_templates(8, gen)
            batch = Tensor(gen.normal(size=(4, 8)) * gen.uniform(0.1, 10.0))
            value = contrastive(batch, gen.integers(0, 2, size=4), t2).item()
            assert -1e-12 <= value <= 2.0 + 1e-12

        anchored = Tensor(np.stack([tmpl.t_neg, tmpl.t_pos]))
        assert abs(contrastive(anchored, np.array([0, 1]), tmpl).item()) < 1e-12


def test_criterion_6_end_to_end_synthetic():
    """Seeded synthetic pipeline: >=95% test accuracy, early best epoch,
    under ten minutes, and a bitwise-identical retrain of the best fold."""
    t0 = time.monotonic()
    model_cfg = synth_config()
    train_cfg = TrainConfig(seed=42, max_epochs=100, patience=10)
    records = synth_generate(60, seed=42)
    dataset = build_dataset(records, canvas_size=model_cfg.canvas_size)
    result = run_protocol(dataset, model_cfg, train_cfg)
    wall = time.monotonic() - t0

    best = result.fold_results[result.best_fold]
    assert result.test_metrics.accuracy >= 95.0, result.test_metrics.table()
    assert best.best_epoch <= 30
    assert wall < 600.0

    # regenerate from the seed and retrain the winning fold from scratch
    dataset2 = build_dataset(synth_generate(60, seed=42), canvas_size=model_cfg.canvas_size)
    assert dataset_sha256(dataset2) == dataset_sha256(dataset)
    _, folds = split_and_fold([s.label for s in dataset2], train_cfg)
    rerun = train_fold(dataset2, folds, result.best_fold, model_cfg, train_cfg)
    assert rerun.history == best.history  # float equality, so bitwise


def test_criterion_7_ablation_hooks():
    """With fusion or the template term disabled, training still descends."""
    records = synth_generate(16, seed=11)
    dataset = build_dataset(records, canvas_size=synth_config().canvas_size)
    by_label = {lab: [s for s in dataset if s.label == lab] for lab in (0, 1)}
    samples = by_label[0][:12] + by_label[1][:12] + by_label[0][12:] + by_label[1][12:]
    folds = [(np.arange(24), np.arange(24, len(samples)))]  # one fold: 12 + 12 train, the rest val

    variants = (
        (synth_config(use_multiscale=False), {}),
        (synth_config(), {"contrastive_weight": 0.0}),
    )
    for model_cfg, extra in variants:
        cfg = TrainConfig(seed=5, batch_size=8, max_epochs=5, patience=5, **extra)
        res = train_fold(samples, folds, 0, model_cfg, cfg)
        losses = [h[2] for h in res.history]
        assert len(losses) == 5
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-6, "loss rose: %s" % losses


@pytest.mark.skipif(
    "HSDA_DARWIN_RAW" not in os.environ,
    reason="set HSDA_DARWIN_RAW to a csv-v1 raw recordings file to enable",
)
def test_criterion_8_real_dataset_optional():
    """On user-supplied real recordings, training beats the majority baseline."""
    from hsda.ingest import parse_raw, preprocess
    from hsda.model import ModelConfig

    records = [r for r in parse_raw(os.environ["HSDA_DARWIN_RAW"]) if r.task_id == 8]
    sequences = preprocess(records)
    model_cfg = ModelConfig()
    dataset = build_dataset(sequences, canvas_size=model_cfg.canvas_size)
    result = run_protocol(dataset, model_cfg, TrainConfig(seed=42))
    assert result.test_metrics.accuracy > 50.0
