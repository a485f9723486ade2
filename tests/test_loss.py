"""Loss arithmetic, template EMA semantics, and gradient isolation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda import diffcore as dc
from hsda.diffcore import Tensor, make_rng
from hsda.loss import (
    Templates,
    contrastive,
    cross_entropy,
    make_templates,
    total_loss,
    update_templates,
)


def tensor(values):
    return Tensor(values, requires_grad=True, dtype=np.float64)


class TestCrossEntropy:
    def test_uniform_row_gives_ln2(self):
        ce = cross_entropy(tensor([[0.5, 0.5]]), np.array([0]))
        assert ce.item() == pytest.approx(math.log(2.0), rel=1e-12)
        ce = cross_entropy(tensor([[0.5, 0.5]]), np.array([1]))
        assert ce.item() == pytest.approx(math.log(2.0), rel=1e-12)

    def test_perfect_prediction_gives_zero(self):
        ce = cross_entropy(tensor([[1.0, 0.0]]), np.array([0]))
        assert ce.item() == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean_of_the_two(self):
        probs = tensor([[0.5, 0.5], [1.0, 0.0]])
        ce = cross_entropy(probs, np.array([1, 0]))
        assert ce.item() == pytest.approx(math.log(2.0) / 2.0, rel=1e-12)
        assert "%.4f" % ce.item() == "0.3466"

    def test_wrong_certain_prediction_hits_the_floor(self):
        ce = cross_entropy(tensor([[1.0, 0.0]]), np.array([1]))
        assert ce.item() == pytest.approx(-math.log(1e-12), rel=1e-9)

    def test_gradient_matches_numerics(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 2))
        labels = np.array([0, 1, 1, 0])

        def f(x):
            return cross_entropy(dc.softmax_rows(x), labels)

        assert dc.grad_check(f, logits) < 1e-4

    def test_label_shape_guard(self):
        with pytest.raises(dc.ShapeError):
            cross_entropy(tensor([[0.5, 0.5]]), np.array([0, 1]))


class TestContrastive:
    def test_collinear_feature_contributes_zero(self):
        tmpl = Templates(t_pos=np.array([1.0, 2.0, 3.0]), t_neg=np.array([1.0, 0.0, 0.0]))
        f = tensor([[2.0, 4.0, 6.0]])  # scaled copy of t_pos
        loss = contrastive(f, np.array([1]), tmpl)
        assert loss.item() == pytest.approx(0.0, abs=1e-7)

    def test_antiparallel_feature_contributes_two(self):
        tmpl = Templates(t_pos=np.array([1.0, 0.0]), t_neg=np.array([0.0, 1.0]))
        loss = contrastive(tensor([[0.0, -3.0]]), np.array([0]), tmpl)
        assert loss.item() == pytest.approx(2.0, rel=1e-7)

    def test_orthogonal_feature_contributes_one(self):
        tmpl = Templates(t_pos=np.array([1.0, 0.0]), t_neg=np.array([0.0, 1.0]))
        loss = contrastive(tensor([[0.0, 5.0]]), np.array([1]), tmpl)
        assert loss.item() == pytest.approx(1.0, rel=1e-7)

    def test_batch_averages_contributions(self):
        tmpl = Templates(t_pos=np.array([1.0, 0.0]), t_neg=np.array([0.0, 1.0]))
        f = tensor([[1.0, 0.0], [0.0, -1.0]])  # cos=1 for pos, cos=-1 for neg
        loss = contrastive(f, np.array([1, 0]), tmpl)
        assert loss.item() == pytest.approx(1.0, rel=1e-7)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_bounds_hold_for_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 9)), int(rng.integers(2, 17))
        tmpl = make_templates(d, rng)
        f = Tensor(rng.normal(size=(n, d)))
        labels = rng.integers(0, 2, size=n)
        value = contrastive(f, labels, tmpl).item()
        assert 0.0 <= value <= 2.0

    def test_zero_feature_guarded(self):
        tmpl = Templates(t_pos=np.array([1.0, 0.0]), t_neg=np.array([0.0, 1.0]))
        loss = contrastive(tensor([[0.0, 0.0]]), np.array([1]), tmpl)
        assert np.isfinite(loss.item())

    def test_no_gradient_reaches_templates(self):
        rng = np.random.default_rng(1)
        tmpl = make_templates(4, rng)
        before = (tmpl.t_pos.copy(), tmpl.t_neg.copy())
        f = tensor(rng.normal(size=(3, 4)))
        with dc.Tape() as tape:
            loss = total_loss(
                cross_entropy(dc.softmax_rows(tensor(rng.normal(size=(3, 2)))), np.array([0, 1, 0])),
                contrastive(f, np.array([0, 1, 0]), tmpl),
                0.8,
            )
            dc.backward(loss, tape)
        assert f.grad is not None
        np.testing.assert_array_equal(tmpl.t_pos, before[0])
        np.testing.assert_array_equal(tmpl.t_neg, before[1])

    def test_gradient_matches_numerics(self):
        rng = np.random.default_rng(2)
        tmpl = make_templates(5, rng)
        labels = np.array([1, 0, 1])
        f0 = rng.normal(size=(3, 5))

        def f(x):
            return contrastive(x, labels, tmpl)

        assert dc.grad_check(f, f0) < 1e-4


class TestTotalLoss:
    def test_weighting(self):
        assert total_loss(tensor([[1.0]]), tensor([[0.0]]), 0.8).item() == pytest.approx(1.0)
        assert total_loss(tensor([[0.5]]), tensor([[0.5]]), 0.8).item() == pytest.approx(0.9)
        assert total_loss(tensor([[0.7]]), tensor([[123.0]]), 0.0).item() == pytest.approx(0.7)


class TestTemplateUpdates:
    def test_ema_from_zero_template(self):
        tmpl = Templates(t_pos=np.zeros(3), t_neg=np.zeros(3))
        f = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        out = update_templates(tmpl, f, np.array([1, 1]))
        np.testing.assert_allclose(out.t_pos, 0.1 * f.mean(axis=0), atol=1e-15)
        np.testing.assert_array_equal(out.t_neg, tmpl.t_neg)

    def test_empty_class_skips(self):
        rng = np.random.default_rng(3)
        tmpl = make_templates(4, rng)
        f = rng.normal(size=(5, 4))
        out = update_templates(tmpl, f, np.zeros(5, dtype=int))
        np.testing.assert_array_equal(out.t_pos, tmpl.t_pos)
        assert not np.array_equal(out.t_neg, tmpl.t_neg)

    def test_geometric_approach_to_fixed_point(self):
        tmpl = Templates(t_pos=np.zeros(2), t_neg=np.zeros(2))
        target = np.array([[4.0, -2.0]])
        labels = np.array([1])
        gaps = []
        for _ in range(6):
            tmpl = update_templates(tmpl, target, labels)
            gaps.append(np.abs(tmpl.t_pos - target[0]).max())
        ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
        np.testing.assert_allclose(ratios, 0.9, rtol=1e-10)

    def test_exact_against_direct_recomputation(self):
        rng = np.random.default_rng(4)
        tmpl = make_templates(6, rng)
        t_pos0, t_neg0 = tmpl.t_pos.copy(), tmpl.t_neg.copy()
        f = rng.normal(size=(8, 6))
        labels = rng.integers(0, 2, size=8)
        while labels.sum() in (0, 8):
            labels = rng.integers(0, 2, size=8)
        out = update_templates(tmpl, f, labels)
        direct_pos = 0.9 * t_pos0 + 0.1 * f[labels == 1].mean(axis=0)
        direct_neg = 0.9 * t_neg0 + 0.1 * f[labels == 0].mean(axis=0)
        assert np.abs(out.t_pos - direct_pos).max() < 1e-12
        assert np.abs(out.t_neg - direct_neg).max() < 1e-12

    def test_alpha_bounds_guard(self):
        with pytest.raises(ValueError):
            Templates(t_pos=np.zeros(2), t_neg=np.zeros(2), alpha=1.0)

    def test_width_mismatch_guard(self):
        with pytest.raises(ValueError):
            Templates(t_pos=np.zeros(2), t_neg=np.zeros(3))
