"""Optimizer arithmetic, split protocol, metrics parity, loop semantics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda import diffcore as dc
from hsda import train
from hsda.diffcore import Tensor, make_rng
from hsda.errors import ConfigError, ProtocolError
from hsda.features import kinematic_features, render_image, synth_generate
from hsda.ingest import StrokeSequence, parse_raw, preprocess
from hsda.loss import make_templates
from hsda.model import HsdaNet, ModelConfig, restore_parameters, synth_config, toy_config
from hsda.train import (
    Metrics,
    Sample,
    TrainConfig,
    build_dataset,
    cosine_lr,
    dataset_sha256,
    evaluate,
    run_protocol,
    sgd_step,
    split_and_fold,
    train_fold,
    train_loop,
    write_history_csv,
    write_metrics,
)


def tiny_samples(n, seed=0, canvas=16, t_len=40, separable=True):
    """Random samples; when separable, class 1 gets a large constant offset."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        img = rng.normal(size=(3, canvas, canvas))
        sig = rng.normal(size=(9, t_len))
        if separable and label == 1:
            sig = sig + 3.0
            img = img + 3.0
        out.append(Sample(img, sig, label))
    return out


class TestCosineLr:
    # TrainConfig() defaults: lr0 0.01 over max_epochs 100
    def test_worked_examples(self):
        assert cosine_lr(0, 0.01, 100) == pytest.approx(0.01)
        assert cosine_lr(50, 0.01, 100) == pytest.approx(0.005)
        assert cosine_lr(100, 0.01, 100) == pytest.approx(0.0, abs=1e-18)

    def test_monotone_non_increasing(self):
        seq = [cosine_lr(e, 0.01, 100) for e in range(101)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_epoch_bounds_guard(self):
        with pytest.raises(ConfigError):
            cosine_lr(101, 0.01, 100)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 0.01, 100)


class TestSgdStep:
    def run_step(self, w, g, state, lr, wd=0.0):
        t = Tensor(np.array([w]), requires_grad=True)
        t.grad = np.array([g], dtype=t.values.dtype)
        params = {"w": t}
        sgd_step(params, state, lr, momentum=0.9, weight_decay=wd)
        return t.values[0], state["w"][0]

    def test_single_step(self):
        w, v = self.run_step(1.0, 1.0, {}, lr=0.1)
        assert v == pytest.approx(1.0)
        assert w == pytest.approx(0.9)

    def test_momentum_accumulates_over_two_steps(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        params, state = {"w": t}, {}
        for _ in range(2):
            t.grad = np.array([1.0], dtype=t.values.dtype)
            sgd_step(params, state, lr=0.1, momentum=0.9, weight_decay=0.0)
        assert state["w"][0] == pytest.approx(1.9)
        assert t.values[0] == pytest.approx(0.71)

    def test_weight_decay_augments_gradient(self):
        w, v = self.run_step(2.0, 0.0, {}, lr=0.1, wd=0.05)
        assert v == pytest.approx(0.1)
        assert w == pytest.approx(2.0 - 0.1 * 0.1)

    def test_nan_gradient_names_parameter(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        t.grad = np.array([np.nan], dtype=t.values.dtype)
        with pytest.raises(FloatingPointError, match="stem.w"):
            sgd_step({"stem.w": t}, {}, lr=0.1, momentum=0.9, weight_decay=0.05)

    def test_nan_in_last_block_raises_before_the_parameter_changes(self):
        rng = np.random.default_rng(4)
        params = {n: Tensor(rng.normal(size=3 * 32768 + 5), requires_grad=True) for n in ("first", "stage2.w")}
        for t in params.values():
            t.grad = rng.normal(size=t.shape).astype(np.float32)
        params["stage2.w"].grad[-1] = np.nan
        before = params["stage2.w"].values.copy()
        state = {}
        with pytest.raises(FloatingPointError, match="stage2.w"):
            sgd_step(params, state, lr=0.1, momentum=0.9, weight_decay=0.05)
        np.testing.assert_array_equal(params["stage2.w"].values, before)
        assert "stage2.w" not in state

    def test_missing_gradient_still_decays(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        sgd_step({"w": t}, {}, lr=0.1, momentum=0.9, weight_decay=0.05)
        assert t.values[0] == pytest.approx(2.0 - 0.1 * 0.1)


    def test_matches_out_of_place_formula_bitwise(self):
        # the update as v = momentum * v + (g + wd * w); w = w - lr * v, new arrays each step;
        # the long parameters span several blocks of the blocked update and end in a partial one
        rng = np.random.default_rng(8)
        long = 3 * 32768 + 5
        shapes = {"f64": (6,), "a": (5, 7), "b": (3,), "no_grad": (4, 2), "long": (long,), "long_no_grad": (long,)}
        params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
        params["f64"] = Tensor(params["f64"].values, requires_grad=True, dtype=np.float64)
        ref_w = {n: t.values.copy() for n, t in params.items()}
        ref_v = {n: np.zeros_like(w) for n, w in ref_w.items()}
        state = {}
        for step in range(3):
            lr = 0.1 / (step + 1)
            for n, t in params.items():
                t.grad = None if n.endswith("no_grad") else rng.normal(size=t.shape).astype(np.float32)
                g = t.grad if t.grad is not None else np.zeros_like(ref_w[n])
                ref_v[n] = 0.9 * ref_v[n] + (g + 0.05 * ref_w[n])
                ref_w[n] = ref_w[n] - lr * ref_v[n]
            sgd_step(params, state, lr, momentum=0.9, weight_decay=0.05)
            for n, t in params.items():
                assert t.values.dtype == (np.float64 if n == "f64" else np.float32)
                np.testing.assert_array_equal(t.values, ref_w[n])
                np.testing.assert_array_equal(state[n], ref_v[n])


# ---------------------------------------------------------------------------
# the code the protocol replaced, kept as bitwise references


def greedy_split_and_fold(labels, cfg):
    """split_and_fold that hands each pooled sample, class after class, to the lightest fold."""
    labels = np.asarray(labels)
    n = labels.size
    classes = np.unique(labels)
    order = make_rng(cfg.seed, "shuffle", substream=0).permutation(n)
    by_class = {c: order[labels[order] == c] for c in classes}
    for c in classes:
        if by_class[c].size < cfg.k_folds:
            raise ProtocolError("class %d has %d samples, fewer than k=%d" % (c, by_class[c].size, cfg.k_folds))
    n_test = int(round(cfg.test_fraction * n))
    ideal = {c: cfg.test_fraction * by_class[c].size for c in classes}
    take = {c: int(ideal[c]) for c in classes}
    for c in sorted(classes, key=lambda c: (-(ideal[c] - take[c]), c)):
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

    fold_members = [[] for _ in range(cfg.k_folds)]
    loads = np.zeros(cfg.k_folds, dtype=int)
    for c in classes:
        for idx in pool_parts[c]:
            dest = int(np.argmin(loads))
            fold_members[dest].append(int(idx))
            loads[dest] += 1
    folds = []
    for i in range(cfg.k_folds):
        val = np.sort(np.array(fold_members[i], dtype=int))
        train = np.sort(
            np.concatenate([np.array(fold_members[j], dtype=int) for j in range(cfg.k_folds) if j != i])
        )
        folds.append((train, val))
    return test_idx, folds


def closure_metrics(tp, fp, fn, tn):
    """Metrics.from_counts whose divisions set a shared zero-division flag through a closure."""
    flagged = False

    def ratio(num, den):
        nonlocal flagged
        if den == 0:
            flagged = True
            return 0.0
        return num / den

    precision = ratio(tp, tp + fp)
    recall = ratio(tp, tp + fn)
    f1 = ratio(2 * precision * recall, precision + recall) if (precision + recall) else ratio(0, 0)
    return Metrics(tp, fp, fn, tn, 100.0 * (tp + tn) / (tp + fp + fn + tn),
                   100.0 * precision, 100.0 * recall, 100.0 * f1, flagged)


def same_arrays(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSplitAndFold:
    def test_round_robin_matches_greedy_folds(self):
        rng = np.random.default_rng(2024)
        compared = 0
        for trial in range(240):
            n, k = int(rng.integers(10, 81)), int(rng.integers(2, 6))
            labels = (rng.uniform(size=n) < rng.uniform(0.15, 0.85)).astype(int)
            cfg = TrainConfig(seed=trial, k_folds=k)
            try:
                want = greedy_split_and_fold(labels, cfg)
            except ProtocolError as exc:
                with pytest.raises(ProtocolError, match="^%s$" % re.escape(str(exc))):
                    split_and_fold(labels, cfg)
                continue
            got = split_and_fold(labels, cfg)
            assert same_arrays(got[0], want[0])
            assert len(got[1]) == len(want[1]) == k
            for (gt, gv), (wt, wv) in zip(got[1], want[1]):
                assert same_arrays(gt, wt) and same_arrays(gv, wv)
            compared += 1
        assert compared >= 200

    def labels_17_17(self):
        return np.array([0] * 17 + [1] * 17)

    def test_fold_sizes_34_samples(self):
        # 34 -> 7 test, 27 pooled -> sizes as equal as possible
        cfg = TrainConfig(seed=5)
        test_idx, folds = split_and_fold(self.labels_17_17(), cfg)
        assert test_idx.size == 7
        sizes = sorted(val.size for _, val in folds)
        assert sizes == [6, 7, 7, 7]

    def test_per_class_counts_within_one(self):
        labels = self.labels_17_17()
        cfg = TrainConfig(seed=5)
        test_idx, folds = split_and_fold(labels, cfg)
        test_counts = [int((labels[test_idx] == c).sum()) for c in (0, 1)]
        assert abs(test_counts[0] - 17 * 0.2) <= 1 and abs(test_counts[1] - 17 * 0.2) <= 1
        for c in (0, 1):
            per_fold = [int((labels[val] == c).sum()) for _, val in folds]
            assert max(per_fold) - min(per_fold) <= 1

    def test_partition_is_exact(self):
        labels = self.labels_17_17()
        cfg = TrainConfig(seed=9)
        test_idx, folds = split_and_fold(labels, cfg)
        vals = [set(val.tolist()) for _, val in folds]
        pool = set(range(34)) - set(test_idx.tolist())
        assert set().union(*vals) == pool
        for i in range(4):
            for j in range(i + 1, 4):
                assert not vals[i] & vals[j]
            train, val = folds[i]
            assert set(train.tolist()) == pool - vals[i]

    def test_same_seed_identical_splits(self):
        labels = self.labels_17_17()
        a = split_and_fold(labels, TrainConfig(seed=7))
        b = split_and_fold(labels, TrainConfig(seed=7))
        np.testing.assert_array_equal(a[0], b[0])
        for (ta, va), (tb, vb) in zip(a[1], b[1]):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)
        c = split_and_fold(labels, TrainConfig(seed=8))
        assert not np.array_equal(a[0], c[0])

    def test_small_class_rejected(self):
        labels = np.array([0] * 3 + [1] * 20)
        with pytest.raises(ProtocolError, match="^class 0 has 3 samples, fewer than k=4$"):
            split_and_fold(labels, TrainConfig(seed=0))

    def test_no_samples_rejected(self):
        with pytest.raises(ProtocolError, match="^no samples to split"):
            split_and_fold([], TrainConfig(seed=0))

    def test_class_too_small_after_test_split(self):
        labels = np.array([0] * 4 + [1] * 20)
        with pytest.raises(ProtocolError, match="^class 0 keeps 3 samples after the test split"):
            split_and_fold(labels, TrainConfig(seed=0))

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_fold_size_spread_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        n0, n1 = int(rng.integers(8, 40)), int(rng.integers(8, 40))
        labels = np.array([0] * n0 + [1] * n1)
        test_idx, folds = split_and_fold(labels, TrainConfig(seed=seed))
        sizes = [val.size for _, val in folds]
        assert max(sizes) - min(sizes) <= 1


class TestMetrics:
    def test_published_row_task8(self):
        m = Metrics.from_counts(tp=14, fp=0, fn=3, tn=16)
        assert "%.2f" % m.f1 == "90.32"
        assert "%.2f" % m.accuracy == "90.91"
        assert "%.2f" % m.precision == "100.00"
        assert "%.2f" % m.recall == "82.35"
        assert not m.zero_division

    def test_perfect_classifier(self):
        m = Metrics.from_counts(tp=5, fp=0, fn=0, tn=5)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (100.0, 100.0, 100.0, 100.0)

    def test_no_positive_predictions_flagged(self):
        m = Metrics.from_counts(tp=0, fp=0, fn=4, tn=6)
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f1 == 0.0
        assert m.zero_division
        assert m.accuracy == pytest.approx(60.0)

    @given(
        st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)
    )
    @settings(max_examples=100, deadline=None)
    def test_formulas_match_direct_recomputation(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        m = Metrics.from_counts(tp, fp, fn, tn)
        assert m.accuracy == pytest.approx(100.0 * (tp + tn) / (tp + fp + fn + tn))
        if tp + fp:
            assert m.precision == pytest.approx(100.0 * tp / (tp + fp))
        if tp + fn:
            assert m.recall == pytest.approx(100.0 * tp / (tp + fn))
        if m.precision + m.recall:
            expected = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(expected)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            Metrics.from_counts(0, 0, 0, 0)

    def test_matches_closure_counting(self):
        for tp, fp, fn, tn in np.ndindex(5, 5, 5, 5):
            if tp + fp + fn + tn == 0:
                continue
            got, want = Metrics.from_counts(tp, fp, fn, tn), closure_metrics(tp, fp, fn, tn)
            for field in ("tp", "fp", "fn", "tn", "accuracy", "precision", "recall", "f1", "zero_division"):
                g, w = getattr(got, field), getattr(want, field)
                assert type(g) is type(w) and g == w, (field, tp, fp, fn, tn)


class TestEvaluate:
    def test_counts_match_independent_loop(self):
        model = HsdaNet(toy_config(), seed=0)
        samples = tiny_samples(10, seed=1, separable=False)
        m = evaluate(model, samples, 4)  # chunks of 4, 4 and 2 samples
        preds = [int(np.argmax(model(s.image, s.signal)[0].values[0])) for s in samples]
        tp = sum(p == 1 and s.label == 1 for p, s in zip(preds, samples))
        fp = sum(p == 1 and s.label == 0 for p, s in zip(preds, samples))
        fn = sum(p == 0 and s.label == 1 for p, s in zip(preds, samples))
        tn = sum(p == 0 and s.label == 0 for p, s in zip(preds, samples))
        assert (m.tp, m.fp, m.fn, m.tn) == (tp, fp, fn, tn)

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(HsdaNet(toy_config(), seed=0), [], 4)


class TestTrainLoop:
    def loop(self, train_n=6, val_n=4, separable=True, **cfg_kwargs):
        cfg = TrainConfig(seed=3, batch_size=4, **cfg_kwargs)
        model = HsdaNet(toy_config(), seed=cfg.seed)
        templates = make_templates(16, make_rng(cfg.seed, "init", substream=1))
        train_set = tiny_samples(train_n, seed=11, separable=separable)
        val_set = tiny_samples(val_n, seed=12, separable=separable)
        return train_loop(model, templates, train_set, val_set, cfg)

    def test_history_rows_and_lr_schedule(self):
        result = self.loop(max_epochs=3, patience=3)
        assert len(result.history) == 3
        for epoch, (e, lr, loss_value, acc) in enumerate(result.history):
            assert e == epoch
            assert lr == pytest.approx(cosine_lr(epoch, 0.01, 3))
            assert np.isfinite(loss_value)
            assert 0.0 <= acc <= 1.0

    def test_plateau_stops_patience_epochs_after_best(self):
        # constant validation inputs cannot improve after the first epoch
        cfg = TrainConfig(seed=3, batch_size=4, max_epochs=40, patience=3)
        model = HsdaNet(toy_config(), seed=cfg.seed)
        templates = make_templates(16, make_rng(cfg.seed, "init", substream=1))
        train_set = tiny_samples(4, seed=13, separable=False)
        base = tiny_samples(1, seed=14, separable=False)[0]
        val_set = [
            Sample(base.image, base.signal, lab)
            for lab in (0, 1)
        ]
        result = train_loop(model, templates, train_set, val_set, cfg)
        assert result.best_epoch == 0
        assert len(result.history) == 1 + cfg.patience

    def test_identical_seed_identical_history(self):
        a = self.loop(max_epochs=2, patience=2)
        b = self.loop(max_epochs=2, patience=2)
        assert a.history == b.history
        for name in a.best_state:
            np.testing.assert_array_equal(a.best_state[name], b.best_state[name])

    def test_nan_weights_abort_with_location(self):
        cfg = TrainConfig(seed=3, batch_size=4, max_epochs=2, patience=2)
        model = HsdaNet(toy_config(), seed=cfg.seed)
        model.classifier.w.values[0, 0] = np.nan
        templates = make_templates(16, make_rng(cfg.seed, "init", substream=1))
        with pytest.raises(FloatingPointError, match="epoch 0 batch 0"):
            train_loop(
                model,
                templates,
                tiny_samples(4, seed=15),
                tiny_samples(2, seed=16),
                cfg,
            )

    def test_one_backward_then_one_sgd_step_per_batch(self, monkeypatch):
        # a benchmark wraps dc.backward as a two-argument function and stamps step ends from sgd_step
        events, backward, step = [], dc.backward, train.sgd_step

        def strict_backward(loss, tape):
            events.append("backward")
            return backward(loss, tape)

        def counting_step(*args, **kwargs):
            events.append("sgd_step")
            return step(*args, **kwargs)

        monkeypatch.setattr(dc, "backward", strict_backward)
        monkeypatch.setattr(train, "sgd_step", counting_step)
        result = self.loop(max_epochs=2, patience=2)  # 6 samples in batches of 4
        assert len(result.history) == 2
        assert events == ["backward", "sgd_step"] * 4

    def test_separable_data_reaches_full_val_accuracy(self):
        # synth-scale model on generator data; at this reduced data volume
        # takeoff is seed-dependent, so the seed is load-bearing. The test
        # guards the training mechanics: break the loss, the backward pass,
        # or the generator's class cues and this seed stops converging.
        records = synth_generate(16, seed=11)
        dataset = build_dataset(records, canvas_size=32)
        by_label = {
            lab: [s for s in dataset if s.label == lab] for lab in (0, 1)
        }
        train_set = by_label[0][:12] + by_label[1][:12]
        val_set = by_label[0][12:] + by_label[1][12:]
        # max_epochs also sets the cosine horizon; shortening it decays the
        # lr before this seed's takeoff (around epoch 11) and stalls the run
        cfg = TrainConfig(seed=5, batch_size=8, max_epochs=30, patience=30)
        model = HsdaNet(synth_config(), seed=cfg.seed)
        templates = make_templates(16, make_rng(cfg.seed, "init", substream=1))
        result = train_loop(model, templates, train_set, val_set, cfg)
        assert result.best_val_acc == 1.0

    def test_empty_sets_rejected(self):
        cfg = TrainConfig(seed=0)
        model = HsdaNet(toy_config(), seed=0)
        templates = make_templates(16, make_rng(0, "init", substream=1))
        with pytest.raises(ProtocolError):
            train_loop(model, templates, [], tiny_samples(2), cfg)


class PlainTape(dc.Tape):
    """A tape that ignores on_leaf: every gradient piles up for one sgd_step after backward."""

    def __init__(self, on_leaf=None):
        super().__init__()


class TestGradientsAppliedAsCompleted:
    def run_loop(self, monkeypatch, model_cfg, tape_cls):
        """Parameters, momentum buffers and sgd_step sizes after one epoch from a perturbed init."""
        cfg = TrainConfig(seed=3, batch_size=2, max_epochs=1, patience=1)
        model = HsdaNet(model_cfg, seed=cfg.seed)
        # off the init, whose zero proj and fc2 weights zero most gradients
        rng = np.random.default_rng(9)
        for t in model.parameter_dict().values():
            t.values += rng.normal(0.0, 0.05, size=t.shape).astype(t.dtype)
        states, step_sizes, step = [], [], train.sgd_step

        def recording_step(params, state, *args):
            states.append(state)
            step_sizes.append(len(params))
            return step(params, state, *args)

        monkeypatch.setattr(train, "sgd_step", recording_step)
        monkeypatch.setattr(dc, "Tape", tape_cls)
        templates = make_templates(model_cfg.d, make_rng(cfg.seed, "init", substream=1))
        train_set = tiny_samples(4, seed=11, canvas=model_cfg.canvas_size)
        train_loop(model, templates, train_set, tiny_samples(2, seed=12, canvas=model_cfg.canvas_size), cfg)
        monkeypatch.undo()
        return model.parameter_dict(), states[-1], step_sizes

    @pytest.mark.parametrize("scale", ["toy", "synth", "full"])
    def test_same_bits_as_backward_then_sgd_step(self, monkeypatch, scale):
        model_cfg = {"toy": toy_config, "synth": synth_config, "full": ModelConfig}[scale]()
        params, state, sizes = self.run_loop(monkeypatch, model_cfg, dc.Tape)
        ref_params, ref_state, ref_sizes = self.run_loop(monkeypatch, model_cfg, PlainTape)
        assert sizes == [0, 0] and ref_sizes == [len(params)] * 2  # every update ran inside backward
        assert sorted(state) == sorted(ref_state)
        for name, t in params.items():
            assert t.values.tobytes() == ref_params[name].values.tobytes(), name
            assert state[name].tobytes() == ref_state[name].tobytes(), name
            assert t.grad is None


class TestProtocol:
    def test_four_folds_and_test_metrics(self):
        dataset = tiny_samples(20, seed=21)
        cfg = TrainConfig(seed=4, batch_size=4, max_epochs=2, patience=2)
        result = run_protocol(dataset, toy_config(), cfg)
        assert len(result.fold_results) == 4
        m = result.test_metrics
        assert m.tp + m.fp + m.fn + m.tn == 4
        assert isinstance(result.test_metrics, Metrics)
        assert result.fold_results[result.best_fold].best_val_acc == max(
            r.best_val_acc for r in result.fold_results
        )

    def test_returned_model_is_best_state_on_a_fresh_net(self):
        cfg = TrainConfig(seed=4, batch_size=4, max_epochs=2, patience=2)
        result = run_protocol(tiny_samples(20, seed=21), toy_config(), cfg)
        fresh = HsdaNet(toy_config(), seed=cfg.seed)
        restore_parameters(fresh, result.fold_results[result.best_fold].best_state)
        got, want = result.model.parameter_dict(), fresh.parameter_dict()
        assert list(got) == list(want)
        for name, t in got.items():
            assert t.grad is None and t.requires_grad
            assert same_arrays(t.values, want[name].values), name

    def test_protocol_reproducible(self):
        # each fold rerun on its own through train_fold gives run_protocol's fold bit for bit
        dataset = tiny_samples(20, seed=21)
        cfg = TrainConfig(seed=4, batch_size=4, max_epochs=2, patience=2)
        a = run_protocol(dataset, toy_config(), cfg)
        _, folds = split_and_fold([s.label for s in dataset], cfg)
        assert len(a.fold_results) == len(folds) == cfg.k_folds
        for fold, ra in enumerate(a.fold_results):
            rb, model = train_fold(dataset, folds, fold, toy_config(), cfg)
            assert rb.fold == fold and rb.history == ra.history
            assert list(rb.best_state) == list(ra.best_state) == list(model.parameter_dict())
            for name, values in rb.best_state.items():
                assert same_arrays(values, ra.best_state[name]), (fold, name)


class TestArtifacts:
    def test_history_csv_format(self, tmp_path):
        path = str(tmp_path / "history.csv")
        write_history_csv(path, [(0, 0.01, 1.25, 0.5), (1, 0.009, 1.1, 0.75)])
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,lr,train_loss,val_acc"
        assert len(lines) == 3
        assert lines[1].startswith("0,0.01")

    def test_metrics_keyvalue_format(self, tmp_path):
        path = str(tmp_path / "metrics.txt")
        write_metrics(path, Metrics.from_counts(14, 0, 3, 16))
        content = dict(
            line.split("=", 1) for line in open(path).read().splitlines() if line
        )
        assert content["f1"] == "90.32"
        assert content["accuracy"] == "90.91"
        assert content["precision"] == "100.00"
        assert content["recall"] == "82.35"
        assert content["tp"] == "14"


class TestBuildDataset:
    def test_shapes_and_labels(self):
        records = synth_generate(2, seed=0)
        samples = build_dataset(records, canvas_size=16)
        assert len(samples) == 4
        labels = sorted(s.label for s in samples)
        assert labels == [0, 0, 1, 1]
        for s in samples:
            assert s.image.shape == (3, 16, 16)
            assert s.signal.shape[0] == 9
            assert np.all(np.isfinite(s.signal))

    def test_samples_are_stored_in_the_default_dtype(self):
        records = synth_generate(1, seed=3)
        samples = build_dataset(records, canvas_size=16)
        with dc.using_dtype(np.float64):
            wide = build_dataset(records, canvas_size=16)
        for dtype, built in ((np.float32, samples), (np.float64, wide)):
            for s, record in zip(built, records):
                assert s.image.dtype == dtype and s.signal.dtype == dtype
                np.testing.assert_array_equal(s.image, render_image(record, size=16).pixels.astype(dtype))
                np.testing.assert_array_equal(s.signal, kinematic_features(record).channels.astype(dtype))

    def test_float32_samples_give_the_logits_of_float64_ones(self):
        # the model casts its inputs on entry, so storing them cast changes no logit bit
        records = synth_generate(1, seed=3)
        samples = build_dataset(records, canvas_size=16)
        wide_images = [render_image(r, size=16).pixels for r in records]
        wide_signals = [kinematic_features(r).channels for r in records]
        assert wide_images[0].dtype == np.float64 and wide_signals[0].dtype == np.float64
        model = HsdaNet(toy_config(), seed=0)
        rng = np.random.default_rng(1)
        for _, p in model.parameters():  # move off the init, where zero projections hide the attention path
            p.values += rng.normal(0.0, 0.05, size=p.shape).astype(p.values.dtype)
        narrow, _ = model([s.image for s in samples], [s.signal for s in samples])
        wide, _ = model(wide_images, wide_signals)
        np.testing.assert_array_equal(narrow.values.view(np.uint32), wide.values.view(np.uint32))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_kinematics_dropped(self, caplog):
        good, _ = synth_generate(1, seed=0)
        # the same trace with its timestamps 1e-300 ms apart overflows the derivatives
        squeezed = StrokeSequence(
            good.subject_id, 2, good.label, np.arange(len(good)) * 1e-300,
            good.x, good.y, good.p,
        )
        samples = build_dataset([good, squeezed], canvas_size=16)
        assert len(samples) == 1
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "hc_000 task 02: dropped (kinematic channel" in caplog.text
        np.testing.assert_array_equal(samples[0].signal, build_dataset([good], 16)[0].signal)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_any_parseable_block_becomes_a_sample_or_is_dropped(self, tmp_path_factory, data):
        field = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.floats(-2.0, 2.0).map(repr),
            st.sampled_from(["", "x"]),
        )
        time = st.one_of(
            st.integers(0, 60).map(lambda k: repr(5.0 * k)),
            st.integers(0, 60).map(lambda k: repr(1e-300 * k)),
            field,
        )
        rows = data.draw(st.lists(st.tuples(time, field, field, field), max_size=40))
        label = data.draw(st.sampled_from(["HC", "AD"]))
        path = tmp_path_factory.mktemp("block") / "raw.csv"
        path.write_text("b,1,%s\n" % label + "".join("%s,%s,%s,%s\n" % row for row in rows))
        (record,) = parse_raw(str(path))
        samples = build_dataset(preprocess([record]), canvas_size=16)
        assert len(samples) <= 1
        for sample in samples:
            assert np.all(np.isfinite(sample.signal)) and np.all(np.isfinite(sample.image))


class TestDatasetDigest:
    def test_equal_bytes_in_other_shapes_hash_apart(self):
        values = np.arange(3 * 4 * 4 + 9 * 8, dtype=np.float32)
        image = values[:48].reshape(3, 4, 4)
        long_signal = Sample(image, values[48:].reshape(9, 8), 0)
        wide_signal = Sample(image, values[48:].reshape(8, 9), 0)
        joined = [np.concatenate([s.image.ravel(), s.signal.ravel()]).tobytes() for s in (long_signal, wide_signal)]
        assert joined[0] == joined[1]
        assert dataset_sha256([long_signal]) != dataset_sha256([wide_signal])

    def test_float32_and_float64_samples_hash_apart(self):
        records = synth_generate(1, seed=3)
        narrow = build_dataset(records, canvas_size=16)
        with dc.using_dtype(np.float64):
            wide = build_dataset(records, canvas_size=16)
        assert dataset_sha256(narrow) == dataset_sha256(build_dataset(records, canvas_size=16))
        assert dataset_sha256(narrow) != dataset_sha256(wide)


class TestTrainConfigGuards:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(lr0=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(test_fraction=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(patience=20, max_epochs=10)
        with pytest.raises(ConfigError):
            TrainConfig(contrastive_weight=-0.1)
