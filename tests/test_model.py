"""Attention weight invariants, refinement geometry, and model wiring."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsda import diffcore as dc
from hsda.diffcore import Tensor, make_rng
from hsda.errors import ConfigError, ProtocolError
from hsda.loss import cross_entropy
from hsda.model import (
    DiscrepancyNet,
    GatingMix,
    HsdaNet,
    HybridBlock,
    ImageStem,
    ModelConfig,
    Rfm1d,
    Rfm2d,
    SignalEmbed,
    load_checkpoint,
    multiscale_concat,
    restore_parameters,
    save_checkpoint,
    saw,
    synth_config,
    toy_config,
    trunc_normal,
)
from hsda.model import network
from hsda.model.layers import _DRAW_CHUNK, ChannelNorm2d, Linear, Module


def rand_tensor(rng, shape, requires_grad=False):
    return Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def record_bytes(name: bytes, values=(1.0, 1.0)) -> bytes:
    """One checkpoint record: the raw name and a 1-axis float32 value."""
    values = np.asarray(values, "<f4")
    return struct.pack("<I", len(name)) + name + struct.pack("<II", 1, values.size) + values.tobytes()


def toy_inputs(seed=0, canvas=16, t_len=32):
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(3, canvas, canvas))
    sig = rng.normal(size=(9, t_len))
    return img, sig


# ---------------------------------------------------------------------------


class TestParameterWalk:
    """Module.parameters() finds parameters by walking attributes."""

    @staticmethod
    def names(module):
        return [name for name, _ in module.parameters()]

    def test_own_tensors_before_submodules_in_assignment_order(self):
        rng = make_rng(0, "init")

        class Net(Module):
            def __init__(self):
                self.first = Linear(2, 3, rng)
                self.scale = Tensor(np.ones(3), requires_grad=True)
                self.second = Linear(3, 1, rng)
                self.shift = Tensor(np.zeros(1), requires_grad=True)

        assert self.names(Net()) == ["scale", "shift", "first.w", "first.b", "second.w", "second.b"]

    def test_reassigned_parameter_keeps_its_place(self):
        rng = make_rng(0, "init")
        layer = Linear(2, 3, rng)
        replacement = Tensor(np.zeros((2, 3)), requires_grad=True)
        layer.w = replacement
        assert self.names(layer) == ["w", "b"]
        assert layer.parameter_dict()["w"] is replacement

    def test_module_lists_are_numbered(self):
        rng = make_rng(0, "init")

        class Stack(Module):
            def __init__(self):
                self.layers = [Linear(2, 2, rng), Linear(2, 2, rng, bias=False)]
                self.pair = (Linear(2, 1, rng, bias=False),)

        assert self.names(Stack()) == ["layers.0.w", "layers.0.b", "layers.1.w", "pair.0.w"]

    def test_none_and_plain_attributes_skipped(self):
        rng = make_rng(0, "init")
        layer = Linear(2, 3, rng, bias=False)
        layer.note, layer.sizes, layer.empty = "not a parameter", [2, 3], []
        assert layer.b is None
        assert self.names(layer) == ["w"]


class TestAttentionWeights:
    def test_saw_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        q, k = rand_tensor(rng, (6, 4)), rand_tensor(rng, (6, 4))
        bias = rand_tensor(rng, (6, 6))
        w = saw(q, k, bias)
        assert w.shape == (6, 6)
        np.testing.assert_allclose(w.values.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(w.values > 0)

    def test_saw_bias_row_shift_invariance(self):
        # softmax ignores a constant added to a whole logit row
        rng = np.random.default_rng(1)
        q, k = rand_tensor(rng, (4, 3)), rand_tensor(rng, (4, 3))
        bias = rng.normal(size=(4, 4))
        shifted = bias.copy()
        shifted[2] += 7.5
        a = saw(q, k, Tensor(bias))
        b = saw(q, k, Tensor(shifted))
        np.testing.assert_allclose(a.values, b.values, atol=1e-6)

    def test_saw_key_permutation_permutes_columns(self):
        rng = np.random.default_rng(2)
        q, k = rand_tensor(rng, (5, 4)), rand_tensor(rng, (5, 4))
        zero_bias = Tensor(np.zeros((5, 5)))
        perm = np.array([3, 0, 4, 1, 2])
        a = saw(q, k, zero_bias)
        b = saw(q, Tensor(k.values[perm]), zero_bias)
        np.testing.assert_allclose(a.values[:, perm], b.values, atol=1e-6)

    def test_daw_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        net = DiscrepancyNet(4, make_rng(0, "init"))
        q, k = rand_tensor(rng, (7, 4)), rand_tensor(rng, (7, 4))
        w = net(q, k)
        assert w.shape == (7, 7)
        np.testing.assert_allclose(w.values.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(w.values > 0)

    def test_daw_worked_example_single_feature(self):
        # isolate the kernel-1 path: logits become |q_i - k_j| exactly
        net = DiscrepancyNet(1, make_rng(0, "init"))
        net.conv5.w.values[:] = 0.0
        net.conv3.w.values[:] = 0.0
        net.conv1.w.values[:] = 1.0
        net.reduce.fc1.w.values[:] = 1.0
        net.reduce.fc1.b.values[:] = 0.0
        net.reduce.fc2.w.values[:] = 1.0
        net.reduce.fc2.b.values[:] = 0.0
        q = Tensor(np.array([[1.0], [3.0]]))
        k = Tensor(np.array([[2.0], [5.0]]))
        w = net(q, k)
        expected_logits = np.array([[1.0, 4.0], [1.0, 2.0]])
        e = np.exp(expected_logits - expected_logits.max(axis=1, keepdims=True))
        np.testing.assert_allclose(w.values, e / e.sum(axis=1, keepdims=True), atol=1e-6)

    def test_gate_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(4)
        mixer = GatingMix(make_rng(1, "init"))
        s = dc.softmax_rows(rand_tensor(rng, (8, 8)))
        d = dc.softmax_rows(rand_tensor(rng, (8, 8)))
        _, g = mixer(s, d)
        assert g.shape == (8, 1)
        assert np.all(g.values > 0.0) and np.all(g.values < 1.0)

    def test_mix_rows_sum_to_one_many_draws(self):
        mixer = GatingMix(make_rng(2, "init"))
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 12)
            s = dc.softmax_rows(rand_tensor(rng, (n, n)))
            d = dc.softmax_rows(rand_tensor(rng, (n, n)))
            mix, _ = mixer(s, d)
            np.testing.assert_allclose(mix.values.sum(axis=1), 1.0, atol=1e-6)
            assert np.all(mix.values > 0)

    def test_gate_saturation_selects_one_branch(self):
        rng = np.random.default_rng(6)
        s = dc.softmax_rows(rand_tensor(rng, (5, 5)))
        d = dc.softmax_rows(rand_tensor(rng, (5, 5)))
        mixer = GatingMix(make_rng(3, "init"))
        mixer.gate.w.values[:] = 0.0
        mixer.gate.b.values[:] = 30.0
        mix, g = mixer(s, d)
        np.testing.assert_allclose(g.values, 1.0, atol=1e-9)
        np.testing.assert_allclose(mix.values, s.values, atol=1e-8)
        mixer.gate.b.values[:] = -30.0
        mix, g = mixer(s, d)
        np.testing.assert_allclose(mix.values, d.values, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_hybrid_weights_row_stochastic_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 11))
        width = 8
        block = HybridBlock(width, 2, n, make_rng(seed, "init"))
        collect = []
        block(rand_tensor(rng, (n, width)), collect)
        assert len(collect) == 2
        for entry in collect:
            for key in ("saw", "daw", "mix"):
                np.testing.assert_allclose(
                    entry[key].values.sum(axis=1), 1.0, atol=1e-5
                )
            g = entry["gate"].values
            assert np.all(g > 0) and np.all(g < 1)


class TestHybridBlock:
    def test_fresh_block_is_identity(self):
        # zero-started projection and FFN tail make the residuals exact
        rng = np.random.default_rng(7)
        block = HybridBlock(16, 2, 6, make_rng(4, "init"))
        x = rand_tensor(rng, (6, 16))
        out = block(x)
        np.testing.assert_array_equal(out.values, x.values)

    def test_block_not_token_permutation_equivariant(self):
        # position bias and key-axis convolutions see token order
        rng = np.random.default_rng(8)
        block = HybridBlock(8, 2, 5, make_rng(5, "init"))
        for head in block.heads:
            head.bias.values[:] = rng.normal(size=(5, 5))
        block.proj.w.values[:] = rng.normal(size=(8, 8)) * 0.5
        x = rng.normal(size=(5, 8))
        perm = np.array([4, 2, 0, 3, 1])
        out = block(Tensor(x)).values
        out_perm = block(Tensor(x[perm])).values
        assert not np.allclose(out[perm], out_perm, atol=1e-6)

    def test_block_gradients_match_numerics(self):
        # fresh weights leave the softmax rows near-uniform, where the gate's
        # row-max statistic sits on an argmax tie; spread them out first
        n, width = 4, 8
        with dc.using_dtype(np.float64):
            block = HybridBlock(width, 2, n, make_rng(6, "init"))
            gen = np.random.default_rng(9)
            for _, p in block.parameters():
                p.values = p.values + gen.normal(size=p.shape) * 0.3
            x = gen.normal(size=(n, width))
            weights = gen.normal(size=(n, width))

            def loss_fn():
                return dc.sum_(dc.mul(block(Tensor(x)), Tensor(weights)))

            errs = dc.check_parameter_gradients(
                loss_fn,
                block.parameter_dict(),
                samples_per_param=4,
                rng=np.random.default_rng(10),
            )
        assert max(errs.values()) < 1e-4

    def test_width_must_divide_heads(self):
        with pytest.raises(ValueError):
            HybridBlock(10, 3, 4, make_rng(0, "init"))


class TestRefinement:
    def test_rfm2d_halving_chain(self):
        sizes = [16]
        for _ in range(3):
            sizes.append((sizes[-1] - 1) // 2 + 1)
        assert sizes == [16, 8, 4, 2]
        rng = make_rng(7, "init")
        x = rand_tensor(np.random.default_rng(11), (4, 2, 16, 16))
        for in_hw in sizes[:-1]:
            rfm = Rfm2d(4, 8, in_hw, rng)
            x, z = rfm(x)
            assert x.shape == (4, 2, rfm.out_hw, rfm.out_hw)
            assert z.shape == (2, 8)

    def test_rfm2d_unit_map_is_fixed_point(self):
        rfm = Rfm2d(3, 4, 1, make_rng(8, "init"))
        out, _ = rfm(rand_tensor(np.random.default_rng(12), (3, 1, 1, 1)))
        assert out.shape == (3, 1, 1, 1)

    def test_fresh_rfm2d_branch_is_inert(self):
        rfm = Rfm2d(3, 4, 6, make_rng(9, "init"))
        x = rand_tensor(np.random.default_rng(13), (3, 2, 6, 6))
        refined, _ = rfm(x)
        np.testing.assert_array_equal(refined.values, rfm.pool(x).values)

    def test_rfm1d_halves_with_floor(self):
        rng = make_rng(10, "init")
        x = rand_tensor(np.random.default_rng(14), (5, 2, 9))
        rfm = Rfm1d(5, 9, 4, 9, rng)
        out, z = rfm(x)
        assert out.shape == (5, 2, 4)
        assert z.shape == (2, 9, 4)
        out2, _ = Rfm1d(5, 9, 4, 1, rng)(rand_tensor(np.random.default_rng(15), (5, 1, 1)))
        assert out2.shape == (5, 1, 1)

    def test_fresh_rfm1d_branch_is_inert(self):
        rfm = Rfm1d(4, 9, 4, 10, make_rng(11, "init"))
        x = rand_tensor(np.random.default_rng(16), (4, 2, 10))
        refined, _ = rfm(x)
        np.testing.assert_array_equal(
            refined.values, dc.adaptive_max_pool1d(x, 5).values
        )

    def test_multiscale_concat_widens_every_token(self):
        rng = np.random.default_rng(17)
        tokens = rand_tensor(rng, (2, 10, 16))
        z_prime = rand_tensor(rng, (2, 8))
        z_dprime = rand_tensor(rng, (2, 9, 8))
        out = multiscale_concat(tokens, z_prime, z_dprime)
        assert out.shape == (2, 10, 24)
        np.testing.assert_array_equal(out.values[:, :, :16], tokens.values)
        np.testing.assert_array_equal(out.values[:, 0, 16:], z_prime.values)
        np.testing.assert_array_equal(out.values[:, 1:, 16:], z_dprime.values)

    def test_multiscale_concat_rejects_mismatches(self):
        rng = np.random.default_rng(18)
        tokens = rand_tensor(rng, (1, 10, 16))
        with pytest.raises(dc.ShapeError):
            multiscale_concat(tokens, rand_tensor(rng, (2, 8)), rand_tensor(rng, (1, 9, 8)))
        with pytest.raises(dc.ShapeError):
            multiscale_concat(tokens, rand_tensor(rng, (1, 8)), rand_tensor(rng, (1, 9, 4)))
        with pytest.raises(dc.ShapeError):
            multiscale_concat(tokens, rand_tensor(rng, (1, 8)), rand_tensor(rng, (1, 5, 8)))


class TestEmbeddings:
    def test_stem_shapes_and_stride_arithmetic(self):
        cfg = toy_config()
        stem = ImageStem(cfg, make_rng(12, "init"))
        img = rand_tensor(np.random.default_rng(19), (2, 3, 16, 16))
        token, map2d = stem(img)
        assert token.shape == (2, cfg.d)
        assert map2d.shape == (cfg.stem_channels, 2, 2, 2)

    def test_stem_rejects_wrong_canvas(self):
        stem = ImageStem(toy_config(), make_rng(13, "init"))
        with pytest.raises(ConfigError):
            stem(rand_tensor(np.random.default_rng(20), (1, 3, 32, 32)))

    def test_signal_embed_shapes_any_length(self):
        cfg = toy_config()
        embed = SignalEmbed(cfg, make_rng(14, "init"))
        lengths = (5, 16, 57, 400)
        signals = [np.random.default_rng(t_len).normal(size=(9, t_len)) for t_len in lengths]
        tokens, map1d = embed(signals)
        assert tokens.shape == (len(lengths), 9, cfg.d)
        assert map1d.shape == (cfg.signal_map_channels, len(lengths), cfg.signal_map_len)

    def test_signal_embed_rejects_wrong_channel_count(self):
        embed = SignalEmbed(toy_config(), make_rng(15, "init"))
        with pytest.raises(ConfigError):
            embed([np.random.default_rng(21).normal(size=(7, 32))])


class TestNetwork:
    def test_toy_forward_shapes(self):
        cfg = toy_config()
        net = HsdaNet(cfg, seed=0)
        img, sig = toy_inputs()
        logits, f = net(img, sig)
        assert logits.shape == (1, 2)
        assert f.shape == (1, cfg.d)
        assert np.all(np.isfinite(logits.values))

    def test_stage_widths_grow_by_d_prime(self):
        cfg = ModelConfig()
        assert [cfg.stage_width(l) for l in (1, 2, 3, 4)] == [128, 192, 256, 320]
        flat = toy_config()
        assert [flat.stage_width(l) for l in (1, 2, 3, 4)] == [16, 24, 32, 40]

    @pytest.mark.parametrize("field", ["n_channels", "n_classes", "heads"])
    def test_fixed_counts_are_not_settings(self, field):
        # the 9 kinematic channels and the HC/AD classes are declared elsewhere;
        # every preset runs 2 attention heads
        with pytest.raises(TypeError):
            ModelConfig(**{field: 3})

    def test_default_config_forward_runs(self):
        net = HsdaNet(ModelConfig(), seed=0)
        img, sig = toy_inputs(canvas=128, t_len=100)
        logits, f = net(img, sig)
        assert logits.shape == (1, 2)
        assert f.shape == (1, 128)

    def test_multiscale_off_keeps_width_flat(self):
        cfg = toy_config(use_multiscale=False)
        assert [cfg.stage_width(l) for l in (1, 2, 3, 4)] == [16, 16, 16, 16]
        net = HsdaNet(cfg, seed=0)
        assert not any(name.startswith("rfm") for name in net.parameter_dict())
        img, sig = toy_inputs()
        logits, _ = net(img, sig)
        assert np.all(np.isfinite(logits.values))

    def test_zero_inputs_stay_finite(self):
        net = HsdaNet(toy_config(), seed=0)
        logits, f = net(np.zeros((3, 16, 16)), np.zeros((9, 32)))
        assert np.all(np.isfinite(logits.values))
        assert np.all(np.isfinite(f.values))

    def test_same_seed_same_outputs(self):
        img, sig = toy_inputs(seed=3)
        a = HsdaNet(toy_config(), seed=42)(img, sig)[0].values
        b = HsdaNet(toy_config(), seed=42)(img, sig)[0].values
        np.testing.assert_array_equal(a, b)
        c = HsdaNet(toy_config(), seed=43)(img, sig)[0].values
        assert not np.array_equal(a, c)

    def test_collect_reports_every_block_and_head(self):
        cfg = toy_config()
        net = HsdaNet(cfg, seed=0)
        collect = []
        img, sig = toy_inputs()
        net(img, sig, collect)
        assert len(collect) == cfg.stages * cfg.blocks_per_stage * cfg.heads
        for entry in collect:
            assert entry["saw"].shape == (1, cfg.n_tokens, cfg.n_tokens)

    def batch_inputs(self, n, seed, canvas=16):
        rng = np.random.default_rng(seed)
        images = rng.normal(size=(n, 3, canvas, canvas))
        signals = [rng.normal(size=(9, int(t))) for t in rng.integers(5, 300, size=n)]
        return images, signals

    def test_batch_rows_match_single_sample_calls(self):
        # batched float32 GEMMs may round differently from per-sample ones,
        # so rows agree to float32 tolerances, not bitwise
        cfg = toy_config()
        net = HsdaNet(cfg, seed=0)
        gen = np.random.default_rng(25)
        for _, p in net.parameters():
            p.values = (p.values + gen.normal(size=p.shape) * 0.2).astype(p.values.dtype)
        images, signals = self.batch_inputs(5, seed=26)
        logits, f = net(images, signals)
        assert logits.shape == (5, cfg.n_classes)
        assert f.shape == (5, cfg.d)
        for i in range(5):
            li, fi = net(images[i], signals[i])
            np.testing.assert_allclose(logits.values[i], li.values[0], rtol=1e-5, atol=1e-6)
            np.testing.assert_allclose(f.values[i], fi.values[0], rtol=1e-5, atol=1e-6)

    def test_batch_collect_stays_row_stochastic(self):
        cfg = toy_config()
        net = HsdaNet(cfg, seed=1)
        images, signals = self.batch_inputs(3, seed=27)
        collect = []
        net(images, signals, collect)
        assert len(collect) == cfg.stages * cfg.blocks_per_stage * cfg.heads
        n = cfg.n_tokens
        for entry in collect:
            for key in ("saw", "daw", "mix"):
                w = entry[key].values
                assert w.shape == (3, n, n)
                np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-5)
                assert np.all(w >= 0.0)
            g = entry["gate"].values
            assert g.shape == (3, n, 1)
            assert np.all(g > 0.0) and np.all(g < 1.0)

    def test_batch_needs_one_signal_per_image(self):
        images, signals = self.batch_inputs(3, seed=28)
        with pytest.raises(ConfigError):
            HsdaNet(toy_config(), seed=0)(images, signals[:2])

    def test_gradients_flow_to_all_parameters(self):
        net = HsdaNet(toy_config(), seed=0)
        img, sig = toy_inputs(seed=5)
        with dc.Tape() as tape:
            logits, _ = net(img, sig)
            loss = dc.sum_(dc.mul(logits, logits))
            dc.backward(loss, tape)
        missing = [n for n, t in net.parameter_dict().items() if t.grad is None]
        assert missing == []


class TestCheckpoint:
    def test_roundtrip_restores_outputs_exactly(self, tmp_path):
        cfg = toy_config()
        net = HsdaNet(cfg, seed=1)
        img, sig = toy_inputs(seed=6)
        want = net(img, sig)[0].values
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, net.parameter_dict(), {"seed": 1, "d": cfg.d})
        other = HsdaNet(cfg, seed=99)
        assert not np.array_equal(other(img, sig)[0].values, want)
        loaded, config = load_checkpoint(path)
        restore_parameters(other, loaded)
        np.testing.assert_array_equal(other(img, sig)[0].values, want)
        assert config["seed"] == "1"
        assert config["d"] == str(cfg.d)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ProtocolError):
            load_checkpoint(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        net = HsdaNet(toy_config(), seed=0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, net.parameter_dict(), {})
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(ProtocolError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            (struct.pack("<I", 1) + record_bytes(b"\xffw"), "record 0 has a name that is not utf-8"),
            (struct.pack("<II", 1, 8) + b"w", "truncated while reading name of record 0"),
            (struct.pack("<I", 1) + record_bytes(b"w") + b"\x00", "trailing bytes after its 1 records"),
            (struct.pack("<I", 2) + record_bytes(b"w") * 2, "record 1 repeats parameter name w"),
            # 65536**4 wraps to 0 in int64
            (
                struct.pack("<II", 1, 1) + b"w" + struct.pack("<5I", 4, *[65536] * 4),
                r"values of record 0 \(w\) \(73786976294838206464 bytes needed, 0 left\)",
            ),
            (
                struct.pack("<II", 1, 1) + b"w" + struct.pack("<II", 1, 2**32 - 1) + b"\x00" * 8,
                r"values of record 0 \(w\) \(17179869180 bytes needed, 8 left\)",
            ),
            (
                struct.pack("<II", 1, 1) + b"w" + struct.pack("<66I", 65, *[1] * 64, 0),
                r"record 0 \(w\) has unsupported rank 65",
            ),
            (
                struct.pack("<I", 2) + record_bytes(b"w") + record_bytes(b"v", [1.0, float("nan")]),
                r"record 1 \(v\) has non-finite values",
            ),
            (
                struct.pack("<I", 1) + record_bytes(b"w", [float("-inf")]),
                r"record 0 \(w\) has non-finite values",
            ),
        ],
        ids=[
            "non-utf8-name",
            "truncated-name",
            "trailing-bytes",
            "duplicate-name",
            "extents-overflow",
            "extent-beyond-file",
            "rank-beyond-numpy",
            "nan-value",
            "infinite-value",
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, body, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"HSDA" + struct.pack("<I", 1) + body)
        with pytest.raises(ProtocolError, match=message):
            load_checkpoint(str(path))

    def test_random_corruptions_load_or_raise_protocol_error(self, tmp_path):
        path = tmp_path / "model.ckpt"
        params = {
            "a": Tensor(np.arange(6.0).reshape(2, 3)),
            "bias": Tensor(np.ones(4)),
            "s": Tensor(np.float64(2.5)),
        }
        save_checkpoint(str(path), params, {})
        blob = path.read_bytes()
        rng = np.random.default_rng(0)
        outcomes = {"loaded": 0, "rejected": 0}
        for _ in range(400):
            bad = bytearray(blob)
            for at in rng.integers(0, len(bad), size=rng.integers(1, 4)):
                bad[at] = rng.integers(0, 256)
            if rng.random() < 0.25:
                bad = bad[: rng.integers(0, len(bad))]
            path.write_bytes(bytes(bad))
            try:
                load_checkpoint(str(path))
                outcomes["loaded"] += 1
            except ProtocolError:
                outcomes["rejected"] += 1
        assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0

    def test_mismatched_names_rejected(self, tmp_path):
        net = HsdaNet(toy_config(), seed=0)
        path = str(tmp_path / "model.ckpt")
        params = dict(net.parameter_dict())
        params.pop(next(iter(params)))
        save_checkpoint(path, params, {})
        loaded, _ = load_checkpoint(path)
        with pytest.raises(ProtocolError):
            restore_parameters(net, loaded)

    def test_restore_copies_into_the_existing_arrays(self, tmp_path):
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, HsdaNet(toy_config(), seed=1).parameter_dict(), {})
        loaded, _ = load_checkpoint(path)
        for dtype in (np.float32, np.float64):
            with dc.using_dtype(dtype):
                net = HsdaNet(toy_config(), seed=99)
            before = {name: t.values for name, t in net.parameters()}
            restore_parameters(net, loaded)
            for name, t in net.parameters():
                assert t.values is before[name]
                assert t.values.dtype == dtype
                np.testing.assert_array_equal(t.values, loaded[name].astype(dtype))
                assert t.values.astype("<f4").tobytes() == loaded[name].tobytes()

    def test_mismatched_shape_rejected(self):
        net = HsdaNet(toy_config(), seed=0)
        loaded = {name: t.values.copy() for name, t in net.parameters()}
        name = next(iter(loaded))
        loaded[name] = loaded[name].reshape(-1)[:-1]
        with pytest.raises(ProtocolError, match="checkpoint shape"):
            restore_parameters(net, loaded)

    def test_values_stored_as_float32(self, tmp_path):
        with dc.using_dtype(np.float64):
            net = HsdaNet(toy_config(), seed=0)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, net.parameter_dict(), {})
        loaded, _ = load_checkpoint(path)
        for arr in loaded.values():
            assert arr.dtype == np.float32


def parameter_digest(net) -> str:
    h = hashlib.sha256()
    for name, t in net.parameters():
        h.update(name.encode())
        h.update(t.values.tobytes())
    return h.hexdigest()


class TestInitialization:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "shape",
        [(1,), (_DRAW_CHUNK - 1,), (_DRAW_CHUNK,), (_DRAW_CHUNK + 1,), (3 * _DRAW_CHUNK + 5,), (96, 48, 3, 3)],
    )
    def test_chunked_draw_matches_one_shot_draw(self, shape, dtype):
        std = 0.02  # INIT_STD
        ref_rng, rng = make_rng(5, "init"), make_rng(5, "init")
        want = np.clip(ref_rng.normal(0.0, std, size=shape), -2 * std, 2 * std).astype(dtype)
        with dc.using_dtype(dtype):
            got = trunc_normal(rng, shape)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize(
        "make_cfg, seed, dtype, digest",
        [
            (ModelConfig, 11, np.float32, "0fd97ec054bb392bc8e026f3fb18da0758d3aff4afb0c88a4339cd37f0e49ff4"),
            (synth_config, 0, np.float32, "fa2ba47eb2b7ebc2135e34e0b0c74820e7289b432f321707142658b9ed6f045c"),
            (toy_config, 3, np.float64, "7a9a806a167d5867c1b17e3c9fe684b8e8e4ef1998563110f241e1053a913e53"),
        ],
        ids=["full-f32", "synth-f32", "toy-f64"],
    )
    def test_whole_model_digests_are_pinned(self, make_cfg, seed, dtype, digest):
        # sha256 over every parameter's name and bytes in parameters() order, as the
        # whole-tensor float64 draw cast afterwards produced them
        with dc.using_dtype(dtype):
            net = HsdaNet(make_cfg(), seed=seed)
        assert parameter_digest(net) == digest

    def test_full_model_build_peaks_near_its_parameters(self):
        # a whole-tensor float64 draw and its clipped copy lifted the peak 26 MiB above
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            net = HsdaNet(ModelConfig(), seed=0)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.values.nbytes for t in net.parameter_dict().values()) <= live - base
        assert peak - live <= 2**20, (peak - live, live - base)


def run_with_grads(fn, inputs, grad_out, params):
    """fn(*inputs) with sum(out * grad_out) backpropagated: [out, grad of every input and param]."""
    for t in list(inputs) + list(params):
        t.zero_grad()
    with dc.Tape() as tape:
        out = fn(*inputs)
        dc.backward(dc.sum_(dc.mul(out, Tensor(grad_out))), tape)
    return [out.values] + [t.grad for t in list(inputs) + list(params)]


class TestMergedKernels:
    """The channel-axis norm and the one-convolution DAW equal the paths they replace."""

    def test_channel_norm_matches_permuted_last_axis_norm(self):
        rng = np.random.default_rng(2)
        with dc.using_dtype(np.float64):
            norm = ChannelNorm2d(4)
            norm.ln.gamma.values[:] = rng.uniform(0.5, 1.5, size=4)
            norm.ln.beta.values[:] = rng.normal(size=4)
            xv = rng.normal(size=(4, 2, 3, 5)) * 2.0 + 1.0
            gy = rng.normal(size=xv.shape)
            gamma, beta = norm.ln.gamma, norm.ln.beta

            def permuted(x):
                return dc.permute(dc.layer_norm(dc.permute(x, (1, 2, 3, 0)), gamma, beta), (3, 0, 1, 2))

            got = run_with_grads(norm, [Tensor(xv, requires_grad=True)], gy, [gamma, beta])
            want = run_with_grads(permuted, [Tensor(xv, requires_grad=True)], gy, [gamma, beta])
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_daw_matches_three_separate_convolutions(self):
        rng = np.random.default_rng(6)
        with dc.using_dtype(np.float64):
            net = DiscrepancyNet(3, make_rng(0, "init"))
            convs = (net.conv5, net.conv3, net.conv1)
            for conv in convs:
                conv.w.values[:] = rng.normal(size=conv.w.shape) * 0.5
                conv.b.values[:] = rng.normal(size=conv.b.shape) * 0.5
            q = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
            k = Tensor(rng.normal(size=(2, 6, 3)), requires_grad=True)
            gy = rng.normal(size=(2, 5, 6))

            def three_convs(q, k):
                (B, n_q, d_h), n_k = q.shape, k.shape[-2]
                # |q_i - k_j| from taped primitives: one-hot matmuls repeat the rows, and |x| = relu(x) + relu(-x)
                pick_q = np.repeat(np.eye(n_q), n_k, axis=1)  # (n_q, n_q * n_k): column i * n_k + j picks q_i
                pick_k = np.tile(np.eye(n_k), n_q)  # (n_k, n_q * n_k): column i * n_k + j picks k_j

                def rows(x, pick):
                    return dc.transpose(dc.matmul(dc.transpose(x), Tensor(pick)))  # (B, n_q * n_k, d_h)

                signed = dc.sub(rows(q, pick_q), rows(k, pick_k))
                diff = dc.reshape(dc.add(dc.relu(signed), dc.relu(dc.neg(signed))), (B, n_q, n_k, d_h))
                stacked = dc.reshape(dc.permute(diff, (3, 0, 1, 2)), (d_h, -1, n_k))
                agg = dc.add(dc.add(net.conv5(stacked), net.conv3(stacked)), net.conv1(stacked))
                flat = dc.reshape(dc.permute(agg, (1, 2, 0)), (-1, d_h))
                return dc.softmax_rows(dc.reshape(net.reduce(flat), diff.shape[:-1]))

            params = [t for conv in convs for t in (conv.w, conv.b)]
            got = run_with_grads(net, [q, k], gy, params)
            want = run_with_grads(three_convs, [q, k], gy, params)
        assert all(g is not None for g in got[1:])
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


class TestStepStructure:
    def test_one_key_difference_conv_per_daw_and_one_stem_permute(self, monkeypatch):
        net = HsdaNet(toy_config(), seed=0)
        tape = dc.Tape()
        recorded = {DiscrepancyNet: [], ImageStem: []}

        def record_nodes(cls):
            call = cls.__call__

            def wrapper(module, *args, **kwargs):
                start = len(tape)
                out = call(module, *args, **kwargs)
                recorded[cls].append([node.name for node in tape._nodes[start:]])
                return out

            monkeypatch.setattr(cls, "__call__", wrapper)

        record_nodes(DiscrepancyNet)
        record_nodes(ImageStem)
        images, signals = zip(toy_inputs(seed=1), toy_inputs(seed=2))
        with tape:
            logits, _ = net(list(images), list(signals))
            dc.backward(cross_entropy(dc.softmax_rows(logits), np.array([0, 1])), tape)

        n_heads = sum(name.endswith(".daw.conv5.w") for name in net.parameter_dict())
        assert n_heads > 0 and len(recorded[DiscrepancyNet]) == n_heads
        # one fused node from q, k and the six convolution parameters, then the reducing perceptron and softmax
        daw = ["key_difference_conv", "reshape", "matmul", "add_bias", "relu", "matmul", "add_bias", "reshape", "softmax_rows"]
        assert recorded[DiscrepancyNet] == [daw] * n_heads
        assert len(recorded[ImageStem]) == 1
        stem = recorded[ImageStem][0]
        # the channel-major map goes back to sample order once, for the flatten
        assert stem.count("permute") == 1 and stem[stem.index("permute") + 1] == "reshape"


    def test_no_dense_image_batch_alive_past_the_stem(self, monkeypatch):
        # the stem's tape keeps what its backward needs; the (B, 3, S, S) batch made from the samples goes
        cfg = synth_config()
        net = HsdaNet(cfg, seed=0)
        rng = np.random.default_rng(4)
        batch, S = 8, cfg.canvas_size
        images = [rng.random((3, S, S)).astype(np.float32) for _ in range(batch)]
        signals = [rng.normal(size=(cfg.n_channels, 60)) for _ in range(batch)]
        held, call = [], HybridBlock.__call__

        def first_block(block, *args, **kwargs):
            if not held:  # bytes still live that the forward allocated in hsda.model.network itself
                snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, network.__file__)])
                held.append(sum(stat.size for stat in snapshot.statistics("filename")))
            return call(block, *args, **kwargs)

        monkeypatch.setattr(HybridBlock, "__call__", first_block)
        tracemalloc.start()
        try:
            with dc.Tape():
                net(images, signals)
        finally:
            tracemalloc.stop()
        assert held and held[0] < batch * 3 * S * S * 4, held


class TestModelGradients:
    def test_toy_model_gradcheck_sampled(self):
        with dc.using_dtype(np.float64):
            net = HsdaNet(toy_config(), seed=0)
            gen = np.random.default_rng(22)
            for _, p in net.parameters():
                p.values = p.values + gen.normal(size=p.shape) * 0.2
            img, sig = toy_inputs(seed=7)
            target = gen.normal(size=(1, 2))

            def loss_fn():
                logits, _ = net(img, sig)
                return dc.sum_(dc.mul(logits, Tensor(target)))

            params = net.parameter_dict()
            rng = np.random.default_rng(23)
            picked = {
                name: params[name]
                for name in rng.choice(sorted(params), size=24, replace=False)
            }
            errs = dc.check_parameter_gradients(
                loss_fn, picked, samples_per_param=2, rng=rng
            )
        assert max(errs.values()) < 1e-4
