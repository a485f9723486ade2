"""Command-line behavior: determinism, provenance sidecars, exit codes."""

import hashlib
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import hsda
from hsda import cli
from hsda.diffcore import Tensor, ops
from hsda.errors import ConfigError
from hsda.runconfig import RunConfig, make_runconfig, parse_config_file, write_runconfig

# a salvageable 6-sample block plus one too short to difference
TWO_SUBJECT_RAW = """s01,1,HC
0,0.0,0.0,0.5
5,0.1,0.2,0.5
10,0.2,0.4,0.6
15,0.3,0.5,0.6
20,0.5,0.6,0.7
25,0.6,0.6,0.7

s02,3,AD
0,0.0,0.0,0.5
5,0.1,0.1,0.5
10,0.2,0.2,0.5
"""

FAST_TRAIN = "max_epochs = 2\npatience = 2\nbatch_size = 4\n"


def unusable_blocks():
    """Two csv-v1 blocks that parse but cannot become samples.

    s03: the outlier flags of x, y and p together cover all 40 samples.
    s04: timestamps 1e-300 ms apart overflow the derivatives.
    """
    rng = np.random.default_rng(5)
    x, y, p = rng.normal(scale=1e-3, size=(3, 40))
    x[:18] += 100.0
    y[18:36] += 100.0
    p[36:] += 100.0
    lines = ["s03,2,AD"] + ["%d,%.9g,%.9g,%.9g" % (5 * i, x[i], y[i], p[i] + 0.5) for i in range(40)]
    lines += ["", "s04,4,HC"]
    lines += ["%.17g,%.3f,%.3f,0.5" % (i * 1e-300, 0.1 * i, np.sin(i)) for i in range(20)]
    return "\n".join(lines) + "\n"


def write_fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_TRAIN)
    return str(path)


def make_synth(tmp_path, n=6, seed=7):
    out = tmp_path / "data"
    assert cli.main(["synth", "--n", str(n), "--seed", str(seed), "--out", str(out)]) == 0
    return str(out / "synthetic.csv")


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 42
        assert cfg.size == 128
        assert cfg.scale == "full"
        assert cfg.raw_format == "csv-v1"
        assert cfg.multiscale is True

    def test_file_then_flags_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 1\nsize=64\n")
        cfg = make_runconfig(str(path), {"seed": 2})
        assert cfg.seed == 2
        assert cfg.size == 64

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sede = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            make_runconfig(str(path))
        with pytest.raises(ConfigError, match="unknown setting"):
            make_runconfig(None, {"sede": 1})

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(str(path))

    def test_bad_values_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = forty-two\n")
        with pytest.raises(ConfigError, match="seed"):
            make_runconfig(str(path))
        with pytest.raises(ConfigError, match="scale"):
            make_runconfig(None, {"scale": "huge"})
        with pytest.raises(ConfigError, match="multiscale"):
            make_runconfig(None, {"multiscale": "maybe"})
        with pytest.raises(ConfigError, match="batch_size"):
            make_runconfig(None, {"batch_size": 0})
        path.write_text("patience = 20\nmax_epochs = 10\n")
        with pytest.raises(ConfigError, match="patience"):
            make_runconfig(str(path))

    def test_serialization_roundtrip(self, tmp_path):
        original = RunConfig(seed=9, multiscale=False, z_max=4.5, scale="toy", out="elsewhere")
        path = tmp_path / "out.cfg"
        write_runconfig(original, str(path))
        assert make_runconfig(str(path)) == original

    def test_every_field_serialized(self, tmp_path):
        import dataclasses

        path = tmp_path / "out.cfg"
        write_runconfig(RunConfig(), str(path))
        keys = set(parse_config_file(str(path)))
        assert keys == {f.name for f in dataclasses.fields(RunConfig)}


class TestSynthCommand:
    def test_deterministic_bytes_and_sidecar(self, tmp_path):
        path = make_synth(tmp_path, n=4, seed=9)
        first = open(path, "rb").read()
        assert cli.main(["synth", "--n", "4", "--seed", "9", "--out", str(tmp_path / "data")]) == 0
        assert open(path, "rb").read() == first
        sidecar = open(tmp_path / "data" / "config.txt").read()
        assert "n = 4" in sidecar and "seed = 9" in sidecar

    def test_roundtrips_through_preprocess(self, tmp_path):
        path = make_synth(tmp_path, n=4, seed=1)
        out = tmp_path / "sig"
        assert cli.main(["preprocess", path, "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "kept: 8" in manifest and "dropped: 0" in manifest
        assert len([f for f in os.listdir(out) if f.endswith(".csv")]) == 8


class TestPreprocessCommand:
    def test_manifest_reports_dropped_record(self, tmp_path):
        raw = tmp_path / "two.csv"
        raw.write_text(TWO_SUBJECT_RAW)
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "subjects: s01 s02" in manifest
        assert "s02 task 03: dropped" in manifest
        assert "s01 task 01: ok" in manifest
        assert (out / "s01_task01.csv").exists()
        assert not (out / "s02_task03.csv").exists()

    def test_agrees_with_ingest_preprocess(self, tmp_path):
        from hsda.features import kinematic_features, write_signal_csv
        from hsda.ingest import parse_raw, preprocess

        lines = ["s03,5,AD"]
        for i in range(30):
            t = 5 * (i - 1) if i == 8 else 5 * i  # sample 8 repeats sample 7's time
            x = "50.0" if i == 20 else "%.3f" % (0.1 * i)  # one spike
            y = "" if i == 12 else "%.3f" % np.sin(i / 5.0)  # one missing value
            lines.append("%d,%s,%s,%.3f" % (t, x, y, 0.5 + 0.01 * i))
        raw = tmp_path / "dirty.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + "\n".join(lines) + "\n")
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "kept: 2\ndropped: 1\n" in manifest
        replaced = [line for line in manifest.splitlines() if line.startswith("s03 task 05: ok")]
        assert len(replaced) == 1
        assert int(replaced[0].split("outliers replaced ")[1].split()[0]) >= 1

        for seq in preprocess(parse_raw(str(raw))):
            expected = tmp_path / "expected.csv"
            write_signal_csv(kinematic_features(seq), str(expected))
            name = "%s_task%02d.csv" % (seq.subject_id, seq.task_id)
            assert (out / name).read_bytes() == expected.read_bytes(), name

    def test_unusable_records_dropped_with_reason(self, tmp_path):
        raw = tmp_path / "mixed.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + unusable_blocks())
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "kept: 1\ndropped: 3\n" in manifest
        assert "s01 task 01: ok" in manifest
        assert "s03 task 02: dropped (unsalvageable)" in manifest
        assert "s04 task 04: dropped (kinematic channel" in manifest
        assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == ["s01_task01.csv"]

    def test_non_utf8_raw_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "latin.csv"
        raw.write_bytes(TWO_SUBJECT_RAW.encode() + b"s05,1,HC\n0,\xff,0,0.5\n")
        assert cli.main(["preprocess", str(raw), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "latin.csv" in err

    def test_parse_error_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "bad.csv"
        raw.write_text("not,a,valid,header,line\n")
        assert cli.main(["preprocess", str(raw), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["preprocess", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRenderCommand:
    def test_size_flag_and_stable_names(self, tmp_path):
        path = make_synth(tmp_path, n=2, seed=3)
        out = tmp_path / "img"
        assert cli.main(["render", path, "--size", "64", "--out", str(out)]) == 0
        ppm = out / "hc_000_task01.ppm"
        assert ppm.read_bytes().startswith(b"P6\n64 64\n255\n")
        assert (out / "config.txt").exists()

    def test_default_size(self, tmp_path):
        path = make_synth(tmp_path, n=2, seed=3)
        out = tmp_path / "img"
        assert cli.main(["render", path, "--out", str(out)]) == 0
        assert (out / "ad_000_task01.ppm").read_bytes().startswith(b"P6\n128 128\n255\n")

    def test_unusable_records_dropped(self, tmp_path):
        raw = tmp_path / "mixed.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + unusable_blocks())
        out = tmp_path / "img"
        assert cli.main(["render", str(raw), "--size", "32", "--out", str(out)]) == 0
        assert sorted(f for f in os.listdir(out) if f.endswith(".ppm")) == ["s01_task01.ppm"]


class TestTrainEvaluateCommands:
    def train(self, tmp_path, out, *extra):
        data = make_synth(tmp_path, n=6, seed=7)
        cfg = write_fast_cfg(tmp_path)
        argv = ["train", data, "--config", cfg, "--scale", "toy", "--seed", "3", "--out", str(out)]
        argv.extend(extra)
        assert cli.main(argv) == 0
        return out

    def test_outputs_and_metric_keys(self, tmp_path):
        out = self.train(tmp_path, tmp_path / "run")
        for name in ("checkpoint.bin", "checkpoint.bin.config", "history.csv", "metrics.txt", "config.txt"):
            assert (out / name).exists(), name
        keys = {line.split("=")[0] for line in open(out / "metrics.txt")}
        assert {"accuracy", "precision", "recall", "f1"} <= keys

    def test_evaluate_reproduces_metrics_exactly(self, tmp_path):
        out = self.train(tmp_path, tmp_path / "run")
        eval_out = tmp_path / "eval"
        data = str(tmp_path / "data" / "synthetic.csv")
        code = cli.main(
            ["evaluate", data, "--checkpoint", str(out / "checkpoint.bin"), "--out", str(eval_out)]
        )
        assert code == 0
        assert (eval_out / "metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()

    def test_seed_changes_history(self, tmp_path):
        a = self.train(tmp_path, tmp_path / "a")
        data = str(tmp_path / "data" / "synthetic.csv")
        cfg = str(tmp_path / "fast.cfg")
        assert (
            cli.main(
                ["train", data, "--config", cfg, "--scale", "toy", "--seed", "4", "--out", str(tmp_path / "b")]
            )
            == 0
        )
        assert (a / "history.csv").read_bytes() != (tmp_path / "b" / "history.csv").read_bytes()

    @pytest.mark.parametrize("key,value", [("seed", "abc"), ("multiscale", "maybe")])
    def test_malformed_sidecar_exits_one(self, tmp_path, capsys, key, value):
        from hsda.model import save_checkpoint

        sidecar = {"scale": "toy", "multiscale": True, "seed": 3, "k_folds": 4, "test_fraction": 0.2}
        sidecar[key] = value
        checkpoint = tmp_path / "checkpoint.bin"
        save_checkpoint(str(checkpoint), {}, sidecar)
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert "Traceback" not in err

    def test_non_utf8_checkpoint_exits_one(self, tmp_path, capsys):
        checkpoint = tmp_path / "checkpoint.bin"
        checkpoint.write_bytes(b"HSDA" + struct.pack("<III", 1, 1, 2) + b"\xff\xfe")
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "record 0 has a name that is not utf-8" in err
        assert "Traceback" not in err

    def test_non_utf8_sidecar_exits_one(self, tmp_path, capsys):
        from hsda.model import save_checkpoint

        sidecar = {"scale": "toy", "multiscale": True, "seed": 3, "k_folds": 4, "test_fraction": 0.2}
        checkpoint = tmp_path / "checkpoint.bin"
        save_checkpoint(str(checkpoint), {}, sidecar)
        with open(str(checkpoint) + ".config", "ab") as fh:
            fh.write(b"note=\xff\n")
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "checkpoint.bin.config" in err

    def test_overflowing_extents_checkpoint_exits_one(self, tmp_path, capsys):
        checkpoint = tmp_path / "checkpoint.bin"
        body = struct.pack("<II", 1, 1) + b"w" + struct.pack("<5I", 4, *[65536] * 4)
        checkpoint.write_bytes(b"HSDA" + struct.pack("<I", 1) + body)
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "values of record 0 (w)" in err
        assert "Traceback" not in err

    def test_ablation_flags_recorded_and_train(self, tmp_path):
        out = self.train(tmp_path, tmp_path / "abl", "--no-multiscale", "--no-contrastive")
        sidecar = open(out / "config.txt").read()
        assert "multiscale = false" in sidecar
        assert "contrastive_weight = 0.0" in sidecar


class TestGradcheckCommand:
    def test_clean_run_exits_zero(self, capsys):
        assert cli.main(["gradcheck", "--scale", "toy"]) == 0
        text = capsys.readouterr().out
        assert "max rel err" in text
        for name in ("add:lhs", "matmul:rhs", "softmax_rows", "layer_norm:x", "conv2d:pointwise"):
            assert name in text
        assert "FAIL" not in text

    def test_injected_wrong_backward_exits_one(self, capsys, monkeypatch):
        real = ops.sigmoid

        def crooked(x):
            # same values as sigmoid, but the tape sees a 2% larger slope
            y = real(x)
            return ops.add(ops.mul(y, 1.02), Tensor(np.asarray(y.values) * -0.02))

        monkeypatch.setattr(ops, "sigmoid", crooked)
        assert cli.main(["gradcheck", "--scale", "toy"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestExitCodesAndEnv:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n# \xff\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "run.cfg" in err

    def test_bad_thread_cap_exits_one(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HSDA_THREADS", "many")
        assert cli.main(["synth", "--n", "2", "--out", str(tmp_path / "d")]) == 1
        assert "HSDA_THREADS" in capsys.readouterr().err

    def test_thread_cap_pins_blas_pools(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSDA_THREADS", "2")
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        assert cli.main(["synth", "--n", "2", "--out", str(tmp_path / "d")]) == 0
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            assert os.environ[name] == "2"

    def test_training_identical_at_one_and_two_threads(self, tmp_path):
        # synth scale with a full batch of 16: its GEMMs are large enough for
        # OpenBLAS to split them across both threads, unlike toy scale
        data = make_synth(tmp_path, n=20, seed=5)  # 8 test, 2 folds of 16 + 16
        cfg = tmp_path / "threads.cfg"
        cfg.write_text("max_epochs = 2\npatience = 2\nk_folds = 2\nbatch_size = 16\n")
        src = os.path.dirname(os.path.dirname(hsda.__file__))
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads" + threads)
            env = dict(os.environ, HSDA_THREADS=threads, PYTHONPATH=src)
            argv = ["train", data, "--config", str(cfg), "--scale", "synth", "--seed", "3", "--out", str(out)]
            subprocess.run([sys.executable, "-m", "hsda.cli"] + argv, env=env, check=True, timeout=600)
            weights = hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest()
            runs.append(((out / "history.csv").read_bytes(), weights))
        assert runs[0] == runs[1]
