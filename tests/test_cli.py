"""Command-line behavior: determinism, provenance sidecars, exit codes."""

import contextlib
import hashlib
import io
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hsda
from hsda import cli
from hsda.diffcore import Tensor, ops
from hsda.errors import ConfigError
from hsda.runconfig import RunConfig, TrainConfig, make_runconfig, parse_config_file, write_runconfig

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

# parses and survives cleaning, but its kinematic channels reach ~1e307
HUGE_KINEMATICS_RAW = """b,1,HC
5.0,1.7209468052432864,2.73632478879006e+306,1.7663251912448072
10.0,-0.9456473628377351,nan,nan
15.0,-0.8353136472004867,1.647384273614417,nan
20.0,-2.7583151453487083e+307,0.49288909900051836,-4.185414248360619e+305
25.0,0.20353927046150133,1.0921792778097412,8.204900731387431e+305
35.0,1.169467856889077,1.752644835086882,-0.521113075241252
"""

# s01 task 01 twice, with different samples: the first block stands
REPEATED_BLOCK_RAW = """s01,1,HC
0,0.0,0.0,0.5
5,0.1,0.2,0.5
10,0.2,0.4,0.6
15,0.3,0.5,0.6
20,0.5,0.6,0.7
25,0.6,0.6,0.7

s01,1,HC
0,1.0,0.0,0.5
5,0.8,0.3,0.5
10,0.5,0.7,0.6
15,0.1,0.9,0.6
20,0.0,1.2,0.7
25,0.2,1.4,0.7
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
        assert cfg.z_max == 6.0
        assert cfg.scale == "full"
        assert cfg.multiscale is True

    def test_file_then_flags_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nseed = 1\nn=64\n")
        cfg = make_runconfig(str(path), {"seed": 2})
        assert cfg.seed == 2
        assert cfg.n == 64

        def merged(text, *flags):
            path.write_text(text)
            return cli._runconfig_from(cli.build_parser().parse_args(["train", "d.csv", "--config", str(path), *flags]))

        cfg = merged("multiscale = true\ncontrastive_weight = 0.5\n", "--no-multiscale", "--no-contrastive")
        assert (cfg.multiscale, cfg.contrastive_weight) == (False, 0.0)
        cfg = merged("multiscale = false\ncontrastive_weight = 0.25\n")
        assert (cfg.multiscale, cfg.contrastive_weight) == (False, 0.25)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        # the scale preset sets the canvas, so a size key is refused
        for line in ("sede = 1\n", "raw_format = csv-v1\n", "size = 128\n"):
            path.write_text(line)
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
        for k in (1, 0, -2):
            with pytest.raises(ConfigError, match="k_folds must be at least 2, got %d" % k):
                make_runconfig(None, {"k_folds": k})
        path.write_text("patience = 20\nmax_epochs = 10\n")
        with pytest.raises(ConfigError, match="patience"):
            make_runconfig(str(path))

    @pytest.mark.parametrize("key", ["lr0", "momentum", "weight_decay", "contrastive_weight", "z_max"])
    def test_non_finite_floats_rejected(self, tmp_path, key):
        path = tmp_path / "run.cfg"
        for text in ("nan", "inf", "-inf"):
            path.write_text("%s = %s\n" % (key, text))
            with pytest.raises(ConfigError, match="%s must be finite" % key):
                make_runconfig(str(path))
            with pytest.raises(ConfigError, match="%s must be finite" % key):
                make_runconfig(None, {key: float(text)})
            if hasattr(TrainConfig, key):
                with pytest.raises(ConfigError, match="%s must be finite" % key):
                    TrainConfig(**{key: float(text)})

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_records_dropped_with_reason(self, tmp_path):
        raw = tmp_path / "mixed.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + unusable_blocks())
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "kept: 1\ndropped: 3\n" in manifest
        assert "s01 task 01: ok" in manifest
        assert "s03 task 02: dropped (outlier repair flags 40 of 40 samples, fewer than 2 left" in manifest
        assert "s04 task 04: dropped (kinematic channel" in manifest
        assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == ["s01_task01.csv"]

    def test_manifest_names_each_drop_reason(self, tmp_path):
        raw = tmp_path / "mixed.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + unusable_blocks())
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        lines = open(out / "manifest.txt").read().splitlines()
        reasons = dict(line.split(": dropped ", 1) for line in lines if ": dropped " in line)
        assert reasons == {
            "s02 task 03": "(too few valid samples)",
            "s03 task 02": "(outlier repair flags 40 of 40 samples, fewer than 2 left to refill from)",
            "s04 task 04": "(kinematic channel speed is not finite)",
        }

    def test_repeated_block_dropped_and_the_first_kept(self, tmp_path):
        from hsda.features import kinematic_features, write_signal_csv
        from hsda.ingest import clean_record, parse_raw

        raw = tmp_path / "twice.csv"
        raw.write_text(REPEATED_BLOCK_RAW)
        out = tmp_path / "sig"
        assert cli.main(["preprocess", str(raw), "--out", str(out)]) == 0
        manifest = open(out / "manifest.txt").read()
        assert "kept: 1\ndropped: 1\n" in manifest
        assert manifest.splitlines()[-1] == "s01 task 01: dropped (repeats an earlier block)"
        assert sorted(f for f in os.listdir(out) if f.endswith(".csv")) == ["s01_task01.csv"]
        expected = tmp_path / "expected.csv"
        first = parse_raw(str(raw))[0]
        write_signal_csv(kinematic_features(clean_record(first, RunConfig.z_max).sequence), str(expected))
        assert (out / "s01_task01.csv").read_bytes() == expected.read_bytes()

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

    def test_outputs_written_into_the_input_directory_are_refused_by_name(self, tmp_path, capsys):
        dd = str(tmp_path / "dd")
        assert cli.main(["synth", "--n", "2", "--out", dd]) == 0
        assert cli.main(["preprocess", dd, "--out", dd]) == 0  # its signal CSVs land next to synthetic.csv
        capsys.readouterr()
        assert cli.main(["preprocess", dd, "--out", str(tmp_path / "dd2")]) == 1
        assert "error: %s:1: expected header" % os.path.join(dd, "ad_000_task01.csv") in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert cli.main(["preprocess", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err


class TestRenderCommand:
    def test_scale_sets_canvas_and_stable_names(self, tmp_path):
        from hsda.features import render_image, write_ppm
        from hsda.ingest import parse_raw, preprocess
        from hsda.model import synth_config

        path = make_synth(tmp_path, n=2, seed=3)
        out = tmp_path / "img"
        assert cli.main(["render", path, "--scale", "synth", "--out", str(out)]) == 0
        assert (out / "hc_000_task01.ppm").read_bytes().startswith(b"P6\n32 32\n255\n")
        for seq in preprocess(parse_raw(path)):
            expected = tmp_path / "expected.ppm"
            write_ppm(render_image(seq, size=synth_config().canvas_size), str(expected))
            name = "%s_task%02d.ppm" % (seq.subject_id, seq.task_id)
            assert (out / name).read_bytes() == expected.read_bytes(), name
        settings = parse_config_file(str(out / "config.txt"))
        assert settings["scale"] == "synth" and "size" not in settings

    def test_default_size(self, tmp_path):
        path = make_synth(tmp_path, n=2, seed=3)
        out = tmp_path / "img"
        assert cli.main(["render", path, "--out", str(out)]) == 0
        assert (out / "ad_000_task01.ppm").read_bytes().startswith(b"P6\n128 128\n255\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unusable_records_dropped(self, tmp_path):
        raw = tmp_path / "mixed.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + unusable_blocks())
        out = tmp_path / "img"
        assert cli.main(["render", str(raw), "--scale", "synth", "--out", str(out)]) == 0
        assert sorted(f for f in os.listdir(out) if f.endswith(".ppm")) == ["s01_task01.ppm"]

    def test_dropped_records_named_on_stderr(self, tmp_path):
        # a fresh process, so no test harness handler stands in for logging's stderr fallback
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsda.__file__)))

        def render_stderr(text, name):
            raw = tmp_path / name
            raw.write_text(text)
            argv = ["render", str(raw), "--scale", "synth", "--out", str(tmp_path / name.replace(".csv", ""))]
            proc = subprocess.run(
                [sys.executable, "-m", "hsda.cli"] + argv, env=env, capture_output=True, text=True, timeout=300
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stderr.splitlines()

        assert render_stderr(TWO_SUBJECT_RAW + "\n" + unusable_blocks(), "mixed.csv") == [
            "s02 task 03: dropped (too few valid samples)",
            "s03 task 02: 40 of 40 samples flagged as outliers",
            "s03 task 02: dropped (outlier repair flags 40 of 40 samples, fewer than 2 left to refill from)",
            "s04 task 04: dropped (kinematic channel speed is not finite)",
        ]
        # a record's drop is reported before a later record is cleaned
        assert render_stderr(HUGE_KINEMATICS_RAW + "\n" + TWO_SUBJECT_RAW, "huge_first.csv") == [
            "b task 01: 3 of 6 samples flagged as outliers",
            "b task 01: dropped (kinematic channel range overflows the color scale)",
            "s02 task 03: dropped (too few valid samples)",
        ]

    def test_repeated_block_named_on_stderr(self, tmp_path):
        raw = tmp_path / "twice.csv"
        raw.write_text(REPEATED_BLOCK_RAW)
        out = tmp_path / "img"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsda.__file__)))
        argv = ["render", str(raw), "--scale", "toy", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "hsda.cli"] + argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == ["s01 task 01: dropped (repeats an earlier block)"]
        assert sorted(f for f in os.listdir(out) if f.endswith(".ppm")) == ["s01_task01.ppm"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_color_range_overflow_is_a_dropped_record(self, tmp_path, capsys):
        # kinematic channels near the float limit overflow the min-max color range
        raw = tmp_path / "huge.csv"
        raw.write_text(TWO_SUBJECT_RAW + "\n" + HUGE_KINEMATICS_RAW)
        out = tmp_path / "img"
        assert cli.main(["render", str(raw), "--scale", "toy", "--out", str(out)]) == 0
        assert "b task 01: dropped (kinematic channel range overflows the color scale)" in capsys.readouterr().err
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

    def test_evaluate_refuses_data_it_was_not_trained_on(self, tmp_path, capsys):
        out = self.train(tmp_path, tmp_path / "run")
        assert "data_sha256 = " in (out / "checkpoint.bin.config").read_text()
        data = str(tmp_path / "data" / "synthetic.csv")
        other = make_synth(tmp_path / "other", n=6, seed=8)
        checkpoint = str(out / "checkpoint.bin")
        for argv in ([other], [data, "--z-max", "2"]):
            eval_out = tmp_path / "eval"
            capsys.readouterr()
            assert cli.main(["evaluate", *argv, "--checkpoint", checkpoint, "--out", str(eval_out)]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and "data_sha256 differs" in err
            assert not (eval_out / "metrics.txt").exists()

    def test_every_record_dropped_exits_one(self, tmp_path, capsys):
        raw = tmp_path / "one.csv"
        raw.write_text("hc_000,1,HC\n0,0.0,0.0,0.5\n5,0.1,0.1,0.5\n10,0.2,0.2,0.5\n15,0.3,0.3,0.5\n")
        assert cli.main(["train", str(raw), "--scale", "toy", "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "error: no samples to split" in err and "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_single_fold_refused_before_the_data_is_read(self, tmp_path, capsys):
        cfg = tmp_path / "one_fold.cfg"
        cfg.write_text("k_folds = 1\n")
        missing = str(tmp_path / "nope.csv")
        assert cli.main(["train", missing, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err == "error: k_folds must be at least 2, got 1\n"
        assert not (tmp_path / "run").exists()

    def test_empty_test_split_exits_one_before_training(self, tmp_path, capsys):
        data = make_synth(tmp_path, n=2, seed=7)
        cfg = tmp_path / "split.cfg"
        cfg.write_text("k_folds = 2\ntest_fraction = 0.1\nmax_epochs = 1\npatience = 1\n")
        argv = ["train", data, "--config", str(cfg), "--scale", "toy", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error: test_fraction 0.1 of 4 samples leaves the test split empty" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "config,error",
        [
            ("lr0 = 1e30\nk_folds = 2\nmax_epochs = 2\npatience = 2\n", "non-finite loss at epoch 1 batch 0"),
            # one epoch of one batch: the loss stays finite, the update does not
            (
                "lr0 = 1e38\nmax_epochs = 1\npatience = 1\nbatch_size = 64\nk_folds = 2\n",
                "non-finite parameter signal_embed.fc1.b after epoch 0",
            ),
        ],
        ids=["loss", "weights"],
    )
    def test_diverging_run_exits_one_without_numpy_warnings(self, tmp_path, capsys, config, error):
        # the overflow is reported once, by the training loop's own check, not first as numpy's warnings
        data = make_synth(tmp_path, n=6, seed=7)
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(config)
        argv = ["train", data, "--config", str(cfg), "--scale", "toy", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == 1
        assert "error: " + error in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    def test_sidecar_without_data_digest_exits_one(self, tmp_path, capsys):
        from hsda.model import save_checkpoint

        sidecar = {"scale": "toy", "multiscale": True, "seed": 3, "k_folds": 4, "test_fraction": 0.2}
        checkpoint = tmp_path / "checkpoint.bin"
        save_checkpoint(str(checkpoint), {}, sidecar)
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        assert "checkpoint sidecar is missing 'data_sha256'" in capsys.readouterr().err
        assert not (tmp_path / "eval" / "metrics.txt").exists()

    def test_repeated_block_across_files_kept_once(self, tmp_path):
        # train and evaluate read every file of a directory as one input
        data = tmp_path / "data"
        data.mkdir()
        first, again = REPEATED_BLOCK_RAW.split("\n\n")
        (data / "a.csv").write_text(first + "\n")
        (data / "b.csv").write_text(again)
        (seq,) = cli._load_sequences(str(data), RunConfig())
        np.testing.assert_array_equal(seq.x, [0.0, 0.1, 0.2, 0.3, 0.5, 0.6])
        # preprocess and render read the directory the same way
        assert cli.main(["preprocess", str(data), "--out", str(tmp_path / "sig")]) == 0
        manifest = (tmp_path / "sig" / "manifest.txt").read_text().splitlines()
        assert manifest[-1] == "s01 task 01: dropped (repeats an earlier block)"
        assert sorted(f for f in os.listdir(tmp_path / "sig") if f.endswith(".csv")) == ["s01_task01.csv"]
        assert cli.main(["render", str(data), "--scale", "toy", "--out", str(tmp_path / "img")]) == 0
        assert sorted(f for f in os.listdir(tmp_path / "img") if f.endswith(".ppm")) == ["s01_task01.ppm"]

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

    @pytest.mark.parametrize(
        "key,value,tail",
        [
            pytest.param("seed", "abc", "", id="seed-abc"),
            pytest.param("multiscale", "maybe", "", id="multiscale-maybe"),
            pytest.param("seed", 3, "seed = 4\n", id="repeated-key"),
            pytest.param("seed", 3, "seed 3\n", id="line-without-equals"),
        ],
    )
    def test_malformed_sidecar_exits_one(self, tmp_path, capsys, key, value, tail):
        from hsda.model import save_checkpoint

        sidecar = {"scale": "toy", "multiscale": True, "seed": 3, "k_folds": 4, "test_fraction": 0.2}
        sidecar[key] = value
        checkpoint = tmp_path / "checkpoint.bin"
        save_checkpoint(str(checkpoint), {}, sidecar)
        with open(str(checkpoint) + ".config", "a") as fh:
            fh.write(tail)
        data = make_synth(tmp_path, n=4, seed=1)
        argv = ["evaluate", data, "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert "Traceback" not in err

    def test_evaluate_reads_a_sidecar_without_spaces(self, tmp_path):
        # earlier versions wrote the sidecar as sorted key=value lines with Python's True/False
        from hsda.model import load_checkpoint

        out = self.train(tmp_path, tmp_path / "run")
        _, meta = load_checkpoint(str(out / "checkpoint.bin"))
        spelled = {"true": "True", "false": "False"}
        lines = ["%s=%s\n" % (key, spelled.get(value, value)) for key, value in sorted(meta.items())]
        (out / "checkpoint.bin.config").write_text("".join(lines))
        assert "multiscale=True\n" in lines
        eval_out = tmp_path / "eval"
        data = str(tmp_path / "data" / "synthetic.csv")
        argv = ["evaluate", data, "--checkpoint", str(out / "checkpoint.bin"), "--out", str(eval_out)]
        assert cli.main(argv) == 0
        assert (eval_out / "metrics.txt").read_bytes() == (out / "metrics.txt").read_bytes()

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
    # the clean run is acceptance criterion 1
    def test_injected_wrong_backward_exits_one(self, capsys, monkeypatch):
        real = ops.sigmoid

        def crooked(x):
            # same values as sigmoid, but the tape sees a 2% larger slope
            y = real(x)
            return ops.add(ops.mul(y, 1.02), Tensor(np.asarray(y.values) * -0.02))

        monkeypatch.setattr(ops, "sigmoid", crooked)
        assert cli.main(["gradcheck", "--scale", "toy"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_nan_composed_error_reaches_the_closing_line(self, capsys, monkeypatch):
        from hsda import diffcore

        # stands in for the composed check: one parameter's error is NaN
        monkeypatch.setattr(diffcore, "check_parameter_gradients", lambda *a, **kw: {"stem.w": float("nan")})
        assert cli.main(["gradcheck", "--scale", "toy"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.endswith("nan  FAIL") for line in lines) == 2
        assert lines[-1].startswith("max rel err nan over ")

    def test_scale_from_flag_then_file_then_toy(self, tmp_path, capsys, monkeypatch):
        from hsda import diffcore

        # stands in for both checks: only the scale of the composed model is read
        monkeypatch.setattr(diffcore, "primitive_checks", lambda seed: [])
        monkeypatch.setattr(diffcore, "check_parameter_gradients", lambda *a, **kw: {"stem.w": 0.0})
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scale = synth\n")
        for argv, scale in (
            (["--config", str(cfg)], "synth"),
            (["--config", str(cfg), "--scale", "toy"], "toy"),
            ([], "toy"),
        ):
            assert cli.main(["gradcheck"] + argv) == 0
            assert "composed %s model, batch 1" % scale in capsys.readouterr().out
        cfg.write_text("scale = full\n")
        assert cli.main(["gradcheck", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: gradcheck takes scale synth or toy, got 'full'\n"


class TestExitCodesAndEnv:
    def test_usage_error_is_two(self):
        for argv in (["frobnicate"], ["preprocess", "raw.csv", "--raw-format", "csv-v1"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2

    def test_files_written_as_utf8_not_in_the_locale_encoding(self, tmp_path):
        # numpy's savetxt warns on its own, so only hsda's opens are made fatal
        script = (
            "import sys, warnings\n"
            "warnings.filterwarnings('error', category=EncodingWarning, module=r'hsda\\.')\n"
            "from hsda.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hsda.__file__)))
        data, train = str(tmp_path / "data" / "synthetic.csv"), str(tmp_path / "train")
        commands = [
            ["synth", "--n", "6", "--seed", "7", "--out", str(tmp_path / "data")],
            ["preprocess", data, "--out", str(tmp_path / "sig")],
            ["train", data, "--config", write_fast_cfg(tmp_path), "--scale", "toy", "--out", train],
            ["evaluate", data, "--checkpoint", os.path.join(train, "checkpoint.bin"), "--out", str(tmp_path / "ev")],
        ]
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-X", "warn_default_encoding", "-c", script] + argv,
                env=env,
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert proc.returncode == 0, proc.stderr

    @staticmethod
    def run_in_ascii_locale(tmp_path, argv):
        # an ASCII locale without UTF-8 mode: the file system cannot encode "é"
        src = os.path.dirname(os.path.dirname(hsda.__file__))
        env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        return subprocess.run(
            [sys.executable, "-m", "hsda.cli"] + argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )

    def test_out_dir_the_locale_cannot_encode_exits_one(self, tmp_path):
        proc = self.run_in_ascii_locale(tmp_path, ["synth", "--n", "2", "--out", "d\u00e9"])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("command", ["preprocess", "render"])
    def test_record_name_the_locale_cannot_encode_is_dropped(self, tmp_path, command):
        first, second = REPEATED_BLOCK_RAW.split("\n\n")
        raw = tmp_path / "raw.csv"
        raw.write_text(first.replace("s01", "hc_000") + "\n\n" + second.replace("s01", "hc_\u00e900"), encoding="utf-8")
        argv = {"preprocess": ["preprocess", str(raw)], "render": ["render", str(raw), "--scale", "toy"]}[command]
        proc = self.run_in_ascii_locale(tmp_path, argv)
        assert proc.returncode == 0, proc.stderr
        suffix = {"preprocess": ".csv", "render": ".ppm"}[command]
        assert sorted(f for f in os.listdir(tmp_path / "out") if f.endswith(suffix)) == ["hc_000_task01" + suffix]
        drop = "hc_\u00e900 task 01: dropped (the file name hc_\u00e900_task01%s cannot be encoded in ascii)" % suffix
        if command == "preprocess":
            manifest = (tmp_path / "out" / "manifest.txt").read_text(encoding="utf-8").splitlines()
            assert manifest[1:] == [
                "kept: 1", "dropped: 1", "hc_000 task 01: ok, outliers replaced 0 -> hc_000_task01.csv", drop
            ]
        else:
            assert proc.stderr == drop.replace("\u00e9", "\\xe9") + "\n"  # stderr escapes what the locale cannot encode
            assert proc.stdout.startswith("1 images (16x16) -> out")

    def test_config_txt_is_written_whole_or_not_at_all(self, tmp_path, capsys):
        # the argv Python makes from the byte 0xff: the directory can be made, but UTF-8 cannot hold its name
        out = tmp_path / "d\udcff"
        assert cli.main(["synth", "--n", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "config.txt").exists()

    def test_out_dir_utf8_cannot_hold_is_not_created(self, tmp_path, capsys):
        # the settings are encoded before the directory is made; the message names the file and the setting
        out = tmp_path / "d\udcff"
        assert cli.main(["synth", "--n", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config.txt: setting out cannot be written as UTF-8 (surrogates not allowed)\n", err
        assert not os.path.lexists(out) and os.listdir(tmp_path) == []

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"seed = 1\n# \xff\n")
        assert cli.main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "run.cfg" in err

    def test_config_byte_order_mark_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfseed = 5\n")
        assert cli.main(["synth", "--n", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "seed = 5\n" in (tmp_path / "o" / "config.txt").read_text()
        # an undecodable byte is still named by its offset in the file, mark included
        cfg.write_bytes(b"\xef\xbb\xbfseed = 5\n# \xff\n")
        assert cli.main(["synth", "--n", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "run.cfg: not utf-8 text (byte 14)" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["many", "\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
    def test_bad_thread_cap_exits_one(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setenv("HSDA_THREADS", cap)
        assert cli.main(["synth", "--n", "2", "--out", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: HSDA_THREADS ") and "Traceback" not in err
        # the cap is read before the arguments are parsed
        assert cli.main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error: HSDA_THREADS ")

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

    def test_benchmark_selftest_passes(self):
        # the benchmark drives the five-argument train_loop, sgd_step, backward and
        # Tape.record by name, so a change to one of them fails here
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        proc = subprocess.run(
            [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True, timeout=900
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        assert "selftest: ok" in proc.stdout


class _Unreachable(Exception):
    """Stands in for the exception classes main() also reports, so they escape instead."""


# one field of a sample row: any float spelling, a plausible value, empty or unparseable
FIELD = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["", "x"]),
)
TIME = st.one_of(
    st.integers(0, 60).map(lambda k: repr(5.0 * k)),
    st.integers(0, 60).map(lambda k: repr(1e-300 * k)),
    FIELD,
)


@st.composite
def raw_block(draw, index):
    """One csv-v1 block: arbitrary rows, or a pen trace with dirty.py's dirt."""
    header = "s%d,1,%s\n" % (index, draw(st.sampled_from(["HC", "AD"])))
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(TIME, FIELD, FIELD, FIELD), max_size=40))
        return header + "".join("%s,%s,%s,%s\n" % row for row in rows)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 48))
    t = 5.0 * np.arange(n) + rng.uniform(0.0, 0.8, size=n)
    if draw(st.booleans()):  # a repeated timestamp, which csv-v1 allows
        t[n // 2] = t[n // 2 - 1]
    xyp = np.stack([np.sin(0.1 * t), np.cos(0.07 * t), 0.5 + 0.05 * np.sin(0.01 * t)], axis=1)
    xyp[rng.random(size=n) < 0.05, rng.integers(0, 3)] *= 25.0  # spike rows
    text = [["%.6f" % v for v in row] for row in xyp]
    for i, j in zip(*np.nonzero(rng.random(size=(n, 3)) < 0.02)):
        text[i][j] = "NaN"
    return header + "".join("%.3f,%s\n" % (ti, ",".join(row)) for ti, row in zip(t, text))


class TestWholeFiles:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(*[raw_block(i) for i in range(n)])))
    @settings(max_examples=50, deadline=None)
    def test_every_command_ends_in_a_result_or_a_message(self, tmp_path_factory, blocks):
        work = tmp_path_factory.mktemp("whole")
        raw, cfg = work / "raw.csv", work / "train.cfg"
        raw.write_text("\n".join(blocks))
        cfg.write_text("max_epochs = 1\npatience = 1\nk_folds = 2\nbatch_size = 4\n")
        train = str(work / "train")
        commands = [
            ["preprocess", str(raw), "--out", str(work / "sig")],
            ["render", str(raw), "--scale", "toy", "--out", str(work / "img")],
            ["train", str(raw), "--scale", "toy", "--config", str(cfg), "--out", train],
            ["evaluate", str(raw), "--checkpoint", os.path.join(train, "checkpoint.bin"), "--out", str(work / "eval")],
        ]
        codes = []
        # with those handlers disarmed, a 1 can only come from a ConfigError or ProtocolError
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "OSError", _Unreachable, raising=False)
            mp.setattr(cli, "FloatingPointError", _Unreachable, raising=False)
            mp.setattr(cli, "UnicodeError", _Unreachable, raising=False)
            for argv in commands:
                if argv[0] == "evaluate" and codes[-1]:
                    break  # no checkpoint to evaluate
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes.append(cli.main(argv))
                assert codes[-1] in (0, 1), argv
                if codes[-1]:
                    assert err.getvalue().startswith("error: "), err.getvalue()
        if codes[0] == 0:
            manifest = (work / "sig" / "manifest.txt").read_text().splitlines()
            for i in range(len(blocks)):
                (line,) = [m for m in manifest if m.startswith("s%d task 01: " % i)]
                assert line.split(": ", 1)[1].startswith(("ok, ", "dropped ("))
        if codes[2] == 1:
            assert not os.path.exists(os.path.join(train, "checkpoint.bin"))
