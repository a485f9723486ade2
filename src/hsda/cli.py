"""Command-line pipeline driver.

Subcommands: preprocess | render | synth | train | evaluate | gradcheck.
Settings merge three layers, later winning: dataclass defaults, --config
file, explicit flags; evaluate then takes the SIDECAR_KEYS settings from the
checkpoint sidecar. Every value is checked at the merge. Every output
directory receives a config.txt with the fully merged settings, so any
artifact can be traced back to the run that made it. Identical inputs,
flags, and seed give byte-identical outputs.

Exit codes: 0 success, 1 validation or check failure, 2 usage error.

Heavy imports happen inside the command bodies: main() first reads
HSDA_THREADS and pins the BLAS pools, which only works while numpy is not
yet loaded.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import ConfigError, ProtocolError
from .runconfig import (
    RAW_FORMATS,
    RunConfig,
    make_runconfig,
    write_runconfig,
)

GRADCHECK_TOLERANCE = 1e-4

# settings that ride with the weights in the checkpoint sidecar, so evaluate
# rebuilds the same split and architecture without re-specifying flags
SIDECAR_KEYS = ("scale", "multiscale", "seed", "k_folds", "test_fraction")


def _pin_threads() -> None:
    cap = os.environ.get("HSDA_THREADS")
    if cap is None or cap == "":
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ConfigError("HSDA_THREADS must be a positive integer, got %r" % cap)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = cap


def _runconfig_from(args: argparse.Namespace, sidecar=None) -> RunConfig:
    """Defaults, then --config, then flags, then the checkpoint sidecar."""
    overrides = {}
    for key in ("seed", "out", "raw_format", "z_max", "size", "n", "scale"):
        if getattr(args, key, None) is not None:
            overrides[key] = getattr(args, key)
    if getattr(args, "no_multiscale", False):
        overrides["multiscale"] = False
    if getattr(args, "no_contrastive", False):
        overrides["contrastive_weight"] = 0.0
    overrides.update(sidecar or {})
    return make_runconfig(getattr(args, "config", None), overrides)


def _prepare_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out, exist_ok=True)
    write_runconfig(cfg, os.path.join(cfg.out, "config.txt"))
    return cfg.out


def _record_stem(subject_id: str, task_id: int) -> str:
    return "%s_task%02d" % (subject_id, task_id)


def _model_config(cfg: RunConfig):
    from .model import ModelConfig, synth_config, toy_config

    preset = {"toy": toy_config, "synth": synth_config, "full": ModelConfig}[cfg.scale]
    return preset(use_multiscale=cfg.multiscale)


def _load_sequences(data_path: str, cfg: RunConfig):
    """Parse one raw CSV, or every *.csv in a directory, then preprocess."""
    from .ingest import parse_raw, preprocess

    if os.path.isdir(data_path):
        paths = sorted(
            os.path.join(data_path, name)
            for name in os.listdir(data_path)
            if name.endswith(".csv")
        )
        if not paths:
            raise ProtocolError("no .csv files in %s" % data_path)
    else:
        paths = [data_path]
    records = []
    for path in paths:
        records.extend(parse_raw(path, cfg.raw_format))
    return preprocess(records, z_max=cfg.z_max)


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .features import kinematic_features, write_signal_csv
    from .ingest import clean_record, parse_raw

    records = parse_raw(args.raw, cfg.raw_format)
    out = _prepare_out(cfg)
    lines, subjects = [], []
    kept = dropped = 0
    for r in records:
        if r.subject_id not in subjects:
            subjects.append(r.subject_id)
        seq, outliers = clean_record(r, cfg.z_max)
        try:
            if seq is None:
                raise ProtocolError("unsalvageable")
            signals = kinematic_features(seq)
        except ProtocolError as exc:
            dropped += 1
            lines.append("%s task %02d: dropped (%s)" % (r.subject_id, r.task_id, exc))
            continue
        filename = _record_stem(r.subject_id, r.task_id) + ".csv"
        write_signal_csv(signals, os.path.join(out, filename))
        kept += 1
        lines.append(
            "%s task %02d: ok, outliers replaced %d -> %s"
            % (r.subject_id, r.task_id, outliers, filename)
        )
    with open(os.path.join(out, "manifest.txt"), "w") as fh:
        fh.write("subjects: %s\n" % " ".join(subjects))
        fh.write("kept: %d\ndropped: %d\n" % (kept, dropped))
        for line in lines:
            fh.write(line + "\n")
    print("%d records kept, %d dropped -> %s" % (kept, dropped, out))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .features import render_image, write_ppm

    sequences = _load_sequences(args.raw, cfg)
    out = _prepare_out(cfg)
    written = 0
    for seq in sequences:
        stem = _record_stem(seq.subject_id, seq.task_id)
        try:
            canvas = render_image(seq, size=cfg.size)
        except ProtocolError as exc:
            print("%s: dropped (%s)" % (stem, exc), file=sys.stderr)
            continue
        write_ppm(canvas, os.path.join(out, stem + ".ppm"))
        written += 1
    print("%d images (%dx%d) -> %s" % (written, cfg.size, cfg.size, out))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .features import synth_generate, write_raw_csv

    records = synth_generate(cfg.n, cfg.seed)
    out = _prepare_out(cfg)
    path = os.path.join(out, "synthetic.csv")
    write_raw_csv(records, path)
    print("%d records (%d per class) -> %s" % (len(records), cfg.n, path))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .model import save_checkpoint
    from .train import build_dataset, run_protocol, write_history_csv, write_metrics

    model_cfg = _model_config(cfg)
    sequences = _load_sequences(args.data, cfg)
    dataset = build_dataset([(s, s.label) for s in sequences], canvas_size=model_cfg.canvas_size)
    result = run_protocol(dataset, model_cfg, cfg)

    out = _prepare_out(cfg)
    for fr in result.fold_results:
        print(
            "fold %d: best epoch %d, val acc %.3f, %d epochs run"
            % (fr.fold, fr.best_epoch, fr.best_val_acc, len(fr.history))
        )
    best = result.fold_results[result.best_fold]
    write_history_csv(os.path.join(out, "history.csv"), best.history)
    write_metrics(os.path.join(out, "metrics.txt"), result.test_metrics)
    sidecar = {key: getattr(cfg, key) for key in SIDECAR_KEYS}
    sidecar["best_fold"] = result.best_fold
    save_checkpoint(os.path.join(out, "checkpoint.bin"), result.model.parameter_dict(), sidecar)
    print(result.test_metrics.table())
    print("checkpoint, history, metrics -> %s" % out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _runconfig_from(args)  # flags and --config fail here, before the checkpoint is read
    from .model import HsdaNet, load_checkpoint, restore_parameters
    from .train import build_dataset, evaluate, split_and_fold, write_metrics

    params, meta = load_checkpoint(args.checkpoint)
    for key in SIDECAR_KEYS:
        if key not in meta:
            raise ProtocolError("checkpoint sidecar is missing %r" % key)
    try:
        cfg = _runconfig_from(args, {key: meta[key] for key in SIDECAR_KEYS})
    except ConfigError as exc:
        raise ConfigError("checkpoint sidecar of %s: %s" % (args.checkpoint, exc)) from None
    model_cfg = _model_config(cfg)
    sequences = _load_sequences(args.data, cfg)
    dataset = build_dataset([(s, s.label) for s in sequences], canvas_size=model_cfg.canvas_size)
    test_idx, _ = split_and_fold([s.label for s in dataset], cfg)

    model = HsdaNet(model_cfg, seed=cfg.seed)
    restore_parameters(model, params)
    metrics = evaluate(model, [dataset[i] for i in test_idx], cfg.batch_size)
    out = _prepare_out(cfg)
    write_metrics(os.path.join(out, "metrics.txt"), metrics)
    print(metrics.table())
    print("metrics -> %s" % out)
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    import numpy as np

    from . import diffcore as dc
    from .model import HsdaNet, synth_config, toy_config

    failures = checks = 0
    worst = 0.0

    def report(name: str, err: float) -> None:
        nonlocal failures, checks, worst
        ok = err < GRADCHECK_TOLERANCE
        failures += not ok
        checks += 1
        worst = max(worst, err)
        print("  %-24s %.3e  %s" % (name, err, "ok" if ok else "FAIL"))

    print("primitive gradients (eps 1e-5, 64-bit):")
    for name, err in dc.primitive_checks(seed=cfg.seed):
        report(name, err)
    if failures:
        # the composed model rests on these primitives: with one wrong, its
        # check adds nothing and would take most of the run time
        print("%d of %d primitive checks failed; composed model not checked" % (failures, checks))
        return 1

    model_cfg = {"toy": toy_config, "synth": synth_config}[args.scale](blocks_per_stage=2)
    # batch 2 covers gradients summed across the samples of a batch
    for batch in (1, 2):
        print("composed %s model, batch %d (2 coordinates per parameter):" % (args.scale, batch))
        with dc.using_dtype(np.float64):
            model = HsdaNet(model_cfg, seed=cfg.seed)
            gen = np.random.default_rng(cfg.seed)
            # init puts most weights within 2 sigma of zero; spreading them out
            # avoids checking gradients only in the near-linear regime
            for _, p in model.parameters():
                p.values = p.values + gen.normal(size=p.shape) * 0.2
            imgs = gen.normal(size=(batch, 3, model_cfg.canvas_size, model_cfg.canvas_size))
            sigs = [gen.normal(size=(model_cfg.n_channels, 32 + 7 * i)) for i in range(batch)]
            target = gen.normal(size=(batch, model_cfg.n_classes))

            def loss_fn():
                logits, _ = model(imgs, sigs)
                return dc.sum_(dc.mul(logits, dc.Tensor(target)))

            errs = dc.check_parameter_gradients(
                loss_fn,
                model.parameter_dict(),
                samples_per_param=2,
                rng=np.random.default_rng(cfg.seed + batch),
            )
        for name in sorted(errs):
            report(name, errs[name])

    print("max rel err %.3e over %d checks" % (worst, checks))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsda",
        description="handwriting dynamics pipeline: preprocess, render, synthesize, train, evaluate, gradient-check",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="key=value settings file")
        p.add_argument("--seed", type=int, help="master RNG seed")
        p.add_argument("--out", metavar="DIR", help="output directory")

    p = sub.add_parser("preprocess", help="raw pen stream -> kinematic signal CSVs + manifest")
    p.add_argument("raw", help="raw recordings file")
    p.add_argument("--raw-format", choices=RAW_FORMATS, dest="raw_format")
    p.add_argument("--z-max", type=float, dest="z_max", help="outlier threshold")
    common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("render", help="raw pen stream -> dynamics-colored P6 images")
    p.add_argument("raw", help="raw recordings file")
    p.add_argument("--raw-format", choices=RAW_FORMATS, dest="raw_format")
    p.add_argument("--z-max", type=float, dest="z_max")
    p.add_argument("--size", type=int, help="image side in pixels")
    common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="generate a labeled synthetic raw dataset")
    p.add_argument("--n", type=int, help="records per class")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="k-fold training on a raw dataset")
    p.add_argument("data", help="raw recordings file or directory of them")
    p.add_argument("--raw-format", choices=RAW_FORMATS, dest="raw_format")
    p.add_argument("--z-max", type=float, dest="z_max")
    p.add_argument("--scale", choices=("full", "synth", "toy"), help="model preset")
    p.add_argument("--no-multiscale", action="store_true", help="disable stage fusion")
    p.add_argument("--no-contrastive", action="store_true", help="disable the template loss term")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the held-out test split")
    p.add_argument("data", help="the raw dataset the checkpoint was trained on")
    p.add_argument("--checkpoint", required=True, help="weights written by train")
    p.add_argument("--raw-format", choices=RAW_FORMATS, dest="raw_format")
    p.add_argument("--z-max", type=float, dest="z_max")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive and the composed model")
    p.add_argument("--scale", choices=("toy", "synth"), default="toy", help="composed model preset")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        _pin_threads()
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ProtocolError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
