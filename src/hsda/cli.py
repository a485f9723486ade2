"""Command-line pipeline driver.

Subcommands: preprocess | render | synth | train | evaluate | gradcheck.
Settings merge three layers, later winning: dataclass defaults, --config
file, explicit flags; evaluate then takes the SIDECAR_KEYS settings from the
checkpoint sidecar, and refuses data whose built samples do not match the
sidecar's data_sha256. gradcheck's scale falls back to toy, not full. Every
value is checked at the merge. Every output directory receives a config.txt
with the fully merged settings, so any artifact can be traced back to the
run that made it. Identical inputs, flags, and seed give byte-identical
outputs.

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
from .runconfig import FIELDS, MODEL_SCALES, RunConfig, make_runconfig, parse_config_file, write_runconfig

GRADCHECK_TOLERANCE = 1e-4
GRADCHECK_SCALES = tuple(scale for scale in MODEL_SCALES if scale != "full")  # full is too large to check

# settings that ride with the weights in the checkpoint sidecar, so evaluate
# rebuilds the same split and architecture without re-specifying flags
SIDECAR_KEYS = ("scale", "multiscale", "seed", "k_folds", "test_fraction")


def _pin_threads() -> None:
    cap = os.environ.get("HSDA_THREADS")
    if cap is None or cap == "":
        return
    if not (cap.isascii() and cap.isdigit()) or int(cap) < 1:
        raise ConfigError("HSDA_THREADS must be a positive integer, got %r" % cap)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = cap


def _runconfig_from(args: argparse.Namespace, pinned=None) -> RunConfig:
    """Defaults, then --config, then flags, then the settings a command pins."""
    # every flag named after a setting; make_runconfig skips the ones not given (None)
    overrides = {key: value for key, value in vars(args).items() if key in FIELDS}
    overrides.update(pinned or {})
    return make_runconfig(getattr(args, "config", None), overrides)


def _prepare_out(cfg: RunConfig) -> str:
    write_runconfig(cfg, os.path.join(cfg.out, "config.txt"))  # makes cfg.out once the settings are encoded
    return cfg.out


def _record_stem(r) -> str:
    return "%s_task%02d" % (r.subject_id, r.task_id)


def _unencodable(filename: str, exc: UnicodeEncodeError) -> str:
    """The drop reason of a record whose output file name the file system cannot encode."""
    return "the file name %s cannot be encoded in %s" % (filename, exc.encoding)


def _model_config(cfg: RunConfig, **overrides):
    from .model import ModelConfig, synth_config, toy_config

    preset = {"toy": toy_config, "synth": synth_config, "full": ModelConfig}[cfg.scale]
    return preset(use_multiscale=cfg.multiscale, **overrides)


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
        records.extend(parse_raw(path))
    return preprocess(records, z_max=cfg.z_max)


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .features import kinematic_features, write_signal_csv
    from .ingest import clean_record, drop_line, parse_raw, record_name

    records = parse_raw(args.raw)
    out = _prepare_out(cfg)
    lines, subjects, seen = [], [], set()
    kept = dropped = 0
    for r in records:
        if r.subject_id not in subjects:
            subjects.append(r.subject_id)
        try:
            seq, outliers = clean_record(r, cfg.z_max, seen)
            signals = kinematic_features(seq)
        except ProtocolError as exc:
            dropped += 1
            lines.append(drop_line(r, exc))
            continue
        filename = _record_stem(r) + ".csv"
        try:
            write_signal_csv(signals, os.path.join(out, filename))
        except UnicodeEncodeError as exc:
            dropped += 1
            lines.append(drop_line(r, _unencodable(filename, exc)))
            continue
        kept += 1
        lines.append("%s: ok, outliers replaced %d -> %s" % (record_name(r), outliers, filename))
    with open(os.path.join(out, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("subjects: %s\n" % " ".join(subjects))
        fh.write("kept: %d\ndropped: %d\n" % (kept, dropped))
        for line in lines:
            fh.write(line + "\n")
    print("%d records kept, %d dropped -> %s" % (kept, dropped, out))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    cfg = _runconfig_from(args)
    from .features import render_image, write_ppm
    from .ingest import drop_line

    size = _model_config(cfg).canvas_size
    sequences = _load_sequences(args.raw, cfg)
    out = _prepare_out(cfg)
    written = 0
    for seq in sequences:
        try:
            canvas = render_image(seq, size=size)
        except ProtocolError as exc:
            print(drop_line(seq, exc), file=sys.stderr)
            continue
        filename = _record_stem(seq) + ".ppm"
        try:
            write_ppm(canvas, os.path.join(out, filename))
        except UnicodeEncodeError as exc:
            print(drop_line(seq, _unencodable(filename, exc)), file=sys.stderr)
            continue
        written += 1
    print("%d images (%dx%d) -> %s" % (written, size, size, out))
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
    from .train import build_dataset, dataset_sha256, run_protocol, write_history_csv, write_metrics

    model_cfg = _model_config(cfg)
    dataset = build_dataset(_load_sequences(args.data, cfg), canvas_size=model_cfg.canvas_size)
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
    sidecar["data_sha256"] = dataset_sha256(dataset)
    save_checkpoint(os.path.join(out, "checkpoint.bin"), result.model.parameter_dict(), sidecar)
    print(result.test_metrics.table())
    print("checkpoint, history, metrics -> %s" % out)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _runconfig_from(args)  # flags and --config fail here, before the checkpoint is read
    from .model import HsdaNet, load_checkpoint, restore_parameters
    from .train import build_dataset, dataset_sha256, evaluate, split_and_fold, write_metrics

    params, meta = load_checkpoint(args.checkpoint)
    for key in SIDECAR_KEYS:
        if key not in meta:
            raise ProtocolError("checkpoint sidecar is missing %r" % key)
    try:
        cfg = _runconfig_from(args, {key: meta[key] for key in SIDECAR_KEYS})
    except ConfigError as exc:
        raise ConfigError("checkpoint sidecar of %s: %s" % (args.checkpoint, exc)) from None
    if "data_sha256" not in meta:
        raise ProtocolError("checkpoint sidecar is missing 'data_sha256'")
    model_cfg = _model_config(cfg)
    dataset = build_dataset(_load_sequences(args.data, cfg), canvas_size=model_cfg.canvas_size)
    # a different file, or the same one preprocessed differently, would be
    # scored silently on a different split
    if dataset_sha256(dataset) != meta["data_sha256"]:
        raise ProtocolError(
            "%s is not the data %s was trained on (data_sha256 differs)" % (args.data, args.checkpoint)
        )
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
    # the flag, then the --config file, then toy: RunConfig's own default is full
    scale = args.scale or (args.config and parse_config_file(args.config).get("scale")) or "toy"
    cfg = _runconfig_from(args, {"scale": scale})
    if cfg.scale not in GRADCHECK_SCALES:
        raise ConfigError("gradcheck takes scale %s, got %r" % (" or ".join(GRADCHECK_SCALES), cfg.scale))
    import numpy as np

    from . import diffcore as dc
    from .model import HsdaNet

    failures = checks = 0
    worst = 0.0

    def report(name: str, err: float) -> None:
        nonlocal failures, checks, worst
        ok = err < GRADCHECK_TOLERANCE
        failures += not ok
        checks += 1
        worst = float(np.max([worst, err]))  # np.max keeps a NaN error; builtin max may drop it
        print("  %-24s %.3e  %s" % (name, err, "ok" if ok else "FAIL"))

    print("primitive gradients (eps 1e-5, 64-bit):")
    for name, err in dc.primitive_checks(seed=cfg.seed):
        report(name, err)
    if failures:
        # the composed model rests on these primitives: with one wrong, its
        # check adds nothing and would take most of the run time
        print("%d of %d primitive checks failed; composed model not checked" % (failures, checks))
        return 1

    model_cfg = _model_config(cfg, blocks_per_stage=2)
    # batch 2 covers gradients summed across the samples of a batch
    for batch in (1, 2):
        print("composed %s model, batch %d (2 coordinates per parameter):" % (cfg.scale, batch))
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
    p.add_argument("--z-max", type=float, dest="z_max", help="outlier threshold")
    common(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("render", help="raw pen stream -> dynamics-colored P6 images")
    p.add_argument("raw", help="raw recordings file")
    p.add_argument("--z-max", type=float, dest="z_max")
    p.add_argument("--scale", choices=MODEL_SCALES, help="model preset whose canvas to draw")
    common(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("synth", help="generate a labeled synthetic raw dataset")
    p.add_argument("--n", type=int, help="records per class")
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="k-fold training on a raw dataset")
    p.add_argument("data", help="raw recordings file or directory of them")
    p.add_argument("--z-max", type=float, dest="z_max")
    p.add_argument("--scale", choices=MODEL_SCALES, help="model preset")
    p.add_argument("--no-multiscale", dest="multiscale", action="store_const", const=False, help="disable stage fusion")
    p.add_argument(
        "--no-contrastive", dest="contrastive_weight", action="store_const", const=0.0, help="disable the template loss term"
    )
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on the held-out test split")
    p.add_argument("data", help="the raw dataset the checkpoint was trained on")
    p.add_argument("--checkpoint", required=True, help="weights written by train")
    p.add_argument("--z-max", type=float, dest="z_max")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="finite-difference check of every primitive and the composed model")
    p.add_argument("--scale", choices=GRADCHECK_SCALES, help="composed model preset (else --config's, else toy)")
    common(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        _pin_threads()  # before parsing: a bad HSDA_THREADS exits 1 even when the usage is wrong
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ProtocolError, FloatingPointError, OSError, UnicodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
