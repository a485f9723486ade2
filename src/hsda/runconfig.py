"""Run settings merged from a key = value file and command-line overrides.

TrainConfig declares, defaults and checks the training settings; RunConfig
extends it with the pipeline settings (ingest, synthesis, model preset).
Each setting is declared once, and every value is checked when the settings
are merged, so a bad value fails before any command does work. The model
preset named by `scale` fixes the architecture and the rendered canvas.

This module owns the settings text format, for `--config` files, the
`config.txt` written next to every output artifact and the checkpoint
sidecar alike: one `key = value` per line, `#` comments, blank lines
ignored. A line without `=` or a repeated key is rejected, and so is a key
with no default below in a config file, since a typo in an experiment
config is exactly the mistake that must not pass unnoticed.

This module must stay importable without numpy: the CLI reads HSDA_THREADS
and pins the BLAS thread pools before anything numeric loads.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .errors import ConfigError, read_text

MODEL_SCALES = ("full", "synth", "toy")


@dataclass
class TrainConfig:
    """Optimizer, schedule, split protocol and loss weight of a training run."""

    seed: int = 42
    lr0: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.05
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    k_folds: int = 4
    test_fraction: float = 0.2
    contrastive_weight: float = 0.8  # 0 disables the template term

    def __post_init__(self):
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in u64, got %r" % self.seed)
        for name in ("lr0", "batch_size", "max_epochs", "patience", "k_folds"):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive, got %r" % (name, getattr(self, name)))
        for name in ("momentum", "weight_decay", "contrastive_weight"):
            if getattr(self, name) < 0:
                raise ConfigError("%s must be >= 0, got %r" % (name, getattr(self, name)))
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must be in (0,1), got %r" % self.test_fraction)
        if self.patience > self.max_epochs:
            raise ConfigError(
                "patience %d exceeds max_epochs %d" % (self.patience, self.max_epochs)
            )


@dataclass
class RunConfig(TrainConfig):
    """Every knob the command line exposes, with its documented default."""

    out: str = "out"
    z_max: float = 6.0  # robust z-score threshold for outlier replacement
    n: int = 20  # synthetic records per class
    scale: str = "full"  # model preset: full | synth | toy
    multiscale: bool = True  # stage-wise feature fusion on/off

    def __post_init__(self):
        super().__post_init__()
        if self.scale not in MODEL_SCALES:
            raise ConfigError(
                "scale must be one of %s, got %r" % ("/".join(MODEL_SCALES), self.scale)
            )
        for name in ("z_max", "n"):
            if getattr(self, name) <= 0:
                raise ConfigError("%s must be positive, got %r" % (name, getattr(self, name)))


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key: str, value) -> object:
    """Cast a raw string (or an already-typed override) to the field's type."""
    typ = type(_FIELDS[key].default)  # .type is a string under postponed annotations
    if not isinstance(value, str):
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if isinstance(value, typ) and not (typ is int and isinstance(value, bool)):
            return value
        raise ConfigError("%s expects %s, got %r" % (key, typ.__name__, value))
    text = value.strip()
    if typ is bool:
        lowered = text.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise ConfigError("%s expects true/false, got %r" % (key, text))
    try:
        if typ is int:
            return int(text)
        if typ is float:
            return float(text)
    except ValueError:
        raise ConfigError("%s expects %s, got %r" % (key, typ.__name__, text)) from None
    return text


def parse_config_file(path, known: Optional[Mapping] = _FIELDS) -> Dict[str, str]:
    """Read key = value lines; comments and blank lines are skipped.

    Keys outside `known` are rejected; `known=None` accepts any key.
    """
    values: Dict[str, str] = {}
    for line_no, line in enumerate(read_text(path, ConfigError).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError("%s:%d: expected key = value, got %r" % (path, line_no, stripped))
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if known is not None and key not in known:
            raise ConfigError("%s:%d: unknown key %r" % (path, line_no, key))
        if key in values:
            raise ConfigError("%s:%d: duplicate key %r" % (path, line_no, key))
        values[key] = raw.strip()
    return values


def make_runconfig(path=None, overrides: Optional[Mapping[str, object]] = None) -> RunConfig:
    """Defaults, then the config file, then overrides (flags win)."""
    merged: Dict[str, object] = {}
    if path is not None:
        for key, raw in parse_config_file(path).items():
            merged[key] = _coerce(key, raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _FIELDS:
            raise ConfigError("unknown setting %r" % key)
        merged[key] = _coerce(key, value)
    return RunConfig(**merged)


def write_config_file(path, settings: Mapping[str, object], comment: str) -> None:
    """A `# comment` line, then one key = value line per setting, in order."""
    with open(path, "w") as fh:
        fh.write("# %s\n" % comment)
        for key, value in settings.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            fh.write("%s = %s\n" % (key, value))


def write_runconfig(cfg: RunConfig, path) -> None:
    """Serialize every field, one per line, in declaration order."""
    write_config_file(path, dataclasses.asdict(cfg), "settings used to produce the artifacts in this directory")
