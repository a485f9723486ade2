"""Binary weight snapshots with a plain-text settings sidecar.

Layout: magic "HSDA", u32 format version, u32 parameter count, then one
record per parameter: u32 name length, utf-8 name, u32 rank, u32 extents,
float32 little-endian values in C order. The settings ride next to the
weights in `<path>.config`, a settings file in the runconfig format, so a
snapshot can be reopened without the code that produced it.
"""

from __future__ import annotations

import math
import os
import struct
from typing import Dict, Tuple

import numpy as np

from ..diffcore import Tensor
from ..errors import ProtocolError
from ..runconfig import parse_config_file, write_config_file

MAGIC = b"HSDA"
VERSION = 1


def config_sidecar_path(path: str) -> str:
    return path + ".config"


def _write_u32(fh, value: int) -> None:
    fh.write(struct.pack("<I", value))


def _read(fh, n: int, what: str) -> bytes:
    # checked before reading, so a corrupt length never sizes a read buffer
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    raw = fh.read(n) if n <= left else b""
    if len(raw) != n:
        raise ProtocolError(
            "checkpoint truncated while reading %s (%d bytes needed, %d left)" % (what, n, left)
        )
    return raw


def _read_u32(fh, what: str) -> int:
    return struct.unpack("<I", _read(fh, 4, what))[0]


def save_checkpoint(path: str, params: Dict[str, Tensor], config: Dict[str, object]) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, VERSION)
        _write_u32(fh, len(params))
        for name, tensor in params.items():
            values = np.ascontiguousarray(tensor.values, dtype="<f4")
            encoded = name.encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            _write_u32(fh, values.ndim)
            for extent in values.shape:
                _write_u32(fh, extent)
            fh.write(values.tobytes())
    write_config_file(config_sidecar_path(path), config, "settings the weights were trained with")


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], Dict[str, str]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ProtocolError("bad checkpoint magic %r" % magic)
        version = _read_u32(fh, "version")
        if version != VERSION:
            raise ProtocolError("unsupported checkpoint version %d" % version)
        count = _read_u32(fh, "parameter count")
        params: Dict[str, np.ndarray] = {}
        for index in range(count):
            name_len = _read_u32(fh, "name length of record %d" % index)
            raw_name = _read(fh, name_len, "name of record %d" % index)
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise ProtocolError("checkpoint record %d has a name that is not utf-8" % index) from None
            if name in params:
                raise ProtocolError("checkpoint record %d repeats parameter name %s" % (index, name))
            rank = _read_u32(fh, "rank of %s" % name)
            shape = tuple(_read_u32(fh, "extent of %s" % name) for _ in range(rank))
            raw = _read(fh, 4 * math.prod(shape), "values of record %d (%s)" % (index, name))
            try:
                params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
            except ValueError:  # numpy caps an array's rank
                raise ProtocolError(
                    "checkpoint record %d (%s) has unsupported rank %d" % (index, name, rank)
                ) from None
            if not np.isfinite(params[name]).all():
                raise ProtocolError("checkpoint record %d (%s) has non-finite values" % (index, name))
        if fh.read(1):
            raise ProtocolError("checkpoint has trailing bytes after its %d records" % count)
    try:
        config = parse_config_file(config_sidecar_path(path), known=None)
    except FileNotFoundError:
        config = {}
    return params, config


def restore_parameters(model, loaded: Dict[str, np.ndarray]) -> None:
    """Copy loaded arrays into the model's parameter arrays in place, matching by name."""
    current = model.parameter_dict()
    missing = sorted(set(current) - set(loaded))
    extra = sorted(set(loaded) - set(current))
    if missing or extra:
        raise ProtocolError(
            "checkpoint does not match the model (missing %s, unexpected %s)"
            % (missing[:3], extra[:3])
        )
    for name, tensor in current.items():
        if loaded[name].shape != tensor.values.shape:
            raise ProtocolError(
                "checkpoint shape %s for %s, model has %s"
                % (loaded[name].shape, name, tensor.values.shape)
            )
        np.copyto(tensor.values, loaded[name])
