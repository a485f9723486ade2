"""Deterministic random streams.

Everything stochastic in the package draws from counter-based Philox
generators keyed by (seed, stream, substream). Streams keep independent
concerns (weight init, shuffling, synthesis, gradient checks) reproducible in
isolation: adding draws to one stream never shifts another. Substreams give
each fold and each synthetic record its own lane within a stream.

The stream ids are part of every seeded output: renumbering one changes
every weight, split and synthetic record drawn from it, so the gap at id 2
stays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

STREAM_INIT = 0
STREAM_SHUFFLE = 1
STREAM_SYNTH = 3
STREAM_CHECK = 4

_NAMES = {
    "init": STREAM_INIT,
    "shuffle": STREAM_SHUFFLE,
    "synth": STREAM_SYNTH,
    "check": STREAM_CHECK,
}

_SUBSTREAM_SPAN = 1 << 32


def make_rng(seed: int, stream=0, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream, substream).

    stream may be a name from the table above or a raw integer id.
    substream < 2**32 selects an independent lane within the stream
    (one per fold, or one per synthetic record).
    """
    if isinstance(stream, str):
        if stream not in _NAMES:
            raise ConfigError("unknown rng stream %r (known: %s)" % (stream, sorted(_NAMES)))
        stream = _NAMES[stream]
    if not 0 <= substream < _SUBSTREAM_SPAN:
        raise ConfigError("substream %d out of range" % substream)
    key = np.array(
        [np.uint64(seed), np.uint64(int(stream) * _SUBSTREAM_SPAN + substream)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
