"""Deterministic random streams.

Everything stochastic in the package draws from counter-based Philox
generators keyed by (seed, stream, substream). A stream is named: weight
init, shuffling, synthesis and gradient checks each draw from their own, so
adding draws to one stream never shifts another. Substreams give each fold
and each synthetic record its own lane within a stream.

The stream ids are part of every seeded output: renumbering one changes
every weight, split and synthetic record drawn from it, so the gap at id 2
stays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

STREAMS = {"init": 0, "shuffle": 1, "synth": 3, "check": 4}

_SUBSTREAM_SPAN = 1 << 32


def make_rng(seed: int, stream: str, substream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, STREAMS[stream], substream).

    substream < 2**32 selects an independent lane within the stream
    (one per fold, or one per synthetic record).
    """
    if stream not in STREAMS:
        raise ConfigError("unknown rng stream %r (known: %s)" % (stream, sorted(STREAMS)))
    if not 0 <= substream < _SUBSTREAM_SPAN:
        raise ConfigError("substream %d out of range" % substream)
    key = np.array(
        [np.uint64(seed), np.uint64(STREAMS[stream] * _SUBSTREAM_SPAN + substream)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
