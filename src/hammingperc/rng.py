"""Counter-based random streams keyed by (master_seed, stream).

Philox gives independent, platform-stable streams for any pair of 64-bit
words, so replica r of a run simply uses stream r of the master seed and
results do not depend on scheduling order.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream_rng(master_seed: int, stream: int = 0) -> np.random.Generator:
    """Generator for one (master_seed, stream) pair."""
    key = np.array([master_seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_rngs(master_seed: int, streams):
    """Yield a generator for each (master_seed, s), s in ``streams``, that
    draws exactly what ``stream_rng(master_seed, s)`` would.

    A Philox generator is fully set by its key, counter and output buffer,
    so one Generator is re-keyed in place for every stream, which costs
    under a tenth of building a new one.  Each yield therefore moves the
    previous generator to the next stream: finish drawing before advancing.
    """
    rng = np.random.Generator(np.random.Philox(0))
    bit_generator = rng.bit_generator
    # the state of a freshly keyed Philox: zero counter, empty buffer; plain
    # lists, which the state setter reads faster than arrays
    state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": None},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    seed = master_seed & _MASK64
    for stream in streams:
        state["state"]["key"] = [seed, stream & _MASK64]
        bit_generator.state = state
        yield rng
