"""A fixed probe of the host's speed, run right before and after every timed
call.

The shared host this benchmark was written on changes speed by up to 2x
for seconds to minutes at a time while nothing else runs in the VM: the
same pure-Python loop takes 60 ms in one second and 90 ms in the next.
That is far more than the program varies from run to run, and a whole run
can fall into a slow spell, so no statistic over one run's own call times
removes it.  The probe does a fixed amount of the kinds of work the program
does: an interpreted loop, many small numpy calls on fresh Philox
generators, and a broad spread of library code (json, sorting,
formatting).  The host slows these as it slows the program; gathers from
a table beyond the core's caches were tried as a fourth part and tracked
the small-graph workload worse.  A call's time is scaled by
``REFERENCE_S / probe time``: the time the call would have taken on a host
where the probe takes ``REFERENCE_S``.  The probe never calls hammingperc,
so a change to the program cannot move it.
"""

from __future__ import annotations

import json
import time

import numpy as np

# the probe's time on the quiet host the benchmark was defined on; it only
# sets the scale of the reported numbers, not their spread
REFERENCE_S = 0.0035


class Probe:
    """Times one fixed unit of mixed work per call, about 3.5 ms when quiet."""

    def __init__(self):
        self._doc = {f"k{i}": [i, str(i) * 3, {"x": i / 7}]
                     for i in range(150)}

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total, last = 0, {}
        for i in range(10_000):
            last[i & 1023] = total
            total += i * i
        for key in range(75):
            x = np.random.Generator(np.random.Philox(key=key)).random(16)
            np.flatnonzero(x < 0.5).sum()
            np.sort(x)
        for _ in range(3):
            doc = json.loads(json.dumps(self._doc))
            sorted(doc.items(), key=lambda item: item[1][1])
            "".join(f"{key}:{value[0]:d};" for key, value in doc.items())
        return time.perf_counter() - t0

    def scale(self, samples: int = 3) -> float:
        """``REFERENCE_S`` over the median of ``samples`` probe times."""
        times = sorted(self() for _ in range(samples))
        return REFERENCE_S / times[len(times) // 2]
