"""Host-speed probe: a fixed reference kernel timed between commands.

The benchmark runs on a virtual machine whose cores it shares with other
tenants, and their speed changes by up to 60 % in phases of seconds to
minutes (NOTES.md, Machine).  A short kernel that never touches qpursuit is
timed after every command: a pure-Python breadth-first search over adjacency
lists, a JSON round trip and a chain of small numpy products, the three kinds
of work the workloads do.  Its time relative to NOMINAL is the host's
slowdown at that moment, and a command's latency is divided by the mean
slowdown measured just before and just after it.

The kernel and its inputs are fixed and independent of the package and of
the seed, so a change to the package moves a scaled latency exactly as much
as it moves the raw one, while most of a change in the host's speed cancels.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Median seconds of the three parts on the reference machine (NOTES.md,
# Machine), with one OpenBLAS thread.  A slowdown of 1.0 is that speed.
NOMINAL = (2.6e-3, 5.8e-3, 1.23e-3)
WARM_PROBES = 20


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._adj = [[int(v) for v in np.flatnonzero(rng.random(200) < 0.05)]
                     for _ in range(200)]
        self._doc = {"a": [[float(x) for x in rng.random(8)] for _ in range(150)]}
        self._mat = rng.random((48, 48))
        for _ in range(WARM_PROBES):
            self.probe()

    def _bfs(self):
        for s in range(0, len(self._adj), 8):
            seen, queue = {s}, [s]
            for u in queue:
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)

    def _json(self):
        for _ in range(3):
            json.loads(json.dumps(self._doc))

    def _numpy(self):
        x = self._mat
        for _ in range(60):
            x = np.sqrt(np.abs((x @ self._mat) / 48.0) + 1.0)

    def probe(self):
        """The host's slowdown now, relative to the reference machine (1.0 = as fast)."""
        t0 = time.perf_counter()
        self._bfs()
        t1 = time.perf_counter()
        self._json()
        t2 = time.perf_counter()
        self._numpy()
        t3 = time.perf_counter()
        return ((t1 - t0) / NOMINAL[0] + (t2 - t1) / NOMINAL[1] + (t3 - t2) / NOMINAL[2]) / 3
