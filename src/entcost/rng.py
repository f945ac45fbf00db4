"""Counter-based, splittable random streams.

Every stochastic routine in this package draws from a Philox generator keyed
by a 64-bit experiment seed plus an integer path (trial index, restart index,
and so on).  The same (seed, path) pair always yields the same stream
whatever was drawn before it, so a result does not depend on the order in
which trials, restarts or blocks are computed.
"""

from __future__ import annotations

import numpy as np

from .spectra import _checked_int

_MASK64 = (1 << 64) - 1


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for a (seed, path) address.

    Parameters
    ----------
    seed : int
        Experiment-level seed, any integer (never a float or a bool).
        Negative values are mapped into the unsigned 64-bit range.
    *path : int
        Integers in [0, 2^64) addressing a sub-stream, e.g. a trial index
        followed by a restart index.
    """
    key = tuple(_checked_int(p, "stream path entry", 0, _MASK64) for p in path)
    ss = np.random.SeedSequence(_checked_int(seed, "seed", None) & _MASK64, spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
