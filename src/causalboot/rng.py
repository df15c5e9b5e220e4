"""Deterministic random substreams.

Every random draw in the package comes from a substream addressed by a
root seed plus a small integer key such as (domain, subset, attempt).
Keys are mapped to independent Philox streams through
``numpy.random.SeedSequence`` spawn keys, so results are a pure function
of (seed, key) and never depend on scheduling or thread count.
"""

from __future__ import annotations

import numpy as np

_SEED_MASK = (1 << 64) - 1

# Substream domains.  Each family of draws gets its own tag so keys can
# never collide across uses.
DOMAIN_SUBSET = 1        # subset index draws: (DOMAIN_SUBSET, k, attempt)
DOMAIN_REPLICATE = 2     # replicate count draws: (DOMAIN_REPLICATE, k, attempt)
DOMAIN_DATASET = 3       # simulated datasets: (DOMAIN_DATASET, i)
DOMAIN_ORACLE = 4        # oracle-CI datasets: (DOMAIN_ORACLE, i)
DOMAIN_RUNSEED = 5       # derived integer seeds for nested runs
DOMAIN_BENCH = 7         # benchmark datasets and runs


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for the substream addressed by ``key`` under ``seed``."""
    return np.random.SeedSequence(
        entropy=int(seed) & _SEED_MASK,
        spawn_key=tuple(int(v) for v in key),
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, key)."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *key)))


def derive_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit integer seed for a nested run (e.g. one replication)."""
    ss = seed_sequence(seed, DOMAIN_RUNSEED, *key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
