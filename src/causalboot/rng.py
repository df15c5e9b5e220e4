"""Deterministic random substreams.

Every random draw in the package comes from a substream addressed by a
root seed plus a small integer key such as (domain, subset, attempt).
Keys are mapped to independent SFC64 streams through
``numpy.random.SeedSequence`` spawn keys, so results are a pure function
of (seed, key) and never depend on scheduling or thread count.  SFC64
is a small, fast chaotic generator; the replicate kernel spends most
of its time drawing Poisson variates, about lam + 1 uniforms each, so
the speed of the bit generator sets the speed of resampling.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Substream domains.  Each family of draws gets its own tag so keys can
# never collide across uses.
DOMAIN_SUBSET = 1        # subset index draws: (DOMAIN_SUBSET, k, attempt)
DOMAIN_REPLICATE = 2     # replicate count draws: (DOMAIN_REPLICATE, k, attempt)
DOMAIN_DATASET = 3       # simulated datasets: (DOMAIN_DATASET, i)
DOMAIN_ORACLE = 4        # oracle-CI datasets: (DOMAIN_ORACLE, i)
DOMAIN_RUNSEED = 5       # derived integer seeds for nested runs
DOMAIN_BENCH = 7         # benchmark datasets and runs


def seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """SeedSequence for the substream addressed by ``key`` under ``seed``,
    an integer >= 0 taken whole, so that no two seeds share a stream."""
    if seed < 0:
        raise ConfigError(f"seed must be at least 0, got {seed!r}")
    return np.random.SeedSequence(
        entropy=int(seed),
        spawn_key=tuple(int(v) for v in key),
    )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent SFC64 generator for (seed, key)."""
    return np.random.Generator(np.random.SFC64(seed_sequence(seed, *key)))


def derive_seed(seed: int, *key: int) -> int:
    """Derive a 64-bit integer seed for a nested run (e.g. one replication)."""
    ss = seed_sequence(seed, DOMAIN_RUNSEED, *key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])
