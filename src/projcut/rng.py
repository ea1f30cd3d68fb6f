"""Deterministic random streams.

Every stochastic routine in the package derives its generator from a user
seed plus fixed integer tags, so reruns are bit-for-bit reproducible.  The
bit generator is Philox; it stays fixed, because every output byte depends
on its stream.
"""

import numpy as np


def make_rng(seed, *tags) -> np.random.Generator:
    entropy = [int(seed)] + [int(t) for t in tags]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
