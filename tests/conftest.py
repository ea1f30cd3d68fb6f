import numpy as np
import pytest

import projcut as pc


@pytest.fixture(scope="session")
def config_small():
    # desk-scale configuration shared by the module tests
    return pc.CutoffConfig.create(1, S=1500, seed=7)


@pytest.fixture(scope="session")
def two_ball_set():
    centers = [pc.ProjectivePoint([1.0, 0.2 + 0.1j]), pc.ProjectivePoint([0.3, 1.0])]
    return pc.CompactSetSpec(tuple(pc.Ball(c, 0.05) for c in centers))


@pytest.fixture(scope="session")
def mollifier_k1():
    return pc.get_mollifier(1, 0.1)


def random_traceless(rng, d, norm=None):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m -= np.trace(m) / d * np.eye(d)
    if norm is not None:
        m *= norm / np.linalg.norm(m)
    return m
