import importlib

import numpy as np
import pytest

import projcut as pc
from projcut.lie import _expm_block
from projcut.regularize import RegularizedFunction, displacement_bound


@pytest.fixture(scope="session")
def config_small():
    # desk-scale configuration shared by the module tests
    return pc.CutoffConfig(1, S=1500, seed=7)


@pytest.fixture(scope="session")
def two_ball_set():
    centers = [pc.ProjectivePoint([1.0, 0.2 + 0.1j]), pc.ProjectivePoint([0.3, 1.0])]
    return pc.CompactSetSpec(tuple(pc.Ball(c, 0.05) for c in centers))


@pytest.fixture
def expm_draws(monkeypatch):
    """The number of draws in every block the exponential takes, in order:
    the blocks of every _expm stack, of the form pass at every d (the d = 2
    kernel's included) and of RegularizedFunction.matrices alike."""
    sizes = []

    def spy(block, *plan):
        sizes.append(block.shape[-1])
        return _expm_block(block, *plan)

    monkeypatch.setattr(importlib.import_module("projcut.lie"), "_expm_block", spy)
    return sizes


@pytest.fixture
def sampler_calls(monkeypatch):
    """The count of every call of the sampler that Sample.draw makes, in
    order."""
    regularize = importlib.import_module("projcut.regularize")
    counts, sample_matrices = [], regularize.sample_matrices

    def spy(m, count, seed):
        counts.append(count)
        return sample_matrices(m, count, seed)

    monkeypatch.setattr(regularize, "sample_matrices", spy)
    return counts


@pytest.fixture(scope="session")
def mollifier_k1():
    return pc.get_mollifier(1, 0.1)


def random_traceless(rng, d, norm=None):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m -= np.trace(m) / d * np.eye(d)
    if norm is not None:
        m *= norm / np.linalg.norm(m)
    return m


class CertificateLevels(RegularizedFunction):
    """A build that decides its rows by the certificate's displacement_bound(eps),
    as builds did before fs = theta max ||x||_F."""

    @property
    def fs(self):
        return displacement_bound(self.eps)
