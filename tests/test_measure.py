import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad

import projcut as pc
from projcut import measure
from projcut.errors import ThetaZero
from projcut.lie import _coord_chunk, from_coords, to_coords
from projcut.measure import radial_cdf_nodes, real_dimension, sample_matrices, sample_rows
from projcut.rng import make_rng

from conftest import random_traceless


def simpson_radial_cdf(n, nodes=32769):
    """Oracle CDF of the radial law t^(n-1)*exp(-1/(1-t^2)): Simpson rule on
    a grid eight times finer than the sampling table."""
    t = np.linspace(0.0, 1.0, nodes)
    pdf = t ** (n - 1) * pc.bump_profile(t)
    cdf = np.concatenate([[0.0], cumulative_simpson(pdf, x=t)])
    return t, cdf / cdf[-1]


def test_bump_profile_values():
    assert pc.bump_profile(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert pc.bump_profile(1.0) == 0.0
    assert pc.bump_profile(1.5) == 0.0
    arr = pc.bump_profile(np.array([0.0, 0.5, 0.9999999999, 1.0, 2.0]))
    assert arr[3] == 0.0 and arr[4] == 0.0
    assert np.all(arr >= 0.0)


def test_normalization_scales_as_sigma_power():
    for k in (1, 2):
        n = real_dimension(k)
        c1 = pc.normalization(k, 0.1)
        c2 = pc.normalization(k, 0.2)
        assert c2 == pytest.approx(c1 / 2 ** n, rel=1e-12)
        assert c1 > 0.0 and math.isfinite(c1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_normalization_matches_adaptive_quadrature(k):
    # the trapezoid total of the sampler's table against scipy's quad
    n = real_dimension(k)
    radial, _ = quad(lambda t: t ** (n - 1) * pc.bump_profile(t), 0.0, 1.0,
                     epsabs=0.0, epsrel=1e-13, limit=200)
    oracle = 1.0 / (pc.measure.sphere_area(n) * 0.1 ** n * radial)
    assert pc.normalization(k, 0.1) == pytest.approx(oracle, rel=1e-14, abs=0.0)


def test_normalization_mass_against_monte_carlo():
    # independent mass estimate: uniform-ball average times ball volume
    k, sigma = 1, 0.1
    spec = pc.get_mollifier(k, sigma)
    n = spec.n
    rng = make_rng(20, 0)
    count = 100000
    radii = sigma * rng.random(count) ** (1.0 / n)
    vals = spec.norm_const * pc.bump_profile(radii / sigma)
    volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * sigma ** n
    mass = volume * vals.mean()
    stderr = volume * vals.std(ddof=1) / math.sqrt(count)
    assert abs(mass - 1.0) <= 3.0 * stderr


@pytest.mark.parametrize("bad", [0.0, -0.1, math.inf, math.nan])
@pytest.mark.parametrize("entry", [lambda s: pc.MollifierSpec(1, s),
                                   lambda s: pc.normalization(1, s),
                                   lambda s: pc.estimate_distortion(s)],
                         ids=["MollifierSpec", "normalization", "estimate_distortion"])
def test_radius_entry_points_refuse_bad_values(entry, bad):
    # unchecked, inf would give a zero density, NaN a NaN one, 0 a division
    # by zero and a negative radius a distortion constant
    with pytest.raises(ValueError, match="finite and positive"):
        entry(bad)


def test_mollifier_rejects_wrong_constant(monkeypatch):
    monkeypatch.setattr(measure, "normalization", lambda k, sigma: 123.0)
    with pytest.raises(ValueError):
        pc.MollifierSpec(1, 0.1)


def test_density_support_and_center(mollifier_k1):
    spec = mollifier_k1
    assert pc.density(spec, np.zeros((2, 2))) == pytest.approx(
        spec.norm_const * math.exp(-1.0), rel=1e-15)
    at_boundary = np.diag([0.1 / math.sqrt(2.0), -0.1 / math.sqrt(2.0)])
    assert pc.density(spec, at_boundary) == 0.0
    assert pc.density(spec, 3.0 * at_boundary) == 0.0


def test_density_is_radial(mollifier_k1):
    rng = make_rng(20, 1)
    m = random_traceless(rng, 2, norm=0.05)
    base = pc.density(mollifier_k1, m)
    assert pc.density(mollifier_k1, 1j * m) == base   # same entry moduli, bitwise
    assert pc.density(mollifier_k1, -m) == base
    # random rotation of the coordinate vector preserves the norm
    v = to_coords(m)
    q, _ = np.linalg.qr(rng.standard_normal((v.size, v.size)))
    rotated = from_coords(q @ v, 1)
    assert pc.density(mollifier_k1, rotated) == pytest.approx(base, rel=1e-12)


def test_density_flat_at_boundary(mollifier_k1):
    # radial derivative just inside the support edge is negligible
    sigma, step = 0.1, 1e-7
    direction = np.diag([1.0, -1.0]) / math.sqrt(2.0)
    r = sigma * (1.0 - 1e-3)
    dplus = pc.density(mollifier_k1, (r + step) * direction)
    dminus = pc.density(mollifier_k1, (r - step) * direction)
    assert abs(dplus - dminus) / (2.0 * step) <= 1e-6
    # and across the boundary the value is exactly 0 on the outside
    assert pc.density(mollifier_k1, (sigma + 1e-9) * direction) == 0.0


def test_scaled_density(mollifier_k1):
    spec = mollifier_k1
    n = spec.n
    m = pc.ScaledMeasure(spec, 0.5)
    rng = make_rng(20, 2)
    x = random_traceless(rng, 2, norm=0.03)
    assert pc.scaled_density(pc.ScaledMeasure(spec, 1.0), x) == pc.density(spec, x)
    lhs = pc.scaled_density(m, 0.5 * x)
    assert lhs == pytest.approx(0.5 ** (-n) * pc.density(spec, x), rel=1e-12)
    # support shrinks to theta * sigma
    edge = np.diag([1.0, -1.0]) / math.sqrt(2.0)
    assert pc.scaled_density(m, 0.051 * edge) == 0.0
    assert pc.scaled_density(m, 0.049 * edge) > 0.0


def test_theta_zero_is_an_error(mollifier_k1):
    with pytest.raises(ThetaZero):
        pc.ScaledMeasure(mollifier_k1, 0.0)
    with pytest.raises(ValueError):
        pc.ScaledMeasure(mollifier_k1, 1.5)


def test_samples_inside_support(mollifier_k1):
    m = pc.ScaledMeasure(mollifier_k1, 0.7)
    rows = sample_rows(m, 20000, seed=3)
    norms = np.linalg.norm(rows, axis=1)
    assert norms.max() < 0.7 * 0.1
    mats = pc.sample_matrices(m, 200, seed=3)
    assert np.max(np.sqrt((np.abs(mats) ** 2).sum(axis=(1, 2)))) < 0.7 * 0.1


def test_sample_wrapper_returns_algebra_elements(mollifier_k1):
    elems = pc.sample(pc.ScaledMeasure(mollifier_k1, 0.5), 50, seed=4)
    assert len(elems) == 50
    assert all(isinstance(e, pc.AlgebraElement) for e in elems)
    assert all(e.norm < 0.05 for e in elems)


def test_sample_mean_near_zero(mollifier_k1):
    theta = 0.8
    count = 20000
    rows = sample_rows(pc.ScaledMeasure(mollifier_k1, theta), count, seed=5)
    bound = 3.0 / math.sqrt(count) * theta * 0.1
    assert np.max(np.abs(rows.mean(axis=0))) <= bound


def test_sample_determinism(mollifier_k1):
    m = pc.ScaledMeasure(mollifier_k1, 0.6)
    a = sample_rows(m, 1000, seed=9)
    b = sample_rows(m, 1000, seed=9)
    assert np.array_equal(a, b)
    c = sample_rows(m, 1000, seed=10)
    assert not np.array_equal(a, c)


def _whole_stack_rows(m, count, seed):
    """The coordinate rows of the draws taken in one pass over the whole
    stack: count uniforms, one (count, n) normal draw, its row norms and
    the scaling."""
    rng = make_rng(seed, 31)
    t, cdf = radial_cdf_nodes(m.base.n)
    radii = np.interp(rng.random(count), cdf, t) * (m.theta * m.base.sigma)
    dirs = rng.standard_normal((count, m.base.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs *= radii[:, None]
    return dirs


@pytest.mark.parametrize("k", [1, 2, 3])
def test_chunked_draws_keep_the_bits_of_the_whole_stack(k):
    # the sampler draws, normalises and scales one from_coords chunk at a
    # time, and its draws are those of the whole-stack pass bit for bit
    chunk = _coord_chunk(k)
    m = pc.ScaledMeasure(pc.get_mollifier(k, 0.1), 0.7)
    for S in (1, chunk, chunk + 1, 2 * chunk + 1, 20000):
        for seed in (0, 5):
            rows = _whole_stack_rows(m, S, seed)
            x, ref = sample_matrices(m, S, seed), from_coords(rows, k)
            assert x.shape == ref.shape == (S, k + 1, k + 1)
            assert x.tobytes() == ref.tobytes()
            assert sample_rows(m, S, seed).tobytes() == rows.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_guide_table_lookup_has_the_bits_of_interp(k):
    # the guide-table lookup returns np.interp's bits on a million uniforms,
    # on every node below 1 (np.interp's exact-node case), at both ends of
    # [0, 1), and at and inside the buckets that hold several nodes; a
    # table built afresh raises no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = measure._radius_table.__wrapped__(real_dimension(k))
    t, cdf = table.t, table.cdf
    crowded = np.flatnonzero(table.crowded)
    assert 0 < crowded.size < 0.05 * measure._GUIDE_BUCKETS
    rng = make_rng(44, k)
    u = np.concatenate([
        rng.random(10 ** 6), cdf[cdf < 1.0], 0.5 * (cdf[:-1] + cdf[1:])[cdf[1:] < 1.0],
        [0.0, np.nextafter(1.0, 0.0)],
        crowded / measure._GUIDE_BUCKETS,
        (crowded + rng.random((16, crowded.size))).ravel() / measure._GUIDE_BUCKETS,
    ])
    ref = np.interp(u, cdf, t)
    assert measure._inverse_cdf(u.copy(), table).tobytes() == ref.tobytes()


def test_sampler_holds_its_output_and_one_chunk():
    # at k = 3, S = 20000 the draws take 4.9 MiB; a (S, n) normal draw
    # would take another 4.6 MiB
    m = pc.ScaledMeasure(pc.get_mollifier(3, 0.1), 1.0)
    sample_matrices(m, 1, 0)  # the radius table, cached
    tracemalloc.start()
    try:
        x = sample_matrices(m, 20000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 2 ** 20


def test_radius_law_kolmogorov_smirnov(mollifier_k1):
    theta = 1.0
    count = 20000
    m = pc.ScaledMeasure(mollifier_k1, theta)
    radii = np.sort(np.linalg.norm(sample_rows(m, count, seed=6), axis=1)) / (theta * 0.1)
    t, cdf = simpson_radial_cdf(m.base.n)
    F = np.interp(radii, t, cdf)
    i = np.arange(1, count + 1)
    ks = max(np.max(i / count - F), np.max(F - (i - 1) / count))
    assert ks < 1.6276 / math.sqrt(count)  # 1% critical value


def test_importance_consistency_polynomial(mollifier_k1):
    # MC mean of |x|^2 under the scaled measure vs the radial quadrature
    theta = 0.5
    m = pc.ScaledMeasure(mollifier_k1, theta)
    n = m.base.n
    count = 50000
    radii = np.linalg.norm(sample_rows(m, count, seed=7), axis=1)
    mc = (radii ** 2).mean()
    stderr = (radii ** 2).std(ddof=1) / math.sqrt(count)
    weight, _ = quad(lambda t: t ** (n - 1) * pc.bump_profile(t), 0.0, 1.0, epsrel=1e-12, epsabs=0)
    second, _ = quad(lambda t: t ** (n + 1) * pc.bump_profile(t), 0.0, 1.0, epsrel=1e-12, epsabs=0)
    expected = (theta * 0.1) ** 2 * second / weight
    assert abs(mc - expected) <= 3.0 * stderr


def test_sampling_table_bias_below_noise(mollifier_k1):
    # the 4096-node inverse-CDF table deviates from the Simpson oracle by
    # far less than the Monte-Carlo resolution
    n = mollifier_k1.n
    t, cdf = pc.measure.radial_cdf_nodes(n)
    t_o, cdf_o = simpson_radial_cdf(n)
    assert np.max(np.abs(np.interp(t_o, t, cdf) - cdf_o)) < 1e-4
