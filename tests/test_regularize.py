import importlib
import math
import pickle
import statistics
import tracemalloc

import numpy as np
import pytest

import projcut as pc
from projcut.errors import ConfigError, StepTooSmall
from projcut.geometry import geodesic_row, rows_dist_to_set, tangent_row, uniform_rows
from projcut.lie import _expm, _expm_plan, _frob, _normalize_stack, block_samples
from projcut.measure import sample_matrices
from projcut.regularize import (DECISION_ANGLE, DECISION_VALUE, FORM_GEMM_OUTPUT, MAX_S,
                                ROW_BLOCK, RegularizedFunction, Sample, _decision_levels,
                                _features, _form_coefficients, _forms, displacement_bound)
from projcut.rng import make_rng

from conftest import random_traceless

# one sample block and 301 samples at k = 1; three blocks at k = 2 and five at k = 3
S_BLOCKS = block_samples(2) + 301


def _stack_plan(stack):
    """The exponential's plan for the largest ||A||_F of a stack."""
    return _expm_plan(float(_frob(stack).max()))


def ones(rows):
    return np.ones(rows.shape[0])


def re_zeta1(rows):
    # Re(z1/z0), well inside [0,1] near the chart points used below
    return np.real(rows[:, 1] / rows[:, 0])


@pytest.fixture(scope="module")
def ball_indicator(mollifier_k1):
    center = pc.ProjectivePoint([1.0, 0.1])
    f = pc.indicator_fattened(pc.CompactSetSpec((pc.Ball(center, 0.0),)), 0.2)
    return center, f


def test_theta_zero_is_passthrough(mollifier_k1):
    rf = pc.regularize(re_zeta1, 0.0, 100, seed=1, mollifier=mollifier_k1)
    p = pc.ProjectivePoint([1.0, 0.25 + 0.1j])
    assert rf(p) == re_zeta1(p.homog[None, :])[0]
    assert rf.matrices.shape[0] == 0


def test_constant_one_stays_one(mollifier_k1):
    rf = pc.regularize(ones, 0.3, 500, seed=2, mollifier=mollifier_k1)
    rng = make_rng(30, 0)
    for row in uniform_rows(1, 50, rng):
        assert rf(pc.ProjectivePoint(row)) == 1.0


def test_unit_draw_is_shared_across_theta(mollifier_k1):
    # two scales, one Sample: each build stores its draws, which are what a
    # fresh draw gives, and has the bits of regularize at the same seed
    sample = Sample.draw(mollifier_k1, 300, 9)
    fresh = pc.sample_matrices(pc.ScaledMeasure(mollifier_k1, 1.0), 300, 9)
    assert np.array_equal(sample.draws, fresh)
    for theta in (0.2, 0.05):
        rf = sample.smooth(ones, theta)
        assert rf.draws is sample.draws and rf.S == 300
        assert np.array_equal(rf.matrices, _normalize_stack(_expm(theta * fresh)))
        own = pc.regularize(ones, theta, 300, seed=9, mollifier=mollifier_k1)
        assert own.draws is not sample.draws
        assert (own.eps, own.plan) == (rf.eps, rf.plan)
        assert np.array_equal(own.matrices, rf.matrices)
    with pytest.raises(ValueError):
        sample.draws[0, 0, 0] = 1.0


def test_far_point_vanishes_with_displacement_audit(ball_indicator, mollifier_k1):
    center, f = ball_indicator
    theta = 0.05
    rf = pc.regularize(f, theta, 2000, seed=3, mollifier=mollifier_k1)
    c = pc.estimate_distortion(0.1, 1)
    gap = 2.0 * c * theta * 0.1

    rng = make_rng(30, 1)
    v = tangent_row(center.homog, rng)
    z = pc.ProjectivePoint(geodesic_row(center.homog, v, 0.2 + gap + 0.01))

    # brute force over all stored samples: nothing moves z by more than the gap
    from projcut.cutoff import max_fs_displacement
    assert max_fs_displacement(rf.matrices, z.homog[None, :]) < gap
    assert rf(z) == 0.0


def test_range_monotone_linear(ball_indicator, mollifier_k1):
    center, f = ball_indicator
    g = pc.indicator_fattened(pc.CompactSetSpec((pc.Ball(center, 0.0),)), 0.3)

    def combo(rows):
        return 0.3 * f(rows) + 0.6 * g(rows)

    kwargs = dict(theta=0.2, S=400, seed=4, mollifier=mollifier_k1)
    rf, rg, rc = (pc.regularize(fn, **kwargs) for fn in (f, g, combo))
    rng = make_rng(30, 2)
    rows = uniform_rows(1, 200, rng)
    vf, vg, vcomb = rf.eval_homog(rows), rg.eval_homog(rows), rc.eval_homog(rows)
    assert np.all(vf >= 0.0) and np.all(vf <= 1.0)
    assert np.all(vf <= vg)  # f <= g pointwise, same frozen sample
    assert np.max(np.abs(vcomb - (0.3 * vf + 0.6 * vg))) <= 1e-12


def test_evaluation_deterministic_bitwise(ball_indicator, mollifier_k1):
    _, f = ball_indicator
    rf1 = pc.regularize(f, 0.15, 700, seed=5, mollifier=mollifier_k1)
    rf2 = pc.regularize(f, 0.15, 700, seed=5, mollifier=mollifier_k1)
    assert np.array_equal(rf1.matrices, rf2.matrices)
    rng = make_rng(30, 3)
    rows = uniform_rows(1, 1000, rng)
    assert np.array_equal(rf1.eval_homog(rows), rf2.eval_homog(rows))


def test_finite_diff_constant_gradient_zero(mollifier_k1):
    rf = pc.regularize(ones, 0.2, 300, seed=6, mollifier=mollifier_k1)
    c = pc.ChartCoordinates(0, np.array([1.0, 0.3 + 0.1j]))
    assert pc.finite_diff(rf, c, 1, 1e-3) <= 1e-10
    assert pc.finite_diff(rf, c, 2, 3e-3) <= 1e-10


def test_finite_diff_linear_chart_function(mollifier_k1):
    rf = pc.regularize(re_zeta1, 0.0, 1, seed=7, mollifier=mollifier_k1)
    c = pc.ChartCoordinates(0, np.array([1.0, 0.3]))
    assert pc.finite_diff(rf, c, 1, 1e-3) == pytest.approx(1.0, abs=1e-6)


def test_finite_diff_plateau_is_exact_zero(ball_indicator, mollifier_k1):
    center, f = ball_indicator
    rf = pc.regularize(f, 0.05, 500, seed=8, mollifier=mollifier_k1)
    c = pc.to_chart(center)
    assert pc.finite_diff(rf, c, 1, 1e-3) == 0.0  # deep inside the plateau


def half_plus_dust(rows):
    # a step of one ulp across Re(z1/z0) = 0.3: differences below roundoff
    return 0.5 + np.finfo(np.float64).eps * (np.real(rows[:, 1] / rows[:, 0]) > 0.3)


def test_finite_diff_noise_guard(mollifier_k1):
    rf = pc.regularize(half_plus_dust, 0.0, 1, seed=9, mollifier=mollifier_k1)
    c = pc.ChartCoordinates(0, np.array([1.0, 0.3]))
    with pytest.raises(StepTooSmall):
        pc.finite_diff(rf, c, 1, 1e-3)


def test_finite_diff_validation(mollifier_k1):
    rf = pc.regularize(ones, 0.0, 1, seed=10, mollifier=mollifier_k1)
    c = pc.ChartCoordinates(0, np.array([1.0, 0.0]))
    for order in (3, 0, True, np.True_, 1.0):  # True and 1.0 ran order 1
        with pytest.raises(ValueError, match="^order must be 1 or 2$"):
            pc.finite_diff(rf, c, order, 1e-3)
        with pytest.raises(ValueError, match="^order must be 1 or 2$"):
            pc.c_alpha_estimate(rf, [c], order, 1e-3)
    with pytest.raises(ValueError):
        pc.finite_diff(rf, c, 1, 1e-6)
    with pytest.raises(ValueError):
        pc.finite_diff(rf, c, 1, 0.5)


def test_finite_diff_step_halving_converges(ball_indicator, mollifier_k1):
    # common random numbers: the estimates converge as the step shrinks,
    # with the disagreement dropping at least linearly in the step
    center, f = ball_indicator
    rf = pc.regularize(f, 0.05, 20000, seed=11, mollifier=mollifier_k1)
    rng = make_rng(30, 4)
    v = tangent_row(center.homog, rng)
    c = pc.to_chart(pc.ProjectivePoint(geodesic_row(center.homog, v, 0.2)))
    g = {s: pc.finite_diff(rf, c, 1, s) for s in (2e-3, 1e-3, 5e-4)}
    assert g[2e-3] > 1.0  # we are on the transition slope
    d1 = abs(g[2e-3] - g[1e-3])
    d2 = abs(g[1e-3] - g[5e-4])
    assert d2 < d1
    assert d2 / g[5e-4] < 0.05


def test_c_alpha_estimate_basics(mollifier_k1):
    rf = pc.regularize(ones, 0.1, 200, seed=12, mollifier=mollifier_k1)
    grid = [pc.ChartCoordinates(0, np.array([1.0, 0.2 + 0.1j * t])) for t in range(4)]
    assert pc.c_alpha_estimate(rf, grid, 1, 1e-3) == 0.0
    single = grid[:1]
    rf2 = pc.regularize(re_zeta1, 0.0, 1, seed=12, mollifier=mollifier_k1)
    assert pc.c_alpha_estimate(rf2, single, 1, 1e-3) == pc.finite_diff(rf2, single[0], 1, 1e-3)
    with pytest.raises(ValueError):
        pc.c_alpha_estimate(rf, [], 1, 1e-3)


def test_c_alpha_theta_halving_doubles_gradient(ball_indicator, mollifier_k1):
    center, f = ball_indicator
    theta = 0.05
    rf1 = pc.regularize(f, theta, 6000, seed=13, mollifier=mollifier_k1)
    rf2 = pc.regularize(f, theta / 2.0, 6000, seed=13, mollifier=mollifier_k1)
    rng = make_rng(30, 5)
    v = tangent_row(center.homog, rng)
    w = 2.0 * 1.7 * 0.1 * theta
    grid = [pc.to_chart(pc.ProjectivePoint(geodesic_row(center.homog, v, t)))
            for t in np.linspace(0.2 - w, 0.2 + w, 120)]
    e1 = pc.c_alpha_estimate(rf1, grid, 1, 1e-3)
    e2 = pc.c_alpha_estimate(rf2, grid, 1, 1e-3)
    assert 1.4 <= e2 / e1 <= 2.6


def test_scaling_slope_exact_rows():
    deltas = [0.2, 0.1, 0.05, 0.025]
    slope, stderr = pc.scaling_slope([(d, 1.0 / d) for d in deltas])
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert stderr <= 1e-7

    slope, _ = pc.scaling_slope([(d, 7.0 / d ** 2) for d in deltas])
    assert slope == pytest.approx(-2.0, abs=1e-12)  # prefactor invisible


def test_scaling_slope_perturbed_rows_match_reference_regression():
    deltas = [0.2, 0.1, 0.05, 0.025]
    rows = [(d, (1.0 / d) * (1.0 + 0.05 * (-1) ** i)) for i, d in enumerate(deltas)]
    slope, stderr = pc.scaling_slope(rows)
    assert -1.15 <= slope <= -0.85
    ref = statistics.linear_regression([math.log(d) for d, _ in rows],
                                       [math.log(s) for _, s in rows])
    assert slope == pytest.approx(ref.slope, abs=1e-12)
    assert stderr > 0.0


def _closed_form_regression(rows):
    # centred least squares of log(seminorm) on log(delta) with its standard error
    x = np.log([d for d, _ in rows])
    y = np.log([s for _, s in rows])
    xc = x - x.mean()
    sxx = float((xc ** 2).sum())
    slope = float((xc * y).sum() / sxx)
    resid = y - (y.mean() + slope * xc)
    return slope, math.sqrt(float((resid ** 2).sum()) / (len(rows) - 2) / sxx)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_scaling_slope_matches_closed_form_regression(n):
    rng = make_rng(9, n)
    for _ in range(5):
        deltas = np.sort(rng.uniform(0.01, 0.3, n))[::-1]
        rows = [(float(d), float(3.0 * d ** -1.7 * np.exp(0.1 * rng.standard_normal())))
                for d in deltas]
        slope, stderr = pc.scaling_slope(rows)
        ref_slope, ref_stderr = _closed_form_regression(rows)
        assert slope == pytest.approx(ref_slope, rel=0.0, abs=1e-12)
        assert stderr == pytest.approx(ref_stderr, rel=1e-12, abs=0.0)


def test_scaling_slope_validation():
    with pytest.raises(ValueError):
        pc.scaling_slope([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        pc.scaling_slope([(0.1, 1.0), (0.2, 2.0), (0.3, -1.0)])
    # a NaN delta would give (nan, nan), an infinite seminorm a numpy warning
    for bad in ((math.nan, 3.0), (0.3, math.inf), (math.inf, 3.0), (0.3, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            pc.scaling_slope([(0.1, 1.0), (0.2, 2.0), bad])


def test_scaling_slope_needs_varying_deltas():
    with pytest.raises(ValueError, match="vary"):
        pc.scaling_slope([(0.1, 78.34), (0.1, 81.84), (0.1, 80.0)])


def test_scaling_report_sorts_rows():
    rows = ((0.05, 0.1, 3.0), (0.2, 0.4, 1.0), (0.1, 0.2, 2.0))
    report = pc.ScalingReport(1, rows, -1.0, 0.0)
    assert [r[0] for r in report.rows] == [0.2, 0.1, 0.05]


def _band_heavy_rows(set_spec, rho, count, rng):
    """Rows at distance within 0.03 of rho from the set, in random
    directions, each under a random scale and phase."""
    rows = []
    for i in range(count):
        b = set_spec.balls[i % len(set_spec.balls)]
        t = min(b.radius + rho + 0.03 * (2.0 * rng.random() - 1.0), 0.5 * math.pi)
        row = geodesic_row(b.center.homog, tangent_row(b.center.homog, rng), max(t, 0.0))
        rows.append(row * rng.uniform(1e-3, 1e3) * np.exp(2j * math.pi * rng.random()))
    return np.stack(rows)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_kernel_matches_generic_path(k):
    # the quadratic-form sign test gives the same counts as calling the
    # indicator on every moved point, bit for bit
    rng = make_rng(31, k)
    centers = uniform_rows(k, 3, rng)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(centers, (0.0, 0.05, 0.2))))
    rho = 0.1
    f = pc.indicator_fattened(set_spec, rho)
    kwargs = dict(theta=0.3, S=S_BLOCKS, seed=14, mollifier=pc.get_mollifier(k, 0.1))
    kernel = pc.regularize(f, **kwargs)
    generic = pc.regularize(lambda rows: f(rows), **kwargs)
    assert kernel.forms.shape == (3, (k + 1) ** 2, kwargs["S"])
    assert generic.forms is None

    rows = np.concatenate([_band_heavy_rows(set_spec, rho, 260, rng),
                           uniform_rows(k, 40, rng)])
    assert rows.shape[0] > 2 * ROW_BLOCK
    chi = kernel.eval_homog(rows)
    assert np.array_equal(chi, generic.eval_homog(rows))
    assert np.count_nonzero((chi > 0.0) & (chi < 1.0)) >= 100  # the band is exercised


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_coefficients_are_the_ball_tests(k):
    # each coefficient row applied to the features of z is the value
    # |c^H g z|^2 - l |g z|^2 of its ball's test on g = e^(theta x),
    # unnormalised, the covering ball included
    rng = make_rng(33, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 3, rng), (0.0, 0.2, 1.5))))
    f = pc.indicator_fattened(set_spec, 0.1)
    centres, levels = f.ball_tests()
    assert levels[2] == -1.0  # 1.5 + 0.1 >= pi/2
    rf = pc.regularize(f, theta=0.3, S=50, seed=17, mollifier=pc.get_mollifier(k, 0.1))
    Z = uniform_rows(k, 40, rng) * rng.uniform(0.5, 2.0, (40, 1))
    images = np.einsum("sij,mj->smi", _expm(rf.theta * rf.draws), Z)  # g z, shape (S, m, k+1)
    direct = (np.abs(images @ np.conj(centres).T) ** 2
              - levels * np.linalg.norm(images, axis=2, keepdims=True) ** 2)
    values = _features(Z) @ rf.forms  # shape (B, m, S)
    norms = np.linalg.norm(Z, axis=1) ** 2
    assert np.all(np.abs(values - direct.transpose(2, 1, 0)) <= 1e-12 * norms[:, None])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_form_coefficient_rows_do_not_depend_on_block(k):
    # over several sample blocks each row is the ball tests' value, and bit
    # for bit the row of the one-element call; the first two balls share
    # their level, so the second reuses the first's level term
    rng = make_rng(34, k)
    d = k + 1
    S = 2 * block_samples(d) + 37
    noise = rng.standard_normal((S, d, d)) + 1j * rng.standard_normal((S, d, d))
    g = _normalize_stack(np.eye(d) + 0.05 * noise)
    centres = uniform_rows(k, 4, rng)
    levels = np.array([0.9, 0.9, 0.5, -1.0])
    forms = _form_coefficients(g, centres, levels)
    assert forms.shape == (4, d * d, S)
    Z = uniform_rows(k, 20, rng)
    images = np.einsum("sij,mj->smi", g, Z)
    direct = (np.abs(images @ np.conj(centres).T) ** 2
              - levels * np.linalg.norm(images, axis=2, keepdims=True) ** 2)
    assert np.all(np.abs(_features(Z) @ forms - direct.transpose(2, 1, 0)) <= 1e-12)
    for j in range(S):
        assert np.array_equal(forms[:, :, j],
                              _form_coefficients(g[j:j + 1], centres, levels)[:, :, 0])


def _counted_hits(features, forms, balls):
    """np.count_nonzero(features @ slab > 0, axis=1), OR-ed over the balls'
    slabs, 2048 samples at a time."""
    hits = np.zeros(features.shape[0], dtype=np.int64)
    for lo in range(0, forms.shape[2], 2048):
        hit = features @ forms[balls[0], :, lo:lo + 2048] > 0.0
        for b in balls[1:]:
            hit |= features @ forms[b, :, lo:lo + 2048] > 0.0
        hits += np.count_nonzero(hit, axis=1)
    return hits


@pytest.mark.parametrize("k, S, m, balls", [
    (1, S_BLOCKS, 1, [0]),
    (1, S_BLOCKS, ROW_BLOCK, [1]),
    (2, S_BLOCKS, 1, [0, 1, 2]),
    (3, S_BLOCKS, ROW_BLOCK, [0, 1, 2]),
    (1, 65837, ROW_BLOCK, [0, 1, 2]),
])
def test_form_hits_count_the_positive_forms(k, S, m, balls):
    # the counter reused over the steps of samples, the last step short,
    # counts what the whole products count; at S = 65837 and m = ROW_BLOCK
    # a row inside a ball takes 258 increments of 1, so the uint8 counter is
    # flushed once, after 255 steps
    rng = make_rng(41, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 3, rng), (0.0, 0.05, 0.2))))
    rho = 0.1
    rf = pc.regularize(pc.indicator_fattened(set_spec, rho), theta=0.3, S=S, seed=21,
                       mollifier=pc.get_mollifier(k, 0.1))
    rows = _band_heavy_rows(set_spec, rho, m + 40, rng)
    counts = _counted_hits(_features(rows), rf.forms, balls)
    rows = rows[np.argsort((counts == 0) | (counts == S), kind="stable")[:m]]  # band rows first
    rows[1:4] = set_spec.centres[:m - 1]  # rows 1-3 are the centres when m > 1
    features = _features(rows)
    hits = rf._form_hits(features, np.array(balls))
    assert S % (FORM_GEMM_OUTPUT // m) != 0
    assert np.array_equal(hits, _counted_hits(features, rf.forms, balls))
    assert np.any((hits > 0) & (hits < S))  # the band is exercised
    if m > 1:  # each candidate's centre counts every sample, OR-ed over the balls
        assert np.all(hits[1:4][balls] == S)
        assert len(balls) == 1 or all(np.any(hits > _counted_hits(features, rf.forms, [b]))
                                      for b in balls)


def test_forms_are_formed_once_at_the_first_band_row(two_ball_set, monkeypatch, expm_draws):
    # the build and the decided rows exponentiate nothing; the first band
    # row forms the coefficients straight from the draws, exponentiating
    # each draw once, block by block, with no stack of group elements;
    # later band rows reuse them, bit for bit those of the direct call on
    # the unnormalised stack e^(theta x)
    calls = []

    def counted(*args):
        calls.append(args)
        return _forms(*args)

    def refuse(self):
        raise AssertionError("the form path formed the group elements")

    monkeypatch.setattr(importlib.import_module("projcut.regularize"), "_forms", counted)
    rho, S = 0.1, S_BLOCKS
    f = pc.indicator_fattened(two_ball_set, rho)
    rf = pc.regularize(f, theta=0.3, S=S, seed=19, mollifier=pc.get_mollifier(1, 0.1))
    assert expm_draws == []
    assert np.all(rf.eval_homog(two_ball_set.centres) == 1.0)
    assert calls == [] and expm_draws == []
    rng = make_rng(38, 0)
    band = _band_heavy_rows(two_ball_set, rho, 60, rng)
    with monkeypatch.context() as m:
        m.setattr(RegularizedFunction, "matrices", property(refuse))
        chi = rf.eval_homog(band)
        assert np.any((chi > 0.0) & (chi < 1.0))
        forms = rf.forms
        assert np.array_equal(rf.eval_homog(band[::-1]), chi[::-1])
        assert rf.forms is forms
    assert len(calls) == 1 and expm_draws == [block_samples(2), 301]
    draws = Sample.draw(pc.get_mollifier(1, 0.1), S, 19).draws
    assert np.array_equal(rf.draws, draws)
    mats = rf.matrices  # formed on demand, from the draws alone, by the same blocks
    assert expm_draws == [block_samples(2), 301] * 2
    assert np.array_equal(mats, _normalize_stack(_expm(0.3 * draws)))
    assert np.array_equal(forms, _form_coefficients(_expm(0.3 * draws), *f.ball_tests()))
    assert not mats.flags.writeable and not forms.flags.writeable
    # the certificate bounds every element from above
    assert float(_frob(mats - np.eye(2)).max()) <= rf.eps


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theta", [0.05, 1.0])
@pytest.mark.parametrize("sigma", [0.1, 3.0])
def test_form_pass_has_the_bits_of_the_stack(k, theta, sigma):
    # the forms taken block by block from the draws equal, bit for bit, those
    # of the unnormalised stack e^(theta x), over several sample blocks, a
    # covering ball among the balls, and up to 4 squarings of the
    # exponential; a first block of small draws, which alone would take
    # fewer squarings, takes those of the whole stack, the plan the build
    # found
    rng = make_rng(39, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 3, rng), (0.0, 0.2, 1.5))))
    f = pc.indicator_fattened(set_spec, 0.1)
    n = block_samples(k + 1)
    rf = pc.regularize(f, theta, 2 * n + 301, 3, pc.get_mollifier(k, sigma))
    draws = rf.draws.copy()
    draws[:n] *= 0.05
    if theta * sigma > 1.0:
        squarings = [_stack_plan(theta * x)[0] for x in (rf.draws, draws[:n])]
        assert squarings[0] >= 3 > squarings[1]
    for g in (rf, RegularizedFunction(f, theta, draws, rf.S, rf.plan)):
        assert _stack_plan(theta * g.draws) == rf.plan
        assert np.array_equal(g.forms, _form_coefficients(_expm(theta * g.draws), *f.ball_tests()))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_forms_are_those_of_the_group_elements_times_the_corner(k):
    # the test is homogeneous in g: the forms on e^(theta x) are those on
    # exp_chart(theta x) = e^(theta x) / g_00 times |g_00|^2 > 0, per sample
    rng = make_rng(43, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 3, rng), (0.0, 0.2, 1.5))))
    f = pc.indicator_fattened(set_spec, 0.1)
    rf = pc.regularize(f, 0.3, S_BLOCKS, 5, pc.get_mollifier(k, 0.1))
    corner = np.abs(_expm(rf.theta * rf.draws)[:, 0, 0]) ** 2
    chart = _form_coefficients(rf.matrices, *f.ball_tests())
    assert np.all(np.abs(rf.forms - chart * corner) <= 1e-12)
    assert np.abs(rf.forms).max() <= 4.0  # O(1): g is near Id


@pytest.mark.parametrize("k", [1, 3])
def test_form_pass_forms_no_stack_sized_temporary(k):
    # at S = 20000 an (S, k+1, k+1) complex temporary takes 1.22 MiB at
    # k = 1 and 4.9 MiB at k = 3; the form pass holds the forms of two balls
    # and one block's temporaries, below 1 MiB at k = 1 and 2 MiB at k = 3
    rng = make_rng(44, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), 0.05)
                                       for c in uniform_rows(k, 2, rng)))
    rf = Sample.draw(pc.get_mollifier(k, 0.1), 20000, 7).smooth(
        pc.indicator_fattened(set_spec, 0.1), 0.3)
    tracemalloc.start()
    try:
        forms = rf.forms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= forms.nbytes + {1: 1, 3: 2}[k] * 2 ** 20 < forms.nbytes + rf.draws.nbytes


def test_build_and_forms_hold_draws_forms_and_one_block():
    # at k = 3, S = 20000 the draws and the forms of two balls take 4.9 MiB
    # each; the sampler and the form pass add one chunk's or one block's
    # temporaries, not a stack-sized array
    k, S = 3, 20000
    rng = make_rng(42, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), 0.05)
                                       for c in uniform_rows(k, 2, rng)))
    f = pc.indicator_fattened(set_spec, 0.1)
    mollifier = pc.get_mollifier(k, 0.1)
    Sample.draw(mollifier, 1, 0)  # the radius table, cached
    tracemalloc.start()
    try:
        sample = Sample.draw(mollifier, S, 7)
        forms = sample.smooth(f, 0.3).forms
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert forms.shape == (2, (k + 1) ** 2, S)
    assert peak <= sample.draws.nbytes + forms.nbytes + 3 * 2 ** 20


def test_generic_path_forms_the_elements_at_its_first_call(mollifier_k1, expm_draws):
    rf = pc.regularize(re_zeta1, 0.2, 500, seed=6, mollifier=mollifier_k1)
    assert expm_draws == []
    rows = np.array([[1.0, 0.3 + 0.1j], [1.0, 0.2]])
    vals = rf.eval_homog(rows)
    mats = rf.matrices
    assert expm_draws == [500]
    assert np.array_equal(rf.eval_homog(rows), vals)
    assert rf.matrices is mats and expm_draws == [500]


def _draw_bounds(draws, theta):
    """(a + e) / (1 - q) per draw, the bound of Sample.certificate written out
    one matrix at a time."""
    d = draws.shape[-1]
    out = []
    for x in draws:
        y = theta * x
        s = np.linalg.norm(y)
        rho = math.expm1(s) - s
        a = np.linalg.norm(y - y[0, 0] * np.eye(d))
        out.append((a + (1.0 + math.sqrt(d)) * rho) / (1.0 - abs(y[0, 0]) - rho))
    return np.array(out)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("S", [1, S_BLOCKS, 20000])
def test_certificate_has_the_bits_of_the_whole_stack(k, S, expm_draws):
    # eps is the largest closed-form bound over the draws, exponentiates
    # nothing, bounds every row of the stack of group elements from above
    # and is at most s C(s) at the largest scaled norm s, C the distortion
    # constant; the plan is that of the largest scaled draw, and the
    # elements formed with it have the bits of the whole stack
    mollifier = pc.get_mollifier(k, 0.1)
    for seed in ((0, 1, 2) if S < 20000 else (3,)):
        sample = Sample.draw(mollifier, S, seed)
        draws = sample.draws
        for theta in (1.0, 0.5, 0.1, 0.01, 0.001):
            rf = sample.smooth(ones, theta)
            assert expm_draws == []
            assert rf.plan == _stack_plan(theta * draws)
            if S < 20000:
                assert rf.eps == pytest.approx(_draw_bounds(draws, theta).max() * (1.0 + 1e-12),
                                               rel=1e-13)
            mats = rf.matrices
            expm_draws.clear()
            assert np.array_equal(mats, _normalize_stack(_expm(theta * draws)))
            expm_draws.clear()
            s = theta * float(_frob(draws).max())
            assert float(_frob(mats - np.eye(k + 1)).max()) <= rf.eps
            assert rf.eps <= s * pc.estimate_distortion(s, k) * (1.0 + 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sigma", [0.1, 2.0])
def test_build_certificate_has_the_bits_of_the_certificate(k, sigma):
    # each build applies Sample.certificate to the theta-free vectors of
    # its own draws: eps and plan keep the bits of a Sample made from a
    # fresh draw of the same seed, inf included (sigma = 2)
    mollifier = pc.get_mollifier(k, sigma)
    unbounded = 0
    for seed in (0, 1, 2):
        sample = Sample(sample_matrices(pc.ScaledMeasure(mollifier, 1.0), S_BLOCKS, seed))
        for theta in (1.0, 0.5, 0.1, 0.01, 0.001):
            rf = pc.regularize(ones, theta, S_BLOCKS, seed, mollifier)
            eps, plan = sample.certificate(theta)
            assert rf.plan == plan
            assert np.float64(rf.eps).tobytes() == np.float64(eps).tobytes()
            unbounded += rf.eps == math.inf
    assert (unbounded > 0) == (sigma == 2.0)


def test_builds_of_one_draw_pass_over_it_once(monkeypatch, mollifier_k1, sampler_calls):
    # builds at several theta on one Sample reuse its draws and its
    # theta-free vectors: one draw and one pass over it, at the Sample;
    # regularize makes a Sample of its own, so it draws and passes again
    passes, post_init = [], Sample.__post_init__

    def spy(self):
        passes.append(self.draws.shape[0])
        post_init(self)

    monkeypatch.setattr(Sample, "__post_init__", spy)
    sample = Sample.draw(mollifier_k1, 700, 11)
    builds = [sample.smooth(ones, theta) for theta in (0.3, 0.1, 0.02, 0.3)]
    assert sampler_calls == [700] and passes == [700]
    pc.regularize(ones, 0.1, 700, 12, mollifier_k1)
    assert sampler_calls == [700, 700] and passes == [700, 700]
    assert np.allclose(sample.norm2, _frob(sample.draws) ** 2, rtol=1e-14, atol=0.0)
    assert np.array_equal(sample.corner, np.abs(sample.draws[:, 0, 0]))
    for v in (sample.norm2, sample.corner):
        with pytest.raises(ValueError):
            v[0] = 1.0
    for rf in builds:
        assert rf.draws is sample.draws
        assert (rf.eps, rf.plan) == Sample(rf.draws.copy()).certificate(rf.theta)


@pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
def test_sample_pickle_keeps_the_bits_read_only(protocol):
    # a pickle carries the draws alone, and a loaded array is writeable
    # under some protocols; loading derives the theta-free vectors afresh,
    # with the same bits, and every array is read-only again
    sample = Sample.draw(pc.get_mollifier(2, 0.1), 900, 4)
    loaded = pickle.loads(pickle.dumps(sample, protocol=protocol))
    for name in ("draws", "norm2", "corner"):
        a, b = getattr(sample, name), getattr(loaded, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert not b.flags.writeable
    assert loaded.certificate(0.3) == sample.certificate(0.3)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -0.3, 0.0, 2.0])
def test_sample_refuses_theta_outside_the_unit_interval(theta, mollifier_k1):
    # no silent 0 at nan, no negative certificate below 0, no overflow at inf
    sample = Sample.draw(mollifier_k1, 2000, 3)
    with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
        sample.certificate(theta)
    with pytest.raises(ValueError, match=r"theta must lie in \(0, 1\]"):
        sample.smooth(ones, theta)


def test_sample_leaves_the_callers_array_writeable(mollifier_k1):
    x = pc.sample_matrices(pc.ScaledMeasure(mollifier_k1, 1.0), 50, 2)
    sample = Sample(x)
    assert x.flags.writeable and not sample.draws.flags.writeable
    assert np.shares_memory(x, sample.draws)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certificate_takes_every_draw_far_from_the_identity(k, expm_draws):
    # a wide mollifier: some draw has q = |y_00| + e^s - 1 - s >= 1, where
    # the series bounds nothing, so eps is inf, with nothing exponentiated
    rf = pc.regularize(ones, 1.0, 400, 3, pc.get_mollifier(k, 2.0))
    assert rf.eps == math.inf and expm_draws == []
    assert rf.plan == _stack_plan(rf.draws)
    assert float(_frob(rf.matrices - np.eye(k + 1)).max()) >= 0.5


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certificate_meets_the_distortion_bound_at_its_worst_case(k):
    # draws on estimate_distortion's worst case, ||x - x_00 Id|| = sqrt(k+1) ||x||
    # and |x_00| = sqrt(k/(k+1)) ||x||, at a norm just below sigma, with
    # theta = 1 and sigma small enough that frob_bound = C(sigma) sigma:
    # each such draw's bound is s C(s), so eps exceeds frob_bound by at
    # most its roundoff allowance 1e-12, and by nothing 1e-9 below sigma;
    # no other draw's bound is larger
    config = pc.CutoffConfig(k, sigma=0.02)
    sigma, theta = config.sigma, config.theta_max
    assert config.distortion == pc.estimate_distortion(sigma, k)
    assert theta == pytest.approx(1.0, rel=1e-15)
    bound = config.distortion * theta * sigma
    norm = sigma * (1.0 - 2.0 ** -40)
    worst = np.diag([1.0] + [-1.0 / k] * k).astype(np.complex128)
    worst *= norm / np.linalg.norm(worst)
    rng = make_rng(36, k)
    phases = np.exp(2j * math.pi * rng.random(5))
    others = np.stack([random_traceless(rng, k + 1, norm) for _ in range(50)])
    draws = np.concatenate([phases[:, None, None] * worst, others])
    eps, plan = Sample(draws).certificate(theta)
    assert plan == _stack_plan(theta * draws)
    assert bound * (1.0 - 1e-9) <= eps <= bound * (1.0 + 1e-12)
    assert Sample(others).certificate(theta)[0] < eps
    assert Sample((1.0 - 1e-9) * draws).certificate(theta)[0] <= bound
    s = theta * norm
    assert Sample(worst[None]).certificate(theta)[0] == pytest.approx(
        s * pc.estimate_distortion(s, k) * (1.0 + 1e-12), rel=1e-14)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("sigma", [2.0, 3.0])
def test_certificate_past_the_series_decides_nothing(k, sigma, two_ball_set):
    # some q >= 1: eps is inf, no row is decided, every band row takes the
    # products for every ball, and the form path equals the indicator
    # called on every moved point, bit for bit
    rng = make_rng(34, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 2, rng), (0.05, 0.2))))
    f = pc.indicator_fattened(set_spec, 0.1)
    kwargs = dict(theta=1.0, S=400, seed=5, mollifier=pc.get_mollifier(k, sigma))
    kernel = pc.regularize(f, **kwargs)
    assert kernel.eps == math.inf and displacement_bound(kernel.eps) == 0.5 * math.pi
    rows = np.concatenate([set_spec.centres, _band_heavy_rows(set_spec, 0.1, 40, rng),
                           uniform_rows(k, 20, rng)])
    assert _decided(kernel, rows) == (0, [[0, 1]])
    chi = kernel.eval_homog(rows)
    assert np.array_equal(chi, pc.regularize(lambda z: f(z), **kwargs).eval_homog(rows))
    assert np.any((chi > 0.0) & (chi < 1.0))


@pytest.mark.parametrize("seed", [1.5, True, np.True_, -1, math.nan, "3", None])
def test_regularize_refuses_bad_seeds(seed, mollifier_k1):
    # 1.5 would run seed 1, and True seed 1
    with pytest.raises(ConfigError, match="^seed: must be a nonnegative integer$"):
        pc.regularize(ones, 0.2, 10, seed, mollifier_k1)


def test_regularize_takes_numpy_integer_seeds(mollifier_k1):
    eps = pc.regularize(ones, 0.2, 300, 3, mollifier_k1).eps
    assert pc.regularize(ones, 0.2, 300, np.int64(3), mollifier_k1).eps == eps
    assert pc.regularize(ones, 0.2, 300, np.uint32(3), mollifier_k1).eps == eps


def _decision_levels_per_ball(centres, levels, eps):
    """The per-ball loop that :func:`_decision_levels` replaced, on centres
    of any norm."""
    B = len(levels)
    inner, outer = np.full(B, np.inf), np.full(B, -1.0)
    if eps >= 0.5:
        return inner, outer
    shift = math.asin(eps / (1.0 - eps)) + DECISION_ANGLE
    for b, (c2, level) in enumerate(zip(np.sum(np.abs(centres) ** 2, axis=1), levels)):
        if c2 == 0.0:
            inner[b], outer[b] = (-1.0, -1.0) if level < 0.0 else (np.inf, np.inf)
            continue
        passes, fails = level / c2 + DECISION_VALUE, level / c2 - DECISION_VALUE
        if passes <= 0.0:
            inner[b] = -1.0
        elif passes < 1.0:
            reach = math.acos(math.sqrt(passes)) - shift
            if reach > 0.0:
                inner[b] = c2 * math.cos(reach) ** 2
        if 0.0 < fails < 1.0:
            reach = math.acos(math.sqrt(fails)) + shift
            if reach < 0.5 * math.pi:
                outer[b] = c2 * math.cos(reach) ** 2
    return inner, outer


@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3, 0.1, 0.5, 0.9])
def test_decision_levels_match_per_ball_loop(eps):
    # unit centres (|c|^2 = 1 exactly); the covering level -1, levels
    # within the value margin of 0 and of 1, and cos^2 of random reaches
    near = [0.0, 0.5 * DECISION_VALUE, DECISION_VALUE, 2.0 * DECISION_VALUE, 1e-6]
    levels = np.array([-1.0] + near + [-x for x in near[1:]] + [1.0 - x for x in near]
                      + [1.0 + x for x in near[1:]] + [0.5, 2.0]
                      + list(np.cos(make_rng(39, 0).uniform(0.0, 0.5 * math.pi, 40)) ** 2))
    centres = np.eye(2)[np.arange(levels.size) % 2]
    inner, outer = _decision_levels(levels, eps)
    ref_inner, ref_outer = _decision_levels_per_ball(centres, levels, eps)
    # the sentinels -1 and inf exactly, the levels to roundoff
    assert np.allclose(inner, ref_inner, rtol=0.0, atol=1e-15)
    assert np.allclose(outer, ref_outer, rtol=0.0, atol=1e-15)
    assert np.array_equal(inner == -1.0, ref_inner == -1.0)
    assert np.array_equal(outer == -1.0, ref_outer == -1.0)
    if eps >= 0.5:
        assert np.all(inner == np.inf) and np.all(outer == -1.0)
    else:
        assert inner[0] == -1.0 and np.any(np.isfinite(inner) & (inner > 0.0))
        assert np.any(outer > 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.49, 0.5, 0.7])
def test_displacement_bound_matches_the_formulas_it_replaced(eps):
    # the decision levels' shift (nothing decided from eps = 1/2 on) and
    # verify's fs_audit_max, each written out as they were
    fs = displacement_bound(eps)
    assert fs == (math.asin(eps / (1.0 - eps)) if eps < 0.5 else 0.5 * math.pi)
    levels = np.array([-1.0, 0.5, 0.9])
    inner, outer = _decision_levels(levels, eps)
    if eps >= 0.5:
        assert fs == 0.5 * math.pi
        assert np.all(inner == np.inf) and np.all(outer == -1.0)
    else:
        assert fs == math.asin(eps / (1.0 - eps)) < 0.5 * math.pi
        shift = math.asin(eps / (1.0 - eps)) + DECISION_ANGLE
        reach = math.acos(math.sqrt(0.9 + DECISION_VALUE)) - shift
        assert inner[0] == -1.0
        assert inner[2] == pytest.approx(math.cos(reach) ** 2 if reach > 0.0 else np.inf,
                                         rel=0.0, abs=1e-15)


@pytest.fixture(scope="module")
def three_ball_pair(mollifier_k1):
    """Form kernel and generic path over one frozen sample, three balls at
    k = 1, S not a multiple of the samples per GEMM for any block width."""
    rng = make_rng(32, 0)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(1, 3, rng), (0.0, 0.05, 0.2))))
    f = pc.indicator_fattened(set_spec, 0.1)
    kwargs = dict(theta=0.3, S=FORM_GEMM_OUTPUT // 3 + 301, seed=16, mollifier=mollifier_k1)
    return set_spec, pc.regularize(f, **kwargs), pc.regularize(lambda rows: f(rows), **kwargs)


@pytest.mark.parametrize("m", [1, 50, ROW_BLOCK + 1])
def test_form_kernel_blocking_matches_generic_path(m, three_ball_pair):
    set_spec, kernel, generic = three_ball_pair
    assert all(kernel.S % (FORM_GEMM_OUTPUT // width) for width in range(1, ROW_BLOCK + 1))
    rows = _band_heavy_rows(set_spec, 0.1, m, make_rng(32, m))
    assert np.array_equal(kernel.eval_homog(rows), generic.eval_homog(rows))


@pytest.mark.parametrize("radius, rho, value", [(1.4, 0.3, 1.0), (0.2, 0.0, 0.0)])
def test_form_kernel_constant_cases(radius, rho, value, mollifier_k1):
    # a ball that covers P^k (radius + rho >= pi/2) and rho = 0
    set_spec = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint([1.0, 0.3j]), radius),))
    f = pc.indicator_fattened(set_spec, rho)
    kwargs = dict(theta=0.3, S=500, seed=15, mollifier=mollifier_k1)
    kernel = pc.regularize(f, **kwargs)
    generic = pc.regularize(lambda rows: f(rows), **kwargs)
    rows = np.concatenate([uniform_rows(1, 200, make_rng(31, 9)),
                           [set_spec.balls[0].center.homog]])
    chi = kernel.eval_homog(rows)
    assert np.array_equal(chi, generic.eval_homog(rows))
    assert np.all(chi == value)


@pytest.mark.parametrize("alpha", [1, 2])
def test_c_alpha_estimate_equals_per_point_max(alpha, config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    grid = pc.annulus_grid(two_ball_set, 0.1, 30, seed=2)
    assert len({c.chart_index for c in grid}) == 2  # both charts in one batch
    step = 3e-3
    per_point = [pc.finite_diff(cf.rf, c, alpha, step) for c in grid]
    assert max(per_point) > 0.0
    assert pc.c_alpha_estimate(cf.rf, grid, alpha, step) == max(per_point)


def test_c_alpha_estimate_noise_guard_per_point(mollifier_k1):
    rf = pc.regularize(half_plus_dust, 0.0, 1, seed=9, mollifier=mollifier_k1)
    plateau = [pc.ChartCoordinates(0, np.array([1.0, x])) for x in (0.0, 0.6)]
    assert pc.c_alpha_estimate(rf, plateau, 1, 1e-3) == 0.0
    grid = plateau[:1] + [pc.ChartCoordinates(0, np.array([1.0, 0.3]))] + plateau[1:]
    with pytest.raises(StepTooSmall):
        pc.c_alpha_estimate(rf, grid, 1, 1e-3)


def chart_quadratic(j, A, b):
    """f = x.A.x / 2 + b.x in the real chart coordinates x of chart j: the
    real parts of the slots off the chart, then their imaginary parts."""
    def f(rows):
        zeta = np.delete(rows / rows[:, j:j + 1], j, axis=1)
        x = np.concatenate([zeta.real, zeta.imag], axis=1)
        return 0.5 * np.einsum("ma,ab,mb->m", x, A, x) + x @ b
    return f


@pytest.mark.parametrize("k", [2, 3])
def test_stencil_layout_exact_on_chart_quadratics(k):
    # theta = 0 passes f through, and central differences are exact on a
    # quadratic, so the proxies pin the real directions and the pair layout;
    # each Hessian entry in turn, mixed Re/Im products included, is made the
    # largest
    q = 2 * k
    rng = make_rng(32, k)
    A0 = rng.uniform(-1.0, 1.0, (q, q))
    A0 = 0.5 * (A0 + A0.T)
    b = rng.uniform(-1.0, 1.0, q)
    mollifier = pc.get_mollifier(k, 0.1)
    for j in (0, k):
        coords = rng.uniform(-0.5, 0.5, k + 1) + 1j * rng.uniform(-0.5, 0.5, k + 1)
        coords[j] = 1.0
        c = pc.ChartCoordinates(j, coords)
        x0 = np.concatenate([np.delete(coords, j).real, np.delete(coords, j).imag])
        for a, e in zip(*np.triu_indices(q)):
            A = A0.copy()
            A[a, e] = A[e, a] = 3.0 if a == e else -3.0
            rf = pc.regularize(chart_quadratic(j, A, b), 0.0, 1, seed=0, mollifier=mollifier)
            assert pc.finite_diff(rf, c, 1, 1e-3) == pytest.approx(
                np.linalg.norm(A @ x0 + b), abs=1e-6)
            assert pc.finite_diff(rf, c, 2, 3e-3) == pytest.approx(3.0, abs=1e-6)


def _scaled(rows, rng):
    """The same points under a random scale and phase per row."""
    m = rows.shape[0]
    return rows * (rng.uniform(1e-3, 1e3, (m, 1)) * np.exp(2j * math.pi * rng.random((m, 1))))


def _boundary_rows(rf, set_spec, rho, rng, directions=3):
    """Rows at R_b +- fs +- {0, mu, 10 mu} and at R_b + {-1/2, 0, 1/2} fs
    from each ball's centre, R_b = radius + rho the reach, fs the certified
    displacement, mu the decision angle; several random directions each."""
    fs = math.asin(rf.eps / (1.0 - rf.eps))
    offsets = [s * fs + u * DECISION_ANGLE for s in (-1.0, 1.0) for u in (-10.0, -1.0, 0.0, 1.0, 10.0)]
    rows = []
    for ball in set_spec.balls:
        c = ball.center.homog
        for t in offsets + [-0.5 * fs, 0.0, 0.5 * fs]:
            rows += [geodesic_row(c, tangent_row(c, rng), ball.radius + rho + t)
                     for _ in range(directions)]
    return _scaled(np.stack(rows), rng)


def _decided(rf, rows):
    """The number of rows the certificate decides, and the candidate balls
    of each group of band rows."""
    _, groups = rf._decide(rows)
    return rows.shape[0] - sum(band.size for _, band in groups), [list(b) for b, _ in groups]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certificate_decisions_match_generic_path_at_the_boundary(k):
    # rows placed at the decision levels: the pruned form path against the
    # indicator called on every moved point, bit for bit
    rng = make_rng(35, k)
    kwargs = dict(theta=0.3, S=S_BLOCKS, seed=18, mollifier=pc.get_mollifier(k, 0.1))
    eps = pc.regularize(ones, **kwargs).eps  # the certificate does not depend on the source
    fs = math.asin(eps / (1.0 - eps))
    radius, rho = 0.05, 0.1

    # two balls whose reaches overlap by fs / 2: the rows between them
    # are candidates for both
    c0 = uniform_rows(k, 1, rng)[0]
    v = tangent_row(c0, rng)
    gap = 2.0 * (radius + rho) - 0.5 * fs
    pair = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint(c0), radius),
                              pc.Ball(pc.ProjectivePoint(geodesic_row(c0, v, gap)), radius)))
    f = pc.indicator_fattened(pair, rho)
    kernel = pc.regularize(f, **kwargs)
    generic = pc.regularize(lambda rows: f(rows), **kwargs)
    assert kernel.eps == generic.eps == eps > 0.0
    between = np.stack([geodesic_row(c0, v, 0.5 * gap + x * fs) for x in (-0.5, 0.0, 0.5)])
    boundary = np.concatenate([_boundary_rows(kernel, pair, rho, rng), _scaled(between, rng),
                               uniform_rows(k, 30, rng)])
    decided, groups = _decided(kernel, boundary)
    assert 0 < decided < boundary.shape[0] and [0, 1] in groups
    chi = kernel.eval_homog(boundary)
    assert np.array_equal(chi, generic.eval_homog(boundary))
    assert np.any(chi == 1.0) and np.any(chi == 0.0) and np.any((chi > 0.0) & (chi < 1.0))

    # a covering ball (level -1) decides every row 1, rho = 0 every row 0
    cover = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint(c0), 1.5),) + pair.balls[1:])
    for set_spec, r, value in ((cover, rho, 1.0), (pair, 0.0, 0.0)):
        g = pc.indicator_fattened(set_spec, r)
        kernel = pc.regularize(g, **kwargs)
        rows = np.concatenate([_boundary_rows(kernel, set_spec, r, rng, 1), boundary])
        assert _decided(kernel, rows) == (rows.shape[0], [])
        chi = kernel.eval_homog(rows)
        assert np.all(chi == value)
        assert np.array_equal(chi, pc.regularize(lambda z: g(z), **kwargs).eval_homog(rows))

    # theta = 0 passes the indicator through
    kernel = pc.regularize(f, **dict(kwargs, theta=0.0))
    assert kernel.eps == 0.0 and kernel.forms is None
    assert np.array_equal(kernel.eval_homog(boundary), f(boundary))

    # stored elements far from the identity (eps >= 1/2): nothing is decided
    wide = dict(kwargs, theta=1.0, S=400, mollifier=pc.get_mollifier(k, 2.0))
    kernel = pc.regularize(f, **wide)
    assert kernel.eps >= 0.5
    assert _decided(kernel, boundary) == (0, [[0, 1]])
    assert np.array_equal(kernel.eval_homog(boundary),
                          pc.regularize(lambda z: f(z), **wide).eval_homog(boundary))


def test_band_groups_on_many_balls_are_the_distinct_patterns():
    # 130 balls along a geodesic, each row's candidates packed into 17
    # bytes, the last two balls in a byte of their own: the groups are the
    # distinct candidate patterns, in order, each band row in one, and the
    # pruned path equals the indicator called on every moved point
    rng = make_rng(39, 1)
    c0 = uniform_rows(1, 1, rng)[0]
    v = tangent_row(c0, rng)
    balls = tuple(pc.Ball(pc.ProjectivePoint(geodesic_row(c0, v, 0.011 * i)), 0.003)
                  for i in range(130))
    net = pc.CompactSetSpec(balls)
    f = pc.indicator_fattened(net, 0.003)
    kwargs = dict(theta=0.05, S=300, seed=20, mollifier=pc.get_mollifier(1, 0.1))
    kernel = pc.regularize(f, **kwargs)
    rows = np.concatenate([_scaled(geodesic_row(c0, v, rng.uniform(-0.01, 1.44, 300)), rng),
                           _boundary_rows(kernel, net, 0.003, rng, 1)])
    total, groups = kernel._decide(rows)
    patterns = [list(b) for b, _ in groups]
    assert len(patterns) > 100 and patterns == sorted(patterns, key=lambda b: [-x for x in b])
    assert any(len(b) > 1 for b in patterns) and any(129 in b for b in patterns)
    band = np.sort(np.concatenate([r for _, r in groups]))
    assert np.array_equal(band, np.unique(band)) and np.all(total[band] == 0.0)
    chi = kernel.eval_homog(rows)
    assert np.array_equal(chi, pc.regularize(lambda z: f(z), **kwargs).eval_homog(rows))
    assert np.any((chi > 0.0) & (chi < 1.0))


@pytest.mark.parametrize("S", [2.5, True, np.True_, 0, MAX_S + 1])
def test_regularize_refuses_bad_sample_counts(S, mollifier_k1):
    # 2.5 would keep 2 samples and True 1
    with pytest.raises(ConfigError, match="^S: "):
        pc.regularize(ones, 0.2, S, 1, mollifier_k1)


@pytest.mark.parametrize("s", [1e-300, 1e-170, 1e170, 1e300])
def test_rows_of_extreme_scale_evaluate_like_ordinary_ones(s, two_ball_set):
    # each row is divided by a power of two before any square, so the rows
    # s z get the values of z bit for bit on both paths, with no numpy
    # warning, and the same distances to the set
    rho = 0.05
    f = pc.indicator_fattened(two_ball_set, rho)
    kwargs = dict(theta=0.3, S=700, seed=19, mollifier=pc.get_mollifier(1, 0.1))
    kernel = pc.regularize(f, **kwargs)
    generic = pc.regularize(lambda rows: f(rows), **kwargs)
    rng = make_rng(37, 0)
    rows = np.concatenate([two_ball_set.centres, _boundary_rows(kernel, two_ball_set, rho, rng, 1),
                           uniform_rows(1, 30, rng), [[1.0, 0.2]]])
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    chi = kernel.eval_homog(rows)
    assert np.any(chi == 1.0) and np.any(chi == 0.0) and np.any((chi > 0.0) & (chi < 1.0))
    assert np.array_equal(kernel.eval_homog(s * rows), chi)
    assert np.array_equal(generic.eval_homog(s * rows), chi)
    assert np.array_equal(generic.eval_homog(rows), chi)
    dist = rows_dist_to_set(rows, two_ball_set)
    assert np.all(np.abs(rows_dist_to_set(s * rows, two_ball_set) - dist) <= 1e-13)
