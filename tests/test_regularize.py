import math
import statistics

import numpy as np
import pytest

import projcut as pc
from projcut.errors import StepTooSmall
from projcut.geometry import geodesic_row, tangent_row, uniform_rows
from projcut.lie import _expm, _normalize_stack
from projcut.regularize import EVAL_CHUNK, FORM_GEMM_OUTPUT, ROW_BLOCK, _features, _unit_draws
from projcut.rng import make_rng


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
    # two scales, one draw: each stores what a fresh uncached draw would give
    for theta in (0.2, 0.05):
        rf = pc.regularize(ones, theta, 300, seed=9, mollifier=mollifier_k1)
        fresh = pc.sample_matrices(pc.ScaledMeasure(mollifier_k1, 1.0), 300, 9)
        assert np.array_equal(rf.matrices, _normalize_stack(_expm(theta * fresh)))
    draws = _unit_draws(mollifier_k1, 300, 9)
    assert _unit_draws(mollifier_k1, 300, 9) is draws
    with pytest.raises(ValueError):
        draws[0, 0, 0] = 1.0


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
    with pytest.raises(ValueError):
        pc.finite_diff(rf, c, 3, 1e-3)
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


def test_scaling_slope_validation():
    with pytest.raises(ValueError):
        pc.scaling_slope([(0.1, 1.0), (0.2, 2.0)])
    with pytest.raises(ValueError):
        pc.scaling_slope([(0.1, 1.0), (0.2, 2.0), (0.3, -1.0)])


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
    kwargs = dict(theta=0.3, S=EVAL_CHUNK + 301, seed=14, mollifier=pc.get_mollifier(k, 0.1))
    kernel = pc.regularize(f, **kwargs)
    generic = pc.regularize(lambda rows: f(rows), **kwargs)
    assert kernel.forms.shape == (kwargs["S"], 3, (k + 1) ** 2)
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
    # |c^H g z|^2 - l |g z|^2 of its ball's test, the covering ball included
    rng = make_rng(33, k)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(k, 3, rng), (0.0, 0.2, 1.5))))
    f = pc.indicator_fattened(set_spec, 0.1)
    centres, levels = f.ball_tests()
    assert levels[2] == -1.0  # 1.5 + 0.1 >= pi/2
    rf = pc.regularize(f, theta=0.3, S=50, seed=17, mollifier=pc.get_mollifier(k, 0.1))
    Z = uniform_rows(k, 40, rng) * rng.uniform(0.5, 2.0, (40, 1))
    images = np.einsum("sij,mj->smi", rf.matrices, Z)  # g z, shape (S, m, k+1)
    direct = (np.abs(images @ np.conj(centres).T) ** 2
              - levels * np.linalg.norm(images, axis=2, keepdims=True) ** 2)
    values = rf.forms @ _features(Z)  # shape (S, B, m)
    norms = np.linalg.norm(Z, axis=1) ** 2
    assert np.all(np.abs(values - direct.transpose(0, 2, 1)) <= 1e-12 * norms)


@pytest.fixture(scope="module")
def three_ball_pair(mollifier_k1):
    """Form kernel and generic path over one frozen sample, three balls at
    k = 1, S not a multiple of the samples per GEMM for any block below."""
    rng = make_rng(32, 0)
    set_spec = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                       for c, r in zip(uniform_rows(1, 3, rng), (0.0, 0.05, 0.2))))
    f = pc.indicator_fattened(set_spec, 0.1)
    kwargs = dict(theta=0.3, S=FORM_GEMM_OUTPUT // 3 + 301, seed=16, mollifier=mollifier_k1)
    return set_spec, pc.regularize(f, **kwargs), pc.regularize(lambda rows: f(rows), **kwargs)


@pytest.mark.parametrize("m", [1, 50, ROW_BLOCK + 1])
def test_form_kernel_blocking_matches_generic_path(m, three_ball_pair):
    set_spec, kernel, generic = three_ball_pair
    for rows_in_block in {min(m, ROW_BLOCK), m % ROW_BLOCK or ROW_BLOCK}:
        assert kernel.S % (FORM_GEMM_OUTPUT // (3 * rows_in_block)) != 0
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
