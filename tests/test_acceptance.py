"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
the heavy fixtures (sample count 20000) are shared across criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

import projcut as pc
from projcut.geometry import geodesic_row, tangent_row, uniform_rows
from projcut.lie import _uniform_coord_rows, from_coords
from projcut.measure import sample_rows
from projcut.rng import make_rng

from conftest import random_traceless

S = 20000
DELTAS_VERIFY = (0.05, 0.1, 0.2)
DELTAS_SCALING = (0.2, 0.1, 0.05, 0.025)


def report(num, name, ok, detail=""):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def random_point_balls(k, seed):
    # two random point-balls of radius 0.05, kept apart so the delta=0.2
    # neighbourhoods stay well separated
    rng = make_rng(seed, 71)
    while True:
        a, b = (pc.ProjectivePoint(row) for row in uniform_rows(k, 2, rng))
        if pc.fs_distance(a, b) >= 0.6:
            return pc.CompactSetSpec((pc.Ball(a, 0.05), pc.Ball(b, 0.05)))


@pytest.fixture(scope="module")
def config_k1():
    return pc.CutoffConfig.create(1, S=S, seed=42)


@pytest.fixture(scope="module")
def config_k2():
    return pc.CutoffConfig.create(2, S=S, seed=42)


@pytest.fixture(scope="module")
def verification_runs(config_k1, config_k2):
    runs = []
    start = time.perf_counter()
    for config, set_seed in ((config_k1, 1), (config_k2, 2)):
        sset = random_point_balls(config.k, set_seed)
        for delta in DELTAS_VERIFY:
            cf = pc.build_cutoff(sset, delta, config)
            rep = pc.verify_cutoff(cf, n_inner=200, n_outer=200, seed=config.seed)
            runs.append((config.k, delta, cf, rep))
    return runs, time.perf_counter() - start


def test_criterion_01_identity_on_the_set(verification_runs):
    runs, elapsed = verification_runs
    worst = 0.0
    for k, delta, cf, rep in runs:
        assert rep.fs_audit_max < 0.5 * delta, "displacement gate failed"
        worst = max(worst, rep.max_dev_on_K)
        assert rep.max_dev_on_K == 0.0, f"k={k} delta={delta}"
    ok = worst == 0.0 and elapsed < 120.0
    report(1, "identity on the set", ok,
           f"max |chi - 1| = {worst} over {len(runs)} runs, {elapsed:.1f}s")


def test_criterion_02_support_inside_neighbourhood(verification_runs):
    runs, elapsed = verification_runs
    worst = max(rep.max_val_off_Kdelta for _, _, _, rep in runs)
    ok = worst == 0.0 and elapsed < 120.0
    report(2, "support inside the delta-neighbourhood", ok,
           f"max |chi| = {worst} at distance >= delta, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def scaling_runs(config_k1):
    sset = random_point_balls(1, 1)
    start = time.perf_counter()
    rep1 = pc.scaling_experiment(sset, DELTAS_SCALING, 1, config_k1, grid_points=400)
    rep2 = pc.scaling_experiment(sset, DELTAS_SCALING, 2, config_k1, grid_points=400)
    return rep1, rep2, time.perf_counter() - start


def test_criterion_03_derivative_scaling_slopes(scaling_runs):
    rep1, rep2, elapsed = scaling_runs
    ok1 = -1.5 <= rep1.slope <= -0.5 and rep1.slope_stderr < 0.2
    ok2 = -2.6 <= rep2.slope <= -1.4 and rep2.slope_stderr < 0.2
    ok = ok1 and ok2 and elapsed < 600.0
    report(3, "derivative growth slopes", ok,
           f"alpha=1: {rep1.slope:.3f}+-{rep1.slope_stderr:.3f}, "
           f"alpha=2: {rep2.slope:.3f}+-{rep2.slope_stderr:.3f}, {elapsed:.0f}s")


def test_criterion_04_chart_group_consistency():
    rng = make_rng(44, 0)
    worst = 0.0
    for _ in range(1000):
        x = pc.AlgebraElement(random_traceless(rng, 2, norm=0.1 * rng.random()))
        offs = 0.05 * (rng.random(1) * 2 - 1) + 0.05j * (rng.random(1) * 2 - 1)
        h = pc.ShearParams(offs / math.sqrt(2.0))
        lhs = pc.exp_chart(pc.chart_translate(x, h)).mat
        rhs = pc.phi_normalize(pc.exp_chart(x).mat @ pc.shear(h).mat).mat
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(4, "chart translation matches the matrix product", worst <= 1e-9,
           f"max deviation {worst:.3e} over 1000 pairs")


def test_criterion_05_exponential_chart_roundtrips():
    rng = make_rng(45, 0)
    coords = _uniform_coord_rows(0.2, 1, 1000, rng)
    mats = from_coords(coords, 1)
    worst = 0.0
    for m in mats:
        back = pc.log_chart(pc.exp_chart(pc.AlgebraElement(m)))
        worst = max(worst, float(np.linalg.norm(back.mat - m)))
    det_dev = float(np.max(np.abs(np.linalg.det(pc.exp_sl(mats)) - 1.0)))
    ok = worst <= 1e-10 and det_dev <= 1e-10
    report(5, "exponential chart round trips", ok,
           f"roundtrip {worst:.3e}, det deviation {det_dev:.3e}")


def test_criterion_06_measure_correctness():
    spec = pc.get_mollifier(1, 0.1)
    n = spec.n

    mass_quad = spec._trapezoid_mass()
    quad_ok = abs(mass_quad - 1.0) <= 1e-3

    rng = make_rng(46, 0)
    count = 1000000
    radii = 0.1 * rng.random(count) ** (1.0 / n)
    vals = spec.norm_const * pc.bump_profile(radii / 0.1)
    volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * 0.1 ** n
    mass_mc = volume * vals.mean()
    stderr = volume * vals.std(ddof=1) / math.sqrt(count)
    mc_ok = abs(mass_mc - 1.0) <= 3.0 * stderr

    theta = 0.7
    draw = sample_rows(pc.ScaledMeasure(spec, theta), 100000, seed=8)
    norms = np.linalg.norm(draw, axis=1)
    inside_ok = norms.max() < theta * 0.1

    t = np.linspace(0.0, 1.0, 32769)
    pdf = t ** (n - 1) * pc.bump_profile(t)
    cdf = np.concatenate([[0.0], cumulative_simpson(pdf, x=t)])
    cdf /= cdf[-1]
    sorted_r = np.sort(norms) / (theta * 0.1)
    F = np.interp(sorted_r, t, cdf)
    i = np.arange(1, norms.size + 1)
    ks = max(np.max(i / norms.size - F), np.max(F - (i - 1) / norms.size))
    ks_ok = ks < 1.6276 / math.sqrt(norms.size)

    ok = quad_ok and mc_ok and inside_ok and ks_ok
    report(6, "measure mass, support, and radius law", ok,
           f"quad mass {mass_quad:.6f}, MC {mass_mc:.6f}+-{stderr:.1e}, "
           f"max radius {norms.max():.6f} < {theta * 0.1}, KS {ks:.5f}")


def test_criterion_07_euclidean_displacement_audit(verification_runs):
    runs, _ = verification_runs
    worst_excess = -np.inf
    checked = 0
    for k, delta, cf, rep in runs:
        if delta != 0.1:
            continue
        bound = 0.25 * cf.config.budget * delta
        rng = make_rng(47, k)
        rows = uniform_rows(k, 400, rng)
        for chart in range(k + 1):
            keep = rows[np.abs(rows[:, chart]) > 1e-3][:100]
            assert keep.shape[0] == 100
            zeta = keep / keep[:, chart][:, None]
            ratio = _max_ratio_fixed_chart(cf.rf.matrices, zeta)
            worst_excess = max(worst_excess, ratio - bound)
            checked += 1
    ok = worst_excess <= 1e-12 and checked >= 5
    report(7, "chart-Euclidean displacement audit", ok,
           f"worst ratio-minus-bound {worst_excess:.3e} over {checked} charts")


def _max_ratio_fixed_chart(matrices, zeta):
    zn = np.linalg.norm(zeta, axis=1)
    eye = np.eye(zeta.shape[1])
    worst = 0.0
    for lo in range(0, matrices.shape[0], 1024):
        g = matrices[lo:lo + 1024] - eye
        moved = np.einsum("sij,mj->smi", g, zeta)
        worst = max(worst, float((np.linalg.norm(moved, axis=2) / zn).max()))
    return worst


def test_criterion_08_theta_ratio_law():
    spec = pc.get_mollifier(1, 0.1)
    center = pc.ProjectivePoint([1.0, 0.1])
    f = pc.indicator_fattened(pc.CompactSetSpec((pc.Ball(center, 0.0),)), 0.2)
    theta = 0.04
    rf1 = pc.regularize(f, theta, S, seed=99, mollifier=spec)
    rf2 = pc.regularize(f, theta / 2.0, S, seed=99, mollifier=spec)
    rng = make_rng(48, 0)
    v = tangent_row(center.homog, rng)
    w = 2.0 * 1.7 * 0.1 * theta
    # the step must resolve the twice-sharper theta/2 transition layer
    grid = [pc.to_chart(pc.ProjectivePoint(geodesic_row(center.homog, v, t)))
            for t in np.linspace(0.2 - w, 0.2 + w, 320)]
    e1 = pc.c_alpha_estimate(rf1, grid, 1, 2.5e-4)
    e2 = pc.c_alpha_estimate(rf2, grid, 1, 2.5e-4)
    ratio = e2 / e1
    ok = abs(ratio / 2.0 - 1.0) <= 0.25
    report(8, "halving theta doubles the gradient", ok,
           f"ratio {ratio:.3f} (target 2 within 25%)")


def test_criterion_09_volume_distortion_diagnostics():
    zero = pc.AlgebraElement(np.zeros((2, 2)))
    det0 = pc.chart_translate_jacobian(zero, pc.ShearParams(np.zeros(1)), 1e-4)
    at_zero_ok = abs(det0 - 1.0) <= 1e-6

    det_h = pc.chart_translate_jacobian(zero, pc.ShearParams(np.array([0.01])), 1e-4)
    dev_h = abs(det_h - 1.0)

    rng = make_rng(49, 0)
    dev_x = 0.0
    for _ in range(3):
        x = pc.AlgebraElement(random_traceless(rng, 2, norm=0.08))
        det = pc.chart_translate_jacobian(x, pc.ShearParams(np.array([0.01])), 1e-4)
        dev_x = max(dev_x, abs(det - 1.0))

    ok = at_zero_ok and dev_h <= 0.1 and dev_x <= 0.1
    report(9, "translation volume distortion", ok,
           f"|det-1| = {abs(det0 - 1.0):.2e} at h=0; reported deviation "
           f"{dev_h:.2e} at x=0, {dev_x:.2e} at x!=0, |h|=0.01")
