import math

import numpy as np
import pytest

import projcut as pc
from projcut.cutoff import (annulus_grid, max_euclid_ratio, max_fs_displacement,
                            rows_off_set, rows_on_set)
from projcut.errors import ConfigError, DeltaOutOfRange
from projcut.geometry import rows_dist_to_set, uniform_rows
from projcut.lie import _frob
from projcut.rng import make_rng


def test_config_validation():
    with pytest.raises(ConfigError):
        pc.CutoffConfig(0, 0.1, 0.4, 100, 1)
    with pytest.raises(ConfigError):
        pc.CutoffConfig(1, 0.1, 0.4, 0, 1)
    with pytest.raises(TypeError):  # distortion and budget are computed, not passed
        pc.CutoffConfig(1, 0.1, 0.4, 100, 1, 1.6, 1.0)


def test_config_create_caps_theta_at_one():
    # tiny working radius: the maximal scale saturates at 1 and the budget shrinks
    cfg = pc.CutoffConfig(1, sigma=0.02, delta0=0.4, S=10, seed=3)
    assert cfg.theta_max == pytest.approx(1.0, rel=1e-12)
    assert cfg.budget == pytest.approx(4.0 * cfg.distortion * 0.02 / 0.4, rel=1e-12)
    assert cfg.budget < 1.0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_config_create_accepts_every_seed(k):
    # the closed-form constant refuses no sampling seed
    for seed in range(100):
        cfg = pc.CutoffConfig(k, S=10, seed=seed)
        assert cfg.distortion == pc.estimate_distortion(0.4 / (4.0 * math.sqrt(k + 1)), k)


def test_config_create_refuses_delta0_without_distortion_bound():
    with pytest.raises(ConfigError, match="delta0"):
        pc.CutoffConfig(1, sigma=1.0, delta0=6.0)


@pytest.mark.parametrize("field", ["sigma", "delta0"])
def test_config_create_refuses_zero_sigma_and_delta0(field):
    with pytest.raises(ConfigError, match=field):
        pc.CutoffConfig(1, **{field: 0.0})


@pytest.mark.parametrize("field", ["sigma", "delta0"])
def test_config_refuses_infinite_sigma_and_delta0(field):
    # an infinite value gives theta = 0 and no stored matrices to build from
    with pytest.raises(ConfigError, match=field):
        pc.CutoffConfig(1, **{field: math.inf})


def test_config_create_never_calls_the_log_chart(monkeypatch):
    expected = pc.CutoffConfig(1, S=50, seed=11)

    def refuse(*args, **kwargs):
        raise AssertionError("the CutoffConfig constructor called the log chart")

    monkeypatch.setattr("projcut.lie.log_chart", refuse)
    monkeypatch.setattr("projcut.cutoff.log_chart", refuse)
    cfg = pc.CutoffConfig(1, S=50, seed=11)
    fields = ("k", "sigma", "delta0", "S", "seed", "distortion", "budget")
    assert [getattr(cfg, f) for f in fields] == [getattr(expected, f) for f in fields]


def test_choose_theta_chain(config_small):
    cfg = config_small
    for delta in (0.39, 0.2, 0.1, 0.013):
        theta = pc.choose_theta(cfg, delta)
        assert 0.0 < theta <= cfg.theta_max + 1e-15
        lhs = cfg.distortion * theta * cfg.sigma
        assert lhs == pytest.approx(cfg.budget * delta / 4.0, rel=1e-14)
    assert pc.choose_theta(cfg, 0.1) == pytest.approx(2.0 * pc.choose_theta(cfg, 0.05), rel=1e-14)
    # delta -> delta0 approaches the maximal scale
    assert pc.choose_theta(cfg, cfg.delta0 * (1 - 1e-12)) == pytest.approx(cfg.theta_max, rel=1e-9)
    with pytest.raises(DeltaOutOfRange):
        pc.choose_theta(cfg, cfg.delta0)
    with pytest.raises(DeltaOutOfRange):
        pc.choose_theta(cfg, 0.0)


def test_indicator_fattened(two_ball_set):
    f = pc.indicator_fattened(two_ball_set, 0.1)
    center = two_ball_set.balls[0].center
    assert f(center.homog[None, :])[0] == 1.0

    # boundary convention is strict: distance exactly rho gives 0
    single = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint([1.0, 0.0]), 0.0),))
    boundary = pc.ProjectivePoint([1.0, 0.2])
    rho = float(rows_dist_to_set(boundary.homog[None, :], single)[0])
    g = pc.indicator_fattened(single, rho)
    assert g(boundary.homog[None, :])[0] == 0.0

    h = pc.indicator_fattened(single, 0.0)
    assert h(pc.ProjectivePoint([1.0, 0.5]).homog[None, :])[0] == 0.0
    with pytest.raises(ValueError):
        pc.indicator_fattened(single, -0.1)


def test_build_cutoff_claims(config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    rng = make_rng(40, 0)
    inner = rows_on_set(two_ball_set, 60, rng)
    assert np.array_equal(cf.eval_homog(inner), np.ones(60))
    outer = rows_off_set(two_ball_set, 0.1, 60, rng)
    assert np.array_equal(cf.eval_homog(outer), np.zeros(60))
    anywhere = uniform_rows(1, 200, rng)
    vals = cf.eval_homog(anywhere)
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_build_cutoff_per_sample_bound(config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.2, config_small)
    bound = config_small.distortion * cf.theta * config_small.sigma
    devs = _frob(cf.rf.matrices - np.eye(2))
    assert float(devs.max()) <= bound
    assert bound == pytest.approx(config_small.budget * 0.2 / 4.0, rel=1e-14)


def test_build_cutoff_refuses_extreme_delta(config_small, two_ball_set):
    with pytest.raises(DeltaOutOfRange):
        pc.build_cutoff(two_ball_set, 5e-5, config_small)
    with pytest.raises(DeltaOutOfRange):
        pc.build_cutoff(two_ball_set, config_small.delta0, config_small)


def test_build_cutoff_dimension_mismatch(config_small):
    wrong = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint([1.0, 0.0, 0.0]), 0.05),))
    with pytest.raises(ConfigError):
        pc.build_cutoff(wrong, 0.1, config_small)


def test_verify_cutoff_report(config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    report = pc.verify_cutoff(cf, 80, 80, seed=3)
    assert report.passed
    assert report.max_dev_on_K == 0.0
    assert report.max_val_off_Kdelta == 0.0
    assert report.fs_audit_max < report.fs_audit_bound == 0.05
    assert report.euclid_audit_max <= report.euclid_audit_bound
    assert report.euclid_audit_bound == pytest.approx(config_small.budget * 0.1 / 4.0)
    payload = report.to_dict()
    assert set(payload) == {"max_dev_on_K", "max_val_off_Kdelta", "euclid_audit_max",
                            "euclid_audit_bound", "fs_audit_max", "fs_audit_bound", "pass"}
    assert payload["pass"] is True


@pytest.mark.parametrize("k", [1, 2, 3])
def test_certified_displacement_bounds_sampled_audits(k):
    # the report's audit fields bound the brute-force audits on uniform
    # rows, rows on K and rows at distance >= delta
    config = pc.CutoffConfig(k, S=2000, seed=42)
    rng = make_rng(42, k)
    sset = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), 0.05)
                                   for c in uniform_rows(k, 2, rng)))
    for delta in (0.2, 0.1, 0.05):
        cf = pc.build_cutoff(sset, delta, config)
        report = pc.verify_cutoff(cf, 20, 20, seed=k)
        assert report.passed
        assert report.euclid_audit_max == cf.frob_dev
        assert report.fs_audit_max < report.fs_audit_bound
        for rows in (uniform_rows(k, 100, rng), rows_on_set(sset, 50, rng),
                     rows_off_set(sset, delta, 50, rng)):
            assert max_fs_displacement(cf.rf.matrices, rows) <= report.fs_audit_max
            assert max_euclid_ratio(cf.rf.matrices, rows) <= report.euclid_audit_max


def test_verify_cutoff_runs_no_sampled_audit(config_small, two_ball_set, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_cutoff ran a sampled audit")

    monkeypatch.setattr("projcut.cutoff.max_fs_displacement", refuse)
    monkeypatch.setattr("projcut.cutoff.max_euclid_ratio", refuse)
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    assert pc.verify_cutoff(cf, 80, 80, seed=3).passed


def test_monotone_support(config_small, two_ball_set):
    d1, d2 = 0.05, 0.15
    cf1 = pc.build_cutoff(two_ball_set, d1, config_small)
    cf2 = pc.build_cutoff(two_ball_set, d2, config_small)
    rng = make_rng(40, 1)
    rows = uniform_rows(1, 400, rng)
    v1 = cf1.eval_homog(rows)
    v2 = cf2.eval_homog(rows)
    dists = rows_dist_to_set(rows, two_ball_set)
    positive = v1 > 0.0
    assert np.all(dists[positive] < d1)
    assert np.all(dists[positive] < d2)
    # and on the set itself both are exactly one (monotone nesting holds there)
    on_set = rows_on_set(two_ball_set, 40, rng)
    assert np.array_equal(cf1.eval_homog(on_set), np.ones(40))
    assert np.array_equal(cf2.eval_homog(on_set), np.ones(40))


def test_displacement_audits_scale_free(config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    rng = make_rng(40, 2)
    rows = uniform_rows(1, 50, rng)
    fs = max_fs_displacement(cf.rf.matrices, rows)
    assert 0.0 < fs < 0.05
    ratio = max_euclid_ratio(cf.rf.matrices, rows)
    assert 0.0 < ratio <= config_small.budget * 0.1 / 4.0 * (1 + 1e-9)
    # scaling the rows leaves both audits unchanged (projective data)
    assert max_fs_displacement(cf.rf.matrices, 3.0 * rows) == pytest.approx(fs, rel=1e-12)


def test_annulus_grid_inside_annulus(two_ball_set):
    delta = 0.12
    grid = annulus_grid(two_ball_set, delta, 50, seed=9)
    assert len(grid) == 50
    for c in grid:
        d = pc.dist_to_set(c.to_point(), two_ball_set)
        assert 0.25 * delta - 1e-12 <= d <= delta + 1e-12


def test_annulus_grid_fallback_on_covering_ball():
    # a ball of radius >= pi/2 covers P^k, so no draw lands in the annulus and
    # every point comes from the unconditioned fallback after 200 * count draws
    cover = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint([1.0, 0.2j]), 0.5 * math.pi),))
    grid = annulus_grid(cover, 0.1, 5, seed=9)
    assert len(grid) == 5
    again = annulus_grid(cover, 0.1, 5, seed=9)
    assert all(a.chart_index == b.chart_index and np.array_equal(a.coords, b.coords)
               for a, b in zip(grid, again))


def test_scaling_experiment_smoke(config_small, two_ball_set):
    report = pc.scaling_experiment(two_ball_set, [0.2, 0.1, 0.05], 1, config_small,
                                   grid_points=40, workers=1)
    assert [r[0] for r in report.rows] == [0.2, 0.1, 0.05]
    assert not report.degenerate
    assert report.slope < 0.0
    assert math.isfinite(report.slope_stderr)
    thetas = {r[0]: r[1] for r in report.rows}
    assert thetas[0.2] == pytest.approx(2 * thetas[0.1], rel=1e-12)


def test_scaling_experiment_workers_agree(config_small, two_ball_set):
    kwargs = dict(grid_points=25, workers=1)
    r1 = pc.scaling_experiment(two_ball_set, [0.2, 0.1, 0.05], 1, config_small, **kwargs)
    kwargs["workers"] = 2
    r2 = pc.scaling_experiment(two_ball_set, [0.2, 0.1, 0.05], 1, config_small, **kwargs)
    assert r1.rows == r2.rows
    assert r1.slope == r2.slope


def test_scaling_experiment_degenerate_cover(config_small):
    # a ball of radius beyond the diameter covers the whole space
    cover = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint([1.0, 0.0]), 1.6),))
    report = pc.scaling_experiment(cover, [0.2, 0.1, 0.05], 1, config_small,
                                   grid_points=10, workers=1)
    assert report.degenerate
    assert math.isnan(report.slope)
    assert all(r[2] == 0.0 for r in report.rows)


def test_scaling_experiment_validation(config_small, two_ball_set):
    with pytest.raises(ValueError):
        pc.scaling_experiment(two_ball_set, [0.2, 0.1], 1, config_small)
    with pytest.raises(ValueError):
        pc.scaling_experiment(two_ball_set, [0.2, 0.1, 0.05], 3, config_small)
    with pytest.raises(DeltaOutOfRange):
        pc.scaling_experiment(two_ball_set, [0.5, 0.1, 0.05], 1, config_small,
                              grid_points=5, workers=1)


@pytest.mark.parametrize("deltas", [[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.2, 0.1, 0.1, 0.05]])
def test_scaling_experiment_rejects_repeated_deltas(deltas, config_small, two_ball_set):
    with pytest.raises(ValueError, match="distinct"):
        pc.scaling_experiment(two_ball_set, deltas, 1, config_small, grid_points=5, workers=1)


def test_rows_off_set_unreachable_distance(two_ball_set):
    rng = make_rng(40, 3)
    with pytest.raises(ValueError):
        rows_off_set(two_ball_set, 1.6, 10, rng)  # beyond the diameter


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_eval_homog_rejects_non_points(bad, config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    rows = uniform_rows(1, 5, make_rng(40, 4))
    rows[2] = [bad, 0.0] if bad == 0.0 else [1.0, bad]
    with pytest.raises(ValueError):
        cf.eval_homog(rows)
