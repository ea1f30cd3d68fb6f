import gc
import importlib
import math
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import projcut as pc
from projcut.cutoff import (STEPS_PER_DELTA, annulus_grid, max_euclid_ratio, max_fs_displacement,
                            rows_off_set, rows_on_set)
from projcut.errors import ConfigError, DeltaOutOfRange
from projcut.geometry import rows_dist_to_set, uniform_rows
from projcut.cli import DEFAULT_BANDS, load_config
from projcut.lie import _frob
from projcut.regularize import (MAX_S, ROW_BLOCK, RegularizedFunction, _features, _stencil_rows,
                                displacement_bound)
from projcut.rng import make_rng

from conftest import CertificateLevels


def test_config_validation():
    with pytest.raises(ConfigError):
        pc.CutoffConfig(0, 0.1, 0.4, 100, 1)
    with pytest.raises(ConfigError):
        pc.CutoffConfig(1, 0.1, 0.4, 0, 1)
    with pytest.raises(TypeError):  # distortion and budget are computed, not passed
        pc.CutoffConfig(1, 0.1, 0.4, 100, 1, 1.6, 1.0)


@pytest.mark.parametrize("field, value", [("S", 2.5), ("S", True), ("S", math.nan),
                                          ("S", np.float64(3.0)), ("S", np.True_),
                                          ("seed", 1.5), ("seed", False), ("seed", math.nan)])
def test_config_refuses_non_integer_counts(field, value):
    # regularize would otherwise truncate them silently
    with pytest.raises(ConfigError, match=f"^{field}: "):
        pc.CutoffConfig(1, **{field: value})


@pytest.mark.parametrize("value", [True, np.True_])
@pytest.mark.parametrize("field", ["k", "sigma", "delta0"])
def test_config_refuses_booleans(field, value):
    # True would pass as k = 1 or as 1.0
    with pytest.raises(ConfigError, match=f"^{field}: "):
        pc.CutoffConfig(**{"k": 1, field: value})


@pytest.mark.parametrize("S", [MAX_S + 1, np.int64(MAX_S + 1), 10 ** 30])
def test_config_refuses_S_above_the_ceiling(S, two_ball_set, monkeypatch):
    # refused by the constructor, before any sample is drawn
    def refuse(*args, **kwargs):
        raise AssertionError("samples were drawn for a refused S")

    monkeypatch.setattr(sys.modules["projcut.regularize"], "sample_matrices", refuse)
    with pytest.raises(ConfigError, match=f"^S: must be at most {MAX_S}$"):
        pc.build_cutoff(two_ball_set, 0.1, pc.CutoffConfig(1, S=S))
    assert pc.CutoffConfig(1, S=MAX_S).S == MAX_S


def test_config_draws_its_sample_at_the_first_build(two_ball_set, sampler_calls):
    # the config owns the sample: drawn once, at the first build rather than
    # at construction, and shared by every build
    config = pc.CutoffConfig(1, S=1500, seed=8)
    assert sampler_calls == []
    cf = pc.build_cutoff(two_ball_set, 0.1, config)
    other = pc.build_cutoff(two_ball_set, 0.05, config)
    assert sampler_calls == [1500]
    assert cf.rf.draws is other.rf.draws is config.sample.draws


def test_draws_die_with_their_config(two_ball_set):
    # no module keeps the draws for a later call
    config = pc.CutoffConfig(1, S=1500, seed=8)
    cf = pc.build_cutoff(two_ball_set, 0.1, config)
    draws = weakref.ref(cf.rf.draws)
    del config, cf
    gc.collect()
    assert draws() is None


def test_config_accepts_numpy_integers():
    cfg = pc.CutoffConfig(1, S=np.int64(10), seed=np.uint32(3))
    assert cfg.S == 10 and cfg.seed == 3


@pytest.mark.parametrize("k", [1, 2, 3])
def test_config_budget_is_exactly_one_below_the_cap(k):
    # theta_max < 1 here, so the whole delta/4 budget is spent: budget is 1,
    # not the 0.9999999999999999 of a round trip through theta_max (k = 2)
    cfg = pc.CutoffConfig(k, sigma=0.1, delta0=0.4, S=10, seed=3)
    assert cfg.theta_max < 1.0
    assert cfg.budget == 1.0


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
    for rho in (-0.1, math.nan):  # a NaN rho would give a silent 0 everywhere
        with pytest.raises(ValueError, match="rho"):
            pc.indicator_fattened(single, rho)


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
    # the certificate bounds every stored element from above, within a few
    # percent, and stays within the per-sample bound the build checks
    cf = pc.build_cutoff(two_ball_set, 0.2, config_small)
    bound = config_small.distortion * cf.theta * config_small.sigma
    devs = _frob(cf.rf.matrices - np.eye(2))
    assert float(devs.max()) <= cf.rf.eps <= bound == cf.frob_bound
    assert cf.rf.eps < 1.05 * float(devs.max())
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
    assert report.euclid_audit_bound == cf.frob_bound
    payload = report.to_dict()
    assert set(payload) == {"max_dev_on_K", "max_val_off_Kdelta", "euclid_audit_max",
                            "euclid_audit_bound", "fs_audit_max", "fs_audit_bound", "pass"}
    assert payload["pass"] is True


@pytest.mark.parametrize("k, delta", [(1, 0.17), (2, 0.2), (3, 0.07)])
def test_verify_reports_the_bound_the_build_checked(k, delta):
    # deltas where budget * delta / 4 and distortion * theta * sigma differ
    # in the last bits: the report carries the build's bound, bit for bit
    config = pc.CutoffConfig(k, S=300, seed=5)
    sset = pc.CompactSetSpec((pc.Ball(pc.ProjectivePoint(np.eye(k + 1)[0]), 0.05),))
    cf = pc.build_cutoff(sset, delta, config)
    report = pc.verify_cutoff(cf, 5, 5, seed=1)
    assert 0.25 * config.budget * delta != config.distortion * cf.theta * config.sigma
    assert report.euclid_audit_bound == config.distortion * cf.theta * config.sigma
    assert report.euclid_audit_max == cf.rf.eps <= report.euclid_audit_bound
    assert report.fs_audit_max == displacement_bound(cf.rf.eps)
    assert report.passed


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
        assert report.euclid_audit_max == cf.rf.eps
        assert report.fs_audit_max < report.fs_audit_bound
        for rows in (uniform_rows(k, 100, rng), rows_on_set(sset, 50, rng),
                     rows_off_set(sset, delta, 50, rng)):
            assert max_fs_displacement(cf.rf.matrices, rows) <= report.fs_audit_max
            assert max_euclid_ratio(cf.rf.matrices, rows) <= report.euclid_audit_max


@pytest.mark.parametrize("n_inner, n_outer", [(2.5, 5), (5, math.nan), (True, 5), (5, np.True_),
                                              (0, 5), (5, -1), (5.0, 5), ("5", 5)])
def test_verify_cutoff_refuses_counts_that_are_not_positive_integers(n_inner, n_outer,
                                                                     config_small, two_ball_set):
    # 2.5 ended in an IndexError inside rows_on_set, nan in a TypeError, and
    # True ran as 1
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    name = "n_inner" if n_outer == 5 else "n_outer"
    with pytest.raises(ValueError, match=f"^{name}: must be an integer, at least 1$"):
        pc.verify_cutoff(cf, n_inner, n_outer, seed=3)


def test_verify_cutoff_takes_numpy_integer_counts(config_small, two_ball_set):
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    assert (pc.verify_cutoff(cf, np.int64(5), np.uint16(5), seed=3)
            == pc.verify_cutoff(cf, 5, 5, seed=3))


def test_verify_cutoff_runs_no_sampled_audit(config_small, two_ball_set, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify_cutoff ran a sampled audit")

    monkeypatch.setattr("projcut.cutoff.max_fs_displacement", refuse)
    monkeypatch.setattr("projcut.cutoff.max_euclid_ratio", refuse)
    cf = pc.build_cutoff(two_ball_set, 0.1, config_small)
    assert pc.verify_cutoff(cf, 80, 80, seed=3).passed


def test_verify_rows_skip_the_products(monkeypatch):
    # verify's checks (a) and (b) are settled by the certificate: every
    # inner and outer row of the bundled config is decided before the
    # products.  The products themselves, which (a) and (b) used to
    # exercise, are run here on the same rows over all balls.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "verify_two_balls.json")
    config = pc.CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)
    balls = np.arange(len(cfg.set_spec.balls))
    for delta in cfg.deltas:
        cf = pc.build_cutoff(cfg.set_spec, delta, config)
        rng = make_rng(cfg.seed, 41)  # the rows verify_cutoff draws
        inner = rows_on_set(cfg.set_spec, cfg.n_inner, rng)
        outer = rows_off_set(cfg.set_spec, delta, cfg.n_outer, rng)
        with monkeypatch.context() as patch:
            def refuse(*args, **kwargs):
                raise AssertionError("a verify row entered the products")

            patch.setattr(RegularizedFunction, "_form_hits", refuse)
            report = pc.verify_cutoff(cf, cfg.n_inner, cfg.n_outer, cfg.seed)
        assert report.passed
        assert report.max_dev_on_K == 0.0 and report.max_val_off_Kdelta == 0.0
        tasks = [(_features(rows[r:r + ROW_BLOCK]), balls) for rows in (inner, outer)
                 for r in range(0, rows.shape[0], ROW_BLOCK)]
        hits = np.concatenate(cf.rf._form_hits(tasks))
        assert np.all(hits[:cfg.n_inner] == cf.rf.S) and np.all(hits[cfg.n_inner:] == 0)


@pytest.mark.parametrize("name", ["verify_two_balls.json", "verify_rp1_net.json"])
def test_build_and_verify_form_no_coefficients(name, monkeypatch):
    # the build stores the sample and its certificate, and verify's rows are
    # all decided by it: neither forms the ball tests' coefficients
    def refuse(*args, **kwargs):
        raise AssertionError("the ball tests' coefficients were formed")

    # the package re-exports the function regularize over its module name
    monkeypatch.setattr(importlib.import_module("projcut.regularize"), "_form_coefficients",
                        refuse)
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / name)
    config = pc.CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)
    for delta in cfg.deltas:
        cf = pc.build_cutoff(cfg.set_spec, delta, config)
        assert pc.verify_cutoff(cf, cfg.n_inner, cfg.n_outer, cfg.seed).passed


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
    assert 0.0 < ratio <= cf.rf.eps <= cf.frob_bound
    # scaling the rows leaves both audits unchanged (projective data)
    assert max_fs_displacement(cf.rf.matrices, 3.0 * rows) == pytest.approx(fs, rel=1e-12)


def test_annulus_grid_inside_annulus(two_ball_set):
    delta = 0.12
    grid = annulus_grid(two_ball_set, delta, 50, seed=9)
    assert len(grid) == 50
    for c in grid:
        d = pc.dist_to_set(c.to_point(), two_ball_set)
        assert 0.25 * delta - 1e-12 <= d <= delta + 1e-12


def _rp1_net():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "verify_rp1_net.json")
    return cfg, pc.CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)


def test_annulus_grid_on_many_balls():
    # 128 balls: every point lies in the annulus, in its maximum-modulus chart
    net = _rp1_net()[0].set_spec
    for delta in (0.2, 0.05):
        grid = annulus_grid(net, delta, 300, seed=9)
        assert len(grid) == 300
        coords = np.stack([c.coords for c in grid])
        d = rows_dist_to_set(coords, net)
        assert np.all((0.25 * delta - 1e-12 <= d) & (d <= delta + 1e-12))
        assert np.all(np.abs(coords) <= 1.0)
        assert all(c.coords[c.chart_index] == 1.0 for c in grid)


def test_rp1_net_covers_the_real_line_and_passes_verify():
    # configs/verify_rp1_net.json: 128 balls of radius pi/256 whose centres
    # are pi/128 apart on RP^1, so they cover it
    cfg, config = _rp1_net()
    net = cfg.set_spec
    assert len(net.balls) == 128
    a = np.linspace(0.0, math.pi, 4097)
    assert rows_dist_to_set(np.stack([np.cos(a), np.sin(a)], axis=1), net).max() <= 1e-12
    for delta in cfg.deltas:
        cf = pc.build_cutoff(net, delta, config)
        assert pc.verify_cutoff(cf, cfg.n_inner, cfg.n_outer, cfg.seed).passed
    # the band rows go through the form kernel with up to 128 balls: the
    # same counts as the indicator on every moved point
    rows = np.stack([c.coords for c in annulus_grid(net, delta, 40, seed=3)])
    generic = pc.regularize(lambda z: cf.rf.source(z), cf.theta, cfg.S, cfg.seed,
                            pc.get_mollifier(cfg.k, cfg.sigma))
    chi = cf.eval_homog(rows)
    assert np.array_equal(chi, generic.eval_homog(rows))
    assert np.any((chi > 0.0) & (chi < 1.0))


@pytest.mark.parametrize("count", [-1, True, np.True_, 2.5, "3"])
def test_rows_on_set_refuses_counts_that_are_not_nonnegative_integers(count, two_ball_set):
    # -1 returned the first B - 1 centres, True one row, 2.5 ended in an
    # IndexError and "3" in a TypeError
    with pytest.raises(ValueError, match="^count must be (an integer|nonnegative)$"):
        rows_on_set(two_ball_set, count, make_rng(40, 6))


def test_scaling_stencils_have_fewer_band_rows_than_under_the_certificate():
    # the bundled k = 1 alpha = 2 scaling config's annulus stencils: the
    # decisions at fs = theta max ||x||_F leave 5888 band rows over the
    # four deltas, against 8241 at displacement_bound(eps), with equal chi
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "scaling_alpha2.json")
    config = pc.CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)
    band = np.zeros(2, dtype=int)
    for tag, delta in enumerate(sorted(cfg.deltas, reverse=True)):  # as scaling_experiment
        cf = pc.build_cutoff(cfg.set_spec, delta, config)
        grid = annulus_grid(cfg.set_spec, delta, cfg.grid, cfg.seed, tag)
        rows = _stencil_rows(grid, cfg.alpha, delta / STEPS_PER_DELTA).reshape(-1, cfg.k + 1)
        old = CertificateLevels(cf.rf.source, cf.rf.theta, cf.rf.sample)
        assert cf.rf.fs < old.fs
        band += [sum(b.size for _, b in rf._decide(rows)[1]) for rf in (cf.rf, old)]
        assert np.array_equal(cf.eval_homog(rows), old.eval_homog(rows))
    assert band.tolist() == [5888, 8241]


def test_rows_on_set_centres_first_then_ball_i_mod_B():
    rng = make_rng(40, 5)
    B = 7
    radii = np.concatenate([[0.0], 0.3 * rng.random(B - 1)])
    sset = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                   for c, r in zip(uniform_rows(2, B, rng), radii)))
    assert np.array_equal(rows_on_set(sset, 4, rng), sset.centres[:4])
    rows = rows_on_set(sset, 60, rng)
    assert rows.shape == (60, 3) and np.array_equal(rows[:B], sset.centres)
    ball = np.arange(60 - B) % B
    cos2 = np.abs(np.sum(np.conj(sset.centres[ball]) * rows[B:], axis=1)) ** 2
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.all(cos2 >= np.cos(radii[ball]) ** 2 - 1e-15)
    point = ball == 0  # the radius-0 ball gives its centre, the others random points
    assert np.array_equal(rows[B:][point], sset.centres[ball[point]])
    assert not np.any(np.all(rows[B:][~point] == sset.centres[ball[~point]], axis=1))


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


@pytest.mark.parametrize("workers, deltas, pools", [
    (64, [0.2, 0.1, 0.05, 0.025], [4]),
    (2, [0.2, 0.1, 0.05, 0.025], [2]),
    (64, [0.2, 0.1, 0.05], [3]),
    (1, [0.2, 0.1, 0.05], []),
    (0, [0.2, 0.1, 0.05], []),
])
def test_scaling_pool_starts_at_most_one_worker_per_delta(monkeypatch, config_small,
                                                          two_ball_set, workers, deltas, pools):
    # ProcessPoolExecutor forks all max_workers processes at its first submit;
    # the stand-in records the size it was asked for and starts no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("projcut.cutoff.ProcessPoolExecutor", RecordingPool)
    report = pc.scaling_experiment(two_ball_set, deltas, 1, config_small,
                                   grid_points=5, workers=workers)
    assert sizes == pools
    assert [r[0] for r in report.rows] == sorted(deltas, reverse=True)


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
    for alpha in (3, True, np.True_, 2.0):  # True ran as alpha 1
        with pytest.raises(ValueError, match="^alpha must be 1 or 2$"):
            pc.scaling_experiment(two_ball_set, [0.2, 0.1, 0.05], alpha, config_small)
    # 0.5 / 40 is above the stencil window: refused before any build
    with pytest.raises(ConfigError, match="^deltas: 0.5 gives the step .*; step must lie in"):
        pc.scaling_experiment(two_ball_set, [0.5, 0.1, 0.05], 1, config_small,
                              grid_points=5, workers=1)
    # a step inside the window, but delta at or beyond delta0: the build refuses it
    with pytest.raises(DeltaOutOfRange):
        pc.scaling_experiment(two_ball_set, [0.35, 0.1, 0.05], 1,
                              pc.CutoffConfig(1, delta0=0.3, S=1500, seed=7),
                              grid_points=5, workers=1)


@pytest.mark.parametrize("deltas", [[0.1, 0.1, 0.1], [0.2, 0.1, 0.1], [0.2, 0.1, 0.1, 0.05]])
def test_scaling_experiment_rejects_repeated_deltas(deltas, config_small, two_ball_set):
    with pytest.raises(ValueError, match="distinct"):
        pc.scaling_experiment(two_ball_set, deltas, 1, config_small, grid_points=5, workers=1)


@pytest.mark.parametrize("name", ["scaling_k2_alpha2.json", "scaling_k3_alpha2.json"])
def test_bundled_alpha2_scaling_slope_in_band_at_higher_k(name):
    # the step's bias grows with k; it must be the same fraction of the
    # seminorm at every delta, or it tilts the slope out of the band
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / name)
    assert cfg.alpha == 2 and cfg.k > 1
    config = pc.CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)
    report = pc.scaling_experiment(cfg.set_spec, cfg.deltas, cfg.alpha, config, cfg.grid)
    lo, hi = DEFAULT_BANDS[2]
    assert lo <= report.slope <= hi


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


@pytest.mark.parametrize("row, message", [([math.nan, 1.0], "finite"), ([math.inf, 1.0], "finite"),
                                          ([0.0, 0.0], "zero row")])
def test_set_distance_rejects_non_points(row, message, two_ball_set):
    # a NaN distance compares false against rho, which would read as 0 silently
    rows = np.array([[1.0, 0.2], row])
    with pytest.raises(ValueError, match=message):
        rows_dist_to_set(rows, two_ball_set)
    with pytest.raises(ValueError, match=message):
        pc.indicator_fattened(two_ball_set, 0.1)(rows)


@pytest.mark.parametrize("dist, count", [(math.nan, 5), (math.inf, 5), (0.0, 5), (-0.1, 5),
                                         (0.1, -3)])
def test_samplers_refuse_bad_distance_or_count(dist, count, two_ball_set):
    message = "count must be nonnegative" if count < 0 else "distance must be finite and positive"
    with pytest.raises(ValueError, match=message):
        annulus_grid(two_ball_set, dist, count, seed=9)
    with pytest.raises(ValueError, match=message):
        rows_off_set(two_ball_set, dist, count, make_rng(40, 3))


@pytest.mark.parametrize("count", [2.5, True, np.True_, np.float64(3.0), "3"])
def test_samplers_refuse_counts_that_are_not_integers(count, two_ball_set):
    # True drew one point and 2.5 two, or a whole batch of 2 * count
    with pytest.raises(ValueError, match="^count must be an integer$"):
        annulus_grid(two_ball_set, 0.1, count, seed=9)
    with pytest.raises(ValueError, match="^count must be an integer$"):
        rows_off_set(two_ball_set, 0.1, count, make_rng(40, 3))


@pytest.mark.parametrize("sampler", ["verify_cutoff", "annulus_grid"])
@pytest.mark.parametrize("seed", [2.5, True, np.True_, -1, "3", None])
def test_sampled_points_refuse_bad_seeds(sampler, seed, config_small, two_ball_set):
    # the rule of regularize: 2.5 ran seed 2 and True seed 1
    with pytest.raises(ConfigError, match="^seed: must be a nonnegative integer$"):
        if sampler == "verify_cutoff":
            pc.verify_cutoff(pc.build_cutoff(two_ball_set, 0.1, config_small), 5, 5, seed=seed)
        else:
            annulus_grid(two_ball_set, 0.1, 5, seed=seed)


def test_samplers_take_count_zero(two_ball_set):
    assert annulus_grid(two_ball_set, 0.1, 0, seed=9) == []
    assert rows_off_set(two_ball_set, 0.1, 0, make_rng(40, 3)).shape == (0, 2)
