import math

import numpy as np
import pytest
import scipy.linalg

import projcut as pc
from projcut.errors import (DegenerateImage, NormalizationUndefined, OutOfChart)
from projcut.lie import _logm, _uniform_coord_rows
from projcut.rng import make_rng

from conftest import random_traceless


def series_exp_oracle(m, terms=60):
    """Brute-force reference: plain 60-term exponential series."""
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for j in range(1, terms + 1):
        term = term @ m / j
        out = out + term
    return out


def test_norm_s_examples():
    assert pc.norm_s(np.zeros((2, 2))) == 0.0
    assert pc.norm_s(np.eye(2)) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert pc.norm_s(np.diag([1.0, -1.0])) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_algebra_element_validation():
    with pytest.raises(ValueError):
        pc.AlgebraElement(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        pc.AlgebraElement(np.zeros((2, 3)))
    x = pc.AlgebraElement(np.diag([0.1, -0.1]))
    assert x.k == 1 and x.norm == pytest.approx(0.1 * math.sqrt(2.0))


def test_exp_matches_series_oracle():
    rng = make_rng(10, 0)
    for d in (2, 3, 4):
        for _ in range(40):
            m = random_traceless(rng, d, norm=0.5 * rng.random() + 1e-6)
            assert np.max(np.abs(pc.exp_sl(m) - series_exp_oracle(m))) <= 1e-12


def test_exp_matches_scipy():
    rng = make_rng(10, 1)
    for d in (2, 3):
        for _ in range(40):
            m = random_traceless(rng, d, norm=0.8 * rng.random() + 1e-6)
            assert np.max(np.abs(pc.exp_sl(m) - scipy.linalg.expm(m))) <= 1e-11


def test_exp_examples():
    assert np.array_equal(pc.exp_sl(np.zeros((3, 3))), np.eye(3))
    rng = make_rng(10, 2)
    for _ in range(50):
        m = random_traceless(rng, 2, norm=0.5)
        e = pc.exp_sl(m)
        assert abs(np.linalg.det(e) - 1.0) <= 1e-10
        assert np.max(np.abs(e @ pc.exp_sl(-m) - np.eye(2))) <= 1e-10


def test_log_matches_scipy():
    rng = make_rng(10, 3)
    for d in (2, 3):
        for _ in range(30):
            a = scipy.linalg.expm(random_traceless(rng, d, norm=0.3))
            assert np.max(np.abs(_logm(a) - scipy.linalg.logm(a))) <= 1e-11


def test_shear_examples():
    zero = pc.ShearParams(np.zeros(2))
    assert np.array_equal(pc.shear(zero).mat, np.eye(3))

    h = pc.ShearParams(np.array([0.1]))
    p = pc.ProjectivePoint([1.0, 0.25])
    moved = pc.act(pc.shear(h), p)
    assert np.allclose(pc.to_chart(moved, 0).coords, [1.0, 0.35], atol=1e-12)

    g = pc.shear(pc.ShearParams(np.array([0.1 + 0.2j, -0.05])))
    ginv = pc.shear(pc.ShearParams(np.array([-0.1 - 0.2j, 0.05])))
    assert np.array_equal(g.mat @ ginv.mat, np.eye(3))
    assert np.array_equal(ginv.mat @ g.mat, np.eye(3))


def test_shear_validation():
    with pytest.raises(ValueError):
        pc.ShearParams(np.array([0.4]))  # above the default validity radius
    with pytest.raises(ValueError):
        pc.ShearParams(np.array([]), 0.3)


def test_shears_compose_additively():
    h1 = pc.ShearParams(np.array([0.1 + 0.05j]))
    h2 = pc.ShearParams(np.array([-0.02 + 0.01j]))
    h12 = pc.ShearParams(h1.h + h2.h)
    assert np.array_equal(pc.shear(h1).mat @ pc.shear(h2).mat, pc.shear(h12).mat)
    p = pc.ProjectivePoint([1.0, 0.3 - 0.2j])
    assert pc.act(pc.shear(h1), pc.act(pc.shear(h2), p)) == pc.act(pc.shear(h12), p)


def test_act_examples():
    p = pc.ProjectivePoint([1.0, 0.3 + 0.1j, -0.2])
    assert pc.act(np.eye(3), p) == p

    rng = make_rng(11, 0)
    for _ in range(100):
        g1 = np.eye(2) + 0.2 * random_traceless(rng, 2, norm=1.0)
        g2 = np.eye(2) + 0.2 * random_traceless(rng, 2, norm=1.0)
        q = pc.ProjectivePoint(rng.standard_normal(2) + 1j * rng.standard_normal(2))
        left = pc.act(g1 @ g2, q)
        right = pc.act(g1, pc.act(g2, q))
        assert np.max(np.abs(left.homog - right.homog)) <= 1e-12

    # projective action ignores scaling of the matrix
    g = np.eye(2) + 0.1 * random_traceless(rng, 2, norm=1.0)
    assert pc.act(2.0 * g, p2 := pc.ProjectivePoint([1.0, 0.4])) == pc.act(g, p2)


def test_act_degenerate_image():
    g = np.diag([1.0, 0.0])
    with pytest.raises(DegenerateImage):
        pc.act(g, pc.ProjectivePoint([0.0, 1.0]))


def test_phi_normalize_examples():
    assert np.array_equal(pc.phi_normalize(2.0 * np.eye(3)).mat, np.eye(3))
    g = pc.shear(pc.ShearParams(np.array([0.1, 0.2j])))
    assert np.array_equal(pc.phi_normalize(g.mat).mat, g.mat)

    rng = make_rng(11, 1)
    m = np.eye(2) + 0.3 * random_traceless(rng, 2, norm=1.0)
    assert np.array_equal(pc.phi_normalize(2.0 * m).mat, pc.phi_normalize(m).mat)
    lam = 0.7 - 0.4j
    assert np.max(np.abs(pc.phi_normalize(lam * m).mat - pc.phi_normalize(m).mat)) <= 1e-15

    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NormalizationUndefined):
        pc.phi_normalize(bad)


def test_exp_chart_identity_and_first_order():
    d = 3
    zero = pc.AlgebraElement(np.zeros((d, d)))
    assert np.array_equal(pc.exp_chart(zero).mat, np.eye(d))

    rng = make_rng(11, 2)
    for norm in (0.1, 0.05, 0.01):
        for _ in range(30):
            m = random_traceless(rng, d, norm=norm)
            linear = np.eye(d) + m - m[0, 0] * np.eye(d)
            err = np.linalg.norm(pc.exp_chart(pc.AlgebraElement(m)).mat - linear)
            assert err <= 5.0 * norm ** 2


def test_chart_roundtrip_on_working_ball():
    rng = make_rng(11, 3)
    for k in (1, 2):
        worst = 0.0
        for _ in range(500):
            m = random_traceless(rng, k + 1, norm=0.2 * rng.random() + 1e-9)
            x = pc.AlgebraElement(m)
            back = pc.log_chart(pc.exp_chart(x))
            worst = max(worst, float(np.linalg.norm(back.mat - m)))
            assert abs(np.trace(back.mat)) <= 1e-14
        assert worst <= 1e-10


def test_log_chart_examples():
    d = 2
    assert np.max(np.abs(pc.log_chart(pc.NormalizedMatrix(np.eye(d))).mat)) <= 1e-15

    rng = make_rng(11, 4)
    for _ in range(200):
        a = pc.exp_chart(pc.AlgebraElement(random_traceless(rng, d, norm=0.2)))
        again = pc.exp_chart(pc.log_chart(a))
        assert np.max(np.abs(again.mat - a.mat)) <= 1e-10

    far = np.eye(d).astype(complex)
    far[1, 1] += 0.8
    with pytest.raises(OutOfChart):
        pc.log_chart(pc.NormalizedMatrix(far))


def test_shear_translate_examples():
    rng = make_rng(12, 0)
    a = pc.exp_chart(pc.AlgebraElement(random_traceless(rng, 3, norm=0.15)))
    zero = pc.ShearParams(np.zeros(2))
    assert np.array_equal(pc.shear_translate(a, zero).mat, a.mat)

    h = pc.ShearParams(np.array([0.04 - 0.01j, 0.02j]))
    assert np.array_equal(
        pc.shear_translate(pc.NormalizedMatrix(np.eye(3)), h).mat, pc.shear(h).mat
    )

    # column pattern of the product before normalisation
    product = a.mat @ pc.shear(h).mat
    assert np.max(np.abs(product[:, 0] - (a.mat[:, 0] + a.mat[:, 1:] @ h.h))) <= 1e-15
    assert np.array_equal(product[:, 1:], a.mat[:, 1:])
    assert product[0, 0] == pytest.approx(1.0 + a.mat[0, 1:] @ h.h, abs=1e-15)


def test_chart_translate_examples():
    rng = make_rng(12, 1)
    x = pc.AlgebraElement(random_traceless(rng, 2, norm=0.1))
    zero = pc.ShearParams(np.zeros(1))
    assert np.linalg.norm(pc.chart_translate(x, zero).mat - x.mat) <= 1e-10

    h = pc.ShearParams(np.array([0.03 + 0.02j]))
    at_zero = pc.chart_translate(pc.AlgebraElement(np.zeros((2, 2))), h)
    direct = pc.log_chart(pc.shear(h))
    assert np.max(np.abs(at_zero.mat - direct.mat)) <= 1e-12


def test_chart_translate_defining_identity():
    rng = make_rng(12, 2)
    worst = 0.0
    for k in (1, 2):
        for _ in range(100):
            x = pc.AlgebraElement(random_traceless(rng, k + 1, norm=0.1 * rng.random()))
            offs = 0.05 * (rng.random(k) * 2 - 1) + 0.05j * (rng.random(k) * 2 - 1)
            h = pc.ShearParams(offs / math.sqrt(2.0))
            lhs = pc.exp_chart(pc.chart_translate(x, h)).mat
            rhs = pc.phi_normalize(pc.exp_chart(x).mat @ pc.shear(h).mat).mat
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-9


def test_chart_translate_injective_on_samples():
    rng = make_rng(12, 3)
    h = pc.ShearParams(np.array([0.04 + 0.01j]))
    xs = [random_traceless(rng, 2, norm=0.1 * rng.random() + 1e-3) for _ in range(60)]
    ys = [pc.chart_translate(pc.AlgebraElement(m), h).mat for m in xs]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if np.linalg.norm(xs[i] - xs[j]) >= 1e-3:
                assert np.linalg.norm(ys[i] - ys[j]) > 1e-5


def test_sl_basis_orthonormal_and_spanning():
    for k in (1, 2, 3):
        basis = pc.sl_basis(k)
        n = 2 * k * k + 4 * k
        assert basis.shape == (n, k + 1, k + 1)
        assert np.max(np.abs(np.einsum("aij,bij->ab", basis, np.conj(basis)).real
                             - np.eye(n))) <= 1e-14
        assert np.max(np.abs(np.trace(basis, axis1=1, axis2=2))) <= 1e-15
        rng = make_rng(13, k)
        m = random_traceless(rng, k + 1, norm=1.0)
        v = pc.to_coords(m)
        assert v.shape == (n,)
        assert np.max(np.abs(pc.from_coords(v, k) - m)) <= 1e-14
        # coordinates carry the Frobenius norm
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(m), rel=1e-12)


def test_estimate_distortion_basics():
    c = pc.estimate_distortion(0.1, 1)
    assert c >= 1.1
    assert pc.check_distortion(0.1, c, 20000, seed=5, k=1)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_closed_form_distortion_holds_on_fresh_samples(k):
    # the sampled two-sided ratio on the ball of create's radius is the oracle
    radius = min(0.1, 0.4 / (4.0 * math.sqrt(k + 1)))  # defaults sigma, delta0
    c = pc.estimate_distortion(radius, k)
    assert c >= math.sqrt(k + 1)
    for seed in range(10):
        assert pc.check_distortion(radius, c, 20000, seed, k)


def test_estimate_distortion_matches_linearization_for_small_sigma():
    # at tiny radius the chart is its linearisation x -> x - x[0,0] * Id
    sigma = 1e-3
    c = pc.estimate_distortion(sigma, 1)
    rng = make_rng(6, 99)
    v = _uniform_coord_rows(sigma, 1, 4000, rng)
    mats = pc.from_coords(v, 1)
    lin = mats - mats[:, 0, 0][:, None, None] * np.eye(2)
    dev = np.linalg.norm(lin.reshape(len(lin), -1), axis=1)
    nx = np.linalg.norm(v, axis=1)
    oracle = max((nx / dev).max(), (dev / nx).max())
    assert c >= oracle
    assert c == pytest.approx(oracle, rel=0.05)


def test_jacobian_identity_at_zero_offset():
    zero = pc.AlgebraElement(np.zeros((2, 2)))
    h0 = pc.ShearParams(np.zeros(1))
    assert abs(pc.chart_translate_jacobian(zero, h0, 1e-4) - 1.0) <= 1e-6


def test_jacobian_reported_at_small_offset():
    zero = pc.AlgebraElement(np.zeros((2, 2)))
    h = pc.ShearParams(np.array([0.01]))
    det = pc.chart_translate_jacobian(zero, h, 1e-4)
    assert abs(det - 1.0) <= 0.1  # reported deviation stays desk-scale small


def test_jacobian_first_order_in_offset():
    rng = make_rng(14, 0)
    x = pc.AlgebraElement(random_traceless(rng, 2, norm=0.08))
    dev = {}
    for mag in (0.02, 0.01):
        det = pc.chart_translate_jacobian(x, pc.ShearParams(np.array([mag + 0.3j * mag])), 1e-4)
        dev[mag] = abs(det - 1.0)
    assert dev[0.01] < dev[0.02]
    assert 1.5 <= dev[0.02] / dev[0.01] <= 3.0


def test_jacobian_step_validation():
    zero = pc.AlgebraElement(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        pc.chart_translate_jacobian(zero, pc.ShearParams(np.zeros(1)), 1e-2)
