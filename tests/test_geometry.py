import math

import numpy as np
import pytest

import projcut as pc
from projcut.errors import ChartUndefined
from projcut.geometry import geodesic_row, rows_dist_to_set, tangent_row, uniform_rows
from projcut.rng import make_rng

PI4 = math.pi / 4.0  # frozen from the phase-circle oracle below


def phase_circle_oracle(u, v, phases=200001):
    """Independent oracle for the projective distance: minimal great-circle
    distance between the unit representatives over the phase circle."""
    c = np.vdot(u, v)
    phi = np.linspace(0.0, 2.0 * math.pi, phases)
    cosines = np.real(np.exp(1j * phi) * np.conj(c))
    return float(np.arccos(np.clip(cosines, -1.0, 1.0)).min())


def test_distance_identity_is_zero():
    p = pc.ProjectivePoint([1.0, 0.0])
    assert pc.fs_distance(p, p) == 0.0


def test_distance_orthogonal_is_quarter_turn():
    p = pc.ProjectivePoint([1.0, 0.0])
    q = pc.ProjectivePoint([0.0, 1.0])
    assert pc.fs_distance(p, q) == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_distance_diagonal_matches_phase_oracle():
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    oracle = phase_circle_oracle(u, v)
    assert oracle == pytest.approx(PI4, abs=1e-6)
    d = pc.fs_distance(pc.ProjectivePoint([1.0, 0.0]), pc.ProjectivePoint([1.0, 1.0]))
    assert d == pytest.approx(PI4, abs=1e-12)


def test_distance_matches_phase_oracle_random():
    rng = make_rng(1, 0)
    for k in (1, 2, 3):
        for _ in range(20):
            u = uniform_rows(k, 1, rng)[0]
            v = uniform_rows(k, 1, rng)[0]
            d = pc.fs_distance(pc.ProjectivePoint(u), pc.ProjectivePoint(v))
            assert abs(d - phase_circle_oracle(u, v)) < 1e-6


def test_metric_properties_on_random_triples():
    rng = make_rng(2, 0)
    P = uniform_rows(2, 10000, rng)
    Q = uniform_rows(2, 10000, rng)
    R = uniform_rows(2, 10000, rng)

    def dist(A, B):
        ip = np.abs(np.einsum("mi,mi->m", A, np.conj(B)))
        return np.arccos(np.clip(ip, 0.0, 1.0))

    dpq, dqp = dist(P, Q), dist(Q, P)
    assert np.array_equal(dpq, dqp)  # symmetry is exact
    assert np.all(dist(P, R) <= dpq + dist(Q, R) + 1e-12)
    assert np.all(dpq >= 0.0) and np.all(dpq <= math.pi / 2.0 + 1e-15)


def test_distance_zero_iff_projectively_equal():
    p = pc.ProjectivePoint([1.0, 2.0 - 1.0j, 0.5])
    q = pc.ProjectivePoint((0.3 + 0.4j) * p.homog)
    assert pc.fs_distance(p, q) < 1e-7  # arccos loses half the digits near 1
    assert p == q
    r = pc.ProjectivePoint([1.0, 2.0 - 1.0j, 0.6])
    assert pc.fs_distance(p, r) > 1e-3
    assert p != r


def test_scalar_invariance_of_representatives():
    v = np.array([0.3 - 0.2j, 1.0, 0.05j])
    p = pc.ProjectivePoint(v)
    for lam in (2.0, 1j, 2j):  # exact float scalings give bitwise-equal reps
        assert np.array_equal(pc.ProjectivePoint(lam * v).homog, p.homog)
    q = pc.ProjectivePoint((0.37 + 0.8j) * v)
    assert q == p
    assert pc.fs_distance(p, q) < 1e-7


def test_unitary_invariance():
    rng = make_rng(3, 0)
    for k in (1, 2):
        g = rng.standard_normal((k + 1, k + 1)) + 1j * rng.standard_normal((k + 1, k + 1))
        u, _ = np.linalg.qr(g)
        for _ in range(50):
            a, b = uniform_rows(k, 2, rng)
            d0 = pc.fs_distance(pc.ProjectivePoint(a), pc.ProjectivePoint(b))
            d1 = pc.fs_distance(pc.ProjectivePoint(u @ a), pc.ProjectivePoint(u @ b))
            assert abs(d0 - d1) <= 1e-10


def test_to_chart_examples():
    c = pc.to_chart(pc.ProjectivePoint([2.0, 4.0]), 0)
    assert c.chart_index == 0
    assert np.allclose(c.coords, [1.0, 2.0], atol=1e-12)

    c = pc.to_chart(pc.ProjectivePoint([0.0, 5.0]))
    assert c.chart_index == 1
    assert np.allclose(c.coords, [0.0, 1.0], atol=1e-12)

    p = pc.ProjectivePoint([1.0, 10.0])
    c0 = pc.to_chart(p, 0)
    assert np.allclose(c0.coords, [1.0, 10.0], atol=1e-11)
    c1 = pc.to_chart(p)
    assert c1.chart_index == 1
    assert np.allclose(c1.coords, [0.1, 1.0], atol=1e-12)


def test_chart_undefined():
    with pytest.raises(ChartUndefined):
        pc.to_chart(pc.ProjectivePoint([1.0, 0.0]), 1)


def test_chart_roundtrip_random():
    rng = make_rng(4, 0)
    for k in (1, 2, 3):
        rows = uniform_rows(k, 3000, rng)
        for row in rows:
            p = pc.ProjectivePoint(row)
            c = pc.to_chart(p)
            assert np.max(np.abs(c.to_point().homog - p.homog)) <= 1e-12
        # round trip through a fixed chart reproduces the coordinates
        c = pc.to_chart(pc.ProjectivePoint(rows[0]))
        again = pc.to_chart(c.to_point(), c.chart_index)
        assert np.max(np.abs(again.coords - c.coords)) <= 1e-12


def test_chart_slot_must_be_one():
    with pytest.raises(ValueError):
        pc.ChartCoordinates(0, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        pc.ChartCoordinates(5, np.array([1.0, 0.0]))


def test_chart_norm_examples():
    c = pc.ChartCoordinates(0, np.array([1.0, 3.0, 4.0]))
    assert pc.chart_norm(c) == pytest.approx(5.0, abs=1e-15)
    assert pc.chart_norm(pc.ChartCoordinates(0, np.array([1.0, 0.0, 0.0]))) == 0.0
    assert pc.chart_norm(pc.ChartCoordinates(1, np.array([1j, 1.0]))) == pytest.approx(1.0)


def test_full_norm_examples_and_pythagoras():
    assert pc.full_norm(pc.ChartCoordinates(0, np.array([1.0, 0.0]))) == 1.0
    c = pc.ChartCoordinates(0, np.array([1.0, 3.0, 4.0]))
    assert pc.full_norm(c) == pytest.approx(math.sqrt(26.0), rel=1e-15)
    rng = make_rng(5, 0)
    for _ in range(100):
        coords = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        coords[1] = 1.0
        c = pc.ChartCoordinates(1, coords)
        assert pc.full_norm(c) ** 2 == pytest.approx(1.0 + pc.chart_norm(c) ** 2, rel=1e-12)
        assert pc.full_norm(c) >= 1.0


def test_dist_to_set():
    a = pc.ProjectivePoint([1.0, 0.0])
    b = pc.ProjectivePoint([1.0, 1.0])
    s = pc.CompactSetSpec((pc.Ball(a, 0.1), pc.Ball(b, 0.2)))
    assert pc.dist_to_set(a, s) == 0.0

    far_pt = pc.ProjectivePoint([1.0, 0.3j])
    single = pc.CompactSetSpec((pc.Ball(b, 0.0),))
    assert pc.dist_to_set(far_pt, single) == pytest.approx(pc.fs_distance(far_pt, b), abs=1e-15)

    # exhaustive minimum over the list is the oracle
    two = pc.CompactSetSpec((pc.Ball(a, 0.0), pc.Ball(b, 0.0)))
    expected = min(pc.fs_distance(far_pt, a), pc.fs_distance(far_pt, b))
    assert pc.dist_to_set(far_pt, two) == pytest.approx(expected, abs=1e-15)


def test_compact_set_validation():
    with pytest.raises(ValueError):
        pc.CompactSetSpec(())
    with pytest.raises(ValueError):
        pc.Ball(pc.ProjectivePoint([1.0, 0.0]), -0.1)


def test_compact_set_json_roundtrip():
    s = pc.CompactSetSpec((
        pc.Ball(pc.ProjectivePoint([1.0, 0.2 + 0.1j]), 0.05),
        pc.Ball(pc.ProjectivePoint([0.0, 1.0]), 0.0),
    ))
    data = s.to_dict()
    assert set(data) == {"balls"}
    assert set(data["balls"][0]) == {"center", "radius"}
    assert data["balls"][0]["center"][1] == [pytest.approx(0.2 / abs(np.linalg.norm([1, 0.2 + 0.1j]))),
                                             pytest.approx(0.1 / abs(np.linalg.norm([1, 0.2 + 0.1j])))]
    again = pc.CompactSetSpec.from_json(s.to_json())
    for b1, b2 in zip(s.balls, again.balls):
        assert b1.center == b2.center
        assert b1.radius == b2.radius


def test_ball_comparison_origin():
    c = pc.ChartCoordinates(0, np.array([1.0, 0.0]))
    report = pc.ball_comparison_check(c, 0.1, 10000, seed=3)
    assert report.ok
    assert 0.0 < report.worst_ratio < 1.0
    assert report.trials == 10000


def test_ball_comparison_far_from_origin():
    c = pc.ChartCoordinates(0, np.array([1.0, 5.0]))
    report = pc.ball_comparison_check(c, 0.1, 10000, seed=3)
    assert report.ok
    assert report.worst_ratio < 1.0


def test_ball_comparison_validation():
    c = pc.ChartCoordinates(0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        pc.ball_comparison_check(c, 0.6, 10)
    with pytest.raises(ValueError):
        pc.ball_comparison_check(c, 0.1, 0)


def test_point_equality_and_hash():
    p = pc.ProjectivePoint([1.0, 2.0])
    q = pc.ProjectivePoint([2.0, 4.0])
    assert p == q
    assert hash(p) == hash(q)
    assert p != pc.ProjectivePoint([1.0, 2.0, 0.0])


def test_equal_points_hash_alike_across_rounding_boundary():
    # canonical second coordinates 2e-13 either side of 0.1234567885: equal
    # within the tolerance, yet they round to different 9-digit values
    c = 0.1234567885
    t = c / math.sqrt(1.0 - c * c)
    p = pc.ProjectivePoint([1.0, t - 2e-13])
    q = pc.ProjectivePoint([1.0, t + 2e-13])
    assert np.round(p.homog[1].real, 9) != np.round(q.homog[1].real, 9)
    assert p == q
    assert hash(p) == hash(q)
    assert len({p, q}) == 1


def test_point_validation():
    with pytest.raises(ValueError):
        pc.ProjectivePoint([0.0, 0.0])
    with pytest.raises(ValueError):
        pc.ProjectivePoint([np.nan, 1.0])
    with pytest.raises(ValueError):
        pc.ProjectivePoint([1.0])


def _dist_per_ball(rows, sset):
    """The per-ball loop that rows_dist_to_set replaced, kept as its reference."""
    Z = np.asarray(rows, dtype=np.complex128)
    zn = np.linalg.norm(Z, axis=1)
    best = np.full(Z.shape[0], np.inf)
    for b in sset.balls:
        ip = np.abs(Z @ np.conj(b.center.homog))
        d = np.arccos(np.clip(ip / zn, 0.0, 1.0))
        np.minimum(best, np.maximum(d - b.radius, 0.0), out=best)
    return best


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("B", [1, 2, 17, 200])
def test_rows_dist_to_set_matches_per_ball_loop(k, B):
    # one product for all balls against one per ball: the inner products
    # agree to a unit of roundoff u, which arccos turns into u / sin(d),
    # so the distances agree to 1e-15 / sin(d)
    rng = make_rng(4, k, B)
    centres = uniform_rows(k, B, rng)
    radii = np.concatenate([[0.0], 0.2 * rng.random(B - 1)])
    sset = pc.CompactSetSpec(tuple(pc.Ball(pc.ProjectivePoint(c), r)
                                   for c, r in zip(centres, radii)))
    assert sset.centres.shape == (B, k + 1) and np.array_equal(sset.radii, radii)
    assert not sset.centres.flags.writeable and not sset.radii.flags.writeable
    rows = np.concatenate([uniform_rows(k, 1000, rng) * rng.uniform(1e-3, 1e3, (1000, 1)),
                           geodesic_row(centres, tangent_row(centres, rng), radii + 1e-3)])
    ref = _dist_per_ball(rows, sset)
    got = rows_dist_to_set(rows, sset)
    assert np.all(np.abs(got - ref) <= 1e-15 / np.sin(np.maximum(ref, 1e-3)))


def test_tangent_and_geodesic_rows_broadcast():
    # stacked rows give the one-row results, row by row, to roundoff
    rng = make_rng(5, 0)
    centres = uniform_rows(2, 6, rng)
    v = tangent_row(centres, rng)
    assert np.allclose(np.sum(np.conj(centres) * v, axis=1), 0.0, atol=1e-15)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-15)
    t = np.linspace(0.0, 1.5, 6)
    rows = geodesic_row(centres, v, t)
    for c, w, s, row in zip(centres, v, t, rows):
        assert np.allclose(geodesic_row(c, w, s), row, rtol=0.0, atol=1e-15)
        d = pc.fs_distance(pc.ProjectivePoint(c), pc.ProjectivePoint(row))
        assert d == pytest.approx(s, abs=1e-7)
