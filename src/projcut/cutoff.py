"""Construction and verification of smooth cut-off functions on P^k.

Given a union of balls K and a width delta, the cut-off is the smoothed
indicator of the half-widened set K_(delta/2): the smoothing scale theta is
matched to delta so that every stored group element displaces every point by
Fubini-Study distance below delta/2.  The function is then exactly 1 on K,
vanishes at distance delta and beyond, and its derivatives grow like
delta^(-alpha).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DeltaOutOfRange
from .geometry import (Ball, CompactSetSpec, ProjectivePoint, geodesic_row,
                       rows_dist_to_set, tangent_row, to_chart, uniform_rows)
# log_chart and check_distortion are unused here but kept: the benchmark tracer binds them by name
from .lie import DEFAULT_SIGMA, _frob, check_distortion, estimate_distortion, log_chart
from .measure import get_mollifier
from .regularize import (RegularizedFunction, ScalingReport, _stored_images,
                         c_alpha_estimate, regularize, scaling_slope)
from .rng import make_rng

DELTA_FLOOR = 1e-4
DEFAULT_DELTA0 = 0.4
DEFAULT_S = 20000
DEFAULT_SEED = 42
DEFAULT_STEP = {1: 1e-3, 2: 3e-3}


@dataclass(frozen=True, eq=False)
class CutoffConfig:
    """Fixed data for a family of cut-offs.

    ``distortion`` is the closed-form C with ||exp_chart(x) - Id|| <= C ||x||
    for ||x|| <= min(sigma, delta0 / (4 sqrt(k+1))).  That ball holds every
    stored sample: samples theta * y have theta ||y|| < min(sigma,
    delta0 / (4 C)), and C >= sqrt(k+1).  ``budget`` in (0, 1] is the
    fraction of the delta/4 displacement budget spent at delta0, so the
    smoothing scale for a given delta is budget * delta / (4 * distortion *
    sigma).  Both are computed from (k, sigma, delta0) at construction.
    """

    k: int
    sigma: float = DEFAULT_SIGMA
    delta0: float = DEFAULT_DELTA0
    S: int = DEFAULT_S
    seed: int = DEFAULT_SEED
    distortion: float = field(init=False)
    budget: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 1:
            raise ConfigError("k: must be a positive integer")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ConfigError("sigma: must be positive and finite")
        if not (self.delta0 > 0 and math.isfinite(self.delta0)):
            raise ConfigError("delta0: must be positive and finite")
        if self.S < 1:
            raise ConfigError("S: must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        c = estimate_distortion(min(self.sigma, self.delta0 / (4.0 * math.sqrt(self.k + 1))),
                                self.k)
        if math.isinf(c):
            raise ConfigError(f"delta0: {self.delta0:g} is too large for the distortion bound")
        theta_max = min(1.0, self.delta0 / (4.0 * c * self.sigma))
        object.__setattr__(self, "distortion", c)
        object.__setattr__(self, "budget", min(1.0, 4.0 * c * theta_max * self.sigma / self.delta0))

    @property
    def theta_max(self) -> float:
        return self.budget * self.delta0 / (4.0 * self.distortion * self.sigma)


def choose_theta(config: CutoffConfig, delta: float) -> float:
    """Smoothing scale matched to delta: distortion * theta * sigma equals
    budget * delta / 4.  Monotone increasing and linear in delta."""
    if not 0.0 < delta < config.delta0:
        raise DeltaOutOfRange(f"delta must lie in (0, {config.delta0})")
    return config.budget * delta / (4.0 * config.distortion * config.sigma)


@dataclass(frozen=True, eq=False)
class FattenedIndicator:
    """Indicator of the open rho-neighbourhood of a union of balls (1 where
    the distance is strictly below rho), vectorised over homogeneous rows."""

    set_spec: CompactSetSpec
    rho: float

    def __call__(self, rows) -> np.ndarray:
        return (rows_dist_to_set(rows, self.set_spec) < self.rho).astype(np.float64)

    def ball_tests(self):
        """Unit centres c, shape (B, k+1), and levels l, shape (B,), with
        self(z) = 1 exactly when |c_b^H z|^2 > l_b |z|^2 for some ball b.

        For a ball of unit centre c and R = radius + rho < pi/2, z lies
        within R of c exactly when |c^H z|^2 > cos^2(R) |z|^2.  A ball with
        R >= pi/2 covers P^k (level -1: the test always holds); rho = 0
        leaves nothing strictly below it (centre 0, level 0: it never holds).
        """
        balls = self.set_spec.balls
        centres = np.stack([ball.center.homog for ball in balls])
        if self.rho == 0.0:
            return np.zeros_like(centres), np.zeros(len(balls))
        reach = [ball.radius + self.rho for ball in balls]
        return centres, np.array([-1.0 if r >= 0.5 * math.pi else math.cos(r) ** 2 for r in reach])


def indicator_fattened(set_spec: CompactSetSpec, rho: float) -> FattenedIndicator:
    """Indicator of the open rho-neighbourhood of the set (1 where the
    distance is strictly below rho), vectorised over homogeneous rows.  It
    also states its balls as quadratic tests, which let :func:`regularize`
    evaluate the smoothed indicator as a sign test."""
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    return FattenedIndicator(set_spec, float(rho))


@dataclass(frozen=True, eq=False)
class CutoffFunction:
    """Frozen cut-off evaluator for one (set, delta) pair."""

    config: CutoffConfig
    set_spec: CompactSetSpec
    delta: float
    rf: RegularizedFunction
    frob_dev: float  # max over stored g of ||g - Id||_F, proved <= budget * delta / 4

    @property
    def theta(self) -> float:
        return self.rf.theta

    def eval_homog(self, rows) -> np.ndarray:
        return self.rf.eval_homog(rows)

    def __call__(self, p: ProjectivePoint) -> float:
        return self.rf(p)


def build_cutoff(set_spec: CompactSetSpec, delta: float, config: CutoffConfig) -> CutoffFunction:
    """Smooth the indicator of the delta/2-neighbourhood at the matched scale.

    Every stored group element is audited against the per-sample bound
    distortion * theta * sigma on its Frobenius distance from the identity;
    the largest such distance is kept as ``frob_dev`` and certifies the
    displacement bounds of :func:`verify_cutoff`.
    """
    if not DELTA_FLOOR < delta < config.delta0:
        raise DeltaOutOfRange(f"delta must lie in ({DELTA_FLOOR}, {config.delta0})")
    if set_spec.k != config.k:
        raise ConfigError("set: dimension does not match the configuration")
    theta = choose_theta(config, delta)
    rf = regularize(indicator_fattened(set_spec, 0.5 * delta), theta, config.S,
                    config.seed, get_mollifier(config.k, config.sigma))
    bound = config.distortion * theta * config.sigma
    eye = np.eye(config.k + 1)
    worst = float(_frob(rf.matrices - eye).max())
    if worst > bound:
        raise ConfigError(
            f"distortion: stored sample deviates by {worst:.3e}, above the bound {bound:.3e}"
        )
    return CutoffFunction(config, set_spec, delta, rf, worst)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the identity/support checks and the displacement audits.

    The ``*_audit_max`` fields are certified bounds over every point of P^k
    (see :func:`verify_cutoff`), not maxima over sampled points."""

    max_dev_on_K: float
    max_val_off_Kdelta: float
    euclid_audit_max: float
    euclid_audit_bound: float
    fs_audit_max: float
    fs_audit_bound: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_dev_on_K": self.max_dev_on_K,
            "max_val_off_Kdelta": self.max_val_off_Kdelta,
            "euclid_audit_max": self.euclid_audit_max,
            "euclid_audit_bound": self.euclid_audit_bound,
            "fs_audit_max": self.fs_audit_max,
            "fs_audit_bound": self.fs_audit_bound,
            "pass": self.passed,
        }


def _row_in_ball(ball: Ball, rng) -> np.ndarray:
    t = ball.radius * math.sqrt(rng.random())
    if t == 0.0:
        return ball.center.homog.copy()
    return geodesic_row(ball.center.homog, tangent_row(ball.center.homog, rng), t)


def rows_on_set(set_spec: CompactSetSpec, count: int, rng) -> np.ndarray:
    """Ball centers first, then random points of each ball, round robin."""
    rows = [b.center.homog for b in set_spec.balls][:count]
    while len(rows) < count:
        for b in set_spec.balls:
            if len(rows) == count:
                break
            rows.append(_row_in_ball(b, rng))
    return np.stack(rows)


def rows_off_set(set_spec: CompactSetSpec, min_dist: float, count: int, rng) -> np.ndarray:
    """Uniform points at distance >= min_dist from the set, by rejection."""
    out = []
    have = 0
    for _ in range(500):
        cand = uniform_rows(set_spec.k, max(4 * count, 256), rng)
        keep = cand[rows_dist_to_set(cand, set_spec) >= min_dist]
        if keep.size:
            out.append(keep)
            have += keep.shape[0]
        if have >= count:
            return np.concatenate(out)[:count]
    raise ConfigError(f"set: could not find {count} points at distance >= {min_dist:g} from it")


def max_fs_displacement(matrices: np.ndarray, rows) -> float:
    """max over stored elements g and rows z of fs_distance(z, g z).

    The sampled counterpart of the bound that :func:`verify_cutoff`
    certifies for every point."""
    Z = np.asarray(rows, dtype=np.complex128)
    Z = Z / np.linalg.norm(Z, axis=1, keepdims=True)
    worst = 0.0
    for images in _stored_images(matrices, Z):
        ip = np.abs(np.einsum("smi,mi->sm", images, np.conj(Z)))
        xn = np.linalg.norm(images, axis=2)
        fs = np.arccos(np.clip(ip / xn, 0.0, 1.0))
        worst = max(worst, float(fs.max()))
    return worst


def max_euclid_ratio(matrices: np.ndarray, rows) -> float:
    """max over stored elements g and rows of ||(g - Id) zeta|| / ||zeta||,
    each row read in its maximum-modulus chart.

    The sampled counterpart of the bound that :func:`verify_cutoff`
    certifies for every chart vector."""
    Z = np.asarray(rows, dtype=np.complex128)
    pivots = Z[np.arange(Z.shape[0]), np.argmax(np.abs(Z), axis=1)]
    zeta = Z / pivots[:, None]
    zn = np.linalg.norm(zeta, axis=1)
    worst = 0.0
    for images in _stored_images(matrices, zeta):
        ratio = np.linalg.norm(images - zeta, axis=2) / zn
        worst = max(worst, float(ratio.max()))
    return worst


def verify_cutoff(cf: CutoffFunction, n_inner: int = 200, n_outer: int = 200,
                  seed: int = 0) -> VerificationReport:
    """Check the defining claims of the cut-off.

    (a) deviation from 1 on sampled points of the set, (b) value at sampled
    points at distance >= delta, (c) chart-Euclidean displacement ratio of
    every stored element against budget * delta / 4, and (d) Fubini-Study
    displacement against delta / 2.  (c) and (d) are certified for every
    point of P^k from the Frobenius audit of :func:`build_cutoff`, at no
    cost per point.  They gate the exactness assertions: (a) and (b) are
    forced to 0 at every point whenever (d) holds.

    With eps = cf.frob_dev >= ||g - Id||_F >= ||g - Id||_2 for every stored
    g, the report gives eps for (c), a bound on ||(g - Id) zeta|| / ||zeta||
    for every chart vector zeta, and asin(min(1, eps / (1 - eps))) for (d):
    for unit z, sin fs_distance(z, g z) is the distance from g z / ||g z||
    to the line of z, at most ||(g - Id) z|| / ||g z|| <= eps / (1 - eps).
    """
    if n_inner < 1 or n_outer < 1:
        raise ValueError("counts must be at least 1")
    rng = make_rng(seed, 41)
    inner = rows_on_set(cf.set_spec, n_inner, rng)
    outer = rows_off_set(cf.set_spec, cf.delta, n_outer, rng)
    a = float(np.max(np.abs(cf.eval_homog(inner) - 1.0)))
    b = float(np.max(np.abs(cf.eval_homog(outer))))
    euclid_max = eps = cf.frob_dev
    fs_max = math.asin(eps / (1.0 - eps)) if eps < 0.5 else 0.5 * math.pi
    fs_bound = 0.5 * cf.delta
    euclid_bound = 0.25 * cf.config.budget * cf.delta
    passed = (a == 0.0 and b == 0.0 and fs_max < fs_bound
              and euclid_max <= euclid_bound * (1.0 + 1e-9))
    return VerificationReport(a, b, euclid_max, euclid_bound, fs_max, fs_bound, passed)


def annulus_grid(set_spec: CompactSetSpec, delta: float, count: int,
                 seed: int, tag: int = 0) -> list:
    """Chart points in the transition annulus delta/4 <= dist <= delta, where
    the derivatives of the cut-off live.  Falls back to unconditioned nearby
    points when the annulus is empty (set covering the whole space)."""
    rng = make_rng(seed, 51, tag)
    balls = set_spec.balls
    lo, hi = 0.25 * delta, delta
    rows = []
    attempts = 0
    while len(rows) < count:
        b = balls[int(rng.integers(len(balls)))]
        t = min(b.radius + lo + (hi - lo) * rng.random(), 0.5 * math.pi - 1e-9)
        row = geodesic_row(b.center.homog, tangent_row(b.center.homog, rng), t)
        attempts += 1
        if attempts > 200 * count or lo <= float(rows_dist_to_set(row[None, :], set_spec)[0]) <= hi:
            rows.append(row)
    return [to_chart(ProjectivePoint(row)) for row in rows]


def _scaling_row(task):
    set_spec, delta, alpha, config, grid_points, tag = task
    cf = build_cutoff(set_spec, delta, config)
    grid = annulus_grid(set_spec, delta, grid_points, config.seed, tag)
    semi = c_alpha_estimate(cf.rf, grid, alpha, DEFAULT_STEP[alpha])
    return (delta, cf.theta, semi)


def scaling_experiment(set_spec: CompactSetSpec, deltas, alpha: int,
                       config: CutoffConfig, grid_points: int = 400,
                       workers: int = 1) -> ScalingReport:
    """Build the cut-off for each of at least 3 distinct deltas with the
    shared seed, estimate the C^alpha seminorm proxy on an annulus grid with
    the step DEFAULT_STEP[alpha], and regress log-log.

    Rows with vanishing seminorm mark the experiment degenerate (constant
    function); the slope is then reported as NaN.
    """
    deltas = sorted(float(d) for d in deltas)
    if len(set(deltas)) < len(deltas):
        raise ValueError("deltas must be distinct")
    if len(deltas) < 3:
        raise ValueError("need at least 3 deltas")
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    tasks = [(set_spec, d, alpha, config, grid_points, i)
             for i, d in enumerate(reversed(deltas))]
    if workers and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scaling_row, tasks))
    else:
        rows = [_scaling_row(t) for t in tasks]
    if min(r[2] for r in rows) <= 1e-12:
        return ScalingReport(alpha, tuple(rows), float("nan"), float("nan"), True)
    slope, stderr = scaling_slope([(r[0], r[2]) for r in rows])
    return ScalingReport(alpha, tuple(rows), slope, stderr, False)
