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
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DeltaOutOfRange
from .geometry import (ChartCoordinates, CompactSetSpec, ProjectivePoint, geodesic_row,
                       rows_dist_to_set, tangent_row, uniform_rows)
# log_chart and check_distortion are unused here but kept: the benchmark tracer binds them by name
from .lie import DEFAULT_SIGMA, check_distortion, estimate_distortion, log_chart
from .measure import get_mollifier
from .regularize import (RegularizedFunction, ScalingReport, _check_stencil, _is_integer,
                         _stored_images, c_alpha_estimate, check_S, check_seed,
                         displacement_bound, regularize, scaling_slope)
from .rng import make_rng

DELTA_FLOOR = 1e-4
DEFAULT_DELTA0 = 0.4
DEFAULT_S = 20000
DEFAULT_SEED = 42
# The scaling stencils step by delta / STEPS_PER_DELTA: the same fraction of
# the transition width at every delta, so the step's bias does not tilt the
# log-log slope; inside the stencil window [1e-5, 1e-2] for delta in [4e-4, 0.4].
STEPS_PER_DELTA = 40


@dataclass(frozen=True, eq=False)
class CutoffConfig:
    """Fixed data for a family of cut-offs.

    ``distortion`` is the closed-form C with ||exp_chart(x) - Id|| <= C ||x||
    for ||x|| <= min(sigma, delta0 / (4 sqrt(k+1))).  That ball holds every
    stored sample: samples theta * y have theta ||y|| < min(sigma,
    delta0 / (4 C)), and C >= sqrt(k+1).  ``budget`` = min(1, 4 C sigma /
    delta0) is the fraction of the delta/4 displacement budget spent at
    delta0, so the smoothing scale for a given delta is budget * delta /
    (4 C sigma), at most 1.  Both are computed at construction.
    """

    k: int
    sigma: float = DEFAULT_SIGMA
    delta0: float = DEFAULT_DELTA0
    S: int = DEFAULT_S
    seed: int = DEFAULT_SEED
    distortion: float = field(init=False)
    budget: float = field(init=False)

    def __post_init__(self):
        if type(self.k) is not int or self.k < 1:  # a boolean is no dimension
            raise ConfigError("k: must be a positive integer")
        for name, value in (("sigma", self.sigma), ("delta0", self.delta0)):
            # not booleans, which would pass as 1.0
            if isinstance(value, (bool, np.bool_)) or not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name}: must be positive and finite")
        check_S(self.S)
        check_seed(self.seed)
        c = estimate_distortion(min(self.sigma, self.delta0 / (4.0 * math.sqrt(self.k + 1))),
                                self.k)
        if math.isinf(c):
            raise ConfigError(f"delta0: {self.delta0:g} is too large for the distortion bound")
        object.__setattr__(self, "distortion", c)
        object.__setattr__(self, "budget", min(1.0, 4.0 * c * self.sigma / self.delta0))

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
        leaves nothing strictly below it, so it states no ball at all.
        """
        centres, radii = self.set_spec.centres, self.set_spec.radii
        if self.rho == 0.0:
            return centres[:0], radii[:0]
        reach = (radii + self.rho).tolist()
        return centres, np.array([-1.0 if r >= 0.5 * math.pi else math.cos(r) ** 2 for r in reach])


def indicator_fattened(set_spec: CompactSetSpec, rho: float) -> FattenedIndicator:
    """Indicator of the open rho-neighbourhood of the set (1 where the
    distance is strictly below rho), vectorised over homogeneous rows.  It
    also states its balls as quadratic tests, which let :func:`regularize`
    evaluate the smoothed indicator as a sign test."""
    if not rho >= 0:  # NaN too, which would silently give 0 everywhere
        raise ValueError("rho must be nonnegative")
    return FattenedIndicator(set_spec, float(rho))


@dataclass(frozen=True, eq=False)
class CutoffFunction:
    """Frozen cut-off evaluator for one (set, delta) pair."""

    config: CutoffConfig
    set_spec: CompactSetSpec
    delta: float
    rf: RegularizedFunction

    @property
    def frob_bound(self) -> float:
        """The per-sample Frobenius bound distortion * theta * sigma (budget * delta / 4
        up to roundoff) that the build checks ``rf.eps`` against and verify reports."""
        return self.config.distortion * self.theta * self.config.sigma

    @property
    def theta(self) -> float:
        return self.rf.theta

    def eval_homog(self, rows) -> np.ndarray:
        return self.rf.eval_homog(rows)

    def __call__(self, p: ProjectivePoint) -> float:
        return self.rf(p)


def build_cutoff(set_spec: CompactSetSpec, delta: float, config: CutoffConfig) -> CutoffFunction:
    """Smooth the indicator of the delta/2-neighbourhood at the matched scale.

    The build stores the sample and its certificate ``rf.eps``, a
    closed-form upper bound on the Frobenius distance of every stored group
    element from the identity, and refuses it above
    :attr:`CutoffFunction.frob_bound`; it certifies the displacement bounds
    of :func:`verify_cutoff`.  Nothing is exponentiated here: the group
    elements and the ball tests' coefficients are formed by the evaluator
    at the first row that needs them.
    """
    if not DELTA_FLOOR < delta < config.delta0:
        raise DeltaOutOfRange(f"delta must lie in ({DELTA_FLOOR}, {config.delta0})")
    if set_spec.k != config.k:
        raise ConfigError("set: dimension does not match the configuration")
    rf = regularize(indicator_fattened(set_spec, 0.5 * delta), choose_theta(config, delta),
                    config.S, config.seed, get_mollifier(config.k, config.sigma))
    cf = CutoffFunction(config, set_spec, delta, rf)
    if rf.eps > cf.frob_bound:
        raise ConfigError(f"distortion: stored sample deviates by {rf.eps:.3e}, "
                          f"above the bound {cf.frob_bound:.3e}")
    return cf


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
        """The fields by name, ``passed`` as "pass"."""
        payload = asdict(self)
        payload["pass"] = payload.pop("passed")
        return payload


def rows_on_set(set_spec: CompactSetSpec, count: int, rng) -> np.ndarray:
    """The B ball centres first, then row B + i a random point of ball i mod B."""
    centres, radii = set_spec.centres, set_spec.radii
    ball = np.arange(max(count - radii.size, 0)) % radii.size
    t = radii[ball] * np.sqrt(rng.random(ball.size))
    inner = geodesic_row(centres[ball], tangent_row(centres[ball], rng), t)
    return np.concatenate([centres[:count], inner])


def _check_draw(dist: float, count: int):
    """Refuse a sampler's distance that is not finite and positive, and a
    count that is not a nonnegative integer (:func:`_is_integer`: True would
    draw one point), before any draw."""
    if not 0.0 < dist < math.inf:  # NaN too
        raise ValueError("distance must be finite and positive")
    if not _is_integer(count):
        raise ValueError("count must be an integer")
    if count < 0:
        raise ValueError("count must be nonnegative")


def rows_off_set(set_spec: CompactSetSpec, min_dist: float, count: int, rng) -> np.ndarray:
    """Uniform points at distance >= min_dist from the set, by rejection."""
    _check_draw(min_dist, count)
    out, have = [], 0
    for _ in range(500):
        cand = uniform_rows(set_spec.k, max(4 * count, 256), rng)
        out.append(cand[rows_dist_to_set(cand, set_spec) >= min_dist])
        have += out[-1].shape[0]
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
    """Check the defining claims of the cut-off: (a) deviation from 1 on
    sampled points of the set, (b) value at sampled points at distance >=
    delta, and, for every point of P^k at no cost per point, (c) the
    chart-Euclidean and (d) the Fubini-Study displacement by every stored g.

    With eps = cf.rf.eps >= ||g - Id||_F >= ||g - Id||_2 for every stored
    g, the build's closed-form bound, (c) is eps, which bounds
    ||(g - Id) zeta|| / ||zeta|| for every chart vector zeta, against
    :attr:`CutoffFunction.frob_bound`, the bound the build checked, and (d)
    is :func:`displacement_bound` (eps) against delta / 2.  Whenever (d)
    holds, (a) and (b) are 0 at every point; the evaluator decides the
    sampled points by the same certificate, with no matrix product once fs
    clears delta / 2 by the decision margins, as in every bundled config.
    The sampled points are drawn from ``seed``, a nonnegative integer
    (:func:`check_seed`).
    """
    for name, count in (("n_inner", n_inner), ("n_outer", n_outer)):
        if not _is_integer(count) or count < 1:
            raise ValueError(f"{name}: must be an integer, at least 1")
    rng = make_rng(check_seed(seed), 41)
    inner = rows_on_set(cf.set_spec, n_inner, rng)
    outer = rows_off_set(cf.set_spec, cf.delta, n_outer, rng)
    a = float(np.max(np.abs(cf.eval_homog(inner) - 1.0)))
    b = float(np.max(np.abs(cf.eval_homog(outer))))
    eps, fs_max, fs_bound = cf.rf.eps, displacement_bound(cf.rf.eps), 0.5 * cf.delta
    passed = a == 0.0 and b == 0.0 and fs_max < fs_bound and eps <= cf.frob_bound
    return VerificationReport(a, b, eps, cf.frob_bound, fs_max, fs_bound, passed)


def annulus_grid(set_spec: CompactSetSpec, delta: float, count: int,
                 seed: int, tag: int = 0) -> list:
    """Chart points in the transition annulus delta/4 <= dist <= delta, where
    the derivatives of the cut-off live, each in its maximum-modulus chart.
    Batches of points at random distances beyond random balls are kept where
    they land in the annulus; after 200 * count draws the rest are kept
    unconditioned, for an empty annulus (a set covering the whole space).
    ``seed`` is a nonnegative integer (:func:`check_seed`) and ``count`` a
    nonnegative integer."""
    _check_draw(delta, count)
    rng = make_rng(check_seed(seed), 51, tag)
    centres, radii = set_spec.centres, set_spec.radii
    lo, hi = 0.25 * delta, delta
    kept, have, drawn = [centres[:0]], 0, 0  # no rows yet: count = 0 gives an empty grid
    while have < count:
        n = 2 * (count - have)  # one batch is enough when half the draws land
        ball = rng.integers(radii.size, size=n)
        t = np.minimum(radii[ball] + lo + (hi - lo) * rng.random(n), 0.5 * math.pi - 1e-9)
        rows = geodesic_row(centres[ball], tangent_row(centres[ball], rng), t)
        if drawn < 200 * count:
            dist = rows_dist_to_set(rows, set_spec)
            rows = rows[(lo <= dist) & (dist <= hi)]
        kept.append(rows)
        have += rows.shape[0]
        drawn += n
    rows = np.concatenate(kept)[:count]
    charts = np.argmax(np.abs(rows), axis=1)
    coords = rows / rows[np.arange(count), charts][:, None]
    coords[np.arange(count), charts] = 1.0
    return [ChartCoordinates(c, z) for c, z in zip(charts.tolist(), coords)]


def _scaling_row(task):
    set_spec, delta, alpha, config, grid_points, tag = task
    cf = build_cutoff(set_spec, delta, config)
    grid = annulus_grid(set_spec, delta, grid_points, config.seed, tag)
    semi = c_alpha_estimate(cf.rf, grid, alpha, delta / STEPS_PER_DELTA)
    return (delta, cf.theta, semi)


def scaling_experiment(set_spec: CompactSetSpec, deltas, alpha: int,
                       config: CutoffConfig, grid_points: int = 400,
                       workers: int = 1) -> ScalingReport:
    """Build the cut-off for each of at least 3 distinct deltas with the
    shared seed, estimate the C^alpha seminorm proxy on an annulus grid with
    the step delta / STEPS_PER_DELTA, and regress log-log.  Every step must
    lie in the stencil window of :func:`c_alpha_estimate`, so the deltas lie
    in [4e-4, 0.4]; they are checked before any build.  With workers > 1
    the deltas run in a pool of min(workers, number of deltas) processes.

    Rows with vanishing seminorm mark the experiment degenerate (constant
    function); the slope is then reported as NaN.
    """
    if alpha not in (1, 2):
        raise ValueError("alpha must be 1 or 2")
    deltas = sorted(float(d) for d in deltas)
    if len(deltas) < 3 or len(set(deltas)) < len(deltas):
        raise ConfigError("deltas: scaling needs at least 3 distinct values")
    for d in deltas:
        try:
            _check_stencil(alpha, d / STEPS_PER_DELTA)
        except ValueError as e:
            raise ConfigError(f"deltas: {d:g} gives the step delta / {STEPS_PER_DELTA} = "
                              f"{d / STEPS_PER_DELTA:g}; {e}") from None
    tasks = [(set_spec, d, alpha, config, grid_points, i)
             for i, d in enumerate(reversed(deltas))]
    workers = min(workers or 1, len(tasks))  # the pool starts all its workers at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_scaling_row, tasks))
    else:
        rows = [_scaling_row(t) for t in tasks]
    if min(r[2] for r in rows) <= 1e-12:
        return ScalingReport(alpha, tuple(rows), float("nan"), float("nan"), True)
    slope, stderr = scaling_slope([(r[0], r[2]) for r in rows])
    return ScalingReport(alpha, tuple(rows), slope, stderr, False)
