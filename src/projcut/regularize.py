"""Smoothing of bounded functions on P^k by averaging over automorphisms.

An evaluator is smoothed by drawing S traceless matrices x_j from the unit
mollifier once, freezing the group elements g_j = exp_chart(theta * x_j), and
returning the average of f over the moved points.  The frozen sample (common
random numbers) is the load-bearing choice: it makes the Monte-Carlo average
a single smooth function of the evaluation point, so finite differences see
the smooth limit instead of resampling noise.

Functions on P^k are represented as vectorised evaluators on stacked
homogeneous rows:

    f(rows: (m, k+1) complex ndarray) -> (m,) float ndarray with values in [0, 1]

Rows are arbitrary nonzero homogeneous representatives; evaluators normalise
internally where needed.

An evaluator may also offer ``hermitian_forms(matrices)``: Hermitian H of
shape (S, B, k+1, k+1) with f(g_s z) = 1 exactly when z^H H[s, b] z > 0 for
some b, and 0 otherwise.  The smoothed function is then evaluated as a sign
test on one real matrix product per block: z^H H z is linear in the (k+1)^2
real features |z_i|^2, Re(conj(z_i) z_j) and Im(conj(z_i) z_j), i < j, so
neither the moved points nor their distances are ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import StepTooSmall
from .geometry import ChartCoordinates, ProjectivePoint
from .lie import _expm, _normalize_stack
from .measure import MollifierSpec, ScaledMeasure, sample_matrices

FunctionOnP = Callable[[np.ndarray], np.ndarray]

EVAL_CHUNK = 2048  # stored samples per evaluation block on the generic path
ROW_BLOCK = 128    # rows per evaluation block; bounds the working set for large m
# Form values per GEMM on the form path: the samples per GEMM are this over
# (forms per sample * rows in the block).  At k = 1 every product then stays
# below the size at which OpenBLAS starts its threads, whose start-up can
# stall a thin GEMM for milliseconds on a shared host.
FORM_GEMM_OUTPUT = 2 ** 15


def regularize(f: FunctionOnP, theta: float, S: int, seed, mollifier: MollifierSpec) -> "RegularizedFunction":
    """Freeze S group elements exp_chart(theta * x_j), x_j drawn once from the
    unit-scale mollifier, and return the averaging evaluator.

    theta = 0 returns the pass-through evaluator (the Dirac case).  The same
    seed yields the same x_j for every theta, so evaluators at different
    scales share their randomness; the draw itself is shared too, so the
    builds of one command at several theta sample it once.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if S < 1:
        raise ValueError("S must be at least 1")
    d = mollifier.k + 1
    forms = None
    if theta == 0.0:
        mats = np.zeros((0, d, d), dtype=np.complex128)
    else:
        mats = _normalize_stack(_expm(theta * _unit_draws(mollifier, int(S), int(seed))))
        if hasattr(f, "hermitian_forms"):
            forms = _real_coefficients(f.hermitian_forms(mats))
            forms.setflags(write=False)
    mats.setflags(write=False)
    return RegularizedFunction(source=f, theta=float(theta), matrices=mats,
                               sample_seed=seed, S=int(S), forms=forms)


@lru_cache(maxsize=1)
def _unit_draws(mollifier: MollifierSpec, S: int, seed: int) -> np.ndarray:
    """The S unit-scale draws x_j for (mollifier, S, seed), read-only and
    kept for the next call with the same key."""
    x = sample_matrices(ScaledMeasure(mollifier, 1.0), S, seed)
    x.setflags(write=False)
    return x


def _stored_images(matrices: np.ndarray, Z: np.ndarray):
    """The rows Z (m, d) moved by the stored matrices (S, d, d), one block of
    EVAL_CHUNK matrices at a time: yields arrays (block, m, d) of g z."""
    for lo in range(0, matrices.shape[0], EVAL_CHUNK):
        yield np.einsum("sij,mj->smi", matrices[lo:lo + EVAL_CHUNK], Z)


def _real_coefficients(hermitian: np.ndarray) -> np.ndarray:
    """Coefficients (..., d*d) of z^H H z against :func:`_features` of z."""
    d = hermitian.shape[-1]
    i, j = np.triu_indices(d, 1)
    off = hermitian[..., i, j]
    diag = np.diagonal(hermitian, axis1=-2, axis2=-1).real
    return np.concatenate([diag, 2.0 * off.real, -2.0 * off.imag], axis=-1)


def _features(Z: np.ndarray) -> np.ndarray:
    """Real features (d*d, m) of rows, one column per row: |z_i|^2, then Re
    and Im of conj(z_i) z_j for i < j."""
    i, j = np.triu_indices(Z.shape[1], 1)
    Zt = Z.T
    cross = np.conj(Zt[i]) * Zt[j]
    return np.concatenate([Zt.real ** 2 + Zt.imag ** 2, cross.real, cross.imag])


@dataclass(frozen=True, eq=False)
class RegularizedFunction:
    """Frozen-sample smoothing of a bounded evaluator.

    ``matrices`` holds the S stored group elements, shape (S, k+1, k+1)
    (empty for the pass-through case theta = 0).  ``forms`` holds, when the
    source offers Hermitian forms, their real coefficients per stored
    element and form, shape (S, B, (k+1)^2); otherwise it is None and the
    source is called on the moved points.  Evaluation is deterministic: the
    same (seed, S, theta, point) gives the same value bit for bit.
    """

    source: FunctionOnP
    theta: float
    matrices: np.ndarray
    sample_seed: int
    S: int
    forms: Optional[np.ndarray] = None

    def eval_homog(self, rows) -> np.ndarray:
        """Average of f over the moved points, for stacked homogeneous rows.

        Rows must be finite and nonzero.  The work is done in blocks of
        ROW_BLOCK rows by a bounded number of stored elements, so memory
        stays bounded for any number of rows."""
        Z = np.asarray(rows, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[1] != self.matrices.shape[1]:
            raise ValueError("expected stacked homogeneous rows of shape (m, k+1)")
        if not np.all(np.isfinite(Z)):
            raise ValueError("homogeneous rows must be finite")
        if np.any(np.all(Z == 0.0, axis=1)):
            raise ValueError("a zero row is not a point")
        if self.theta == 0.0:
            return np.asarray(self.source(Z), dtype=np.float64)
        if self.forms is None:
            prepare, block_sum = np.asarray, self._source_sum
        else:
            prepare, block_sum = _features, self._form_hits
        total = np.zeros(Z.shape[0])
        for r in range(0, Z.shape[0], ROW_BLOCK):
            total[r:r + ROW_BLOCK] = block_sum(prepare(Z[r:r + ROW_BLOCK]))
        return total / self.S

    def _source_sum(self, Z: np.ndarray) -> np.ndarray:
        """Sum of f over the stored elements, EVAL_CHUNK at a time, per row."""
        total = np.zeros(Z.shape[0])
        for images in _stored_images(self.matrices, Z):
            vals = np.asarray(self.source(images.reshape(-1, Z.shape[1])), dtype=np.float64)
            total += vals.reshape(images.shape[0], Z.shape[0]).sum(axis=0)
        return total

    def _form_hits(self, features: np.ndarray) -> np.ndarray:
        """Count of stored elements with some positive form, per column of
        features, from GEMMs of about FORM_GEMM_OUTPUT values each."""
        S, B, n = self.forms.shape
        flat = self.forms.reshape(S * B, n)
        step = max(1, FORM_GEMM_OUTPUT // (B * features.shape[1]))
        hits = np.zeros(features.shape[1], dtype=np.int64)
        for lo in range(0, S, step):
            q = flat[lo * B:(lo + step) * B] @ features
            if B > 1:
                q = q.reshape(-1, B, q.shape[1]).max(axis=1)
            hits += np.count_nonzero(q > 0.0, axis=0)
        return hits

    def __call__(self, p: ProjectivePoint) -> float:
        return float(self.eval_homog(p.homog[None, :])[0])


def _real_directions(c: ChartCoordinates) -> list:
    slots = [j for j in range(c.k + 1) if j != c.chart_index]
    units = []
    for w in (1.0, 1.0j):
        for j in slots:
            u = np.zeros(c.k + 1, dtype=np.complex128)
            u[j] = w
            units.append(u)
    return units


def _noise_guard(numerators, values):
    nz = np.abs(numerators[numerators != 0.0])
    if nz.size and nz.max() < 8.0 * np.finfo(np.float64).eps * float(np.abs(values).max()):
        raise StepTooSmall("finite differences sit below the roundoff floor of the values")


def _check_stencil(order: int, step: float):
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if not 1e-5 <= step <= 1e-2:
        raise ValueError("step must lie in [1e-5, 1e-2]")


def _stencil(c: ChartCoordinates, order: int, step: float) -> np.ndarray:
    """The rows finite_diff evaluates at c: for order 1 the pairs
    base +- step*u; for order 2 the base, those pairs, then four rows per
    pair of directions."""
    base = c.coords
    units = _real_directions(c)
    if order == 1:
        rows = np.empty((2 * len(units), base.size), dtype=np.complex128)
        for a, u in enumerate(units):
            rows[2 * a] = base + step * u
            rows[2 * a + 1] = base - step * u
        return rows
    rows = [base]
    for u in units:
        rows.append(base + step * u)
        rows.append(base - step * u)
    for a, b in _pairs(len(units)):
        rows.append(base + step * (units[a] + units[b]))
        rows.append(base + step * (units[a] - units[b]))
        rows.append(base - step * (units[a] - units[b]))
        rows.append(base - step * (units[a] + units[b]))
    return np.stack(rows)


def _pairs(q: int) -> list:
    return [(a, b) for a in range(q) for b in range(a + 1, q)]


def _derivative(vals: np.ndarray, order: int, step: float) -> float:
    """Reduce the values on one :func:`_stencil` to the derivative proxy."""
    if order == 1:
        diffs = vals[0::2] - vals[1::2]
        _noise_guard(diffs, vals)
        return float(np.linalg.norm(diffs / (2.0 * step)))

    q = math.isqrt((vals.size - 1) // 2)  # the order-2 stencil has 1 + 2q^2 rows
    f0 = vals[0]
    hess = np.empty((q, q))
    numerators = []
    pos = 1
    for a in range(q):
        num = vals[pos] - 2.0 * f0 + vals[pos + 1]
        hess[a, a] = num / step ** 2
        numerators.append(num)
        pos += 2
    for a, b in _pairs(q):
        num = vals[pos] - vals[pos + 1] - vals[pos + 2] + vals[pos + 3]
        hess[a, b] = hess[b, a] = num / (4.0 * step ** 2)
        numerators.append(num)
        pos += 4
    _noise_guard(np.asarray(numerators), vals)
    return float(np.max(np.abs(hess)))


def finite_diff(rf: RegularizedFunction, c: ChartCoordinates, order: int, step: float) -> float:
    """Central-difference derivative proxy in the 2k real chart directions.

    Order 1 returns the Euclidean norm of the gradient; order 2 the largest
    absolute Hessian entry.  Every stencil point is evaluated with the same
    stored sample matrices, so the differenced function is the smooth frozen
    average.  Differences that are nonzero yet smaller than 8 units of
    roundoff raise :class:`StepTooSmall`; exactly-zero differences (plateaus)
    are genuine zero derivatives.
    """
    _check_stencil(order, step)
    return _derivative(rf.eval_homog(_stencil(c, order, step)), order, step)


def c_alpha_estimate(rf: RegularizedFunction, grid, alpha: int, step: float) -> float:
    """Empirical C^alpha seminorm proxy: max of finite_diff over the grid.

    The stencils of all grid points are evaluated in one call; each point's
    value and roundoff guard are then those of finite_diff at that point."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    _check_stencil(alpha, step)
    stencils = [_stencil(c, alpha, step) for c in grid]
    vals = rf.eval_homog(np.concatenate(stencils))
    ends = np.cumsum([len(s) for s in stencils])
    return max(_derivative(v, alpha, step) for v in np.split(vals, ends[:-1]))


def scaling_slope(rows):
    """Least-squares slope of log(seminorm) against log(delta), with its
    standard error.  Needs at least 3 strictly positive rows."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError("need at least 3 rows")
    deltas = np.array([r[0] for r in rows], dtype=np.float64)
    semis = np.array([r[1] for r in rows], dtype=np.float64)
    if np.any(deltas <= 0.0) or np.any(semis <= 0.0):
        raise ValueError("rows must be strictly positive")
    x = np.log(deltas)
    y = np.log(semis)
    xc = x - x.mean()
    sxx = float((xc ** 2).sum())
    slope = float((xc * y).sum() / sxx)
    resid = y - (y.mean() + slope * xc)
    dof = len(rows) - 2
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx)
    return slope, stderr


@dataclass(frozen=True, eq=False)
class ScalingReport:
    """Rows (delta, theta, seminorm) sorted by delta descending, with the
    log-log regression of seminorm against delta."""

    alpha: int
    rows: tuple
    slope: float
    slope_stderr: float
    degenerate: bool = False

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: -r[0]))
        object.__setattr__(self, "rows", rows)
