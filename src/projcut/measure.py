"""A smooth, compactly supported radial probability density on the traceless
matrices, with exact normalisation and deterministic sampling.

The density is norm_const * exp(-1/(1 - (r/sigma)^2)) for r = Frobenius norm
below sigma and 0 beyond: the canonical bump, flat to all orders at the
support boundary.  Scaling by theta in (0, 1] shrinks the support to
theta*sigma and multiplies the density by theta^(-n), n the real dimension
2k^2 + 4k of the matrix space.

One radial integral serves both the normalisation and the sampler: the
trapezoid rule on _CDF_NODES equispaced nodes, whose running sum is the
inverse-CDF table and whose total is the integral.  That rule is exact to
roundoff here: its Euler-Maclaurin error terms are the odd derivatives of
t^(n-1) exp(-1/(1-t^2)) at the ends, which vanish to all orders at t = 1 and
below order n-1 at t = 0, so the error is O(h^n) with h = 1/(_CDF_NODES-1).

The table is read through a guide table (Chen & Asau 1974; Devroye 1986,
section III.2.4): _GUIDE_BUCKETS equal buckets of [0, 1], each holding the
last node at or below its left end, so that a uniform in a bucket that holds
at most one node finds its node with one comparison, not a binary search.
The lookup then takes np.interp's own slope and arithmetic, so it returns
np.interp's bits; the few buckets that hold more nodes, in the flat head and
tail of the CDF, are passed to np.interp itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ThetaZero
from .lie import AlgebraElement, _coord_chunk, from_coords
from .rng import make_rng

_CDF_NODES = 4096
_GUIDE_BUCKETS = 2 ** 13  # a power of two: u * _GUIDE_BUCKETS and cdf * _GUIDE_BUCKETS are exact


def real_dimension(k: int) -> int:
    """Real dimension of the traceless (k+1)x(k+1) matrices: 2k^2 + 4k."""
    return 2 * k * k + 4 * k


def bump_profile(t):
    """exp(-1/(1-t^2)) for |t| < 1, identically 0 beyond."""
    scalar = np.ndim(t) == 0
    arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.zeros_like(arr)
    mask = np.abs(arr) < 1.0
    with np.errstate(divide="ignore"):
        out[mask] = np.exp(-1.0 / (1.0 - arr[mask] ** 2))
    return float(out[0]) if scalar else out


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def normalization(k: int, sigma: float) -> float:
    """Constant making the bump of support radius sigma a probability density.

    The radial integral is the trapezoid total of the sampler's table.  The
    Euler-Maclaurin error terms of that rule vanish to all orders at t = 1
    and below order n-1 at t = 0, so it is exact to roundoff."""
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    n = real_dimension(k)
    return 1.0 / (sphere_area(n) * sigma ** n * _radius_table(n).total)


@dataclass(frozen=True, eq=False)
class MollifierSpec:
    """Radial bump density on the traceless matrices, supported in the
    open sigma-ball.  ``norm_const`` is computed from (k, sigma) at
    construction, and the total mass it gives is cross-checked there."""

    k: int
    sigma: float
    norm_const: float = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        object.__setattr__(self, "norm_const", normalization(self.k, self.sigma))
        mass = self._trapezoid_mass()
        if abs(mass - 1.0) > 1e-3:
            raise ValueError(f"density mass {mass:.6f} deviates from 1 beyond 1e-3")

    @property
    def n(self) -> int:
        return real_dimension(self.k)

    def _trapezoid_mass(self) -> float:
        # independent cross-check of the quadrature constant
        t = np.linspace(0.0, 1.0, 20001)
        pdf = t ** (self.n - 1) * bump_profile(t)
        return float(
            self.norm_const * sphere_area(self.n) * self.sigma ** self.n
            * np.trapezoid(pdf, t)
        )


def density(spec: MollifierSpec, x):
    """Density at a traceless matrix (any stack shape); depends on the
    Frobenius norm only."""
    m = x.mat if isinstance(x, AlgebraElement) else np.asarray(x, dtype=np.complex128)
    r = np.sqrt((np.abs(m) ** 2).sum(axis=(-2, -1)))
    return spec.norm_const * bump_profile(r / spec.sigma)


@dataclass(frozen=True, eq=False)
class ScaledMeasure:
    """The mollifier pushed forward by multiplication with theta in (0, 1]."""

    base: MollifierSpec
    theta: float

    def __post_init__(self):
        if self.theta == 0:
            raise ThetaZero("theta = 0 is the Dirac case and has no density")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")


def scaled_density(m: ScaledMeasure, x):
    """theta^(-n) * density(base, x/theta); support radius theta*sigma."""
    if m.theta == 0:
        raise ThetaZero("theta = 0 is the Dirac case and has no density")
    mm = x.mat if isinstance(x, AlgebraElement) else np.asarray(x, dtype=np.complex128)
    return m.theta ** (-m.base.n) * density(m.base, mm / m.theta)


@dataclass(frozen=True, eq=False)
class _RadiusTable:
    """Inverse-CDF table of the radial law t^(n-1) * bump(t) on [0, 1]: the
    nodes t and cdf, the trapezoid integral ``total`` that normalises cdf,
    and the guide table of :func:`_inverse_cdf`.  ``first[b]`` is the last
    node with cdf <= b / _GUIDE_BUCKETS, ``crowded[b]`` marks the buckets
    with more than one node in (b, b + 1] / _GUIDE_BUCKETS, and ``slope`` is
    np.interp's (t[j+1] - t[j]) / (cdf[j+1] - cdf[j]), 0 where cdf is flat
    (only crowded buckets reach those nodes)."""

    t: np.ndarray
    cdf: np.ndarray
    total: float
    first: np.ndarray
    crowded: np.ndarray
    slope: np.ndarray


@lru_cache(maxsize=None)
def _radius_table(n: int) -> _RadiusTable:
    t = np.linspace(0.0, 1.0, _CDF_NODES)
    pdf = t ** (n - 1) * bump_profile(t)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(t))])
    total = float(cdf[-1])
    cdf /= total
    # ceil: a node with cdf <= b / M has ceil(cdf M) <= b, so the running
    # count of nodes per ceil(cdf M) counts the nodes at or below b / M
    per_bucket = np.bincount(np.ceil(cdf * _GUIDE_BUCKETS).astype(np.intp),
                             minlength=_GUIDE_BUCKETS + 1)
    first = np.cumsum(per_bucket) - 1
    crowded = np.diff(first) > 1
    with np.errstate(divide="ignore"):
        slope = np.diff(t) / np.diff(cdf)
    slope[~np.isfinite(slope)] = 0.0
    table = _RadiusTable(t, cdf, total, first[:-1], crowded, slope)
    for arr in (t, cdf, table.first, crowded, slope):
        arr.setflags(write=False)
    return table


def _inverse_cdf(u: np.ndarray, table: _RadiusTable) -> np.ndarray:
    """np.interp(u, table.cdf, table.t), bit for bit, for u in [0, 1),
    written into u.  In a bucket b that holds at most one node, the last
    node j with cdf[j] <= u is first[b] or the node after it; np.interp's
    slope[j] * (u - cdf[j]) + t[j] follows, which is t[j] where u = cdf[j].
    The crowded buckets' uniforms go through np.interp."""
    j = np.multiply(u, _GUIDE_BUCKETS).astype(np.intp)  # the bucket of each uniform
    crowded = np.flatnonzero(table.crowded[j])
    rest = np.interp(u[crowded], table.cdf, table.t)
    np.take(table.first, j, out=j)
    j += table.cdf[j + 1] <= u
    node = np.take(table.cdf, j)
    np.subtract(u, node, out=u)
    np.multiply(u, np.take(table.slope, j, out=node), out=u)
    np.add(u, np.take(table.t, j, out=node), out=u)
    u[crowded] = rest
    return u


def radial_cdf_nodes(n: int):
    """The (radius, CDF) table used for sampling, for inspection."""
    table = _radius_table(n)
    return table.t, table.cdf


def _row_chunks(m: ScaledMeasure, count: int, seed):
    """Yield (lo, rows): the coordinate rows lo, lo + 1, ... of the draws,
    one :func:`from_coords` chunk at a time, so that no (count, n) array is
    formed.  The stream holds the count uniforms of the radii first, which
    become radii at once (:func:`_inverse_cdf`), then the normals of the
    directions row by row, as one draw of each would.  Each chunk's rows
    are normalised by np.linalg.norm's arithmetic for real rows (square,
    np.add.reduce, sqrt, at k = 1 as its in-order column sums), into two
    buffers that every chunk reuses."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n = m.base.n
    rng = make_rng(seed, 31)
    radii = _inverse_cdf(rng.random(count), _radius_table(n))
    radii *= m.theta * m.base.sigma
    step = _coord_chunk(m.base.k)
    square = np.empty((min(step, count), n))
    norms = np.empty(square.shape[0])

    def rows(lo):
        dirs = rng.standard_normal((min(step, count - lo), n))
        sq, nrm = square[:dirs.shape[0]], norms[:dirs.shape[0]]
        np.multiply(dirs, dirs, out=sq)
        if n < 8:  # below numpy's pairwise block the reduction adds in column order
            np.add(sq[:, 0], sq[:, 1], out=nrm)
            for c in range(2, n):
                nrm += sq[:, c]
        else:
            np.add.reduce(sq, axis=1, out=nrm)
        np.sqrt(nrm, out=nrm)
        dirs /= nrm[:, None]
        dirs *= radii[lo:lo + step, None]
        return dirs

    return ((lo, rows(lo)) for lo in range(0, count, step))


def sample_rows(m: ScaledMeasure, count: int, seed) -> np.ndarray:
    """Coordinate rows (count, n) of draws: radius by monotone inverse-CDF
    lookup, direction uniform on the unit sphere.  Deterministic in seed;
    every row has norm strictly below theta*sigma."""
    return np.concatenate([rows for _, rows in _row_chunks(m, count, seed)])


def sample_matrices(m: ScaledMeasure, count: int, seed) -> np.ndarray:
    """Stacked matrices (count, k+1, k+1) drawn from the scaled measure,
    the rows of :func:`sample_rows` read by :func:`from_coords` a chunk at
    a time into the result."""
    k = m.base.k
    chunks = _row_chunks(m, count, seed)  # refuses count < 1 before the result exists
    out = np.empty((count, k + 1, k + 1), dtype=np.complex128)
    for lo, rows in chunks:
        from_coords(rows, k, out=out[lo:lo + rows.shape[0]])
    return out


def sample(m: ScaledMeasure, count: int, seed) -> list:
    """Draws as :class:`AlgebraElement` values."""
    return [AlgebraElement(mat) for mat in sample_matrices(m, count, seed)]


@lru_cache(maxsize=None)
def get_mollifier(k: int, sigma: float) -> MollifierSpec:
    return MollifierSpec(k, sigma)
