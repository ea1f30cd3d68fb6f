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
    return 1.0 / (sphere_area(n) * sigma ** n * _radius_table(n)[2])


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


@lru_cache(maxsize=None)
def _radius_table(n: int):
    # inverse-CDF lookup table for the radial law t^(n-1) * bump(t) on [0, 1],
    # with the trapezoid integral of that law that normalises it
    t = np.linspace(0.0, 1.0, _CDF_NODES)
    pdf = t ** (n - 1) * bump_profile(t)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(t))])
    total = float(cdf[-1])
    cdf /= total
    t.setflags(write=False)
    cdf.setflags(write=False)
    return t, cdf, total


def radial_cdf_nodes(n: int):
    """The (radius, CDF) table used for sampling, for inspection."""
    return _radius_table(n)[:2]


def _row_chunks(m: ScaledMeasure, count: int, seed):
    """Yield (lo, rows): the coordinate rows lo, lo + 1, ... of the draws,
    one :func:`from_coords` chunk at a time, so that no (count, n) array is
    formed.  The stream holds the count uniforms of the radii first, then
    the normals of the directions row by row, as one draw of each would."""
    if count < 1:
        raise ValueError("count must be at least 1")
    n = m.base.n
    rng = make_rng(seed, 31)
    t, cdf, _ = _radius_table(n)
    uniforms = rng.random(count)
    step = _coord_chunk(m.base.k)

    def rows(lo):
        u = uniforms[lo:lo + step]
        dirs = rng.standard_normal((u.size, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs *= (np.interp(u, cdf, t) * (m.theta * m.base.sigma))[:, None]
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
