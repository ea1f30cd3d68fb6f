"""Matrix-group numerics near the identity of the automorphism group of P^k.

Automorphisms are (k+1)x(k+1) invertible complex matrices up to scale.  Near
the identity each class has a unique representative whose [0,0]-entry is
exactly 1, and the matrix exponential of the traceless matrices sl(k+1,C)
gives a smooth chart onto a neighbourhood of the identity.  Everything here
is dense linear algebra on small matrices; the kernels accept stacks with
leading batch axes because the smoothing pipeline pushes tens of thousands
of samples through them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateImage, NormalizationUndefined, OutOfChart
from .geometry import ProjectivePoint
from .rng import make_rng

DEFAULT_EPSILON = 0.3  # validity radius for shear offsets
DEFAULT_SIGMA = 0.1    # working radius on the traceless matrices
TRACE_TOL = 1e-12

_EXP_TERMS = 20
_LOG_TERMS = 40


def norm_s(x) -> float:
    """Frobenius norm (square root of the sum of squared entry moduli)."""
    m = x.mat if isinstance(x, (AlgebraElement, NormalizedMatrix)) else np.asarray(x)
    return float(np.linalg.norm(m))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A traceless (k+1)x(k+1) complex matrix."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("expected a square complex matrix of size >= 2")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        if abs(np.trace(m)) > TRACE_TOL:
            raise ValueError(f"matrix is not traceless: |trace| = {abs(np.trace(m)):.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def k(self) -> int:
        return self.mat.shape[0] - 1

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.mat))

    def scaled(self, t) -> "AlgebraElement":
        return AlgebraElement(self.mat * t)


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """An invertible matrix rescaled so its [0,0]-entry is exactly 1."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ValueError("expected a square complex matrix of size >= 2")
        if m[0, 0] != 1.0 + 0.0j:
            raise ValueError("the [0,0] entry must be exactly 1")
        if abs(np.linalg.det(m)) <= 1e-12:
            raise ValueError("matrix is numerically singular")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def k(self) -> int:
        return self.mat.shape[0] - 1


@dataclass(frozen=True, eq=False)
class ShearParams:
    """Chart-translation offsets h = (h_1, ..., h_k) with validity radius."""

    h: np.ndarray
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        h = np.array(self.h, dtype=np.complex128).reshape(-1)
        if h.size < 1:
            raise ValueError("need at least one offset")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if np.any(np.abs(h) >= self.epsilon):
            raise ValueError("every |h_i| must stay below epsilon")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    @property
    def k(self) -> int:
        return self.h.size


def shear(params: ShearParams) -> NormalizedMatrix:
    """Unit lower-triangular matrix translating chart-0 coordinates by h."""
    d = params.k + 1
    g = np.eye(d, dtype=np.complex128)
    g[1:, 0] = params.h
    return NormalizedMatrix(g)


def act(g, p: ProjectivePoint) -> ProjectivePoint:
    """Projective action; scaling g leaves the image unchanged."""
    m = g.mat if isinstance(g, NormalizedMatrix) else np.asarray(g, dtype=np.complex128)
    image = m @ p.homog
    if np.linalg.norm(image) <= 1e-12:
        raise DegenerateImage("matrix maps the point to a numerically zero vector")
    return ProjectivePoint(image)


def _frob(stack) -> np.ndarray:
    return np.sqrt((np.abs(stack) ** 2).sum(axis=(-2, -1)))


def _expm(stack) -> np.ndarray:
    """Scaling-and-squaring with a truncated exponential series, batched."""
    a = np.asarray(stack, dtype=np.complex128)
    d = a.shape[-1]
    worst = float(_frob(a).max()) if a.size else 0.0
    squarings = 0
    while worst / (2.0 ** squarings) > 0.25:
        squarings += 1
    a = a / (2.0 ** squarings)
    eye = np.eye(d, dtype=np.complex128)
    out = np.broadcast_to(eye, a.shape) / math.factorial(_EXP_TERMS)
    for j in range(_EXP_TERMS - 1, -1, -1):
        out = a @ out + eye / math.factorial(j)
    for _ in range(squarings):
        out = out @ out
    return out


def exp_sl(x) -> np.ndarray:
    """Matrix exponential; traceless input yields determinant 1."""
    m = x.mat if isinstance(x, AlgebraElement) else np.asarray(x, dtype=np.complex128)
    return _expm(m)


def _sqrtm_db(stack) -> np.ndarray:
    # Denman-Beavers iteration; quadratically convergent near the identity.
    y = np.asarray(stack, dtype=np.complex128).copy()
    z = np.broadcast_to(np.eye(y.shape[-1], dtype=np.complex128), y.shape).copy()
    for _ in range(25):
        yn = 0.5 * (y + np.linalg.inv(z))
        zn = 0.5 * (z + np.linalg.inv(y))
        delta = float(_frob(yn - y).max())
        y, z = yn, zn
        if delta <= 1e-15 * max(1.0, float(_frob(y).max())):
            break
    return y


def _logm(stack) -> np.ndarray:
    """Principal logarithm by inverse scaling-and-squaring with a truncated
    series; callers keep the argument within Frobenius distance 1 of Id."""
    x = np.asarray(stack, dtype=np.complex128)
    d = x.shape[-1]
    eye = np.eye(d, dtype=np.complex128)
    sqrts = 0
    while float(_frob(x - eye).max()) > 0.25 and sqrts < 20:
        x = _sqrtm_db(x)
        sqrts += 1
    e = x - eye
    out = np.broadcast_to(eye, x.shape) * ((-1.0) ** (_LOG_TERMS + 1) / _LOG_TERMS)
    for j in range(_LOG_TERMS - 1, 0, -1):
        out = e @ out + eye * ((-1.0) ** (j + 1) / j)
    out = e @ out
    return out * (2.0 ** sqrts)


def _normalize_stack(stack) -> np.ndarray:
    m = np.asarray(stack, dtype=np.complex128)
    pivot = m[..., 0, 0]
    if np.any(np.abs(pivot) <= 1e-12):
        raise NormalizationUndefined(
            "[0,0] entry vanishes; the class leaves the unit-entry slice"
        )
    out = m / pivot[..., None, None]
    out[..., 0, 0] = 1.0
    return out


def phi_normalize(m) -> NormalizedMatrix:
    """Rescale an invertible matrix so its [0,0]-entry is exactly 1."""
    a = m.mat if isinstance(m, NormalizedMatrix) else np.asarray(m, dtype=np.complex128)
    return NormalizedMatrix(_normalize_stack(a))


def exp_chart(x: AlgebraElement) -> NormalizedMatrix:
    """Exponential coordinates followed by the unit-entry normalisation."""
    return phi_normalize(_expm(x.mat))


def log_chart(A: NormalizedMatrix) -> AlgebraElement:
    """Inverse of :func:`exp_chart` on the ball ||A - Id|| < 0.5.

    The representative is rescaled by the principal (k+1)-th root of
    1/det(A) to determinant 1, the principal logarithm is taken, and the
    trace residue is projected out.
    """
    m = A.mat
    d = m.shape[0]
    if float(np.linalg.norm(m - np.eye(d))) >= 0.5:
        raise OutOfChart("matrix is too far from the identity for the log chart")
    det = np.linalg.det(m)
    root = np.exp(-np.log(det) / d)  # principal branch, near 1
    logm = _logm(root * m)
    logm = logm - (np.trace(logm) / d) * np.eye(d)
    return AlgebraElement(logm)


def shear_translate(A: NormalizedMatrix, params: ShearParams) -> NormalizedMatrix:
    """Right-translate a normalised representative by a shear, renormalise.

    Before normalisation the product A*G_h keeps every column of A except
    the first, which becomes A[:,0] + A[:,1:] @ h.
    """
    return phi_normalize(A.mat @ shear(params).mat)


def chart_translate(x: AlgebraElement, params: ShearParams) -> AlgebraElement:
    """The shear translation read through the exponential chart."""
    return log_chart(shear_translate(exp_chart(x), params))


@lru_cache(maxsize=None)
def sl_basis(k: int) -> np.ndarray:
    """Orthonormal basis of sl(k+1,C) as a real vector space.

    Orthonormal for <a,b> = Re tr(a b^*), so coordinates in this basis carry
    the Frobenius norm to the Euclidean norm.  Layout: all elementary
    off-diagonal matrices, then the diagonal traceless ladder, then i times
    the same matrices.  Length 2k^2 + 4k.
    """
    d = k + 1
    mats = []
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            e = np.zeros((d, d), dtype=np.complex128)
            e[i, j] = 1.0
            mats.append(e)
    for m in range(1, d):
        diag = np.zeros(d, dtype=np.complex128)
        diag[:m] = 1.0
        diag[m] = -m
        mats.append(np.diag(diag) / math.sqrt(m * (m + 1)))
    cplx = np.stack(mats)
    basis = np.concatenate([cplx, 1j * cplx])
    basis.setflags(write=False)
    return basis


def to_coords(x) -> np.ndarray:
    """Real coordinates of a traceless matrix in :func:`sl_basis`."""
    m = x.mat if isinstance(x, AlgebraElement) else np.asarray(x, dtype=np.complex128)
    basis = sl_basis(m.shape[-1] - 1)
    return np.real(np.einsum("aij,...ij->...a", np.conj(basis), m))


def from_coords(v, k: int) -> np.ndarray:
    """Traceless matrix with the given real coordinates in :func:`sl_basis`."""
    return np.einsum("...a,aij->...ij", np.asarray(v, dtype=np.float64), sl_basis(k))


def _uniform_coord_rows(sigma: float, k: int, count: int, rng) -> np.ndarray:
    # Lebesgue-uniform in the sigma-ball of the real coordinate space.
    n = 2 * k * k + 4 * k
    dirs = rng.standard_normal((count, n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = sigma * rng.random(count) ** (1.0 / n)
    return dirs * radii[:, None]


def _distortion_ratio(sigma: float, k: int, count: int, rng) -> float:
    v = _uniform_coord_rows(sigma, k, count, rng)
    mats = from_coords(v, k)
    g = _normalize_stack(_expm(mats))
    dev = _frob(g - np.eye(k + 1))
    nx = np.linalg.norm(v, axis=1)
    keep = (nx > 0) & (dev > 0)
    return float(max((nx[keep] / dev[keep]).max(), (dev[keep] / nx[keep]).max()))


def estimate_distortion(radius: float, k: int = 1) -> float:
    """C with ||exp_chart(x) - Id||_F <= C ||x||_F for traceless ||x||_F <= s = radius,
    inf if none: ||x - x00 Id|| <= sqrt(k+1) s, |x00| <= sqrt(k/(k+1)) s and the
    series remainder r = e^s - 1 - s give, increasing in s,
    (sqrt(k+1) + (1 + sqrt(k+1)) r/s) / (1 - sqrt(k/(k+1)) s - r)."""
    s = float(radius)
    r = math.expm1(s) - s
    denom = 1.0 - math.sqrt(k / (k + 1.0)) * s - r
    root = math.sqrt(k + 1.0)
    return (root + (1.0 + root) * r / s) / denom if denom > 0 else math.inf


def check_distortion(sigma: float, c: float, samples: int, seed: int = 0, k: int = 1) -> bool:
    """Validate a distortion constant on a fresh sample set."""
    return _distortion_ratio(sigma, k, samples, make_rng(seed, 22)) < c


def chart_translate_jacobian(x: AlgebraElement, params: ShearParams, step: float) -> float:
    """|det| of the central-difference Jacobian of the chart translation,
    taken in the real coordinates of :func:`sl_basis`."""
    if not 1e-5 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-5, 1e-3]")
    k = x.k
    v0 = to_coords(x.mat)
    n = v0.size
    jac = np.empty((n, n))
    for j in range(n):
        vp = v0.copy()
        vp[j] += step
        vm = v0.copy()
        vm[j] -= step
        fp = to_coords(chart_translate(AlgebraElement(from_coords(vp, k)), params).mat)
        fm = to_coords(chart_translate(AlgebraElement(from_coords(vm, k)), params).mat)
        jac[:, j] = (fp - fm) / (2.0 * step)
    return float(abs(np.linalg.det(jac)))
