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

_UNIT_ROUNDOFF = 2.0 ** -53
# Matrix entries per block of the structure-of-arrays kernels
# (:func:`_sample_blocks`), 128 KiB of complex128: large enough that each
# entry vector amortises numpy's per-call cost, small enough that a block's
# products and powers stay in cache and every pass over S samples holds one
# block's temporaries, whatever d.
BLOCK_ENTRIES = 2 ** 13
# Multiply-adds per real product in from_coords.  Below 2^18 OpenBLAS runs a
# GEMM on one thread; starting its threads for these thin products costs more
# time than it saves and keeps their buffers resident.
_GEMM_SIZE = 2 ** 18 - 1


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
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not np.all(np.abs(h) < self.epsilon):
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


def block_samples(d: int) -> int:
    """Samples per block of d x d matrices, BLOCK_ENTRIES // d^2: 2048 at
    d = 2, 910 at d = 3, 512 at d = 4."""
    return BLOCK_ENTRIES // (d * d)


def _sample_blocks(stack):
    """Yield (rows, block) for a stack (S, d, d): the slice of
    :func:`block_samples` samples and a copy of their matrices laid out
    (d, d, n), so that every matrix entry is one contiguous length-n vector."""
    n = block_samples(stack.shape[-1])
    for lo in range(0, stack.shape[0], n):
        rows = slice(lo, lo + n)
        yield rows, stack[rows].transpose(1, 2, 0).copy()


def _block_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of two blocks laid out (d, d, n), sample by sample:
    d broadcast multiply-adds over the contracted index."""
    out = a[:, 0, None] * b[0]
    for j in range(1, a.shape[1]):
        out += a[:, j, None] * b[j]
    return out


def _expm(stack) -> np.ndarray:
    """Matrix exponential of a stack of square matrices: :func:`_expm_block`
    on its :func:`_sample_blocks` with the :func:`_expm_plan` of the
    stack's largest ||A||_F."""
    a = np.ascontiguousarray(stack, dtype=np.complex128)
    d = a.shape[-1]
    flat = a.reshape(-1, d, d)
    real = flat.reshape(flat.shape[0], d * d).view(np.float64)
    worst = math.sqrt(float(np.einsum("ij,ij->i", real, real).max())) if a.size else 0.0
    plan = _expm_plan(worst)
    out = np.empty_like(flat)
    for rows, block in _sample_blocks(flat):
        out[rows] = _expm_block(block, *plan).transpose(2, 0, 1)
    if d == 2 and np.any(tau := 0.5 * np.trace(flat, axis1=1, axis2=2)):
        out *= np.exp(tau)[:, None, None]  # _expm_block took the traceless part
    return out.reshape(a.shape)


def _expm_plan(worst: float):
    """(squarings q, degree m) for the matrices of ||A||_F <= worst: q is
    the least with worst / 2^q <= 0.25 and m >= 1 the least whose remainder
    t^(m+1)/(m+1)! e^t at t = worst / 2^q is below the unit roundoff 2^-53
    (m <= 12)."""
    squarings = 0
    while worst / (2.0 ** squarings) > 0.25:
        squarings += 1
    return squarings, max(1, _taylor_degree(worst / (2.0 ** squarings)))


def _expm_block(block: np.ndarray, squarings: int, degree: int) -> np.ndarray:
    """Exponential of a block laid out (d, d, n), which it scales in place;
    at d = 2 that of its traceless part (:func:`_expm2`)."""
    if squarings:
        block *= 2.0 ** -squarings
    e = (_expm2 if block.shape[0] == 2 else _taylor_ps)(block, degree)
    for _ in range(squarings):
        e = _block_product(e, e)
    return e


def _exp_blocks(draws, theta: float, plan):
    """exp(theta x) of the draws x (S, d, d) by ``plan``, unnormalised, as
    the (rows, block) pairs of :func:`_sample_blocks` of ``_expm(theta *
    draws)``, bit for bit with the plan of the whole stack; each block is
    scaled from a view of the draws into one reused buffer."""
    n = block_samples(draws.shape[-1])
    buf = np.empty(draws.shape[1:] + (min(n, draws.shape[0]),), dtype=np.complex128)
    for lo in range(0, draws.shape[0], n):
        x = draws[lo:lo + n].transpose(1, 2, 0)
        block = np.multiply(theta, x, out=buf[..., :x.shape[-1]])
        yield slice(lo, lo + n), _expm_block(block, *plan)


def _taylor_ps(a: np.ndarray, degree: int) -> np.ndarray:
    """Degree-``degree`` exponential series of a block laid out (d, d, n) by
    Paterson-Stockmeyer: with s = ceil(sqrt(degree)) and the powers A^2..A^s,
    the series is Horner's rule in A^s over the chunks sum_j A^j/(is+j)!,
    j < s.  That takes s - 1 + floor(degree/s) block products, one fewer
    when s divides the degree (3 at degree 6, where Horner in A takes 5)."""
    s = math.isqrt(degree - 1) + 1
    powers = [None, a]
    for _ in range(s - 1):
        powers.append(_block_product(powers[-1], a))
    coef = [1.0 / math.factorial(j) for j in range(degree + 1)]
    diag = np.arange(a.shape[0])

    def chunk(i, acc):
        # acc plus the chunk of A^(is): A^j/(is+j)! for j < s, is+j <= degree
        for j in range(1, min(s, degree - i * s + 1)):
            acc += coef[i * s + j] * powers[j]
        acc[diag, diag] += coef[i * s]
        return acc

    top = degree // s
    if degree % s:
        acc = chunk(top, np.zeros_like(a))
    else:  # the top chunk is Id/degree!, so its product with A^s is free
        top -= 1
        acc = chunk(top, coef[degree] * powers[s])
    for i in range(top - 1, -1, -1):
        acc = chunk(i, _block_product(acc, powers[s]))
    return acc


def _taylor_degree(t: float) -> int:
    """Smallest m with t^(m+1)/(m+1)! e^t <= 2^-53, which bounds the
    truncation error of the degree-m exponential series at ||A||_F <= t."""
    m, tail = 0, t * math.exp(t)
    while tail > _UNIT_ROUNDOFF:
        m += 1
        tail *= t / (m + 1)
    return m


def _expm2(a: np.ndarray, degree: int) -> np.ndarray:
    """Exponential of the traceless part B = A - tau Id, tau = tr(A)/2, of
    a block of 2x2 matrices laid out (2, 2, n), by Cayley-Hamilton, written
    over the block; e^A is e^tau times it.

    B^2 = nu Id for nu = -det B, so e^B = c(nu) Id + s(nu) B with
    c(nu) = sum nu^j/(2j)! and s(nu) = sum nu^j/(2j+1)!, which are cosh(mu)
    and sinh(mu)/mu for mu^2 = nu.  Both sums run to the power of nu that
    keeps every term of the degree-``degree`` exponential series, nu at least.
    """
    (a00, a01), (a10, a11) = a
    half_gap = 0.5 * (a00 - a11)  # B = [[half_gap, a01], [a10, -half_gap]]
    nu = a01 * a10 + half_gap * half_gap
    top = max(1, degree // 2)  # Horner's rule, from the top terms times nu
    c = nu * (1.0 / math.factorial(2 * top))
    s = nu * (1.0 / math.factorial(2 * top + 1))
    for j in range(top - 1, -1, -1):
        c += 1.0 / math.factorial(2 * j)
        s += 1.0 / math.factorial(2 * j + 1)
        if j:
            c *= nu
            s *= nu
    np.multiply(s, half_gap, out=half_gap)
    np.add(c, half_gap, out=a00)
    np.subtract(c, half_gap, out=a11)
    np.multiply(s, a01, out=a01)
    np.multiply(s, a10, out=a10)
    return a


def exp_sl(x) -> np.ndarray:
    """Matrix exponential; traceless input yields determinant 1."""
    m = x.mat if isinstance(x, AlgebraElement) else np.asarray(x, dtype=np.complex128)
    return _expm(m)


def _logm(stack) -> np.ndarray:
    """Principal logarithm of a stack by the Gregory series log M =
    2 sum_j X^(2j+1)/(2j+1), X = (M + Id)^-1 (M - Id), by Horner's rule in X^2
    to the smallest J whose remainder bound 2 t^(2J+3)/((2J+3)(1 - t^2)) at
    t = max ||X||_F is below 2^-53.  A stack with t >= 1/2 (or NaN) raises
    OutOfChart, so J <= 23; on the log chart's ball t stays near 0.3."""
    m = np.asarray(stack, dtype=np.complex128)
    eye = np.eye(m.shape[-1])
    x = np.linalg.solve(m + eye, m - eye)
    t = float(_frob(x).max()) if x.size else 0.0
    if not t < 0.5:
        raise OutOfChart("matrix is too far from the identity for the log series")
    top, tail = 0, t ** 3 / (3.0 * (1.0 - t * t))
    while tail > 0.5 * _UNIT_ROUNDOFF:
        top += 1
        tail *= t * t * (2 * top + 1) / (2 * top + 3)
    y = x @ x
    out = eye / (2 * top + 1)
    for j in range(top - 1, -1, -1):
        out = y @ out + eye / (2 * j + 1)
    return 2.0 * (x @ out)


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


def _log_chart_stack(m) -> np.ndarray:
    """:func:`log_chart` of a stack (..., d, d) of normalised matrices."""
    d = m.shape[-1]
    eye = np.eye(d)
    if not np.all(_frob(m - eye) < 0.5):
        raise OutOfChart("matrix is too far from the identity for the log chart")
    root = np.exp(-np.log(np.linalg.det(m)) / d)  # principal branch, near 1
    logm = _logm(root[..., None, None] * m)
    return logm - (np.trace(logm, axis1=-2, axis2=-1) / d)[..., None, None] * eye


def log_chart(A: NormalizedMatrix) -> AlgebraElement:
    """Inverse of :func:`exp_chart` on the ball ||A - Id|| < 0.5.

    The representative is rescaled by the principal (k+1)-th root of
    1/det(A) to determinant 1, the principal logarithm is taken, and the
    trace residue is projected out.
    """
    return AlgebraElement(_log_chart_stack(A.mat))


def shear_translate(A: NormalizedMatrix, params: ShearParams) -> NormalizedMatrix:
    """Right-translate a normalised representative by a shear, renormalise.

    Before normalisation the product A*G_h keeps every column of A except
    the first, which becomes A[:,0] + A[:,1:] @ h.
    """
    return phi_normalize(A.mat @ shear(params).mat)


def _translate_stack(x, shears) -> np.ndarray:
    """:func:`chart_translate` of a stack (..., d, d) of traceless matrices
    by offsets (..., d - 1), which broadcast against it: the product with
    G_h adds A[:, 1:] @ h to the first column of A (:func:`shear_translate`)."""
    a = _normalize_stack(_expm(x))
    a[..., :, 0] += (a[..., :, 1:] @ shears[..., None])[..., 0]
    return _log_chart_stack(_normalize_stack(a))


def chart_translate(x: AlgebraElement, params: ShearParams) -> AlgebraElement:
    """The shear translation read through the exponential chart."""
    return AlgebraElement(_translate_stack(x.mat, params.h))


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


def _coord_chunk(k: int) -> int:
    """Rows per real product in :func:`from_coords`: at most _GEMM_SIZE
    multiply-adds, 5461 rows at k = 1 and 273 at k = 3."""
    return max(1, _GEMM_SIZE // (sl_basis(k).shape[0] * 2 * (k + 1) ** 2))


def from_coords(v, k: int, out=None) -> np.ndarray:
    """Traceless matrices with the given real coordinates in :func:`sl_basis`,
    for rows v of shape (..., 2k^2 + 4k): real matrix products of the rows
    with the basis read as real and imaginary parts, :func:`_coord_chunk`
    rows at a time.  They are written into ``out``, a C-contiguous complex
    array (..., k+1, k+1), when one is given."""
    v = np.asarray(v, dtype=np.float64)
    basis = sl_basis(k)
    d = k + 1
    real = basis.view(np.float64).reshape(basis.shape[0], 2 * d * d)
    rows = v.reshape(-1, basis.shape[0])
    if out is None:
        out = np.empty(v.shape[:-1] + (d, d), dtype=np.complex128)
    elif not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    flat = out.reshape(rows.shape[0], d * d).view(np.float64)
    step = _coord_chunk(k)
    for lo in range(0, rows.shape[0], step):
        np.matmul(rows[lo:lo + step], real, out=flat[lo:lo + step])
    return out


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
    if not 0.0 < s < math.inf:
        raise ValueError("radius must be finite and positive")
    r = math.expm1(s) - s
    denom = 1.0 - math.sqrt(k / (k + 1.0)) * s - r
    root = math.sqrt(k + 1.0)
    return (root + (1.0 + root) * r / s) / denom if denom > 0 else math.inf


def check_distortion(sigma: float, c: float, samples: int, seed: int = 0, k: int = 1) -> bool:
    """Validate a distortion constant on a fresh sample set from the ball of
    radius sigma, which must be finite and positive."""
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be finite and positive")
    return _distortion_ratio(sigma, k, samples, make_rng(seed, 22)) < c


def chart_translate_jacobian(x: AlgebraElement, params: ShearParams, step: float) -> float:
    """|det| of the central-difference Jacobian of the chart translation,
    taken in the real coordinates of :func:`sl_basis`."""
    if not 1e-5 <= step <= 1e-3:
        raise ValueError("step must lie in [1e-5, 1e-3]")
    v0 = to_coords(x.mat)
    n = v0.size
    moves = step * np.eye(n)
    f = to_coords(_translate_stack(from_coords(np.concatenate([v0 + moves, v0 - moves]), x.k),
                                   params.h))
    jac = (f[:n] - f[n:]).T / (2.0 * step)
    return float(abs(np.linalg.det(jac)))
