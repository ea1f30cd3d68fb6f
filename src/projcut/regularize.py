"""Smoothing of bounded functions on P^k by averaging over automorphisms.

An evaluator is smoothed by drawing S traceless matrices x_j from the unit
mollifier once, freezing the group elements g_j = exp_chart(theta * x_j), and
returning the average of f over the moved points.  The frozen sample (common
random numbers) is the load-bearing choice: the average of an indicator is
count / S, a step function of the point, but its expectation over the draw
is the exact smoothed function, so a central difference of it estimates the
exact difference quotient at its step without bias or resampling noise.

Functions on P^k are represented as vectorised evaluators on stacked
homogeneous rows:

    f(rows: (m, k+1) complex ndarray) -> (m,) float ndarray with values in [0, 1]

Rows are arbitrary nonzero homogeneous representatives; evaluators normalise
internally where needed.

An evaluator may also offer ``ball_tests()``: unit centres c_b, shape
(B, k+1), and levels l_b, shape (B,), with f(z) = 1 exactly when |c_b^H z|^2 >
l_b |z|^2 for some b, and 0 otherwise.  The smoothed function is then
evaluated as a sign test on real matrix products: the test on g_s z is
|c_b^H g_s z|^2 - l_b |g_s z|^2 > 0, a quadratic form in z that is linear
in the (k+1)^2 real features |z_i|^2, Re(conj(z_i) z_j) and
Im(conj(z_i) z_j), i < j.  Its coefficients are built per stored element
from rank-one terms by each call with band rows, a chunk at a time, so
neither the moved points nor their distances are ever formed; nor is the
stack of group elements, as they come from the draws a block at a time,
taken on g = e^(theta x) unnormalised: the test is homogeneous in g.

The draws are one :class:`Sample`, a value that every build at any theta
shares; a build derives from it and theta two closed-form bounds, with
nothing exponentiated: the certificate eps >= ||g - Id||_F of every
stored g (:meth:`Sample.certificate`), and fs = theta max_j ||x_j||_F:
the curve w = e^(t y) z, y = theta x, has Fubini-Study speed
||(I - w w^H) y w|| <= ||y||_F at unit w, so no g moves any point by more
than fs.  A test holds on all of a ball of reach R about c_b, so every
moved point of a row within R - fs of c_b passes it, and none of a row at
R + fs or beyond does.  Each row is first placed against these levels: a
row inside some ball is decided 1, a row outside every ball 0, and only
the band rows left go through the products, for their candidate balls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, StepTooSmall
from .geometry import ChartCoordinates, ProjectivePoint, scaled_rows
from .lie import _exp_blocks, _expm_plan, _normalize_stack, _sample_blocks, block_samples
from .measure import MollifierSpec, ScaledMeasure, sample_matrices

FunctionOnP = Callable[[np.ndarray], np.ndarray]

MAX_S = 10 ** 6  # 50x the default: a larger S is refused before anything is allocated
ROW_BLOCK = 128  # rows per evaluation block; bounds the working set for large m
# Form values per GEMM on the form path: the samples per GEMM are this over
# the rows in the block, one ball's forms at a time.  At k = 1 every product
# then stays below the size at which OpenBLAS starts its threads, whose
# start-up can stall a thin GEMM for milliseconds on a shared host.
FORM_GEMM_OUTPUT = 2 ** 15
# Bytes of forms per chunk of samples: the band rows are counted against one
# chunk at a time, formed into one buffer, so this bounds the forms at any S.
FORM_CHUNK_BYTES = 2 ** 20
# Margins of the row decisions.  DECISION_ANGLE (radians) covers the
# roundoff of the ratio |c^H z|^2 / |z|^2 and of its levels, which is below
# 5e-8 rad even where cos^2 is flattest.  DECISION_VALUE narrows the reach
# on the cos^2 scale, so that every moved point of a decided row clears its
# test by DECISION_VALUE |c|^2 |g z|^2, far above the roundoff of the
# products (about 1e-14 |c|^2 |z|^2 at k = 3).
DECISION_ANGLE = 1e-7
DECISION_VALUE = 1e-9


def _is_integer(value) -> bool:
    """An int or numpy integer, not a boolean: the draw would read True as 1
    and truncate 2.5 to 2."""
    return type(value) is int or isinstance(value, np.integer)


def check_S(S) -> int:
    """Return S if it is an integer (:func:`_is_integer`) in [1, MAX_S],
    else raise :class:`ConfigError`."""
    if not _is_integer(S) or S < 1:
        raise ConfigError("S: must be an integer, at least 1")
    if S > MAX_S:
        raise ConfigError(f"S: must be at most {MAX_S}")
    return S


def check_seed(seed) -> int:
    """Return seed if it is a nonnegative integer (:func:`_is_integer`),
    else raise :class:`ConfigError`."""
    if not _is_integer(seed) or seed < 0:
        raise ConfigError("seed: must be a nonnegative integer")
    return seed


def check_theta(theta) -> float:
    """Return theta as a float if it lies in [0, 1], else raise ValueError (NaN too)."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    return float(theta)


def regularize(f: FunctionOnP, theta: float, S: int, seed, mollifier: MollifierSpec) -> "RegularizedFunction":
    """The averaging evaluator over exp_chart(theta * x_j) of S traceless
    matrices x_j drawn from the unit-scale mollifier, one :class:`Sample`,
    theta checked before the draw; theta = 0 passes f through (the Dirac
    case).  The same seed yields the same x_j for every theta, so evaluators
    at different scales share their randomness."""
    return RegularizedFunction(f, check_theta(theta), Sample.draw(mollifier, S, seed))


@dataclass(frozen=True, eq=False)
class Sample:
    """The frozen draw of a command: ``draws``, the S unit-scale traceless
    matrices x_j, shape (S, d, d), and the theta-free terms ``norm2`` =
    ||x_j||_F^2, ``corner`` = |(x_j)_00| and ``max_norm`` = max_j ||x_j||_F,
    each read-only and formed once, here, so that the builds of a command at
    several theta (each a :class:`RegularizedFunction` on this sample)
    share the draw and pass over it once.  A pickle carries the draws alone;
    loading it derives the rest afresh."""

    draws: np.ndarray
    norm2: np.ndarray = field(init=False, repr=False)
    corner: np.ndarray = field(init=False, repr=False)
    max_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        draws = self.draws.view()  # read-only, whatever the caller's array allows
        S, d = draws.shape[:2]
        real = draws.reshape(S, d * d).view(np.float64)
        for name, v in (("draws", draws), ("norm2", np.einsum("ij,ij->i", real, real)),
                        ("corner", np.abs(draws[:, 0, 0]))):
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        object.__setattr__(self, "max_norm", math.sqrt(self.norm2.max()))

    def __reduce__(self):
        return Sample, (self.draws,)

    @classmethod
    def draw(cls, mollifier: MollifierSpec, S, seed) -> "Sample":
        """The S draws of seed from the unit-scale mollifier, S and seed checked first."""
        return cls(sample_matrices(ScaledMeasure(mollifier, 1.0), check_S(S), check_seed(seed)))

    def certificate(self, theta: float) -> float:
        """eps, an upper bound on ||exp_chart(theta x) - Id||_F for every
        draw x, in closed form.  Nothing is exponentiated.

        With y = theta x, s = ||y||_F, a = ||y - y_00 Id||_F and the series
        remainder R = e^y - Id - y, ||R||_F <= rho = e^s - 1 - s.  Then
        e^y - (e^y)_00 Id = (y - y_00 Id) + (R - R_00 Id) has norm at most
        a + e, e = (1 + sqrt(d)) rho, and |(e^y)_00| >= 1 - q, q = |y_00| +
        rho, so ||exp_chart(y) - Id||_F <= (a + e) / (1 - q) while q < 1: the
        algebra of :func:`estimate_distortion`, per draw, and equal to s C(s),
        C that function's constant, at its worst case.  eps is the largest of
        these bounds times 1 + 1e-12, far above their roundoff, and inf when
        some q >= 1, where nothing is bounded.  ||x - x_00 Id||^2 =
        ||x||^2 + d |x_00|^2 - 2 Re(conj(x_00) tr x) is taken without its last
        term: the draws are traceless, so that term is roundoff, below 1e-15
        of the rest.  Four S-vectors are formed, each once, worked in place.
        At theta = 0 every term is 0, and so is eps.  theta outside [0, 1],
        NaN included, raises ValueError (:func:`check_theta`)."""
        theta = check_theta(theta)
        norm2, corner, d = self.norm2, self.corner, self.draws.shape[1]
        a = corner * corner  # ||x - x_00 Id||^2 = ||x||^2 + d |x_00|^2, then a
        a *= d
        a += norm2
        np.sqrt(a, out=a)
        a *= theta
        s = np.sqrt(norm2)
        s *= theta
        rho = np.expm1(s)
        rho -= s
        q = corner * theta  # q = theta |x_00| + rho
        q += rho
        if not q.max() < 1.0:
            return math.inf
        rho *= 1.0 + math.sqrt(d)  # e
        a += rho
        np.subtract(1.0, q, out=q)
        a /= q
        return float(a.max()) * (1.0 + 1e-12)


def _stored_images(matrices: np.ndarray, Z: np.ndarray):
    """The rows Z (m, d) moved by the stored matrices (S, d, d), one block of
    :func:`block_samples` matrices at a time: yields arrays (block, m, d) of g z."""
    n = block_samples(matrices.shape[-1])
    for lo in range(0, matrices.shape[0], n):
        yield np.einsum("sij,mj->smi", matrices[lo:lo + n], Z)


def _form_coefficients(matrices, centres, levels):
    """Coefficients (B, d*d, S) of |c_b^H g z|^2 - l_b |g z|^2 against
    :func:`_features` of z, for the stored g and the ball tests (c_b, l_b):
    P(c_b^H g) - l_b sum_r P(g_r), g_r the rows of g, by :func:`_forms`."""
    return _forms(_sample_blocks(matrices), matrices.shape[0], centres, levels)


def _forms(blocks, S, centres, levels, out=None):
    """:func:`_form_coefficients` from the (rows, g) blocks of the S
    elements, laid out (d, d, n), a ball at a time, into ``out`` if given.
    Each ball's forms are one (d*d, S) slab, feature-major, so that a block
    writes d*d runs of n contiguous values.  Per block the row sum sum_r
    P(g_r) is taken once, in row order, and l_b times it once per run of
    equal levels; each entry of c_b^H g is d products with scalars, and a
    ball's rows are formed in reused buffers, then copied into its slab."""
    levels = np.asarray(levels, dtype=np.float64)
    d = centres.shape[1]
    i, j = _pairs(d)
    p = i.size
    forms = np.empty((levels.size, d * d, S)) if out is None else out
    weights = np.conj(centres)
    u, t = np.empty((2, d, min(block_samples(d), S)), dtype=np.complex128)
    row_sum, terms, level_terms = np.empty((3, d * d, u.shape[-1]))
    for rows, g in blocks:
        uu, tt, rs, out, lt = (a[..., :g.shape[-1]] for a in (u, t, row_sum, terms, level_terms))
        sq = np.square(g.real) + np.square(g.imag)
        cross = 2.0 * g[0][i] * np.conj(g[0][j])
        rs[:d] = sq[0]
        for r in range(1, d):
            rs[:d] += sq[r]
            cross += 2.0 * g[r][i] * np.conj(g[r][j])
        rs[d:d + p], rs[d + p:] = cross.real, cross.imag
        del sq, cross  # freed before the next block is exponentiated
        for b, w in enumerate(weights):
            if b == 0 or levels[b] != levels[b - 1]:  # balls of one radius share it
                np.multiply(levels[b], rs, out=lt)
            np.multiply(g[0], w[0], out=uu)
            for r in range(1, d):
                uu += np.multiply(g[r], w[r], out=tt)
            np.square(uu.real, out=out[:d])
            out[:d] += np.square(uu.imag)
            lo = d  # the pairs (a, a+1..d-1) in triu_indices order
            for a in range(d - 1):
                # uu[a:a + 1], not uu[a]: numpy 2.4 rounds a product broadcast from (n,) otherwise
                c = 2.0 * uu[a:a + 1] * np.conj(uu[a + 1:])
                out[lo:lo + c.shape[0]], out[lo + p:lo + p + c.shape[0]] = c.real, c.imag
                lo += c.shape[0]
            forms[b, :, rows] = np.subtract(out, lt, out=out)
    return forms


def _chunk_samples(balls: int, d: int) -> int:
    """Samples per chunk: the whole blocks whose forms fit FORM_CHUNK_BYTES, one at least."""
    n = block_samples(d)
    return max(1, FORM_CHUNK_BYTES // (8 * balls * d * d * n)) * n


def displacement_bound(eps: float) -> float:
    """The Fubini-Study distance by which no g with ||g - Id||_F <= eps moves any
    point, as sin fs_distance(z, g z) <= ||(g - Id) z|| / ||g z|| <= eps / (1 - eps)
    for unit z; from eps = 1/2 on that bounds nothing, and it is pi/2, the diameter.
    Verify reports it; the row decisions take :attr:`RegularizedFunction.fs`."""
    return math.asin(eps / (1.0 - eps)) if eps < 0.5 else 0.5 * math.pi


def _decision_levels(levels, fs):
    """Levels (inner, outer), shape (B,), on the ratio |c_b^H z|^2 / |z|^2
    of a row z, for unit centres c_b, when no stored g moves any point by
    more than fs: above inner_b every moved point g z passes test b, and at
    or below outer_b none does.  Nothing is decided when fs >= pi/2, the
    diameter.

    A moved point clears test b by the value margin when
    cos^2 dist(g z, c_b) >= l_b + DECISION_VALUE, and fails it by that
    margin when cos^2 dist(g z, c_b) <= l_b - DECISION_VALUE.  Those are
    the balls of reach R = acos(sqrt(l_b +- DECISION_VALUE)) about c_b,
    and a level at or below 0 holds everywhere.  Since g moves z by at most
    fs, the row decides the test when it lies within R - fs - DECISION_ANGLE,
    or at R + fs + DECISION_ANGLE or beyond."""
    inner, outer = np.full(levels.size, np.inf), np.full(levels.size, -1.0)
    if fs >= 0.5 * math.pi:
        return inner, outer
    shift = fs + DECISION_ANGLE
    passes, fails = levels + DECISION_VALUE, levels - DECISION_VALUE
    reach = np.arccos(np.sqrt(np.clip(passes, 0.0, 1.0))) - shift
    ok = (passes < 1.0) & (reach > 0.0)
    inner[ok] = np.cos(reach[ok]) ** 2
    inner[passes <= 0.0] = -1.0
    reach = np.arccos(np.sqrt(np.clip(fails, 0.0, 1.0))) + shift
    ok = (fails > 0.0) & (fails < 1.0) & (reach < 0.5 * math.pi)
    outer[ok] = np.cos(reach[ok]) ** 2
    return inner, outer


@lru_cache(maxsize=None)
def _pairs(d: int):
    """np.triu_indices(d, 1), kept read-only."""
    pairs = np.triu_indices(d, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def _features(Z: np.ndarray) -> np.ndarray:
    """Real features (m, d*d) of rows, one feature row each: |z_i|^2, then Re
    and Im of conj(z_i) z_j for i < j."""
    i, j = _pairs(Z.shape[1])
    cross = np.conj(Z[:, i]) * Z[:, j]
    return np.concatenate([Z.real ** 2 + Z.imag ** 2, cross.real, cross.imag], axis=1)


def _chunk_hits(slab, tasks, totals):
    """Add each (features, balls) task's counts over the forms (B, d*d, width)
    of one chunk to its totals, by GEMMs of at most FORM_GEMM_OUTPUT values
    on steps of samples into contiguous buffers, allocated here, after the
    forms: held across the form pass, they would raise its peak.  A chunk is
    at most 32768 samples, in steps of at least FORM_GEMM_OUTPUT // ROW_BLOCK
    = 256: no uint8 count wraps, and a row's sum fits uint16."""
    width = slab.shape[2]
    size = max(f.shape[0] * min(FORM_GEMM_OUTPUT // f.shape[0], width) for f, _ in tasks)
    product, hit, counter = np.empty(size), np.empty(size, dtype=bool), np.empty(size, dtype=np.uint8)
    for (features, balls), total in zip(tasks, totals):
        m = features.shape[0]
        step = min(FORM_GEMM_OUTPUT // m, width)
        count = counter[:m * step].reshape(m, step)
        count.fill(0)
        p, h, c = product[:m * step].reshape(m, step), hit[:m * step].reshape(m, step), count
        for a in range(0, width, step):
            if width - a < step:  # the last step is short: a contiguous product of its width
                w = width - a
                p, h, c = product[:m * w].reshape(m, w), hit[:m * w].reshape(m, w), count[:, :w]
            np.matmul(features, slab[balls[0], :, a:a + step], out=p)
            np.greater(p, 0.0, out=h)
            for b in balls[1:]:
                h |= np.matmul(features, slab[b, :, a:a + step], out=p) > 0.0
            np.add(c, h.view(np.uint8), out=c)  # uint8 + uint8: no cast per step
        total += count.sum(axis=1, dtype=np.uint16)


@dataclass(frozen=True, eq=False)
class RegularizedFunction:
    """Frozen-sample smoothing of the evaluator ``source`` at the scale
    ``theta`` in [0, 1] over the draws of ``sample``, and nothing else: the
    rest is derived from the draws and theta, so no bound can miss them.

    ``draws`` holds the S unit-scale draws x_j, shape (S, k+1, k+1),
    read-only.  ``eps`` >= ||g - Id||_F for every stored g is the
    certificate (:meth:`Sample.certificate`: 0 at theta = 0, inf when it
    bounds nothing) and ``plan`` the exponential's squarings and degree for
    theta max_j ||x_j||_F.  ``fs`` >= d_FS(z, g z) for every z and stored g
    is theta max_j ||x_j||_F times 1 + 1e-12, finite where eps is inf.
    ``matrices`` holds the group elements g_j = exp_chart(theta * x_j),
    formed by the blocks of :func:`_exp_blocks` with that plan when first
    read, normalised and kept; the form path never reads it.  At theta = 0
    the source is called on the rows themselves.  When it offers ball
    tests, fs decides the rows and balls that skip the products, and each
    call with band rows forms the tests' real coefficients on e^(theta x_j)
    z, one chunk of FORM_CHUNK_BYTES at a time (:meth:`_form_hits`), keeping
    none; otherwise the source is called on the moved points.  The same
    (seed, S, theta, point) gives the same value bit for bit.
    """

    source: FunctionOnP
    theta: float
    sample: Sample

    def __post_init__(self):
        object.__setattr__(self, "theta", check_theta(self.theta))

    @property
    def draws(self) -> np.ndarray:
        return self.sample.draws

    @property
    def S(self) -> int:
        return self.draws.shape[0]

    @cached_property
    def eps(self) -> float:
        return self.sample.certificate(self.theta)

    @cached_property
    def plan(self) -> tuple:
        return _expm_plan(self.theta * self.sample.max_norm)  # the bits of max ||theta x||_F

    @cached_property
    def fs(self) -> float:
        return self.theta * self.sample.max_norm * (1.0 + 1e-12)

    @cached_property
    def matrices(self) -> np.ndarray:
        mats = np.empty_like(self.draws)
        for rows, e in _exp_blocks(self.draws, self.theta, self.plan):
            mats[rows] = _normalize_stack(e.transpose(2, 0, 1))
        mats.setflags(write=False)
        return mats

    @cached_property
    def _decisions(self) -> Optional[tuple]:
        """(conj(centres).T, inner, outer) of the source's ball tests at fs, see
        :func:`_decision_levels`; None without ball tests."""
        if not hasattr(self.source, "ball_tests"):
            return None
        centres, levels = self.source.ball_tests()
        return (np.conj(centres).T, *_decision_levels(levels, self.fs))

    def eval_homog(self, rows) -> np.ndarray:
        """Average of f over the moved points, for stacked homogeneous rows.

        Rows must be finite and nonzero; each is first divided by a power
        of two (:func:`scaled_rows`), so that rows of any scale give the
        value of their ordinary multiples.  The work is done in blocks of
        ROW_BLOCK rows by a bounded number of stored elements, so memory
        stays bounded for any number of rows, up to a few values per row
        and ball on the form path.

        On the form path every row is first placed by the bound ``fs`` (see
        :func:`_decision_levels`).  A row inside some ball counts every
        stored element, a row with no candidate ball counts none, and the
        products run on the band rows, for their candidate balls only, each
        call forming the coefficients afresh, a chunk at a time
        (:meth:`_form_hits`): batch the rows, as a call per point pays a
        form pass each.  A decided count equals the products' count bit for
        bit: each moved point of a decided row clears its test by a margin
        far above the products' roundoff."""
        Z = np.asarray(rows, dtype=np.complex128)
        if Z.ndim != 2 or Z.shape[1] != self.draws.shape[1]:
            raise ValueError("expected stacked homogeneous rows of shape (m, k+1)")
        Z = scaled_rows(Z)
        if self.theta == 0.0:
            return np.asarray(self.source(Z), dtype=np.float64)
        if self._decisions is None:
            total = np.zeros(Z.shape[0])
            for r in range(0, Z.shape[0], ROW_BLOCK):
                total[r:r + ROW_BLOCK] = self._source_sum(Z[r:r + ROW_BLOCK])
            return total / self.S
        total, groups = self._decide(Z)
        row_blocks = [(balls, band[r:r + ROW_BLOCK]) for balls, band in groups
                      for r in range(0, band.size, ROW_BLOCK)]
        if row_blocks:
            hits = self._form_hits([(_features(Z[rows]), balls) for balls, rows in row_blocks])
            for (_, rows), h in zip(row_blocks, hits):
                total[rows] = h
        return total / self.S

    def _source_sum(self, Z: np.ndarray) -> np.ndarray:
        """Sum of f over the stored elements, a sample block at a time, per row."""
        total = np.zeros(Z.shape[0])
        for images in _stored_images(self.matrices, Z):
            vals = np.asarray(self.source(images.reshape(-1, Z.shape[1])), dtype=np.float64)
            total += vals.reshape(images.shape[0], Z.shape[0]).sum(axis=0)
        return total

    def _decide(self, Z: np.ndarray):
        """The counts of the decided rows, S inside a ball and 0 elsewhere,
        and the band rows grouped by their candidate balls, as a list of
        (balls, rows) index arrays, in the order of the patterns read as
        bits, first ball first."""
        conj_centres, inner, outer = self._decisions
        ratio = np.abs(Z @ conj_centres) ** 2 / (Z.real ** 2 + Z.imag ** 2).sum(axis=1)[:, None]
        inside = np.any(ratio > inner, axis=1)
        candidates = (ratio > outer) & ~inside[:, None]
        band = np.flatnonzero(np.any(candidates, axis=1))
        total = np.where(inside, float(self.S), 0.0)
        if band.size == 0:
            return total, []
        # one fixed-width bytes key per band row, its candidate pattern packed
        # eight balls to a byte: equal keys are equal patterns
        packed = np.packbits(candidates[band], axis=1)
        keys = packed.view(f"S{packed.shape[1]}").reshape(-1)
        _, first, group = np.unique(keys, return_index=True, return_inverse=True)
        return total, [(np.flatnonzero(candidates[band[f]]), band[group == i])
                       for i, f in enumerate(first)]

    def _form_hits(self, tasks) -> list:
        """Counts (int64) of stored elements with a positive form among a
        task's balls, per row of its features (m, d*d), m <= ROW_BLOCK, for
        the (features, balls) tasks, one :func:`_chunk_samples` chunk of
        forms at a time, formed into one buffer (:func:`_chunk_hits`)."""
        centres, levels = self.source.ball_tests()
        d = self.draws.shape[1]
        chunk = min(_chunk_samples(levels.size, d), self.S)
        forms = np.empty((levels.size, d * d, chunk + 8))  # + a cache line: rows 2^j B apart share sets
        totals = [np.zeros(f.shape[0], dtype=np.int64) for f, _ in tasks]
        for lo in range(0, self.S, chunk):
            width = min(chunk, self.S - lo)
            _chunk_hits(_forms(_exp_blocks(self.draws[lo:lo + width], self.theta, self.plan), width,
                               centres, levels, out=forms[:, :, :width]), tasks, totals)
        return totals

    def __call__(self, p: ProjectivePoint) -> float:
        return float(self.eval_homog(p.homog[None, :])[0])


def _offsets(q: int, order: int) -> np.ndarray:
    """Stencil rows in units of the step along q real directions e_a: for
    order 1 +e_a, -e_a per direction; for order 2 the base, those pairs,
    then +(e_a+e_b), +(e_a-e_b), -(e_a-e_b), -(e_a+e_b) for each pair
    a < b in triu_indices order."""
    eye = np.eye(q)
    rows = np.stack([eye, -eye], axis=1).reshape(2 * q, q)
    if order == 1:
        return rows
    a, b = _pairs(q)
    plus, minus = eye[a] + eye[b], eye[a] - eye[b]
    pairs = np.stack([plus, minus, -minus, -plus], axis=1).reshape(-1, q)
    return np.concatenate([np.zeros((1, q)), rows, pairs])


def _stencil_rows(grid, order: int, step: float) -> np.ndarray:
    """The stencils of all grid points, shape (points, rows, k+1): each
    point's base moved by step times the :func:`_offsets` rows along its
    2k real chart directions, the units e_j and then i e_j for the slots j
    off its chart.  The offsets are 0, +-1 and +-i, so the rows are exact."""
    base = np.stack([c.coords for c in grid])
    d = base.shape[1]
    charts = np.array([c.chart_index for c in grid])[:, None]
    slots = np.arange(d - 1) + (np.arange(d - 1) >= charts)
    real = np.eye(d)[slots]
    units = np.concatenate([real, 1j * real], axis=1)
    return base[:, None, :] + step * (_offsets(2 * (d - 1), order) @ units)


def _derivatives(vals: np.ndarray, order: int, step: float) -> np.ndarray:
    """Reduce the values (points, rows) on :func:`_stencil_rows` to one
    derivative proxy per point: the gradient norm for order 1, the largest
    absolute Hessian entry for order 2."""
    if order == 1:
        diffs = vals[:, 0::2] - vals[:, 1::2]
        _noise_guard(diffs, vals)
        return np.array([np.linalg.norm(g) for g in diffs / (2.0 * step)])
    q = math.isqrt(vals.shape[1] // 2)  # the order-2 stencil has 1 + 2q^2 rows
    diag = (vals[:, 1:2 * q + 1:2] - 2.0 * vals[:, :1]) + vals[:, 2:2 * q + 2:2]
    pairs = vals[:, 2 * q + 1:]
    cross = ((pairs[:, 0::4] - pairs[:, 1::4]) - pairs[:, 2::4]) + pairs[:, 3::4]
    _noise_guard(np.concatenate([diag, cross], axis=1), vals)
    return np.maximum(np.abs(diag / step ** 2).max(axis=1),
                      np.abs(cross / (4.0 * step ** 2)).max(axis=1))


def _noise_guard(numerators, values):
    """Raise when some point has a nonzero numerator yet all of its
    numerators lie below 8 units of roundoff of its largest value."""
    floor = 8.0 * np.finfo(np.float64).eps * np.abs(values).max(axis=1)
    below = np.abs(numerators).max(axis=1) < floor
    if np.any(below & np.any(numerators != 0.0, axis=1)):
        raise StepTooSmall("finite differences sit below the roundoff floor of the values")


def _check_stencil(order: int, step: float):
    if not _is_integer(order) or order not in (1, 2):  # True would run order 1
        raise ValueError("order must be 1 or 2")
    if not 1e-5 <= step <= 1e-2:
        raise ValueError("step must lie in [1e-5, 1e-2]")


def finite_diff(rf: RegularizedFunction, c: ChartCoordinates, order: int, step: float) -> float:
    """Central-difference derivative proxy in the 2k real chart directions.

    Order 1 returns the Euclidean norm of the gradient; order 2 the largest
    absolute Hessian entry.  Every stencil point is evaluated with the same
    stored sample matrices.  The average is then a step function of the
    point, but unbiased for the exact smoothed function, and so is each
    difference quotient for the exact one at the step.  Differences that
    are nonzero yet smaller than 8 units of roundoff raise
    :class:`StepTooSmall`; exactly-zero differences (plateaus) are genuine
    zero derivatives.  This is :func:`c_alpha_estimate` on the one-point grid.
    """
    return c_alpha_estimate(rf, [c], order, step)


def c_alpha_estimate(rf: RegularizedFunction, grid, alpha: int, step: float) -> float:
    """Empirical C^alpha seminorm proxy: max of finite_diff over the grid.

    The stencils of all grid points are evaluated in one call; the roundoff
    guard of :func:`finite_diff` applies to each point on its own."""
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    _check_stencil(alpha, step)
    rows = _stencil_rows(grid, alpha, step)
    vals = rf.eval_homog(rows.reshape(-1, rows.shape[-1])).reshape(rows.shape[:2])
    return float(_derivatives(vals, alpha, step).max())


def scaling_slope(rows):
    """Least-squares slope of log(seminorm) against log(delta), with its
    standard error, by np.polyfit.  Needs at least 3 finite, strictly positive rows, not
    all at one delta."""
    rows = list(rows)
    if len(rows) < 3:
        raise ValueError("need at least 3 rows")
    deltas = np.array([r[0] for r in rows], dtype=np.float64)
    semis = np.array([r[1] for r in rows], dtype=np.float64)
    if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(semis))):
        raise ValueError("rows must be finite")
    if np.any(deltas <= 0.0) or np.any(semis <= 0.0):
        raise ValueError("rows must be strictly positive")
    if np.all(deltas == deltas[0]):
        raise ValueError("deltas must vary")
    (slope, _), cov = np.polyfit(np.log(deltas), np.log(semis), 1, cov=True)
    return float(slope), math.sqrt(cov[0, 0])


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
