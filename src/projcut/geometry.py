"""Points, charts, and distances on complex projective space.

A point of P^k is a line through the origin of C^(k+1).  We store the
canonical homogeneous representative (unit Euclidean norm, first significant
component rotated onto the positive real axis), so equality behaves like
that of values, within EQ_TOL per coordinate.  Distances are geodesic
distances of the Fubini-Study metric, normalised so the diameter of the
space is pi/2.

Batch helpers operate on stacked homogeneous rows, shape (m, k+1); rows need
not be normalised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ChartUndefined
from .rng import make_rng

EQ_TOL = 1e-12


def _canonical(homog) -> np.ndarray:
    v = np.asarray(homog, dtype=np.complex128).reshape(-1)
    if v.size < 2:
        raise ValueError("need at least two homogeneous components")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("homogeneous coordinates must be finite")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("homogeneous coordinates must not all vanish")
    v = v / norm
    lead = int(np.argmax(np.abs(v) > EQ_TOL))
    pivot = v[lead]
    v = v * (np.conj(pivot) / abs(pivot))
    v[lead] = abs(pivot)  # exactly real positive
    v.setflags(write=False)
    return v


@dataclass(frozen=True, eq=False)
class ProjectivePoint:
    """A point of P^k held as its canonical homogeneous representative."""

    homog: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "homog", _canonical(self.homog))

    @property
    def k(self) -> int:
        return self.homog.size - 1

    def __eq__(self, other):
        if not isinstance(other, ProjectivePoint):
            return NotImplemented
        if self.homog.size != other.homog.size:
            return False
        return bool(np.max(np.abs(self.homog - other.homog)) <= EQ_TOL)

    def __hash__(self):
        # Equality holds within EQ_TOL, and no rounding of the coordinates is
        # constant on every such neighbourhood, so only the dimension is
        # hashed: equal points always hash alike, at the cost of one hash
        # bucket per dimension in sets and dicts.
        return hash(self.homog.size)

    def __repr__(self):
        body = " : ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in self.homog)
        return f"ProjectivePoint([{body}])"


@dataclass(frozen=True, eq=False)
class ChartCoordinates:
    """Affine coordinates in the chart where component ``chart_index`` is 1."""

    chart_index: int
    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=np.complex128).reshape(-1)
        if c.size < 2:
            raise ValueError("need at least two components")
        if not 0 <= self.chart_index < c.size:
            raise ValueError("chart_index out of range")
        if c[self.chart_index] != 1.0 + 0.0j:
            raise ValueError("the chart slot must be exactly 1")
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def k(self) -> int:
        return self.coords.size - 1

    def to_point(self) -> ProjectivePoint:
        return ProjectivePoint(self.coords)


@dataclass(frozen=True)
class Ball:
    """A closed Fubini-Study ball; radius 0 is a single point."""

    center: ProjectivePoint
    radius: float

    def __post_init__(self):
        if not (np.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError("radius must be a nonnegative real")


@dataclass(frozen=True, eq=False)
class CompactSetSpec:
    """A compact set given as a finite union of closed Fubini-Study balls,
    stated as read-only arrays too: unit ``centres`` (B, k+1), ``radii`` (B,)."""

    balls: tuple
    centres: np.ndarray = field(init=False, repr=False)
    radii: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        balls = tuple(self.balls)
        if not balls:
            raise ValueError("at least one ball is required")
        k = balls[0].center.k
        if any(b.center.k != k for b in balls):
            raise ValueError("all balls must live in the same P^k")
        object.__setattr__(self, "balls", balls)
        for name, value in (("centres", np.stack([b.center.homog for b in balls])),
                            ("radii", np.array([b.radius for b in balls], dtype=np.float64))):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.balls[0].center.k

    def to_dict(self) -> dict:
        return {"balls": [{"center": [[z.real, z.imag] for z in b.center.homog],
                           "radius": b.radius} for b in self.balls]}

    @classmethod
    def from_dict(cls, data: dict) -> "CompactSetSpec":
        return cls(tuple(Ball(ProjectivePoint([complex(re, im) for re, im in entry["center"]]),
                              float(entry["radius"])) for entry in data["balls"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CompactSetSpec":
        return cls.from_dict(json.loads(text))


def fs_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Geodesic distance arccos|<p,q>|, in [0, pi/2]."""
    ip = abs(np.vdot(q.homog, p.homog))
    return float(math.acos(min(ip, 1.0)))


def to_chart(p: ProjectivePoint, chart_index: Optional[int] = None) -> ChartCoordinates:
    """Divide through by component ``chart_index``; defaults to the
    maximum-modulus component (ties to the lowest index)."""
    if chart_index is None:
        chart_index = int(np.argmax(np.abs(p.homog)))
    pivot = p.homog[chart_index]
    if abs(pivot) <= EQ_TOL:
        raise ChartUndefined(
            f"component {chart_index} vanishes; the point lies outside this chart"
        )
    coords = p.homog / pivot
    coords[chart_index] = 1.0
    return ChartCoordinates(chart_index, coords)


def chart_norm(c: ChartCoordinates) -> float:
    """Euclidean norm of the coordinates, the unit slot excluded."""
    return float(np.linalg.norm(np.delete(c.coords, c.chart_index)))


def full_norm(c: ChartCoordinates) -> float:
    """Euclidean norm of the full vector including the unit slot; >= 1."""
    return float(np.linalg.norm(c.coords))


def scaled_rows(rows) -> np.ndarray:
    """Each row divided by the power of two that brings its largest real or
    imaginary part into [1/2, 1): exact, so every ratio of homogeneous
    quantities keeps its bits, and no square overflows or underflows to 0.
    A row that is not finite, or is zero, is no point and is refused."""
    Z = np.ascontiguousarray(rows, dtype=np.complex128)
    if not np.all(np.isfinite(Z)):
        raise ValueError("homogeneous rows must be finite")
    if np.any(np.all(Z == 0.0, axis=-1)):
        raise ValueError("a zero row is not a point")
    parts = Z.view(np.float64)
    _, exponent = np.frexp(np.abs(parts).max(axis=-1, keepdims=True))
    return np.ldexp(parts, -exponent).view(np.complex128)


def rows_dist_to_set(rows, sspec: CompactSetSpec) -> np.ndarray:
    """Distance of each homogeneous row to the set: the smallest over the
    balls of max(fs_distance(row, centre) - radius, 0), in one product.
    Rows must be finite and nonzero (:func:`scaled_rows`)."""
    Z = scaled_rows(rows)
    ip = np.abs(Z @ np.conj(sspec.centres).T)
    d = np.arccos(np.clip(ip / np.linalg.norm(Z, axis=1)[:, None], 0.0, 1.0))
    return np.maximum(d - sspec.radii, 0.0).min(axis=1)


def dist_to_set(p: ProjectivePoint, sspec: CompactSetSpec) -> float:
    """min over balls of max(fs_distance(p, center) - radius, 0)."""
    return float(rows_dist_to_set(p.homog[None, :], sspec)[0])


def uniform_rows(k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Fubini-Study-uniform homogeneous rows (complex Gaussian, normalised)."""
    z = rng.standard_normal((count, k + 1)) + 1j * rng.standard_normal((count, k + 1))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def tangent_row(center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random unit vectors Hermitian-orthogonal to unit homogeneous vectors,
    one per row of ``center`` (..., k+1).  A Gaussian draw g is projected,
    v = g - (c^H g) c; a draw in the line of c has probability zero."""
    g = rng.standard_normal(center.shape) + 1j * rng.standard_normal(center.shape)
    v = g - np.sum(np.conj(center) * g, axis=-1, keepdims=True) * center
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def geodesic_row(center: np.ndarray, direction: np.ndarray, t) -> np.ndarray:
    """Points at Fubini-Study distance t from ``center`` along ``direction``,
    row by row for stacked rows and distances t (...)."""
    return np.cos(t)[..., None] * center + np.sin(t)[..., None] * direction


@dataclass(frozen=True)
class BallComparisonReport:
    ok: bool
    worst_ratio: float
    trials: int


def ball_comparison_check(
    c: ChartCoordinates, r: float, trials: int, seed: int = 0
) -> BallComparisonReport:
    """Sample the chart-Euclidean ball of radius (r/2)*full_norm(c) around c
    and report whether every sample stays within Fubini-Study distance r.

    The first sample is c itself; ``worst_ratio`` is the largest observed
    fs_distance / r.
    """
    if not 0.0 < r <= 0.5:
        raise ValueError("r must lie in (0, 0.5]")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = make_rng(seed, 11)
    k = c.k
    s = 0.5 * r * full_norm(c)
    dirs = rng.standard_normal((trials, 2 * k))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = s * rng.random(trials) ** (1.0 / (2 * k))
    off = dirs * radii[:, None]

    W = np.repeat(c.coords[None, :], trials, axis=0)
    mask = np.ones(k + 1, dtype=bool)
    mask[c.chart_index] = False
    W[:, mask] += off[:, :k] + 1j * off[:, k:]
    W[0] = c.coords

    ip = np.abs(W @ np.conj(c.coords))
    denom = np.linalg.norm(W, axis=1) * full_norm(c)
    fs = np.arccos(np.clip(ip / denom, 0.0, 1.0))
    return BallComparisonReport(bool(np.all(fs < r)), float(fs.max() / r), trials)
