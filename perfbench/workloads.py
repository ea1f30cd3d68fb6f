"""Benchmark workloads: inputs generated from the workload seed, and the
checks applied to the outputs of every command.

Each workload is one `projcut` CLI command.  Its config and point file are
written from the seed alone, so the same seed gives byte-identical inputs.
The seed places the balls and the points, and is the config's sampling
seed at k=1.  At k=3 the config keeps the CLI's default sampling seed:
`CutoffConfig.create` refuses about one k=3 seed in six (see NOTES.md).
The geometry here is plain numpy and deliberately does not use `projcut`:
the point classes that the output checks rely on (on K, in the transition
band, at distance >= delta) are decided independently of the program.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RADIUS = 0.05
MIN_SEPARATION = 0.6
SIGMA = 0.1
DELTA0 = 0.4
S = 20000
ALPHA2_BAND = (-2.6, -1.4)  # the CLI's default slope band for alpha = 2
REFERENCE_ROWS = 16         # band rows re-evaluated by the per-sample reference
REFERENCE_STEPS = 2         # allowed |chi_cli - chi_ref| in units of 1/S


def _uniform(rng, count, d):
    z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def fs_dist(rows, center):
    """Fubini-Study distance arccos(|<z, c>| / |z||c|), diameter pi/2."""
    z = np.asarray(rows, dtype=np.complex128)
    ip = np.abs(z @ np.conj(center)) / (np.linalg.norm(z, axis=1) * np.linalg.norm(center))
    return np.arccos(np.clip(ip, 0.0, 1.0))


def dist_to_balls(rows, centers, radius=RADIUS):
    return np.min([np.maximum(fs_dist(rows, c) - radius, 0.0) for c in centers], axis=0)


def _centers(rng, k):
    """Two ball centres at least MIN_SEPARATION apart."""
    while True:
        c = _uniform(rng, 2, k + 1)
        if fs_dist(c[:1], c[1])[0] >= MIN_SEPARATION:
            return c


def _rescale(rng, rows):
    """The same points under a random nonzero scale and phase per row."""
    scale = rng.uniform(0.5, 2.0, rows.shape[0]) * np.exp(2j * math.pi * rng.random(rows.shape[0]))
    return rows * scale[:, None]


def _at_distance(rng, center, t):
    """Homogeneous rows at FS distance t (one per entry) from a unit centre,
    in random directions."""
    g = rng.standard_normal((t.size, center.size)) + 1j * rng.standard_normal((t.size, center.size))
    v = g - (g @ np.conj(center))[:, None] * center[None, :]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return np.cos(t)[:, None] * center[None, :] + np.sin(t)[:, None] * v


def _fmt(x):
    return f"{x:.17g}"


@dataclass
class Workload:
    name: str
    command: str
    k: int
    deltas: list
    centers: np.ndarray
    workdir: Path
    extra: dict = field(default_factory=dict)
    points: np.ndarray = None

    @property
    def config_path(self) -> Path:
        return self.workdir / "config.json"

    @property
    def points_path(self) -> Path:
        return self.workdir / "points.csv"

    def argv(self, out: Path) -> list:
        args = [self.command, "--config", str(self.config_path), "--out", str(out),
                "--threads", "1"]
        if self.command == "eval":
            args += ["--points", str(self.points_path)]
        return args

    def cutoff_rows(self) -> int:
        """Rows submitted to cut-off evaluation by one command."""
        if self.command == "verify":
            return len(self.deltas) * (self.extra["n_inner"] + self.extra["n_outer"])
        if self.command == "scaling":
            q = 2 * self.k
            per_point = 2 * q if self.extra["alpha"] == 1 else 1 + 2 * q + 2 * q * (q - 1)
            return len(self.deltas) * self.extra["grid"] * per_point
        return self.points.shape[0]

    def write_inputs(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = {
            "k": self.k, "sigma": SIGMA, "delta0": DELTA0, "S": S,
            "deltas": self.deltas,
            "set": {"balls": [{"center": [[float(z.real), float(z.imag)] for z in c],
                               "radius": RADIUS} for c in self.centers]},
            **self.extra,
        }
        self.config_path.write_text(json.dumps(cfg, indent=1) + "\n")
        if self.points is not None:
            with open(self.points_path, "w", newline="") as f:
                w = csv.writer(f, lineterminator="\n")
                w.writerow([f"{p}{i}" for i in range(self.k + 1) for p in ("re", "im")])
                for row in self.points:
                    w.writerow([_fmt(v) for z in row for v in (z.real, z.imag)])
            # classify the points as the CLI will read them back
            self.points = read_points(self.points_path)


def read_points(path):
    with open(path, newline="") as f:
        records = list(csv.reader(f))[1:]
    vals = np.array([[float(v) for v in r] for r in records])
    return vals[:, 0::2] + 1j * vals[:, 1::2]


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    """Build the named workload from its seed and write its inputs."""
    rng = np.random.default_rng([seed % 2 ** 32, 7919])
    config_seed = seed % 2 ** 31
    if name == "verify-k1":
        wl = Workload(name, "verify", 1, [0.2, 0.1, 0.05], _centers(rng, 1), workdir,
                      {"n_inner": 50, "n_outer": 50, "seed": config_seed})
    elif name == "scaling-a2":
        wl = Workload(name, "scaling", 1, [0.2, 0.1, 0.05, 0.025], _centers(rng, 1), workdir,
                      {"alpha": 2, "grid": 50, "seed": config_seed})
    elif name == "eval-k3":
        k, delta, m = 3, 0.1, 600
        centers = _centers(rng, k)
        band = m // 2
        on_k = m // 4
        which = rng.integers(0, 2, band + on_k)
        t = np.concatenate([RADIUS + delta * rng.uniform(0.02, 0.98, band),
                            0.98 * RADIUS * np.sqrt(rng.random(on_k))])
        near = np.concatenate([_at_distance(rng, centers[b], t[i:i + 1])
                               for i, b in enumerate(which)])
        far = _uniform(rng, m - band - on_k, k + 1)
        points = _rescale(rng, np.concatenate([near, far]))
        wl = Workload(name, "eval", k, [delta], centers, workdir,
                      points=rng.permutation(points))
    else:
        raise ValueError(f"unknown workload {name!r}")
    wl.write_inputs()
    return wl


# ---------------------------------------------------------------- checks

def check_outputs(wl: Workload, out: Path):
    """Return (attempted, failed, summary) for one command's outputs."""
    if wl.command == "verify":
        passes = []
        for d in wl.deltas:
            path = out / f"verify_{d:g}.json"
            passes.append(path.is_file() and json.loads(path.read_text()).get("pass") is True)
        return len(passes), passes.count(False), {}
    if wl.command == "scaling":
        alpha = wl.extra["alpha"]
        with open(out / f"scaling_alpha{alpha}.csv", newline="") as f:
            semis = [float(r["seminorm"]) for r in csv.DictReader(f)]
        summary = json.loads((out / f"scaling_alpha{alpha}_summary.json").read_text())
        slope = summary["slope"]
        ok = [math.isfinite(s) and s > 0.0 for s in semis]
        ok += [len(semis) == len(wl.deltas)]
        ok += [slope is not None and ALPHA2_BAND[0] <= slope <= ALPHA2_BAND[1]]
        info = {"slope_err": abs(slope + alpha) if slope is not None else float("nan")}
        return len(ok), ok.count(False), info
    chi, dist = read_chi(wl, out)
    if chi.size != dist.size:
        return dist.size, dist.size, {}
    ok = (chi >= 0.0) & (chi <= 1.0)
    ok &= np.where(dist == 0.0, chi == 1.0, True)
    ok &= np.where(dist >= wl.deltas[0], chi == 0.0, True)
    return int(ok.size), int((~ok).sum()), {}


def read_chi(wl: Workload, out: Path):
    """The chi column of the eval output, with each row's distance to K."""
    with open(out / "points_chi.csv", newline="") as f:
        chi = np.array([float(r["chi"]) for r in csv.DictReader(f)])
    return chi, dist_to_balls(wl.points, wl.centers)


def reference_check(wl: Workload, out: Path, src: Path):
    """Compare the CLI's chi on a fixed subset of band rows with a plain
    per-sample loop over the stored matrices of the same cut-off, rebuilt
    through the library.  Returns (attempted, failed, worst step count)."""
    import sys
    sys.path.insert(0, str(src))
    from projcut.cli import _cutoff_config, load_config
    from projcut.cutoff import build_cutoff

    cfg = load_config(wl.config_path)
    delta = cfg.deltas[0]
    cf = build_cutoff(cfg.set_spec, delta, _cutoff_config(cfg))
    chi, dist = read_chi(wl, out)
    idx = np.flatnonzero((dist > 0.0) & (dist < delta))[:REFERENCE_ROWS]
    z = wl.points[idx]
    centers = [b.center.homog for b in cfg.set_spec.balls]
    radii = [b.radius for b in cfg.set_spec.balls]
    hits = np.zeros(idx.size)
    for g in cf.rf.matrices:
        w = z @ g.T
        inside = np.zeros(idx.size, dtype=bool)
        for c, r in zip(centers, radii):
            inside |= fs_dist(w, c) - r < 0.5 * delta
        hits += inside
    steps = np.abs(chi[idx] - hits / cf.rf.S) * cf.rf.S
    return int(idx.size), int((steps > REFERENCE_STEPS + 1e-6).sum()), float(steps.max(initial=0.0))
