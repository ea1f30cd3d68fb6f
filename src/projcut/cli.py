"""Command-line front end: verification runs, scaling experiments, point
evaluation, and numeric diagnostics, driven by a JSON config.

Exit codes: 0 success, 1 claim failure, 2 usage or config error.  Outputs are
byte-identical across reruns with the same config and seed: CSV uses LF line
endings, '.' decimals, and 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .cutoff import (CutoffConfig, DEFAULT_DELTA0, DEFAULT_S, DEFAULT_SEED,
                     DELTA_FLOOR, build_cutoff, scaling_experiment, verify_cutoff)
from .errors import ConfigError
from .geometry import CompactSetSpec
from .lie import (DEFAULT_SIGMA, AlgebraElement, ShearParams,
                  _uniform_coord_rows, chart_translate, chart_translate_jacobian,
                  exp_chart, exp_sl, from_coords, log_chart, phi_normalize, shear)
from .measure import bump_profile, get_mollifier
from .rng import make_rng

DEFAULT_BANDS = {1: (-1.5, -0.5), 2: (-2.6, -1.4)}

# Upper bounds on the integer fields that size allocations; each is at least
# 10x the largest value any bundled config, test, demo or benchmark uses.
CEILINGS = {"S": 10 ** 6, "grid": 10 ** 5, "n_inner": 10 ** 5, "n_outer": 10 ** 5}

_KNOWN_KEYS = {
    "k", "sigma", "delta0", "S", "seed", "alpha", "deltas", "set", "grid",
    "n_inner", "n_outer", "slope_band",
}


@dataclass
class RunConfig:
    k: int
    sigma: float
    delta0: float
    S: int
    seed: int
    alpha: int
    deltas: list
    set_spec: CompactSetSpec
    grid: int
    n_inner: int
    n_outer: int
    slope_band: Optional[tuple]


def _finite_number(value) -> bool:
    """A finite JSON number: an int or a float, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as e:
        raise ConfigError(f"config: cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON in {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key in data:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{key}: unknown config field")

    def _num(name, default, kind, positive=True):
        value = data.get(name, default)
        if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ConfigError(f"{name}: expected an integer")
        if kind is float and not _finite_number(value):
            raise ConfigError(f"{name}: expected a finite number")
        value = kind(value)
        if positive and value <= 0:
            raise ConfigError(f"{name}: must be positive")
        if name in CEILINGS and value > CEILINGS[name]:
            raise ConfigError(f"{name}: must be at most {CEILINGS[name]}")
        return value

    k = _num("k", 1, int)
    if k not in (1, 2, 3):
        raise ConfigError("k: must be 1, 2, or 3")
    sigma = _num("sigma", DEFAULT_SIGMA, float)
    delta0 = _num("delta0", DEFAULT_DELTA0, float)
    S = _num("S", DEFAULT_S, int)
    seed = _num("seed", DEFAULT_SEED, int, positive=False)
    if seed < 0:
        raise ConfigError("seed: must be nonnegative")
    alpha = _num("alpha", 1, int)
    if alpha not in (1, 2):
        raise ConfigError("alpha: must be 1 or 2")
    grid = _num("grid", 400, int)
    n_inner = _num("n_inner", 200, int)
    n_outer = _num("n_outer", 200, int)

    deltas = data.get("deltas")
    if not isinstance(deltas, list) or not deltas:
        raise ConfigError("deltas: required nonempty list")
    if not all(_finite_number(d) for d in deltas):
        raise ConfigError("deltas: entries must be finite numbers")
    deltas = [float(d) for d in deltas]
    if len(set(deltas)) < len(deltas):
        raise ConfigError("deltas: entries must be distinct")
    for d in deltas:
        if not DELTA_FLOOR < d < delta0:
            raise ConfigError(f"deltas: {d} outside ({DELTA_FLOOR}, delta0={delta0})")

    if "set" not in data:
        raise ConfigError("set: required")
    try:
        set_spec = CompactSetSpec.from_dict(data["set"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"set: {e}") from e
    if set_spec.k != k:
        raise ConfigError(f"set: centers have {set_spec.k + 1} components, expected k+1={k + 1}")

    slope_band = data.get("slope_band")
    if slope_band is not None:
        if (not isinstance(slope_band, list) or len(slope_band) != 2
                or not all(_finite_number(v) for v in slope_band)
                or not slope_band[0] < slope_band[1]):
            raise ConfigError("slope_band: expected [lo, hi] with lo < hi")
        slope_band = (float(slope_band[0]), float(slope_band[1]))

    return RunConfig(k, sigma, delta0, S, seed, alpha, deltas, set_spec, grid,
                     n_inner, n_outer, slope_band)


def _cutoff_config(cfg: RunConfig) -> CutoffConfig:
    return CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    config = _cutoff_config(cfg)
    all_pass = True
    for delta in cfg.deltas:
        cf = build_cutoff(cfg.set_spec, delta, config)
        report = verify_cutoff(cf, cfg.n_inner, cfg.n_outer, cfg.seed)
        _write_json(out / f"verify_{delta:g}.json", report.to_dict())
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


def cmd_scaling(cfg: RunConfig, out: Path, threads: int) -> int:
    if len(cfg.deltas) < 3:
        raise ConfigError("deltas: scaling needs at least 3 values")
    config = _cutoff_config(cfg)
    report = scaling_experiment(cfg.set_spec, cfg.deltas, cfg.alpha, config,
                                cfg.grid, workers=threads)
    with open(out / f"scaling_alpha{cfg.alpha}.csv", "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["delta", "theta", "seminorm"])
        for delta, theta, semi in report.rows:
            writer.writerow([_fmt(delta), _fmt(theta), _fmt(semi)])
    summary = {
        "slope": None if math.isnan(report.slope) else report.slope,
        "stderr": None if math.isnan(report.slope_stderr) else report.slope_stderr,
        "alpha": cfg.alpha,
    }
    _write_json(out / f"scaling_alpha{cfg.alpha}_summary.json", summary)
    if report.degenerate:
        print("scaling: degenerate experiment (vanishing seminorms), no slope",
              file=sys.stderr)
        return 1
    lo, hi = cfg.slope_band if cfg.slope_band else DEFAULT_BANDS[cfg.alpha]
    if not lo <= report.slope <= hi:
        print(f"scaling: slope {report.slope:.4f} outside the band [{lo}, {hi}]",
              file=sys.stderr)
        return 1
    return 0


def _expected_header(k: int) -> list:
    cols = []
    for i in range(k + 1):
        cols += [f"re{i}", f"im{i}"]
    return cols


def cmd_eval(cfg: RunConfig, points_path: str, out: Path) -> int:
    expected = _expected_header(cfg.k)
    try:
        with open(points_path, encoding="utf-8", newline="") as f:
            reader = list(csv.reader(f))
    except OSError as e:
        raise ConfigError(f"points: cannot read {points_path}: {e}") from e
    rows = []
    if reader:
        if [c.strip() for c in reader[0]] != expected:
            raise ConfigError(f"points: header must be {','.join(expected)}")
        for lineno, record in enumerate(reader[1:], start=2):
            if len(record) != len(expected):
                raise ConfigError(f"points: row {lineno}: expected {len(expected)} columns")
            try:
                values = [float(v) for v in record]
            except ValueError:
                raise ConfigError(f"points: row {lineno}: non-numeric value") from None
            if not all(math.isfinite(v) for v in values):
                raise ConfigError(f"points: row {lineno}: non-finite value")
            if all(v == 0.0 for v in values):
                raise ConfigError(f"points: row {lineno}: zero vector is not a point")
            rows.append([complex(values[2 * i], values[2 * i + 1])
                         for i in range(cfg.k + 1)])
    # build before writing: a config error leaves no output behind
    config = _cutoff_config(cfg)
    chi = []
    if rows:
        cf = build_cutoff(cfg.set_spec, cfg.deltas[0], config)
        chi = cf.eval_homog(np.asarray(rows, dtype=np.complex128))
    out_path = out / (Path(points_path).stem + "_chi.csv")
    with open(out_path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(expected + ["chi"])
        for record, value in zip(rows, chi):
            flat = []
            for z in record:
                flat += [_fmt(z.real), _fmt(z.imag)]
            writer.writerow(flat + [_fmt(float(value))])
    return 0


def cmd_diagnostics(cfg: RunConfig, out: Path) -> int:
    k, sigma, seed = cfg.k, cfg.sigma, cfg.seed

    # chart round trips on the 0.2-ball
    coords = _uniform_coord_rows(0.2, k, 1000, make_rng(seed, 61))
    mats = from_coords(coords, k)
    roundtrip = 0.0
    for m in mats:
        x = AlgebraElement(m)
        roundtrip = max(roundtrip, float(np.linalg.norm(log_chart(exp_chart(x)).mat - m)))
    det_dev = float(np.max(np.abs(np.linalg.det(exp_sl(mats)) - 1.0)))

    # consistency of the chart translation with the matrix product
    rng = make_rng(seed, 62)
    xs = from_coords(_uniform_coord_rows(0.1, k, 200, rng), k)
    consistency = 0.0
    for m in xs:
        x = AlgebraElement(m)
        h = ShearParams(0.05 * (rng.random(k) * 2 - 1 + 1j * (rng.random(k) * 2 - 1)) / math.sqrt(2))
        lhs = exp_chart(chart_translate(x, h)).mat
        rhs = phi_normalize(exp_chart(x).mat @ shear(h).mat).mat
        consistency = max(consistency, float(np.linalg.norm(lhs - rhs)))

    # volume distortion of the chart translation near the identity
    zero = AlgebraElement(np.zeros((k + 1, k + 1)))
    jac = {}
    for mag in (0.0, 0.005, 0.01, 0.02):
        offsets = np.zeros(k, dtype=np.complex128)
        offsets[0] = mag
        jac[f"{mag:g}"] = chart_translate_jacobian(zero, ShearParams(offsets), 1e-4)

    # measure mass: quadrature and Monte-Carlo routes
    mollifier = get_mollifier(k, sigma)
    mass_quad = mollifier._trapezoid_mass()
    n = mollifier.n
    mc_rng = make_rng(seed, 63)
    count = 200000
    radii = sigma * mc_rng.random(count) ** (1.0 / n)
    vals = mollifier.norm_const * bump_profile(radii / sigma)
    ball_volume = (math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)) * sigma ** n
    mass_mc = float(ball_volume * vals.mean())
    mass_mc_stderr = float(ball_volume * vals.std(ddof=1) / math.sqrt(count))

    payload = {
        "exp_log_roundtrip_max": roundtrip,
        "exp_det_deviation_max": det_dev,
        "chart_translate_consistency_max": consistency,
        "jacobian_determinant": jac,
        "jacobian_dev_at_0": abs(jac["0"] - 1.0),
        "measure_mass_quadrature": mass_quad,
        "measure_mass_mc": mass_mc,
        "measure_mass_mc_stderr": mass_mc_stderr,
    }
    _write_json(out / "diagnostics.json", payload)
    ok = (roundtrip <= 1e-10 and abs(jac["0"] - 1.0) <= 1e-6
          and abs(mass_quad - 1.0) <= 1e-3)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="projcut",
        description="Smooth cut-off functions on complex projective space: "
                    "verification, derivative-scaling experiments, evaluation, "
                    "and numeric diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "check the identity/support claims and displacement audits"),
        ("scaling", "run the derivative-scaling experiment and regress the slope"),
        ("eval", "evaluate the cut-off at points from a CSV file"),
        ("diagnostics", "round-trip, consistency, volume, and mass checks"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default="./out", help="output directory (default ./out)")
        p.add_argument("--threads", type=int, default=0,
                       help="worker processes for experiment loops (default: all cores)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "eval":
            p.add_argument("--points", required=True, help="CSV of homogeneous points")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed: must be nonnegative")
            cfg.seed = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "scaling":
            threads = args.threads if args.threads > 0 else (os.cpu_count() or 1)
            return cmd_scaling(cfg, out, threads)
        if args.command == "eval":
            return cmd_eval(cfg, args.points, out)
        return cmd_diagnostics(cfg, out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2


def console_main():
    raise SystemExit(main())
