"""Command-line front end: verification runs, scaling experiments, point
evaluation, and numeric diagnostics, driven by a JSON config.

Exit codes: 0 success, 1 claim failure, 2 usage or config error.  Outputs are
byte-identical across reruns with the same config and seed: CSV uses LF line
endings, '.' decimals, and 17 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cutoff import (CutoffConfig, DEFAULT_DELTA0, DEFAULT_S, DEFAULT_SEED,
                     DELTA_FLOOR, build_cutoff, check_S, scaling_experiment, verify_cutoff)
from .errors import ConfigError
from .geometry import CompactSetSpec
from .lie import (DEFAULT_SIGMA, AlgebraElement, ShearParams, _frob, _log_chart_stack,
                  _normalize_stack, _translate_stack, _uniform_coord_rows,
                  chart_translate_jacobian, exp_sl, from_coords)
from .measure import bump_profile, get_mollifier
from .rng import make_rng

DEFAULT_BANDS = {1: (-1.15, -0.85), 2: (-2.6, -1.4)}

# Upper bounds on the integer fields that size allocations; each is at least
# 10x the largest value any bundled config, test, demo or benchmark uses.
# S is bounded by cutoff.check_S, the check that CutoffConfig applies.
CEILINGS = {"grid": 10 ** 5, "n_inner": 10 ** 5, "n_outer": 10 ** 5}

_KNOWN_KEYS = {
    "k", "sigma", "delta0", "S", "seed", "alpha", "deltas", "set", "grid",
    "n_inner", "n_outer",
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


def _finite_number(value) -> bool:
    """A finite JSON number: an int or a float, not a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_set(data) -> bool:
    """A set as {"balls": [{"center": [[re, im], ...], "radius": r}, ...]}: a
    nonempty list of finite JSON numbers with no other field."""
    balls = data["balls"] if isinstance(data, dict) and set(data) == {"balls"} else None
    return isinstance(balls, list) and len(balls) > 0 and all(
        isinstance(b, dict) and set(b) == {"center", "radius"} and _finite_number(b["radius"])
        and isinstance(b["center"], list)
        and all(isinstance(z, list) and len(z) == 2 and all(map(_finite_number, z))
                for z in b["center"])
        for b in balls)


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
    S = check_S(_num("S", DEFAULT_S, int))
    seed = _num("seed", DEFAULT_SEED, int, positive=False)  # CutoffConfig refuses a negative seed
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

    if not _is_set(data.get("set")):
        raise ConfigError('set: required, as {"balls": [{"center": [[re, im], ...], "radius": r}, '
                          "...]} of finite numbers with no other field")
    try:
        set_spec = CompactSetSpec.from_dict(data["set"])
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"set: {e}") from e
    if set_spec.k != k:
        raise ConfigError(f"set: centers have {set_spec.k + 1} components, expected k+1={k + 1}")

    return RunConfig(k, sigma, delta0, S, seed, alpha, deltas, set_spec, grid,
                     n_inner, n_outer)


def _cutoff_config(cfg: RunConfig) -> CutoffConfig:
    return CutoffConfig(cfg.k, cfg.sigma, cfg.delta0, cfg.S, cfg.seed)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_verify(cfg: RunConfig, config: CutoffConfig) -> tuple[int, dict]:
    files, all_pass = {}, True
    for delta in cfg.deltas:
        cf = build_cutoff(cfg.set_spec, delta, config)
        report = verify_cutoff(cf, cfg.n_inner, cfg.n_outer, cfg.seed)
        files[f"verify_{delta:g}.json"] = _json_text(report.to_dict())
        all_pass = all_pass and report.passed
    return (0 if all_pass else 1), files


def cmd_scaling(cfg: RunConfig, config: CutoffConfig, threads: int) -> tuple[int, dict]:
    report = scaling_experiment(cfg.set_spec, cfg.deltas, cfg.alpha, config,
                                cfg.grid, workers=threads)
    summary = {
        "slope": None if math.isnan(report.slope) else report.slope,
        "stderr": None if math.isnan(report.slope_stderr) else report.slope_stderr,
        "alpha": cfg.alpha,
    }
    stem = f"scaling_alpha{cfg.alpha}"
    files = {
        f"{stem}.csv": _csv_text(["delta", "theta", "seminorm"],
                                 ([_fmt(x) for x in row] for row in report.rows)),
        f"{stem}_summary.json": _json_text(summary),
    }
    lo, hi = DEFAULT_BANDS[cfg.alpha]
    failure = ("degenerate experiment (vanishing seminorms), no slope" if report.degenerate
               else None if lo <= report.slope <= hi
               else f"slope {report.slope:.4f} outside the band [{lo}, {hi}]")
    if failure:
        print(f"scaling: {failure}", file=sys.stderr)
    return (1 if failure else 0), files


def _expected_header(k: int) -> list:
    cols = []
    for i in range(k + 1):
        cols += [f"re{i}", f"im{i}"]
    return cols


def cmd_eval(cfg: RunConfig, config: CutoffConfig, points_path: str) -> tuple[int, dict]:
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
            rows.append(values)
    if rows:
        parts = np.array(rows)  # re0, im0, re1, im1, ...
        cf = build_cutoff(cfg.set_spec, cfg.deltas[0], config)
        rows = np.column_stack([parts, cf.eval_homog(parts.view(np.complex128))]).tolist()
    line = ",".join(["%.17g"] * (len(expected) + 1)) + "\n"  # _fmt of each value
    text = ",".join(expected + ["chi"]) + "\n" + "".join(line % tuple(row) for row in rows)
    return 0, {Path(points_path).stem + "_chi.csv": text}


def cmd_diagnostics(config: CutoffConfig) -> tuple[int, dict]:
    k, sigma, seed = config.k, config.sigma, config.seed

    # chart round trips on the 0.2-ball
    coords = _uniform_coord_rows(0.2, k, 1000, make_rng(seed, 61))
    mats = from_coords(coords, k)
    exps = exp_sl(mats)
    roundtrip = float(_frob(_log_chart_stack(_normalize_stack(exps)) - mats).max())
    det_dev = float(np.max(np.abs(np.linalg.det(exps) - 1.0)))

    # consistency of the chart translation with the matrix product
    rng = make_rng(seed, 62)
    xs = from_coords(_uniform_coord_rows(0.1, k, 200, rng), k)
    u = rng.random((200, 2, k)) * 2 - 1  # real and imaginary parts of each offset
    h = 0.05 * (u[:, 0] + 1j * u[:, 1]) / math.sqrt(2)
    shears = np.zeros((200, k + 1, k + 1), dtype=np.complex128) + np.eye(k + 1)
    shears[:, 1:, 0] = h
    lhs = _normalize_stack(exp_sl(_translate_stack(xs, h)))
    rhs = _normalize_stack(_normalize_stack(exp_sl(xs)) @ shears)
    consistency = float(_frob(lhs - rhs).max())

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
    ok = (roundtrip <= 1e-10 and abs(jac["0"] - 1.0) <= 1e-6
          and abs(mass_quad - 1.0) <= 1e-3)
    return (0 if ok else 1), {"diagnostics.json": _json_text(payload)}


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

    out = Path(args.out)
    try:
        if out.exists() and not out.is_dir():
            raise ConfigError(f"--out: {out} exists and is not a directory")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads < 0:
            raise ConfigError("threads: must be nonnegative")
        config = _cutoff_config(cfg)  # the one seed check, before any work
        if args.command == "verify":
            code, files = cmd_verify(cfg, config)
        elif args.command == "scaling":
            code, files = cmd_scaling(cfg, config, args.threads or os.cpu_count() or 1)
        elif args.command == "eval":
            code, files = cmd_eval(cfg, config, args.points)
        else:
            code, files = cmd_diagnostics(config)
        # the only writer: a command that raised has created and written nothing
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8", newline="")
        except OSError as e:
            raise ConfigError(f"--out: cannot write {out}: {e}") from e
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    return code


def console_main():
    raise SystemExit(main())
