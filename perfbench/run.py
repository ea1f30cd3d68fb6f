"""projcut benchmark: three CLI workloads, timed end to end and per module.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-k1 --seed 1 --seconds 30 --trace 0

Workloads: verify-k1, scaling-a2, eval-k3 (see BENCHMARK.json for why each
was chosen), or ``all`` to run the three in turn.  Each iteration runs one
CLI command through ``projcut.cli.main`` in a fresh process (closed loop, one
caller, ``--threads 1``), checks its outputs and digests them.  Iterations
repeat until the next one would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics from the
traced ones; the traced minus untraced wall time is the tracing overhead.
A table of every metric, with unit and sample count, is printed first; the
last line of standard output is the JSON result.  Inputs, outputs, spans and
a run record are written under perfbench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-k1", "scaling-a2", "eval-k3")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170  # a run, with every command it starts, ends within this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "sample_points_per_s": "1/s"}

# Per-layer metrics in the JSON result: every one is measured on every
# workload.  Span times of functions that only some workloads call (audits,
# verify, rows_off_set, finite differences, annulus grid) are printed in the
# table and kept in the run record instead, since they are 0 elsewhere.
PER_LAYER = {
    "cli.self_s": "s",
    "cutoff.self_s": "s",
    "regularize.self_s": "s",
    "lie.self_s": "s",
    "measure.self_s": "s",
    "geometry.self_s": "s",
    "cutoff.create.s": "s",
    "cutoff.build_cutoff.s": "s",
    "cutoff.build_cutoff.calls": "count",
    "cutoff.audit.sample_points": "count",
    "cutoff.rows_off_set.accept_ratio": "ratio",
    "cutoff.annulus_grid.in_band_ratio": "ratio",
    "lie.expm.s": "s",
    "lie.expm.matrices": "count",
    "lie.normalize.s": "s",
    "lie.estimate_distortion.s": "s",
    "lie.check_distortion.s": "s",
    "lie.log_chart.s": "s",
    "lie.log_chart.calls": "count",
    "measure.sample_matrices.s": "s",
    "measure.sample_matrices.rows": "count",
    "measure.get_mollifier.s": "s",
    "regularize.regularize.s": "s",
    "regularize.eval_homog.s": "s",
    "regularize.eval_homog.self_s": "s",
    "regularize.eval_homog.calls": "count",
    "regularize.eval_homog.sample_points": "count",
    "regularize.eval_homog.sp_per_s": "1/s",
    "regularize.eval_homog.band_ratio": "ratio",
    "regularize.eval_homog.call_p50_ms": "ms",
    "regularize.eval_homog.call_p99_ms": "ms",
    "regularize.finite_diff.calls": "count",
    "geometry.rows_dist_to_set.s": "s",
    "geometry.rows_dist_to_set.rows": "count",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead_s": "s",
}
WORKLOAD_ONLY_TIMES = {
    "cutoff.audit_fs.s": "cutoff.audit_fs",
    "cutoff.audit_euclid.s": "cutoff.audit_euclid",
    "cutoff.verify_cutoff.s": "cutoff.verify_cutoff",
    "cutoff.rows_off_set.s": "cutoff.rows_off_set",
    "cutoff.annulus_grid.s": "cutoff.annulus_grid",
    "regularize.finite_diff.s": "regularize.finite_diff",
    "regularize.c_alpha_estimate.s": "regularize.c_alpha_estimate",
}
SPAN_TIMES = {
    "cutoff.create.s": "cutoff.create",
    "cutoff.build_cutoff.s": "cutoff.build_cutoff",
    "lie.expm.s": "lie.expm",
    "lie.normalize.s": "lie.normalize",
    "lie.estimate_distortion.s": "lie.estimate_distortion",
    "lie.check_distortion.s": "lie.check_distortion",
    "lie.log_chart.s": "lie.log_chart",
    "measure.sample_matrices.s": "measure.sample_matrices",
    "measure.get_mollifier.s": "measure.get_mollifier",
    "regularize.regularize.s": "regularize.regularize",
    "regularize.eval_homog.s": "regularize.eval_homog",
    "geometry.rows_dist_to_set.s": "geometry.rows_dist_to_set",
    **WORKLOAD_ONLY_TIMES,
}
SPAN_CALLS = {
    "cutoff.build_cutoff.calls": "cutoff.build_cutoff",
    "lie.log_chart.calls": "lie.log_chart",
    "regularize.eval_homog.calls": "regularize.eval_homog",
    "regularize.finite_diff.calls": "regularize.finite_diff",
}
MODULES = ("cli", "cutoff", "regularize", "lie", "measure", "geometry")


class BenchError(RuntimeError):
    pass


def cap_blas_threads() -> dict:
    """Cap BLAS/OpenMP threads at the cores this process may use; children
    inherit the environment.  Must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        try:
            want = int(os.environ.get(var, n))
        except ValueError:
            want = n
        os.environ[var] = str(max(1, min(want, n)))
    return {var: os.environ[var] for var in BLAS_VARS}


def environment(caps: dict) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"), "blas_threads": caps}


def run_child(job: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"command process exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result["rc"] not in (0, 1):
        raise BenchError(f"projcut exited {result['rc']}: {proc.stderr[-2000:]}")
    return result


def digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def percentile(values, q):
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(-(-q * len(ordered) // 100)) - 1))]


def layer_values(summary: dict) -> dict:
    """Per-layer metrics of one traced command."""
    total, own, modules, calls, counts = (
        summary[k] for k in ("total", "self", "modules", "calls", "counts"))
    v = {f"{m}.self_s": modules.get(m, 0.0) for m in MODULES}
    v.update({name: total.get(span, 0.0) for name, span in SPAN_TIMES.items()})
    v.update({name: calls.get(span, 0) for name, span in SPAN_CALLS.items()})
    for key in ("cutoff.audit.sample_points", "lie.expm.matrices",
                "measure.sample_matrices.rows", "regularize.eval_homog.sample_points",
                "geometry.rows_dist_to_set.rows"):
        v[key] = counts.get(key, 0)

    def ratio(num, den):  # 0 where the layer was not called
        return num / den if den else 0.0

    v["cutoff.rows_off_set.accept_ratio"] = ratio(
        counts.get("cutoff.rows_off_set.accepted", 0), counts.get("cutoff.rows_off_set.drawn", 0))
    v["cutoff.annulus_grid.in_band_ratio"] = ratio(
        counts.get("cutoff.annulus_grid.in_band", 0), counts.get("cutoff.annulus_grid.points", 0))
    v["regularize.eval_homog.self_s"] = own.get("regularize.eval_homog", 0.0)
    v["regularize.eval_homog.sp_per_s"] = ratio(
        counts.get("regularize.eval_homog.sample_points", 0), total.get("regularize.eval_homog", 0.0))
    v["regularize.eval_homog.band_ratio"] = ratio(
        counts.get("regularize.eval_homog.band_rows", 0), counts.get("regularize.eval_homog.rows", 0))
    v["trace.self_sum_s"] = sum(modules.values())
    return v


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    from workloads import S, check_outputs, make_workload, reference_check

    work = HERE / ".work" / name
    shutil.rmtree(work, ignore_errors=True)
    wl = make_workload(name, seed, work)
    out = work / "out"
    sample_points = wl.cutoff_rows() * S
    records, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        t0 = time.perf_counter()
        r = run_child({"src": str(SRC), "argv": wl.argv(out), "trace": traced,
                       "spans": str(work / f"spans_{len(records)}.json")}, deadline)
        try:
            a, f, info = check_outputs(wl, out)
        except (OSError, ValueError, KeyError):  # missing or malformed output
            a, f, info = 1, 1, {}
        r.update(info, traced=traced, digests=digest(out))
        checks = [r["rc"] == 0]
        if records:
            checks.append(r["digests"] == records[0]["digests"])
        attempted += a + len(checks)
        failed += f + checks.count(False)
        records.append(r)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds and (not trace or len(records) >= 2):
            break
    reference = None
    if wl.command == "eval":
        a, f, worst = reference_check(wl, out, SRC)
        attempted += a
        failed += f
        reference = {"rows": a, "failed": f, "worst_steps": worst}

    plain = [r for r in records if not r["traced"]]
    wall = [r["wall_ref_s"] for r in plain]
    setup = [r["setup_ref_s"] for r in plain]
    work_s = [w - s for w, s in zip(wall, setup)]
    e2e = {
        "wall_s": median(wall),
        "setup_s": median(setup),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        "sample_points_per_s": median([sample_points / t for t in work_s]),
    }
    n = len(plain)
    extra = {
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "wall_unscaled_s": (median([r["wall_s"] for r in plain]), "s", n),
        "setup_unscaled_s": (median([r["setup_s"] for r in plain]), "s", n),
        "speed_factor": (median([r["wall_ref_s"] / r["wall_s"] for r in plain]), "1", n),
    }
    if wl.command == "scaling":
        points = len(wl.deltas) * wl.extra["grid"]
        extra["grid_points_per_s"] = (median([points / t for t in work_s]), "1/s", n)
        extra["slope_err"] = (median([r.get("slope_err", math.nan) for r in plain]), "1", n)
    layers, all_layers = {}, {}
    if trace:
        traced = [r for r in records if r["traced"]]
        per_cmd = [layer_values(r["trace"]) for r in traced]
        all_layers = {k: median([v[k] for v in per_cmd]) for k in per_cmd[0]}
        calls_ms = [ms for r in traced for ms in r["trace"]["eval_ms"]]
        all_layers["regularize.eval_homog.call_p50_ms"] = percentile(calls_ms, 50)
        all_layers["regularize.eval_homog.call_p99_ms"] = percentile(calls_ms, 99)
        all_layers["trace.wall_s"] = median([r["wall_ref_s"] for r in traced])
        all_layers["trace.overhead_s"] = all_layers["trace.wall_s"] - e2e["wall_s"]
        layers = {k: all_layers[k] for k in PER_LAYER}
        n_layer = {k: len(traced) for k in all_layers}
        n_layer["regularize.eval_homog.call_p50_ms"] = len(calls_ms)
        n_layer["regularize.eval_homog.call_p99_ms"] = len(calls_ms)

    print(f"# workload {name}  seed {seed}  iterations {len(records)} "
          f"({len(plain)} untraced)  checks {attempted}  failed {failed}")
    rows = [(k, v, END_TO_END[k], len(plain)) for k, v in e2e.items()]
    rows += [(k, v, unit, n) for k, (v, unit, n) in extra.items()]
    if trace:
        rows += [(k, v, PER_LAYER.get(k, "s"), n_layer[k]) for k, v in all_layers.items()]
    for k, v, unit, n in rows:
        print(f"  {k:40s} {v:16.6g} {unit:6s} n={n}")
    if reference:
        print(f"  reference: {reference['rows']} band rows, worst |chi - ref| = "
              f"{reference['worst_steps']:g}/S, {reference['failed']} outside 2/S")
    for fname, h in records[0]["digests"].items():
        print(f"  sha256 {h}  {fname}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                          for k, v in (layers if trace else e2e).items()}}
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "end_to_end": e2e, "extra": extra, "layers": all_layers,
              "reference": reference, "iterations": records, "result": result}
    (work / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projcut" / "cli.py").is_file():
        print(f"benchmark: no projcut sources under {SRC}", file=sys.stderr)
        return 2
    caps = cap_blas_threads()
    print("# environment " + json.dumps(environment(caps)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
                   for n in names}
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"benchmark: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        for n, r in results.items():
            print(f"# {n} " + json.dumps(r))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": m for n, r in results.items()
                              for k, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
