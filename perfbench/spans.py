"""Span recording around the calls into each projcut module.

The wrappers are installed from the benchmark, at the module bindings where
the callers look the functions up, so the program itself is unchanged.
Each span records its name, start, end and parent; spans stay in memory and
are written once, when the command ends.  Span names are
``<module>.<function>``; the module part attributes self time to one of the
six modules (cli, cutoff, regularize, lie, measure, geometry).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self.cutoffs = {}  # id(rf) -> (rf, set_spec, delta); rf is held so its id stays unique

    def wrap(self, name, fn, after=None):
        """Span around fn; ``after(args, kwargs, result)`` runs once the span
        is closed and adds to the counters."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, perf(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = perf()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapped

    def install(self):
        """Wrap the functions every workload path goes through."""
        # the package re-exports the function regularize over its module name
        cli, cutoff, lie, regularize = (importlib.import_module(f"projcut.{m}")
                                        for m in ("cli", "cutoff", "lie", "regularize"))
        RegularizedFunction = regularize.RegularizedFunction

        c = self.counts
        rows_dist = cutoff.rows_dist_to_set

        def count(key, fn):
            def after(args, kwargs, result):
                c[key] += fn(args, kwargs, result)
            return after

        def built(args, kwargs, cf):
            self.cutoffs[id(cf.rf)] = (cf.rf, cf.set_spec, cf.delta)

        def audited(args, kwargs, result):
            c["cutoff.audit.sample_points"] += args[0].shape[0] * np.shape(args[1])[0]

        def annulus(args, kwargs, grid):
            set_spec, delta = args[0], args[1]
            d = rows_dist(np.stack([p.coords for p in grid]), set_spec)
            c["cutoff.annulus_grid.points"] += len(grid)
            c["cutoff.annulus_grid.in_band"] += int(((d >= 0.25 * delta) & (d <= delta)).sum())

        def evaluated(args, kwargs, result):
            rf, rows = args[0], np.asarray(args[1])
            m = rows.shape[0]
            c["regularize.eval_homog.rows"] += m
            c["regularize.eval_homog.sample_points"] += rf.matrices.shape[0] * m
            entry = self.cutoffs.get(id(rf))
            if entry is not None:
                d = rows_dist(rows, entry[1])
                c["regularize.eval_homog.band_rows"] += int(((d > 0.0) & (d < entry[2])).sum())

        def stack_size(args, kwargs, result):
            return int(np.prod(np.shape(args[0])[:-2]))

        expm = self.wrap("lie.expm", lie._expm, count("lie.expm.matrices", stack_size))
        normalize = self.wrap("lie.normalize", lie._normalize_stack)
        build = self.wrap("cutoff.build_cutoff", cutoff.build_cutoff, built)
        eval_homog = self.wrap("regularize.eval_homog", RegularizedFunction.eval_homog, evaluated)
        audit_fs = self.wrap("cutoff.audit_fs", cutoff.max_fs_displacement, audited)
        audit_euclid = self.wrap("cutoff.audit_euclid", cutoff.max_euclid_ratio, audited)
        bindings = [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "_cutoff_config", self.wrap("cutoff.create", cli._cutoff_config)),
            (cli, "build_cutoff", build),
            (cutoff, "build_cutoff", build),
            (cli, "verify_cutoff", self.wrap("cutoff.verify_cutoff", cli.verify_cutoff)),
            (cli, "scaling_experiment",
             self.wrap("cutoff.scaling_experiment", cli.scaling_experiment)),
            (cutoff, "max_fs_displacement", audit_fs),
            (cutoff, "max_euclid_ratio", audit_euclid),
            (cutoff, "rows_off_set", self.wrap(
                "cutoff.rows_off_set", cutoff.rows_off_set,
                count("cutoff.rows_off_set.accepted", lambda a, k, r: r.shape[0]))),
            (cutoff, "uniform_rows", self.wrap(
                "geometry.uniform_rows", cutoff.uniform_rows,
                count("cutoff.rows_off_set.drawn", lambda a, k, r: r.shape[0]))),
            (cutoff, "annulus_grid", self.wrap("cutoff.annulus_grid", cutoff.annulus_grid, annulus)),
            (cutoff, "c_alpha_estimate",
             self.wrap("regularize.c_alpha_estimate", cutoff.c_alpha_estimate)),
            (regularize, "finite_diff", self.wrap("regularize.finite_diff", regularize.finite_diff)),
            (RegularizedFunction, "eval_homog", eval_homog),
            (cutoff, "rows_dist_to_set", self.wrap(
                "geometry.rows_dist_to_set", rows_dist,
                count("geometry.rows_dist_to_set.rows", lambda a, k, r: r.shape[0]))),
            (cutoff, "regularize", self.wrap("regularize.regularize", cutoff.regularize)),
            (regularize, "sample_matrices", self.wrap(
                "measure.sample_matrices", regularize.sample_matrices,
                count("measure.sample_matrices.rows", lambda a, k, r: r.shape[0]))),
            (regularize, "_expm", expm),
            (lie, "_expm", expm),
            (regularize, "_normalize_stack", normalize),
            (lie, "_normalize_stack", normalize),
            (cutoff, "estimate_distortion",
             self.wrap("lie.estimate_distortion", cutoff.estimate_distortion)),
            (cutoff, "check_distortion", self.wrap("lie.check_distortion", cutoff.check_distortion)),
            (cutoff, "log_chart", self.wrap("lie.log_chart", cutoff.log_chart)),
            (cutoff, "get_mollifier", self.wrap("measure.get_mollifier", cutoff.get_mollifier)),
        ]
        for owner, attr, fn in bindings:
            setattr(owner, attr, fn)

    def summary(self, duration) -> dict:
        """Per span name: total time, self time and calls; per module: self
        time; plus the counters and every eval_homog call duration.
        ``duration(start, end)`` measures a span."""
        total = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        durs = [duration(start, end) for _, start, end, _ in self.spans]
        for (name, _, _, parent), dur in zip(self.spans, durs):
            total[name] += dur
            own[name] += dur
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
        modules = defaultdict(float)
        for name, value in own.items():
            modules[name.split(".")[0]] += value
        eval_ms = [1e3 * dur for (name, *_), dur in zip(self.spans, durs)
                   if name == "regularize.eval_homog"]
        return {"total": dict(total), "self": dict(own), "calls": dict(calls),
                "modules": dict(modules), "counts": dict(self.counts), "eval_ms": eval_ms}

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, f)
