"""Run one projcut CLI command in this fresh process and report its timing.

Usage: python3 child.py '<job json>'
The job names the checkout's ``src`` directory, the CLI argv, whether to
trace, and where to write the spans.  The last line of standard output is a
JSON object: exit code, wall and set-up time (raw, and at reference speed),
peak resident memory and, when traced, the span summary.

Host load on a shared machine changes the speed a process gets by up to 2x
over seconds to minutes, independently on each core.  So this process times
a fixed calibration kernel (a probe) just before the command, about once a
second during it (from a SIGALRM handler, so no projcut code is touched) and
just after it.  Every stretch between two probes is converted to reference
speed with the mean of their two calibration times; probe time itself is
left out.  CALIB_REF_S is the kernel's time on an uncontended core of the
2-core Xeon the benchmark was tuned on, so reference times read as seconds
on that machine when idle.
"""

import json
import resource
import signal
import sys
import time

import numpy as np

CALIB_REF_S = 0.06
PROBE_EVERY_S = 1.0


def calibrate() -> float:
    """Time a fixed numpy kernel shaped like the cut-off hot path (small
    complex einsum, norms, arccos).  It does not touch projcut, so it reads
    the speed the machine gives this process right now."""
    rng = np.random.default_rng(0)
    g = rng.random((2048, 2, 2)) + 0j
    z = rng.random((16, 2)) + 0j
    t0 = time.perf_counter()
    for _ in range(12):
        w = np.einsum("sij,mj->smi", g, z)
        np.arccos(np.clip(np.abs(w[..., 0]) / np.linalg.norm(w, axis=2), 0.0, 1.0))
    return time.perf_counter() - t0


class Clock:
    """Calibration probes, and intervals measured between them."""

    def __init__(self):
        self.probes = []  # (start, end, calibration time)

    def probe(self, *_):
        t0 = time.perf_counter()
        c = calibrate()
        self.probes.append((t0, time.perf_counter(), c))

    def ref(self, t0: float, t1: float, scaled: bool = True) -> float:
        """Time within [t0, t1] outside the probes, at reference speed
        (or raw when not ``scaled``)."""
        total = 0.0
        for (_, a, c0), (b, _, c1) in zip(self.probes, self.probes[1:]):
            overlap = min(t1, b) - max(t0, a)
            if overlap > 0.0:
                total += overlap * (2.0 * CALIB_REF_S / (c0 + c1) if scaled else 1.0)
        return total


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from projcut import cli

    clock = Clock()
    create_spans = []
    tracer = None
    if job["trace"]:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        create = cli._cutoff_config

        def timed_create(cfg):
            t0 = time.perf_counter()
            try:
                return create(cfg)
            finally:
                create_spans.append((t0, time.perf_counter()))

        cli._cutoff_config = timed_create

    signal.signal(signal.SIGALRM, clock.probe)
    clock.probe()
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    try:
        rc = cli.main(job["argv"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    clock.probe()

    start, end = clock.probes[0][1], clock.probes[-1][0]
    result = {"rc": rc, "wall_s": clock.ref(start, end, scaled=False),
              "wall_ref_s": clock.ref(start, end), "probes": len(clock.probes),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary(clock.ref)
        create_spans = [(s[1], s[2]) for s in tracer.spans if s[0] == "cutoff.create"]
        tracer.write(job["spans"])
    result["setup_s"] = sum(clock.ref(a, b, scaled=False) for a, b in create_spans)
    result["setup_ref_s"] = sum(clock.ref(a, b) for a, b in create_spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
