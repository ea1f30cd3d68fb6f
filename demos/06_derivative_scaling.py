"""How fast the derivatives of the cut-off grow as delta shrinks.
=============================================================

Each delta gets its own cut-off (same frozen seed); the gradient and
Hessian proxies are measured by central differences on a grid in the
transition annulus, and the log-log slope against delta is regressed.
Expected: slope ~ -1 for the gradient, ~ -2 for the Hessian.
"""

import projcut as pc

config = pc.CutoffConfig(k=1, sigma=0.1, delta0=0.4, S=6000, seed=42)
K = pc.CompactSetSpec((
    pc.Ball(pc.ProjectivePoint([1.0, 0.2 + 0.1j]), 0.05),
    pc.Ball(pc.ProjectivePoint([0.3, 1.0]), 0.05),
))

deltas = [0.2, 0.1, 0.05, 0.025]
for alpha in (1, 2):
    report = pc.scaling_experiment(K, deltas, alpha, config, grid_points=120)
    print(f"alpha = {alpha}")
    print("  delta     theta     seminorm")
    for delta, theta, semi in report.rows:
        print(f"  {delta:<8g}  {theta:<8.5f}  {semi:.5g}")
    print(f"  slope = {report.slope:.3f} +- {report.slope_stderr:.3f} "
          f"(target about {-alpha})")
