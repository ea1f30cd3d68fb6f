"""Building a smooth cut-off and verifying its three defining claims.
==================================================================

For a union of balls K and width delta, the cut-off smooths the indicator
of the delta/2-neighbourhood at a scale theta chosen so every stored group
element moves every point by less than delta/2.  Then the value is exactly
1 on K, exactly 0 at distance delta and beyond, and always within [0, 1].
"""

import json

import numpy as np

import projcut as pc

config = pc.CutoffConfig(k=1, sigma=0.1, delta0=0.4, S=8000, seed=42)
print(f"distortion constant C = {config.distortion:.4f}, "
      f"budget C' = {config.budget:.4f}, theta_max = {config.theta_max:.4f}")

K = pc.CompactSetSpec((
    pc.Ball(pc.ProjectivePoint([1.0, 0.2 + 0.1j]), 0.05),
    pc.Ball(pc.ProjectivePoint([0.3, 1.0]), 0.05),
))

delta = 0.1
cf = pc.build_cutoff(K, delta, config)
print(f"delta = {delta} -> theta = {cf.theta:.5f}")

# Point evaluations: a center, a point in the transition layer, a far point.
for label, z in (
    ("center of K", K.balls[0].center),
    ("transition layer", pc.ProjectivePoint([1.0, 0.2 + 0.1j + 0.07])),
    ("far away", pc.ProjectivePoint([1.0, -1.0])),
):
    print(f"  chi at {label}: {cf(z):.4f} (dist {pc.dist_to_set(z, K):.4f})")

# The verification report: identity and support checks on sampled points,
# plus the two displacement bounds that gate them, certified for every point
# of P^k from the build's closed-form bound on ||g - Id||_F, which
# exponentiates none of the stored samples.
report = pc.verify_cutoff(cf, n_inner=150, n_outer=150, seed=1)
print(json.dumps(report.to_dict(), indent=2, sort_keys=True))

# Support monotonicity: a smaller delta keeps the support inside K_delta.
small = pc.build_cutoff(K, 0.05, config)
rng = np.random.default_rng(4)
z = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
vals = small.eval_homog(z)
dists = pc.rows_dist_to_set(z, K)
print("support of chi_0.05 inside K_0.05:", bool(np.all(dists[vals > 0] < 0.05)))
