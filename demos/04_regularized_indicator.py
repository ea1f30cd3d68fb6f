"""Smoothing a sharp indicator with a frozen sample of automorphisms.
==================================================================

The smoothed function averages the indicator over group elements
exp_chart(theta * x_j) with x_j drawn once.  With the sample frozen, the
average is count / S, a step function of the point, whose expectation over
the draw is the exact smoothed function, so its finite differences estimate
the exact difference quotients.  Shrinking theta sharpens the transition
layer and scales the gradient up like 1/theta.
"""

import numpy as np

import projcut as pc
from projcut.geometry import geodesic_row, tangent_row
from projcut.rng import make_rng

mollifier = pc.get_mollifier(1, 0.1)
center = pc.ProjectivePoint([1.0, 0.1])
ball = pc.CompactSetSpec((pc.Ball(center, 0.0),))
f = pc.indicator_fattened(ball, 0.2)  # open ball of radius 0.2

theta, S = 0.05, 8000
rf = pc.regularize(f, theta, S, seed=5, mollifier=mollifier)

# Profile along a geodesic through the indicator boundary at distance 0.2:
# 1 on the inside plateau, 0 outside, smooth transition of width ~ theta.
# All 13 points go through one eval_homog call: each call with points in
# the transition forms the ball tests of the sample afresh, so one call per
# point (rf(z)) would pay that pass 13 times.
rng = make_rng(0, 0)
v = tangent_row(center.homog, rng)
ts = np.linspace(0.17, 0.23, 13)
profile = rf.eval_homog(np.stack([pc.ProjectivePoint(geodesic_row(center.homog, v, t)).homog
                                  for t in ts]))
print("dist    smoothed value")
for t, value in zip(ts, profile):
    print(f"{t:.3f}   {value:.4f}")

# Inside the plateau every sampled term is 1, so the value and the
# derivative are exactly 1 and 0; on the slope the gradient is ~ 1/width.
inside = pc.to_chart(center)
slope_pt = pc.to_chart(pc.ProjectivePoint(geodesic_row(center.homog, v, 0.2)))
print("gradient deep inside:", pc.finite_diff(rf, inside, 1, 1e-3))
print("gradient on the transition:", pc.finite_diff(rf, slope_pt, 1, 1e-3))

# Halving theta doubles the gradient (same frozen seed isolates the scale).
rf_half = pc.regularize(f, theta / 2, S, seed=5, mollifier=mollifier)
w = 2 * 1.7 * 0.1 * theta
grid = [pc.to_chart(pc.ProjectivePoint(geodesic_row(center.homog, v, t)))
        for t in np.linspace(0.2 - w, 0.2 + w, 160)]
e_full = pc.c_alpha_estimate(rf, grid, 1, 5e-4)
e_half = pc.c_alpha_estimate(rf_half, grid, 1, 5e-4)
print(f"max gradient at theta:   {e_full:.1f}")
print(f"max gradient at theta/2: {e_half:.1f}  (ratio {e_half / e_full:.2f}, target 2)")
