"""The smooth radial measure on traceless matrices and its sampler.
================================================================

The density is a compactly supported bump in the Frobenius norm, flat to all
orders at the edge of its support ball, normalised to total mass 1 by a
radial quadrature.  Scaling by theta shrinks the support and rescales the
density; sampling draws the radius through an inverse-CDF table and the
direction uniformly on the sphere.
"""

import math

import numpy as np

import projcut as pc
from projcut.measure import sample_rows

k, sigma = 1, 0.1
spec = pc.get_mollifier(k, sigma)
n = spec.n
print(f"real dimension of the matrix space: {n}")
print(f"normalisation constant: {spec.norm_const:.6g}")

# Density values: radial, supported strictly inside the sigma-ball.
direction = np.diag([1.0, -1.0]) / math.sqrt(2.0)
for r in (0.0, 0.05, 0.09, 0.0999, 0.1, 0.2):
    print(f"  density at radius {r}: {pc.density(spec, r * direction):.6g}")

# Scaling: support theta*sigma, density multiplied by theta^(-n).
scaled = pc.ScaledMeasure(spec, 0.5)
x = 0.02 * direction
print("scaled density ratio:",
      pc.scaled_density(scaled, 0.5 * x) / pc.density(spec, x),
      "vs theta^-n =", 0.5 ** (-n))

# Sampling: deterministic, strictly inside the support.
rows = sample_rows(scaled, 50000, seed=0)
radii = np.linalg.norm(rows, axis=1)
print(f"max sample radius: {radii.max():.6f} (support edge {0.5 * sigma})")
print(f"coordinate means (should be ~0): max |mean| = {np.abs(rows.mean(axis=0)).max():.2e}")

# The empirical radius law matches the analytic CDF.
t, cdf = pc.measure.radial_cdf_nodes(n)
sorted_r = np.sort(radii) / (0.5 * sigma)
F = np.interp(sorted_r, t, cdf)
i = np.arange(1, radii.size + 1)
ks = max(np.max(i / radii.size - F), np.max(F - (i - 1) / radii.size))
print(f"Kolmogorov-Smirnov distance to the radial law: {ks:.5f} "
      f"(1% critical {1.6276 / math.sqrt(radii.size):.5f})")

# Mass cross-check by Monte-Carlo over the uniform ball.
count = 200000
rng = np.random.default_rng(2)
r_mc = sigma * rng.random(count) ** (1.0 / n)
vals = spec.norm_const * pc.bump_profile(r_mc / sigma)
volume = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0) * sigma ** n
print(f"Monte-Carlo mass: {volume * vals.mean():.5f} "
      f"+- {volume * vals.std(ddof=1) / math.sqrt(count):.5f} (target 1)")
