"""Automorphisms near the identity: shears, exponential coordinates, and
=====================================================================
the translation map read through the chart.

Automorphisms of P^k are invertible matrices up to scale; near the identity
each class is represented by the matrix with [0,0]-entry 1.  The matrix
exponential of traceless matrices parametrises a neighbourhood of the
identity, and right-translation by a shear becomes a smooth map in these
coordinates.
"""

import numpy as np

import projcut as pc

k = 1

# A shear translates chart-0 coordinates: G_h maps (1, z) to (1, z + h).
h = pc.ShearParams(np.array([0.1 + 0.05j]))
g = pc.shear(h)
print("shear matrix:\n", g.mat)
moved = pc.act(g, pc.ProjectivePoint([1.0, 0.25]))
print("acts on (1, 0.25):", pc.to_chart(moved, 0).coords)

# Exponential chart and its inverse are mutually inverse to high accuracy.
x = pc.AlgebraElement(np.array([[0.04, 0.02 - 0.01j], [0.03j, -0.04]]))
A = pc.exp_chart(x)
back = pc.log_chart(A)
print("roundtrip error:", np.linalg.norm(back.mat - x.mat))
print("det of exp of traceless:", np.linalg.det(pc.exp_sl(x)))

# The translation in chart coordinates matches the matrix product route.
translated = pc.chart_translate(x, h)
direct = pc.phi_normalize(A.mat @ g.mat)
print("translation consistency:",
      np.linalg.norm(pc.exp_chart(translated).mat - direct.mat))

# The closed-form chart distortion constant on the working ball,
# ||exp_chart(x) - Id|| <= C ||x||, checked against a sampled ratio.
C = pc.estimate_distortion(0.1, k)
print("distortion constant:", C, "| sampled check:",
      pc.check_distortion(0.1, C, 40000, seed=0, k=k))

# Volume distortion of the translation: |det| of the finite-difference
# Jacobian in real coordinates.  Identity at h = 0, drifts linearly in h
# away from the origin of the algebra.
zero = pc.AlgebraElement(np.zeros((k + 1, k + 1)))
some_x = pc.AlgebraElement(np.array([[0.03, 0.04j], [0.02, -0.03]]))
for label, point in (("x=0", zero), ("x!=0", some_x)):
    devs = []
    for mag in (0.0, 0.005, 0.01, 0.02):
        det = pc.chart_translate_jacobian(point, pc.ShearParams(np.array([mag])), 1e-4)
        devs.append(f"|h|={mag}: {abs(det - 1.0):.2e}")
    print(f"|det - 1| at {label}:", ", ".join(devs))
