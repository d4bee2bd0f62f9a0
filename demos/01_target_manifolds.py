"""Tour of the built-in target manifolds and their pointwise geometry.

Walks through the registry, evaluates Christoffel symbols against closed
forms, applies the connector, shoots geodesics against great-circle
formulas, and transports a vector around a spherical triangle to expose
holonomy.
"""

import numpy as np

from mapgeom import list_manifolds, make_manifold, sectional_curvature
from mapgeom.manifold import integrate_spray, transport_along_samples

print("registry:")
for name, description in list_manifolds():
    print(f"  {name:<12} {description}")

# --- Christoffel symbols on the hyperbolic half-plane -----------------------
halfplane = make_manifold("halfplane")
x = np.array([0.0, 1.0])
gamma = halfplane.christoffel_eval(x)
print("\nhalfplane Christoffel symbols at (0, 1):")
print(f"  Gamma^x_xy = {gamma[0, 0, 1]}   (analytic: -1/y = -1)")
print(f"  Gamma^y_xx = {gamma[1, 0, 0]}   (analytic: +1/y = +1)")
print(f"  Gamma^y_yy = {gamma[1, 1, 1]}   (analytic: -1/y = -1)")

# --- the connector annihilates geodesic data --------------------------------
# K(x, h; k, l) = l + Gamma(k, h); feeding it a vertical lift returns the
# second slot untouched.  A single point goes straight to the manifold
# interface: check that it is on the target, then apply the method.
halfplane.require_valid(x, "connector base point")
lift = halfplane.connector(x, np.array([0.7, -0.2]), np.zeros(2), np.array([1.5, 2.5]))
print("\nconnector on a vertical lift:", lift, "(returns l)")

# --- geodesics on the sphere vs the closed form ------------------------------
sphere = make_manifold("sphere:r=1.0:rep=embedded")
pole = np.array([0.0, 0.0, 1.0])
h = (np.pi / 2) * np.array([1.0, 0.0, 0.0])
end, _ = integrate_spray(sphere, pole, h, 1000)
closed = np.cos(np.pi / 2) * pole + np.sin(np.pi / 2) * np.array([1.0, 0.0, 0.0])
print("\nsphere exp from the north pole, |h| = pi/2:")
print(f"  integrated endpoint   {end}")
print(f"  great-circle formula  {closed}")
print(f"  max deviation         {np.max(np.abs(end - closed)):.3e}")

# --- curvature ---------------------------------------------------------------
rng = np.random.default_rng(0)
for name, expected in [("sphere:r=1.0:rep=chart", 1.0), ("sphere:r=2.0:rep=chart", 0.25),
                       ("halfplane", -1.0)]:
    man = make_manifold(name)
    pt = man.random_points(rng, 1)
    sec = sectional_curvature(man, pt, rng.uniform(-1, 1, (1, 2)), rng.uniform(-1, 1, (1, 2)))
    print(f"sectional curvature of {name:<24} {sec[0]:+.12f}  (expected {expected:+})")

# --- holonomy around a spherical triangle ------------------------------------
def arc(p, q, n):
    theta = np.arccos(np.clip(p @ q, -1, 1))
    w = q - np.cos(theta) * p
    w /= np.linalg.norm(w)
    ts = np.linspace(0.0, theta, n)
    return np.cos(ts)[:, None] * p + np.sin(ts)[:, None] * w

north = np.array([0.0, 0.0, 1.0])
a = np.array([1.0, 0.0, 0.0])
b = np.array([0.0, 1.0, 0.0])
loop = np.vstack([arc(north, a, 3334), arc(a, b, 3334)[1:], arc(b, north, 3334)[1:]])
v0 = np.array([1.0, 0.0, 0.0])
out = transport_along_samples(sphere, loop, v0)
angle = np.arctan2(np.cross(v0, out)[2], v0 @ out)
print("\nparallel transport around the octant triangle (three right angles):")
print(f"  started with {v0}, returned {np.round(out, 10)}")
print(f"  holonomy angle {angle:.10f} rad  (enclosed area pi/2 = {np.pi / 2:.10f})")
