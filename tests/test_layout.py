"""Per-sample arrays are laid out sample-fastest, and no result depends on layout.

Structural guards only: nothing here is timed.  The layout is what makes
wide RK4 steps cheap, and these tests pin the two things it must not cost:
a row's result may not depend on the rest of its batch, nor on the layout
of the caller's arrays.
"""

import numpy as np
import pytest

from mapgeom import EmbeddedManifold, make_manifold
from mapgeom.manifold import (
    _dot,
    integrate_spray,
    sample_fastest,
    sectional_curvature,
    transport_along_samples,
)

CHARTS = ("flat:n=2", "flat:n=3", "sphere:rep=chart", "halfplane")
TARGETS = ("flat:n=2", "flat:n=3", "sphere:rep=chart", "sphere", "halfplane",
           "paraboloid")
WIDE = 2048
STEPS = 3


def _hypersphere(n):
    """The unit sphere in R^n as a custom level set; n >= 8 is where NumPy
    starts to sum a contiguous axis pairwise."""

    def sample(rng, m):
        p = rng.normal(size=(m, n))
        return p / np.linalg.norm(p, axis=-1, keepdims=True)

    return EmbeddedManifold(ambient_dim=n, level_set=lambda p: _dot(p, p) - 1.0,
                            gradient=lambda p: 2.0 * p, hessian_action=lambda p, w: 2.0 * w,
                            sample_points=sample)


def _target(spec):
    return _hypersphere(9) if spec == "hypersphere:n=9" else make_manifold(spec)


def _inputs(man, m, seed=0):
    """m points and tangent velocities of speed 0.05-0.15, C-ordered."""
    rng = np.random.default_rng(seed)
    x = man.random_points(rng, m)
    v = man.project(x, rng.normal(size=x.shape))
    v = v * (rng.uniform(0.05, 0.15, m) / np.sqrt(man.inner(x, v, v)))[:, None]
    return np.ascontiguousarray(x), np.ascontiguousarray(v)


def _is_sample_fastest(a, axis=0):
    return a.strides[axis] == a.itemsize


def test_sample_fastest_lays_out_converts_and_allocates():
    a = np.arange(12.0).reshape(4, 3)
    f = sample_fastest(a)
    assert f.flags.f_contiguous and np.array_equal(f, a)
    assert sample_fastest(f) is f
    assert sample_fastest(f, copy=True) is not f
    z = sample_fastest((5, 4, 3), axis=1)
    assert z.shape == (5, 4, 3) and not z.any()
    assert all(_is_sample_fastest(z[j]) for j in range(5))
    # the sample and time axes of such a stack merge without a copy
    flat = z[1:-1].reshape(-1, 3)
    assert np.shares_memory(flat, z) and _is_sample_fastest(flat)
    # with no sample axis, a (T, n) stack is C-ordered
    assert sample_fastest((5, 3), axis=1).flags.c_contiguous


# below 8 components _dot takes NumPy's reduction, which must then add in
# index order in every layout; from 8 on it adds one component at a time
@pytest.mark.parametrize("n", range(1, 10))
def test_dot_adds_the_components_in_index_order_in_every_layout(n):
    rng = np.random.default_rng(n)
    # magnitudes over six decades, so that a change of order changes bits
    a = rng.normal(size=(3, 50, n)) * 10.0 ** rng.integers(-3, 3, size=(3, 50, n))
    b = rng.normal(size=(3, 50, n))
    p = a * b
    want = p[..., 0]
    for i in range(1, n):
        want = want + p[..., i]
    layouts = (lambda c: c, np.asfortranarray, lambda c: sample_fastest(c, axis=1),
               lambda c: np.moveaxis(np.ascontiguousarray(np.moveaxis(c, -1, 0)), 0, -1))
    for lay in layouts:
        assert np.array_equal(_dot(lay(a), lay(b)), want), n
    for row in ((0, 0), (2, 49)):  # one (n,) point
        assert _dot(a[row], b[row]) == want[row], n


@pytest.mark.parametrize("spec", CHARTS)
def test_chart_tensors_are_sample_fastest(spec):
    man = make_manifold(spec)
    x = man.random_points(np.random.default_rng(1), 5)
    for tensor in (man.christoffel(x), man.christoffel_jacobian(x)):
        assert tensor.flags.f_contiguous, spec


@pytest.mark.parametrize("spec", TARGETS + ("hypersphere:n=9",))
def test_each_row_is_integrated_as_if_alone(spec):
    man = _target(spec)
    x, v = _inputs(man, WIDE)
    xe, ve = integrate_spray(man, x, v, STEPS)
    assert _is_sample_fastest(xe) and _is_sample_fastest(ve)
    # transport along the (T, m, n) path of the same geodesics
    path, _ = integrate_spray(man, x, v, STEPS, record_every=1)
    w = man.project(x, np.roll(v, 1, axis=0))
    Xe = transport_along_samples(man, path, w)
    for i in range(0, WIDE, 31):
        xi, vi = integrate_spray(man, x[i:i + 1], v[i:i + 1], STEPS)
        assert np.array_equal(xi, xe[i:i + 1]) and np.array_equal(vi, ve[i:i + 1]), (spec, i)
        xi, vi = integrate_spray(man, x[i], v[i], STEPS)  # one (n,) point
        assert np.array_equal(xi, xe[i]) and np.array_equal(vi, ve[i]), (spec, i)
        Xi = transport_along_samples(man, path[:, i:i + 1], w[i:i + 1])
        assert np.array_equal(Xi, Xe[i:i + 1]), (spec, i)
        Xi = transport_along_samples(man, path[:, i], w[i])  # one (T, n) curve
        assert np.array_equal(Xi, Xe[i]), (spec, i)
    perm = np.random.default_rng(2).permutation(WIDE)
    xp, vp = integrate_spray(man, x[perm], v[perm], STEPS)
    assert np.array_equal(xp, xe[perm]) and np.array_equal(vp, ve[perm]), spec


@pytest.mark.parametrize("spec", TARGETS + ("hypersphere:n=9",))
def test_input_layout_does_not_change_results(spec):
    man = _target(spec)
    x, v = _inputs(man, 64)
    xf, vf = np.asfortranarray(x), np.asfortranarray(v)
    for record_every in (None, 1):
        c = integrate_spray(man, x, v, STEPS, record_every=record_every)
        f = integrate_spray(man, xf, vf, STEPS, record_every=record_every)
        assert all(np.array_equal(a, b) for a, b in zip(c, f)), spec
    xs, _ = integrate_spray(man, x, v, STEPS, record_every=1)
    assert all(_is_sample_fastest(xs[j]) for j in range(STEPS + 1))
    points = np.ascontiguousarray(xs)  # a (T, m, n) path, C-ordered
    w = np.roll(v, 1, axis=0)
    c = transport_along_samples(man, points, w)
    f = transport_along_samples(man, sample_fastest(points, axis=1), np.asfortranarray(w))
    assert np.array_equal(c, f), spec


@pytest.mark.parametrize("spec", TARGETS + ("hypersphere:n=9",))
def test_curvature_does_not_depend_on_input_layout(spec):
    man = _target(spec)
    x, h = _inputs(man, WIDE)
    rng = np.random.default_rng(3)
    k, l = (np.ascontiguousarray(man.project(x, rng.normal(size=x.shape))) for _ in range(2))
    xf, hf, kf, lf = map(np.asfortranarray, (x, h, k, l))
    assert np.array_equal(man.curvature(x, h, k, l), man.curvature(xf, hf, kf, lf)), spec
    assert np.array_equal(sectional_curvature(man, x, h, k),
                          sectional_curvature(man, xf, hf, kf)), spec
