"""Kernel-level checks: cubic solver, winding counts, and the 3x3 and Pade
exponential oracles.

The multipliers lean on the cubic solver, so it gets the heaviest treatment
here, including Newton polish diverging at exact double roots and the
symmetric functions of nearly colliding roots.  Multiplier triples whose
roots nearly collide are the propagator's eigenvalues instead
(``multipliers.multipliers``); ``test_multipliers`` holds those to their
40-digit values.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from manakov_spectra.algebra import (
    ContourThroughZeroError,
    RootResidualError,
    UndersampledContourError,
    cubic_roots_stack,
    winding_count,
)
from oracles import det3, expm_dense, expm_stack3, solve3


def coeffs_from_roots(r1, r2, r3):
    c2 = -(r1 + r2 + r3)
    c1 = r1 * r2 + r1 * r3 + r2 * r3
    c0 = -(r1 * r2 * r3)
    return c2, c1, c0


from conftest import multiset_distance  # noqa: E402  (shared test helper)


# -- cubic solver ----------------------------------------------------------


def test_cubic_known_roots_recovered(rng):
    for _ in range(200):
        roots = rng.normal(size=3) + 1j * rng.normal(size=3)
        c2, c1, c0 = coeffs_from_roots(*roots)
        got = cubic_roots_stack(c2, c1, c0)
        sep = min(
            abs(roots[0] - roots[1]),
            abs(roots[0] - roots[2]),
            abs(roots[1] - roots[2]),
        )
        tol = 1e-9 * max(1.0, np.abs(roots).max()) / max(sep, 1e-3)
        assert multiset_distance(got, roots) <= max(tol, 1e-9)


def test_cubic_stack_matches_scalar(rng):
    c2 = rng.normal(size=50) + 1j * rng.normal(size=50)
    c1 = rng.normal(size=50) + 1j * rng.normal(size=50)
    c0 = rng.normal(size=50) + 1j * rng.normal(size=50)
    stacked = cubic_roots_stack(c2, c1, c0)
    for k in range(50):
        single = cubic_roots_stack(c2[k], c1[k], c0[k])
        assert multiset_distance(stacked[k], single) <= 1e-10


def test_cubic_triple_root():
    # (z - r)^3: worst conditioning, accuracy only to eps^(1/3)
    r = 0.7 - 0.3j
    got = cubic_roots_stack(-3 * r, 3 * r * r, -r * r * r)
    assert np.abs(got - r).max() <= 1e-4


def test_cubic_exact_double_root_no_divergence():
    # regression: an unguarded Newton step at an exact double root divides
    # noise by noise and used to kick the root 0.05 away from the truth
    for lam in (0.3, 1.7, -2.2, 5.05):
        ep = np.exp(1j * lam)
        em = np.exp(-1j * lam)
        t = em + 2 * ep  # double root at ep, simple at em
        s = ep + 2 * em
        got = cubic_roots_stack(-t, ep * s, -ep)
        assert multiset_distance(got, [em, ep, ep]) <= 1e-7


def test_cubic_symmetric_functions_tight_near_collision():
    # roots 1e-4 apart: the polished closed-form roots still give the
    # elementary symmetric functions at close to working precision
    r1, r2, r3 = 1.0 + 1.0j, 1.0001 + 1.0j, -2.0 + 0.5j
    c2, c1, c0 = coeffs_from_roots(r1, r2, r3)
    z = cubic_roots_stack(c2, c1, c0)
    e1 = z.sum()
    e2 = z[0] * z[1] + z[0] * z[2] + z[1] * z[2]
    e3 = z.prod()
    assert abs(e1 + c2) <= 1e-10
    assert abs(e2 - c1) <= 1e-10
    assert abs(e3 + c0) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
        st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    )
)
@example((1.0 + 0j, 2.2e-309 + 0j, 0j))
def test_cubic_residual_property(roots):
    c2, c1, c0 = coeffs_from_roots(*roots)
    z = cubic_roots_stack(c2, c1, c0)
    # every returned root really is a root, to a residual that scales with
    # the coefficient magnitudes
    scale = max(1.0, abs(c2), abs(c1), abs(c0)) * max(1.0, np.abs(z).max()) ** 3
    resid = np.abs(((z + c2) * z + c1) * z + c0)
    assert resid.max() <= 1e-9 * scale


def test_cubic_subnormal_root_stays_finite():
    # roots 1, 2.2e-309 and 0: the deflated small pair once came back as
    # [1.1e-309, nan], because its square underflows and numpy's complex
    # division by a subnormal overflows
    z = cubic_roots_stack(-1.0, 2.2e-309, 0.0)
    assert np.all(np.isfinite(z))
    assert multiset_distance(z, np.array([1.0, 2.2e-309, 0.0])) <= 1e-300


def test_cubic_nan_residual_raises():
    # a NaN residual is not under any bound
    with pytest.raises(RootResidualError):
        cubic_roots_stack(np.nan, 0.0, 0.0)


# -- winding counts --------------------------------------------------------


def _circle(radius, samples):
    """*samples* points on the circle |z| = radius, counterclockwise."""
    return radius * np.exp(2j * np.pi * np.arange(samples) / samples)


def test_winding_simple_and_multiple():
    a, b = 0.2 + 0.1j, 2.0 - 0.5j
    z = _circle(1.0, 256)
    f = (z - a) * (z - b) ** 2
    assert winding_count(f) == 1
    z = _circle(4.0, 512)
    f = (z - a) * (z - b) ** 2
    assert winding_count(f) == 3


def test_winding_guards():
    z = _circle(1.0, 16)
    with pytest.raises(UndersampledContourError):
        winding_count((z - 0.01) ** 5)  # 5 turns on 16 samples
    z = _circle(1.0, 256)
    with pytest.raises(ContourThroughZeroError):
        winding_count(z - 1.0)  # root sits on the contour


@settings(max_examples=40, deadline=None)
@given(st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_winding_indicator_property(root):
    z = _circle(1.0, 512)
    if abs(abs(root) - 1.0) < 0.05:
        return  # too close to the contour for a clean count
    w = winding_count(z - root)
    assert w == (1 if abs(root) < 1.0 else 0)


# -- small dense linear algebra -------------------------------------------


def test_det3_against_numpy(rng):
    m = rng.normal(size=(40, 3, 3)) + 1j * rng.normal(size=(40, 3, 3))
    d = det3(m)
    assert np.abs(d - np.linalg.det(m)).max() <= 1e-10 * np.abs(d).max()


def test_solve3_against_numpy(rng):
    a = rng.normal(size=(25, 3, 3)) + 1j * rng.normal(size=(25, 3, 3))
    b = rng.normal(size=(25, 3, 3)) + 1j * rng.normal(size=(25, 3, 3))
    x = solve3(a, b)
    want = np.linalg.solve(a, b)
    assert np.abs(x - want).max() <= 1e-8


def test_expm_stack_matches_dense(rng):
    a = 0.8 * (rng.normal(size=(30, 3, 3)) + 1j * rng.normal(size=(30, 3, 3)))
    fast = expm_stack3(a)
    for k in range(30):
        ref = expm_dense(a[k])
        assert np.abs(fast[k] - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())


def test_expm_nilpotent_exact():
    n = np.array([[0, 2.0, 1.0j], [0, 0, -3.0], [0, 0, 0]], dtype=np.complex128)
    want = np.eye(3) + n + n @ n / 2.0
    assert np.abs(expm_dense(n) - want).max() <= 1e-14
    assert np.abs(expm_stack3(n[None])[0] - want).max() <= 1e-13


def test_expm_group_property(rng):
    a = 0.5 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    one = expm_dense(a) @ expm_dense(-a)
    assert np.abs(one - np.eye(3)).max() <= 1e-13
