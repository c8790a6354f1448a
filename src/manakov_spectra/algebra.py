"""Batched numerics used by the spectral machinery.

Everything here is batch-friendly: the hot paths take stacks of monic
cubics or sampled contours, so that grid sweeps over many spectral
parameters amortize numpy dispatch overhead.

Contents:

* ``cubic_roots_stack`` -- closed-form monic-cubic solver with a Newton
  polish per root and a deflation fallback for root sets whose moduli
  spread over more than six decades.  Its one caller is
  ``multipliers.multipliers``, which replaces the roots with the
  propagator's eigenvalues where two of them nearly collide: there a
  polynomial's root is good only to a fractional power of the rounding
  error of its coefficients.
* ``winding_count`` -- discrete argument-principle winding number with
  explicit undersampling and zero-proximity guards; the contours themselves
  belong to the caller (``periodic_eigen._windings`` samples circles and
  squares).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    ContourThroughZeroError,
    NonFiniteError,
    RootResidualError,
    UndersampledContourError,
)

__all__ = [
    "cubic_roots_stack",
    "winding_count",
]

# ----------------------------------------------------------------------------
# finiteness guard
# ----------------------------------------------------------------------------


def ensure_finite(arr, label: str):
    """Raise ``NonFiniteError`` if *arr* contains NaN/Inf; return it unchanged."""
    if not np.all(np.isfinite(np.asarray(arr))):
        raise NonFiniteError(f"non-finite entries in {label}")
    return arr


# ----------------------------------------------------------------------------
# monic cubic solver
# ----------------------------------------------------------------------------

_OMEGA = np.exp(2j * np.pi / 3)


def _horner(c2, c1, c0, r):
    return ((r + c2) * r + c1) * r + c0


def _horner_floor(c2, c1, c0, r):
    # Running-error style bound on the evaluation noise of the cubic at r:
    # even a perfect root cannot produce a smaller computed residual.
    ar = np.abs(r)
    return 32.0 * np.finfo(float).eps * (((ar + np.abs(c2)) * ar + np.abs(c1)) * ar + np.abs(c0))


def _newton_step(c2, c1, c0, r):
    """One safeguarded Newton step: keep the update only if it helps.

    At (near-)multiple roots both the value and the derivative vanish, and the
    raw correction ``f/fp`` is rounding noise divided by rounding noise -- it
    can kick a machine-accurate root far away.  Comparing residuals before and
    after makes the polish monotone.
    """
    f = _horner(c2, c1, c0, r)
    fp = (3.0 * r + 2.0 * c2) * r + c1
    safe = np.abs(fp) > 0
    cand = np.where(safe, r - f / np.where(safe, fp, 1.0), r)
    better = np.abs(_horner(c2, c1, c0, cand)) < np.abs(f)
    return np.where(better, cand, r)


def _cardano(c2, c1, c0):
    """Closed-form roots of the monic cubic, vectorized; no polishing."""
    shift = -c2 / 3.0
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2**3 / 27.0 - c2 * c1 / 3.0 + c0
    d = (q / 2.0) ** 2 + (p / 3.0) ** 3
    sq = np.sqrt(d.astype(np.complex128))
    # pick the cube-root argument of larger magnitude to dodge cancellation
    cand_a = -q / 2.0 + sq
    cand_b = -q / 2.0 - sq
    u3 = np.where(np.abs(cand_a) >= np.abs(cand_b), cand_a, cand_b)
    u = u3 ** (1.0 / 3.0)
    nz = np.abs(u) > 0
    v = np.where(nz, -p / (3.0 * np.where(nz, u, 1.0)), 0.0)
    r0 = u + v + shift
    r1 = _OMEGA * u + np.conj(_OMEGA) * v + shift
    r2 = np.conj(_OMEGA) * u + _OMEGA * v + shift
    return np.stack([r0, r1, r2], axis=-1)


def _ldexp(z, k):
    """``z * 2**k`` for complex *z*, exactly, even where ``2**k`` overflows."""
    out = np.empty_like(z)
    out.real = np.ldexp(z.real, k)
    out.imag = np.ldexp(z.imag, k)
    return out


def _pair_roots(ssum, prod):
    """Roots of ``x**2 - ssum x + prod``, the larger one first.

    The pair is solved at unit scale: both coefficients are rescaled by a
    power of two, which is exact.  Unscaled, a subnormal pair loses its
    square to underflow, and numpy's complex division by a subnormal root
    overflows to NaN.
    """
    k = np.frexp(np.maximum(np.abs(ssum), np.sqrt(np.abs(prod))))[1]
    s = _ldexp(ssum, -k)
    q = _ldexp(prod, -2 * k)
    disc = np.sqrt(s * s - 4.0 * q)
    plus = s + disc
    minus = s - disc
    t1 = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / 2.0
    t1_nz = np.abs(t1) > 0
    t2 = np.where(t1_nz, q / np.where(t1_nz, t1, 1.0), s / 2.0)
    return _ldexp(t1, k), _ldexp(t2, k)


def _deflate(c2, c1, c0, roots):
    """Recompute the two smaller roots from the dominant one via coefficient ratios.

    For root sets with huge magnitude spread the depressed-cubic transform
    destroys the small pair; the dominant root stays well-conditioned, and the
    remaining quadratic follows from the exact relations
    ``prod = -c0 / r_max`` and ``sum = (c1 - prod) / r_max``.
    """
    order = np.argsort(np.abs(roots), axis=-1)
    r_big = np.take_along_axis(roots, order[..., 2:3], axis=-1)[..., 0]
    for _ in range(3):
        r_big = _newton_step(c2, c1, c0, r_big)
    prod = -c0 / r_big
    ssum = (c1 - prod) / r_big
    t1, t2 = _pair_roots(ssum, prod)
    t1 = _newton_step(c2, c1, c0, t1)
    t2 = _newton_step(c2, c1, c0, t2)
    return np.stack([r_big, t1, t2], axis=-1)


def cubic_roots_stack(c2, c1, c0) -> np.ndarray:
    """Roots of ``t**3 + c2 t**2 + c1 t + c0`` for broadcastable coefficient arrays.

    Returns an array with one extra trailing axis of length 3 (unordered
    roots, repeated according to multiplicity).  Closed form plus three
    safeguarded Newton steps per root; a deflation pass handles root sets
    whose magnitudes spread over more than ~6 decades.  Raises ``RootResidualError`` if any
    residual exceeds its bound afterwards, or is NaN.
    """
    # on extreme coefficients Newton steps and the root spread overflow or
    # divide by zero; the residual and spread tests reject what they give
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c2, c1, c0 = np.broadcast_arrays(
            np.asarray(c2, dtype=np.complex128),
            np.asarray(c1, dtype=np.complex128),
            np.asarray(c0, dtype=np.complex128),
        )
        roots = _cardano(c2, c1, c0)
        c2e, c1e, c0e = c2[..., None], c1[..., None], c0[..., None]
        # near-double roots converge only linearly, so a single polish step can
        # leave most of the closed-form noise in place
        for _ in range(3):
            roots = _newton_step(c2e, c1e, c0e, roots)

        scale = np.maximum(1.0, np.maximum(np.abs(c2), np.maximum(np.abs(c1), np.abs(c0))))
        bound = 1e-10 * scale[..., None] + _horner_floor(c2e, c1e, c0e, roots)
        resid = np.abs(_horner(c2e, c1e, c0e, roots))

        mags = np.abs(roots)
        tiny = np.finfo(float).tiny
        spread = mags.max(axis=-1) / np.maximum(mags.min(axis=-1), tiny)
        # written as "not <=" so that a NaN residual counts as bad
        bad = ~np.all(resid <= bound, axis=-1) | (spread > 1e6)
        if np.any(bad):
            alt = _deflate(c2[bad], c1[bad], c0[bad], roots[bad])
            roots = roots.copy()
            roots[bad] = alt
            bound = 1e-10 * scale[..., None] + _horner_floor(c2e, c1e, c0e, roots)
            resid = np.abs(_horner(c2e, c1e, c0e, roots))

        if not np.all(resid <= bound):
            worst = float(np.max(resid / np.maximum(bound, tiny)))
            raise RootResidualError(f"cubic root residual {worst:.3g}x over bound")
        return roots


# ----------------------------------------------------------------------------
# winding numbers
# ----------------------------------------------------------------------------


def winding_count(values: np.ndarray) -> int:
    """Winding number of a sampled closed curve about the origin.

    *values* are samples in traversal order; the closing segment from the last
    sample back to the first is implied.  Guards:

    * any sample with modulus below ``1e-13 * max`` modulus -> contour passes
      through (numerical) zero;
    * any single-step phase change of at least pi/2 -> undersampled;
    * accumulated phase farther than 0.25 turns from an integer -> treated as
      undersampling as well.
    """
    v = np.asarray(values, dtype=np.complex128).ravel()
    if v.size < 4:
        raise ValueError("winding_count needs at least 4 samples")
    ensure_finite(v, "winding_count samples")
    mags = np.abs(v)
    vmax = mags.max()
    if vmax == 0.0 or mags.min() < 1e-13 * vmax:
        raise ContourThroughZeroError(
            f"contour-through-zero: min |f| = {mags.min():.3e} vs max {vmax:.3e}"
        )
    steps = np.angle(np.roll(v, -1) / v)
    worst = float(np.abs(steps).max())
    if worst >= np.pi / 2:
        raise UndersampledContourError(
            f"undersampled contour: max phase step {worst:.3f} rad >= pi/2"
        )
    total = float(steps.sum() / (2.0 * np.pi))
    w = int(np.round(total))
    if abs(total - w) >= 0.25:
        raise UndersampledContourError(
            f"undersampled contour: winding total {total:.3f} not near an integer"
        )
    return w

