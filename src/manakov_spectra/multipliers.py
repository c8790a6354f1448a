"""Floquet multipliers and scalar functions derived from the period traces.

The multipliers at a spectral parameter ``lam`` are the eigenvalues of the
period propagator, i.e. the roots of the monic cubic

    tau^3 - T tau^2 + e^{i lam} S tau - e^{i lam} = 0,

where ``T`` is the propagator trace and ``S`` the trace of its inverse
(``S(lam) = conj(T(conj lam))``; on the real axis simply ``conj(T)``).  The
constant term reflects the fixed determinant ``e^{i lam}`` of the propagator.

Derived per-parameter scalars:

* ``disc``  -- modified discriminant; real on the real axis, negative exactly
  on the one-sided (single unimodular multiplier) set;
* ``phi``   -- trace asymmetry ``(T - S)/(2i) - sin(lam)``; vanishes
  identically iff the potential components are proportional;
* ``tcal``, ``t1``, ``det_lambda`` -- elementary symmetric functions of the
  three Lyapunov-type averages ``delta_j = (tau_j + 1/tau_j)/2``;
* ``rho``  -- their pairwise-difference product
  ``(d1-d2)^2 (d1-d3)^2 (d2-d3)^2`` expressed through the symmetric functions.

``identity_suite`` evaluates the two internal consistency identities tying
these together and reports scale-normalized residuals.
"""

from __future__ import annotations

import numpy as np

from .algebra import cubic_roots_stack

__all__ = [
    "derived_grid",
    "identity_suite",
    "lyapunov_triple",
    "multipliers_from_traces",
    "unimodular_count",
]

#: band for |(|tau|) - 1| below which a multiplier counts as unimodular
UNIMODULAR_TOL = 1e-6


def multipliers_from_traces(t, s, lam) -> np.ndarray:
    """Unordered multiplier triples for broadcastable trace arrays.

    Returns an array with trailing axis 3.  Residual guarantees come from the
    underlying cubic solver.
    """
    t = np.asarray(t, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    phase = np.exp(1j * np.asarray(lam, dtype=np.complex128))
    return cubic_roots_stack(-t, phase * s, -phase)


def unimodular_count(taus: np.ndarray) -> np.ndarray:
    """Number of the (..., 3) multipliers within ``UNIMODULAR_TOL`` of the unit circle."""
    return np.sum(np.abs(np.abs(taus) - 1.0) <= UNIMODULAR_TOL, axis=-1)


# ----------------------------------------------------------------------------
# derived scalars
# ----------------------------------------------------------------------------


def _disc(t, s, em, ep):
    """The modified discriminant from the traces and ``em, ep = exp(-+i lam)``."""
    return -(t * t * s * s - 4.0 * em * t**3 - 4.0 * ep * s**3 + 18.0 * t * s - 27.0) / 64.0


def _phi(t, s, lam):
    """The trace asymmetry ``(T - S)/(2i) - sin(lam)``."""
    return (t - s) / 2j - np.sin(lam)


def _lyapunov_symmetric(t, s, lam):
    """``(tcal, t1, det_lambda)`` from complex arrays of traces and ``lam``."""
    ep = np.exp(1j * lam)
    em = np.exp(-1j * lam)
    tcal = (t + s) / 2.0
    # Pairwise products of the tau-pairs come out as e^{i lam}*s and e^{-i lam}*t,
    # so the compact factorization pairs e^{-i lam} with t and e^{+i lam} with s.
    t1 = 0.25 * (em * t + 1.0) * (ep * s + 1.0) - 1.0
    det_lambda = (
        2.0 * np.cos(lam) + ep * (s * s - 2.0 * em * t) + em * (t * t - 2.0 * ep * s)
    ) / 8.0
    return tcal, t1, det_lambda


def derived_grid(t, s, lam) -> dict:
    """Derived scalars for broadcastable arrays of traces; returns a dict of arrays."""
    t = np.asarray(t, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.complex128)
    tcal, t1, det_lambda = _lyapunov_symmetric(t, s, lam)
    rho = (
        tcal**2 * t1**2
        - 4.0 * det_lambda * tcal**3
        - 4.0 * t1**3
        + 18.0 * det_lambda * tcal * t1
        - 27.0 * det_lambda**2
    )
    return {
        "disc": _disc(t, s, np.exp(-1j * lam), np.exp(1j * lam)),
        "phi": _phi(t, s, lam),
        "tcal": tcal,
        "t1": t1,
        "det_lambda": det_lambda,
        "rho": rho,
    }


def lyapunov_triple(t, s, lam) -> np.ndarray:
    """Branch averages (tau + 1/tau)/2, solved from their own cubic.

    Pairing each multiplier with its reciprocal loses all precision once
    |Im lam| is large: the small pair of multipliers drowns in the absolute
    rounding of the trace (their moduli span e^{-|Im lam|}..e^{+|Im lam|}).
    The averages themselves all sit at the cos-lam scale, so the monic cubic
    they satisfy -- elementary symmetric functions (tcal, t1, det_lambda) --
    is well conditioned after dividing through by cos lam.  Returns shape
    ``lam.shape + (3,)``.
    """
    t = np.asarray(t, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.complex128)
    tcal, t1, det_lambda = _lyapunov_symmetric(t, s, lam)
    cosl = np.cos(lam)
    unit = np.where(np.abs(cosl) > 1.0, cosl, 1.0)
    c2 = -tcal / unit
    c1 = t1 / unit**2
    c0 = -det_lambda / unit**3
    roots = cubic_roots_stack(c2, c1, c0)
    return roots * unit[..., None]


def identity_suite(t, s, lam) -> dict:
    """Residuals of the two internal consistency identities, scale-normalized.

    * ``dd1``: the multiplier cubic evaluated at ``e^{i lam}`` equals
      ``2 i e^{2 i lam} phi``;
    * ``dd2``: ``4 * disc * phi^2`` equals ``rho``.

    Each residual is divided by the largest magnitude among the terms feeding
    it, so a value of order machine epsilon means exact agreement and order
    one means a genuine violation.  Works on scalars or arrays; returns a dict
    with residuals and the common tolerance verdict at 1e-8.
    """
    t = np.asarray(t, dtype=np.complex128)
    s = np.asarray(s, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.complex128)
    d = derived_grid(t, s, lam)
    ep = np.exp(1j * lam)
    e2 = ep * ep
    e3 = e2 * ep

    lhs1 = -e3 + e2 * t - e2 * s + ep
    rhs1 = 2j * e2 * d["phi"]
    scale1 = np.maximum.reduce(
        [np.abs(e3), np.abs(e2 * t), np.abs(e2 * s), np.abs(ep), np.abs(rhs1)]
    )
    r1 = np.abs(lhs1 - rhs1) / np.maximum(scale1, 1e-30)

    lhs2 = 4.0 * d["disc"] * d["phi"] ** 2
    rhs2 = d["rho"]
    tc, t1v, dl = d["tcal"], d["t1"], d["det_lambda"]
    scale2 = np.maximum.reduce(
        [
            np.abs(tc**2 * t1v**2),
            4.0 * np.abs(dl * tc**3),
            4.0 * np.abs(t1v**3),
            18.0 * np.abs(dl * tc * t1v),
            27.0 * np.abs(dl) ** 2,
            np.abs(lhs2),
        ]
    )
    r2 = np.abs(lhs2 - rhs2) / np.maximum(scale2, 1e-30)

    return {
        "dd1": r1,
        "dd2": r2,
        "ok": bool(np.all(r1 <= 1e-8) and np.all(r2 <= 1e-8)),
    }
