"""Independent 2x2 reference propagator for rank-one potentials.

When the two potential components are proportional, the 3x3 problem splits
into a scalar 2x2 block plus a free line.  This module implements that scalar
block directly -- its own step exponentials in closed form, sharing nothing
with the 3x3 propagator beyond the sinh(z)/z kernel -- so it can serve as
ground truth: branch averages, the modified discriminant, the half-period
root functions, and the band/gap picture of the full pipeline must all
collapse onto 2x2 quantities.  ``reduction_check`` measures that collapse on
the propagators ``verify`` already holds, and ``verify`` judges it.  Its
gap magnitude is ``log|eps(delta)|`` of the 2x2 branch average ``delta``, by
the conformal map ``eps_map``, a route that shares no code with the
``|log|tau||`` of ``quasimomentum``.

The 2x2 step is exact per step: with ``M = [[lam, -conj(u)], [u, -lam]]`` one
has ``M^2 = (lam^2 - |u|^2) I``, so the exponential is
``cos(w omega) I - i sin(w omega)/omega * M`` on a step of width ``w``.  The
generator is traceless, hence the propagator determinant is one to rounding.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .monodromy import _sinch
from .multipliers import derived_grid, multipliers
from .periodic_eigen import d_pm_from_traces
from .potential import Potential, is_rank_one, moments

ENDPOINT_TOL = 1e-12
# grid step of the 2x2 gap search
ZS_SCAN_STEP = 0.01


def scalar_reduction(p: Potential) -> tuple[np.ndarray, np.ndarray]:
    """Extract ``(u, e)`` with ``v = u * e``, ``e`` a constant unit 2-vector.

    The direction comes from the quadratic moments: the dominant component
    fixes its modulus, the cross moment fixes the relative phase, and the
    overall phase is gauged so the first nonvanishing entry of ``e`` is real
    positive.  Rejects potentials whose components are not proportional.
    """
    if not is_rank_one(p):
        raise ConfigError("potential components are not proportional")
    m = moments(p)
    grid = p.canonical()
    v = grid.values
    if m.b3 <= 0.0:
        return np.zeros(len(v), dtype=np.complex128), np.array([1.0, 0.0 + 0.0j])
    if m.c1 >= m.c2:
        e1 = np.sqrt(m.c1 / m.b3)
        e2 = np.conj(m.c12) / (m.b3 * e1) if e1 > 0 else 0.0
    else:
        e2 = np.sqrt(m.c2 / m.b3)
        e1 = m.c12 / (m.b3 * e2)
    e = np.array([e1, e2], dtype=np.complex128)
    e /= np.linalg.norm(e)
    first = e[0] if abs(e[0]) > 1e-14 else e[1]
    e *= np.conj(first) / abs(first)
    u = v[:, 0] * np.conj(e[0]) + v[:, 1] * np.conj(e[1])
    return u, e


def _scalar_runs(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # collapse equal consecutive samples; exact because each step is constant
    u = np.asarray(u, dtype=np.complex128)
    if len(u) == 0:
        raise ConfigError("empty scalar potential")
    keep = np.empty(len(u), dtype=bool)
    keep[0] = True
    np.not_equal(u[1:], u[:-1], out=keep[1:])
    starts = np.flatnonzero(keep)
    widths = np.diff(np.append(starts, len(u))) / float(len(u))
    return u[starts], widths


def zs_delta_grid(u: np.ndarray, lam) -> np.ndarray:
    """Half-trace of the 2x2 propagator over one period, vectorized in lam."""
    y = zs_propagator_grid(u, lam)
    return 0.5 * (y[..., 0, 0] + y[..., 1, 1])


def zs_propagator_grid(u: np.ndarray, lam) -> np.ndarray:
    """Full 2x2 propagators over one period; shape ``lam.shape + (2, 2)``."""
    lam = np.asarray(lam, dtype=np.complex128)
    vals, widths = _scalar_runs(np.asarray(u, dtype=np.complex128))
    y11 = np.ones_like(lam)
    y12 = np.zeros_like(lam)
    y21 = np.zeros_like(lam)
    y22 = np.ones_like(lam)
    for uk, w in zip(vals, widths):
        omega = np.sqrt(lam * lam - abs(uk) ** 2)
        c = np.cos(w * omega)
        sc = w * _sinch(1j * w * omega)
        e11 = c - 1j * sc * lam
        e12 = 1j * sc * np.conj(uk)
        e21 = -1j * sc * uk
        e22 = c + 1j * sc * lam
        n11 = e11 * y11 + e12 * y21
        n12 = e11 * y12 + e12 * y22
        n21 = e21 * y11 + e22 * y21
        n22 = e21 * y12 + e22 * y22
        y11, y12, y21, y22 = n11, n12, n21, n22
    out = np.empty(lam.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = y11
    out[..., 0, 1] = y12
    out[..., 1, 0] = y21
    out[..., 1, 1] = y22
    return out


def zs_gaps(u: np.ndarray, lo: float, hi: float) -> list[tuple[float, float]]:
    """Open instability intervals of the 2x2 problem on ``[lo, hi]``.

    The half-trace is real on the real line and the gap indicator is
    ``delta^2 > 1``; endpoints are polished by bisection on ``delta^2 - 1``.
    Gaps truncated by the window edges are clamped to the window.
    """
    if hi <= lo:
        raise ConfigError("empty scan interval")
    n = max(int(np.ceil((hi - lo) / ZS_SCAN_STEP)), 8) + 1
    grid = np.linspace(lo, hi, n)
    f = np.real(zs_delta_grid(u, grid)) ** 2 - 1.0
    sign = f > 0.0
    flips = np.flatnonzero(sign[1:] != sign[:-1])
    a = grid[flips].astype(np.float64)
    b = grid[flips + 1].astype(np.float64)
    for _ in range(60):
        mid = 0.5 * (a + b)
        if len(mid) == 0 or np.max(b - a) < ENDPOINT_TOL:
            break
        fm = np.real(zs_delta_grid(u, mid)) ** 2 - 1.0
        left_pos = sign[flips]
        mid_pos = fm > 0.0
        go_left = mid_pos != left_pos
        b = np.where(go_left, mid, b)
        a = np.where(go_left, a, mid)
    # the flips alternate, gap -> band after band -> gap, so their ends pair off
    ends = (0.5 * (a + b)).tolist()
    if sign[0]:
        ends.insert(0, lo)
    if len(ends) % 2:
        ends.append(hi)
    return list(zip(ends[0::2], ends[1::2]))


def eps_map(z):
    """Conformal map ``z + sqrt(z^2 - 1)`` on the branch with modulus >= 1.

    Accepts scalars or arrays.  On the segment [-1, 1] the two candidate
    values both have modulus one and the upper boundary value is returned.
    The selection commutes with conjugation: ``eps_map(conj(z))`` equals
    ``conj(eps_map(z))``.
    """
    z = np.asarray(z, dtype=np.complex128)
    w = np.sqrt(z * z - 1.0)
    plus = z + w
    minus = z - w
    out = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    if out.ndim == 0:
        return complex(out)
    return out


def zs_q0_integral(u: np.ndarray, lo: float, hi: float, nodes: int = 256) -> float:
    """``(1/pi)`` times the integrated 2x2 gap magnitude over ``[lo, hi]``.

    Midpoint quadrature in the substituted variable that absorbs the
    square-root vanishing at gap endpoints; fixed node count, since this is a
    reference value for comparisons rather than an adaptive production path.
    """
    total = 0.0
    for a, b in zs_gaps(u, lo, hi):
        theta = (np.arange(nodes) + 0.5) * (np.pi / nodes)
        lam = a + (b - a) * np.sin(0.5 * theta) ** 2
        w = 0.5 * (b - a) * np.sin(theta) * (np.pi / nodes)
        delta = zs_delta_grid(u, lam.astype(np.complex128))
        q = np.log(np.abs(eps_map(delta)))
        total += float(np.dot(np.clip(q, 0.0, None), w))
    return total / np.pi


class ReductionReport(NamedTuple):
    """Pointwise comparison of the 3x3 pipeline against the 2x2 reference.

    Error columns, one row per grid point: identity multiplier, branch
    average, modified discriminant, and the two half-period root functions.
    """

    err_multiplier: np.ndarray
    err_average: np.ndarray
    err_disc: np.ndarray
    err_dplus: np.ndarray
    err_dminus: np.ndarray


def reduction_check(p: Potential, g: dict) -> ReductionReport:
    """The rank-one collapse of the 3x3 quantities onto the 2x2 ones.

    ``g`` is a ``monodromy_grid`` result at real points.  Per point: (a) one
    multiplier equals ``exp(i lam)``; (b) the other two carry the 2x2 branch
    average; (c) the modified discriminant equals
    ``(1 - delta^2)(delta - cos lam)^2 / 4``; (d) the half-period root
    functions factor as ``2(1 - delta)(e^{i lam} - 1)`` and
    ``2(1 + delta)(e^{i lam} + 1)``.  Differences are measured against
    ``max(1, |reference|)``; the caller judges them.
    """
    u, _ = scalar_reduction(p)
    lamc = g["lam"]
    lam = lamc.real
    delta = np.real(zs_delta_grid(u, lamc))

    taus = multipliers(g)
    ep = np.exp(1j * lamc)
    d_id = np.abs(taus - ep[:, None])
    idx = np.argmin(d_id, axis=-1)
    err_mult = d_id[np.arange(len(lam)), idx]
    lyap = 0.5 * (taus + 1.0 / taus)
    others = np.ones(taus.shape, dtype=bool)
    others[np.arange(len(lam)), idx] = False
    pair = lyap[others].reshape(len(lam), 2)
    err_avg = np.max(np.abs(pair - delta[:, None]), axis=-1)

    der = derived_grid(g["trace"], g["trace_conj"], lamc)
    disc_ref = 0.25 * (1.0 - delta**2) * (delta - np.cos(lam)) ** 2
    err_disc = np.abs(der["disc"] - disc_ref) / np.maximum(1.0, np.abs(disc_ref))

    dp = d_pm_from_traces(g["trace"], g["trace_conj"], lamc, +1)
    dm = d_pm_from_traces(g["trace"], g["trace_conj"], lamc, -1)
    dp_ref = 2.0 * (1.0 - delta) * (ep - 1.0)
    dm_ref = 2.0 * (1.0 + delta) * (ep + 1.0)
    err_dp = np.abs(dp - dp_ref) / np.maximum(1.0, np.abs(dp_ref))
    err_dm = np.abs(dm - dm_ref) / np.maximum(1.0, np.abs(dm_ref))
    return ReductionReport(err_mult, err_avg, err_disc, err_dp, err_dm)
