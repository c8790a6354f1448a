"""Quasimomentum magnitudes on the spectral line and the integrated gap mass.

A branch's magnitude is ``q_j = |log|tau_j||``, read straight from the
multiplier ``tau_j``.  It is the ``log|eps(delta_j)|`` of the Lyapunov
picture, where ``delta_j = (tau_j + 1/tau_j)/2`` is the branch average and
``eps(z) = z + sqrt(z^2 - 1)`` is taken on its branch with ``|eps| >= 1``:
the two solutions ``w`` of ``w + 1/w = 2 delta_j`` are ``tau_j`` and
``1/tau_j``, so ``eps(delta_j)`` is whichever of them has modulus at least
one, and ``log|eps(delta_j)| = max(log|tau_j|, -log|tau_j|)``.  The
magnitudes vanish on triple-covered bands and open like square roots inside
gaps.  The magnitude profile reuses the multipliers the band/gap scan
already holds for its grid and propagates only the extra samples it places
inside gaps.

The integrated gap mass (the ``1/pi`` integral of the averaged magnitude) is
computed twice by design: once by per-gap quadrature with a substitution that
absorbs the square-root endpoint behaviour, and once from the coefficient of
the ``1/nu`` term of the averaged magnitude up the imaginary axis.  The two
routes share no code path beyond the monodromy engine, so their agreement is
a real cross-check and is surfaced as such rather than collapsed.

The second route rests on a Herglotz premise: the mean of the three branch
magnitudes is the imaginary part of an averaged quasimomentum ``k(lam) = lam
+ (1/pi) int q_avg(t) / (t - lam) dt + ...`` that maps the upper half plane
into itself, so at ``lam = i nu`` it is ``nu + (1/(pi nu)) int q_avg dt +
o(1/nu)``: the ``1/nu`` coefficient is the whole line's gap mass.

That coefficient is ``norm_sq / 3``, with ``norm_sq = int_0^1 |v|^2``.  The
generator ``-i lam J + i J V`` couples the ``J = +1`` entry (``-i lam``) to
the ``J = -1`` block (``+i lam I``) through ``i v`` and ``-i v*``; removing
the coupling to second order in ``1/lam`` shifts the entry by ``i |v|^2 /
(2 lam)`` and the block by ``-i v* v^T / (2 lam)``, whose trace is the same
amount with the opposite sign, as ``det psi = e^{i lam}`` requires.  At
``lam = i nu`` the magnitudes are ``nu + norm_sq / (2 nu)`` and ``nu + mu_k /
(2 nu)``, where ``mu_1 + mu_2 = norm_sq`` are the eigenvalues of ``int v*
v^T``, so their mean is ``nu + norm_sq / (3 nu)``.  For a rank-one input this
is two thirds of the 2x2 gap mass ``||u||^2 / 2``.  ``q0_integral`` reports
the mass its window misses as this total less the integral; ``norm_sq`` is
read from the canonical grid, the staircase the run propagated.

Up the axis the mean needs one multiplier only.  At ``lam = i nu`` with
``nu >= 10`` the propagator is close to the free ``diag(e^{nu}, e^{-nu},
e^{-nu})``, so exactly one multiplier ``tau_1`` has modulus above one, and
``tau_1 tau_2 tau_3 = det psi = e^{i lam}``.  The magnitudes are then
``log|tau_1|``, ``-log|tau_2|`` and ``-log|tau_3|``, whose sum is
``2 log|tau_1| - log|e^{i lam}| = 2 log|tau_1| + nu``: the mean is
``(nu + 2 log|tau_1|)/3``, and its excess over ``nu`` is
``(2/3) log|e^{i lam} tau_1|``, the logarithm of a number near one.
``tau_1`` comes from the traces ``T`` of ``psi`` and ``S`` of its inverse.
The cubic's middle coefficient ``tau_1 (tau_2 + tau_3) + tau_2 tau_3 =
e^{i lam} S``, with ``tau_2 tau_3 = e^{i lam} / tau_1``, gives
``tau_2 + tau_3 = e^{i lam} (S - 1/tau_1) / tau_1``, so
``tau_1 = T - (tau_2 + tau_3)`` is a fixed point.  Started from ``tau = T``,
whose relative error is the correction's size ``2 e^{-2 nu}`` (4.1e-9 at
``nu = 10``), each step multiplies the error by about that factor again, so
two steps reach ``tau_1`` to rounding.  The step is written with ``1/tau``,
never ``tau^2``, which overflows a double above ``nu`` of about 354.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .monodromy import IM_LIMIT, monodromy_grid
from .potential import Potential, moments
from .spectrum import SpectralScan, _line_data

# quadrature controls for the per-gap integrals
QUAD_START_NODES = 64
QUAD_MAX_NODES = 512
QUAD_REL_TOL = 1e-6

# share of the trace-formula total that the window may miss before a
# diagnostic says so
EDGE_FRACTION = 0.01

# extra profile samples per gap, graded toward its endpoints
ENDPOINT_POINTS = 16


def _magnitudes(taus, disc, trace) -> tuple[np.ndarray, np.ndarray]:
    """``(q, q_avg)`` from real-axis multipliers, discriminant and trace."""
    q = np.abs(np.log(np.abs(taus)))
    # Wherever the modified discriminant is nonnegative all three multipliers
    # are unimodular, so q vanishes identically.  Enforcing that from the
    # discriminant sign removes the noise floor that near-double multiplier
    # roots would otherwise leave behind.  The sign test carries a tolerance
    # scaled like the discriminant expression itself, because degenerate
    # potentials make it identically zero and rounding then flips its sign at
    # random.  On the real axis the inverse trace is conj(trace), so both
    # trace factors share one modulus.
    factor = (1.0 + np.abs(trace)) ** 2
    band = disc >= -5e-14 * (factor * factor) / 64.0
    q[band, :] = 0.0
    return q, q.mean(axis=-1)


def branch_magnitudes(p: Potential, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch magnitudes ``q_j`` and their average at real sample points.

    Returns ``(q, q_avg)`` with ``q`` of shape ``(n, 3)``.
    """
    d = _line_data(p, lam)
    return _magnitudes(d["taus"], d["disc"], d["trace"])


@dataclass
class QProfile:
    """Sampled magnitude profile over a scan window.

    ``gap_attribution[i]`` is the index into the scan's ``gaps`` of the gap
    containing ``grid[i]``, or -1 for samples on bands or outside the window.
    """

    grid: np.ndarray
    q_branches: np.ndarray
    q_avg: np.ndarray
    gap_attribution: np.ndarray


def _endpoint_graded(a: float, b: float, m: int) -> np.ndarray:
    # interior points of (a, b) crowded toward both ends like sin^2
    theta = np.linspace(0.0, math.pi, m + 2)[1:-1]
    return a + (b - a) * np.sin(0.5 * theta) ** 2


def q_profile(p: Potential, sc: SpectralScan) -> QProfile:
    """Magnitude profile on the scan grid, refined inside every open gap.

    The grid samples come from the scan's own multipliers, discriminant and
    trace, so the scan grid is not propagated again.  The scan grid alone
    undersamples the square-root openings at gap ends, so each gap
    contributes ``ENDPOINT_POINTS`` extra samples graded toward its
    endpoints; only those that are not grid points are propagated, in one
    batch, and merged into the sorted grid.
    """
    q, _ = _magnitudes(sc.taus, sc.disc, sc.trace)
    grid = np.array(sc.lam, dtype=np.float64)
    if sc.gaps:
        graded = [_endpoint_graded(a, b, ENDPOINT_POINTS) for a, b in sc.gaps]
        extra = np.setdiff1d(np.concatenate(graded), grid)
        at = np.searchsorted(grid, extra)
        grid = np.insert(grid, at, extra)
        q = np.insert(q, at, branch_magnitudes(p, extra)[0], axis=0)
    attribution = np.full(grid.shape, -1, dtype=np.int64)
    for k, (a, b) in enumerate(sc.gaps):
        attribution[(grid > a) & (grid < b)] = k
    return QProfile(
        grid=grid,
        q_branches=q,
        q_avg=q.mean(axis=-1),
        gap_attribution=attribution,
    )


@dataclass
class GapMassResult:
    """Integrated averaged magnitude over the scanned gaps, divided by pi."""

    value: float
    tail_estimate: float
    per_gap: list[float] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _quad_nodes(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    # midpoint rule in theta for lam = a + (b-a) sin^2(theta/2); the Jacobian
    # (b-a) sin(theta)/2 soaks up the square-root vanishing at both endpoints
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    lam = a + (b - a) * np.sin(0.5 * theta) ** 2
    w = 0.5 * (b - a) * np.sin(theta) * (math.pi / n)
    return lam, w


def q0_integral(p: Potential, gaps: list[tuple[float, float]]) -> GapMassResult:
    """Adaptive per-gap quadrature of the averaged magnitude over the scan's gaps.

    All still-active gaps share one batched evaluation per refinement round;
    a gap retires once doubling its node count moves its contribution by less
    than ``QUAD_REL_TOL`` relative to the running total, or once it reaches
    ``QUAD_MAX_NODES`` nodes.  The tail is the mass the gaps miss of the
    total ``norm_sq / 3`` (module notes); a note flags a tail above
    ``EDGE_FRACTION`` of it, and an integral above it by ``QUAD_REL_TOL``.
    """
    contrib = [0.0] * len(gaps)
    # each unsettled gap's node count, in gap order
    active = dict.fromkeys(range(len(gaps)), QUAD_START_NODES)
    while active:
        quad = {k: _quad_nodes(*gaps[k], m) for k, m in active.items()}
        _, q_avg = branch_magnitudes(p, np.concatenate([lam_k for lam_k, _ in quad.values()]))
        offset = 0
        scale = max(1.0, sum(contrib))
        for k, (lam_k, w_k) in quad.items():
            m = len(lam_k)
            val = float(np.dot(q_avg[offset : offset + m], w_k))
            offset += m
            # contrib[k] holds the previous round's value after the first round
            settled = m > QUAD_START_NODES and abs(val - contrib[k]) <= QUAD_REL_TOL * scale
            contrib[k] = val
            if settled or m >= QUAD_MAX_NODES:
                del active[k]
            else:
                active[k] = 2 * m

    value = sum(contrib) / math.pi
    total = moments(p).b3 / 3.0
    tail = max(total - value, 0.0)
    notes: list[str] = []
    if tail > EDGE_FRACTION * total:
        notes.append(
            f"gap-mass-shortfall: {tail:.3e} of the total norm_sq/3 = {total:.6g} "
            "lies outside the window's gaps; widen the window or refine the step"
        )
    if value > total * (1.0 + QUAD_REL_TOL):
        notes.append(
            f"gap-mass-excess: integral {value:.6g} exceeds the total "
            f"norm_sq/3 = {total:.6g} by more than the quadrature tolerance"
        )
    return GapMassResult(
        value=value,
        tail_estimate=tail,
        per_gap=[c / math.pi for c in contrib],
        notes=notes,
    )


@dataclass
class HerglotzFit:
    """Least-squares coefficient of the 1/nu decay of the averaged magnitude."""

    q0: float
    residual_rms: float


def herglotz_asymptotic(p: Potential, nu_list) -> HerglotzFit:
    """Fit the decay coefficient of the averaged magnitude along the imaginary axis.

    At each ``lam = i nu`` the mean of the three branch magnitudes is
    ``(nu + 2 log|tau_1|)/3``, with ``tau_1`` the one multiplier of modulus
    above one (module notes).  The fit is ``c`` in ``mean(nu) = nu + c/nu``,
    by least squares.
    """
    nu = np.sort(np.asarray(nu_list, dtype=np.float64))
    if nu.size < 2:
        raise ConfigError("need at least two nu samples for the decay fit")
    if not (nu[0] >= 10.0 and nu[-1] <= IM_LIMIT):  # NaN sorts last and fails the bound
        raise ConfigError(f"nu samples must be finite and in [10, {IM_LIMIT:g}]; got {nu.tolist()}")
    g = monodromy_grid(p, 1j * nu)
    t, s = g["trace"], g["trace_conj"]
    phase = np.exp(1j * g["lam"])
    tau = t
    for _ in range(2):
        inv = 1.0 / tau
        tau = t - phase * (inv * (s - inv))
    # the mean's excess over nu, (2/3) log|e^{i lam} tau_1| (module notes)
    r = (2.0 / 3.0) * np.log(np.abs(phase * tau))
    c = float(np.sum(r / nu) / np.sum(1.0 / nu**2))
    rms = float(np.sqrt(np.mean((r - c / nu) ** 2)))
    return HerglotzFit(q0=c, residual_rms=rms)
