"""Quasimomentum magnitudes on the spectral line and the integrated gap mass.

Everything in this module runs off the conformal map ``eps(z) = z + sqrt(z^2-1)``
restricted to the branch with ``|eps| >= 1``.  Feeding the three Lyapunov
averages through it gives per-branch magnitudes ``q_j = log|eps(delta_j)|``
that vanish identically on triple-covered bands and open like square roots
inside gaps.  Only moduli are used on the real line; the phase of ``eps`` is
tracked just once, along the imaginary axis, where the large-parameter fit
needs a continuous branch.  The magnitude profile reuses the multipliers the
band/gap scan already holds for its grid and propagates only the extra
samples it places inside gaps.

The integrated gap mass (the ``1/pi`` integral of the averaged magnitude) is
computed twice by design: once by per-gap quadrature with a substitution that
absorbs the square-root endpoint behaviour, and once from the coefficient of
the ``1/nu`` term of the averaged map up the imaginary axis.  The two routes
share no code path beyond the monodromy engine, so their agreement is a real
cross-check and is surfaced as such rather than collapsed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import BranchTrackingError, ConfigError, WindowTooSmallError
from .monodromy import monodromy_grid
from .multipliers import lyapunov_triple
from .potential import Potential
from .spectrum import SpectralScan, _line_data

# quadrature controls for the per-gap integrals
QUAD_START_NODES = 64
QUAD_MAX_NODES = 512
QUAD_REL_TOL = 1e-6

# a gap whose closure reaches this close to the scan edge is treated as cut off
EDGE_MARGIN = math.pi

# fraction of the total that the edge gaps may carry before the window is
# declared too small to trust the integral
EDGE_FRACTION = 0.01

# extra profile samples per gap, graded toward its endpoints
ENDPOINT_POINTS = 16

# largest nu of the decay fit: the averages' cubic has coefficients up to
# about e^{3 nu}/8, which overflows a double near nu = 236.5
MAX_NU = 230.0


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


def _magnitudes(taus, disc, trace) -> tuple[np.ndarray, np.ndarray]:
    """``(q, q_avg)`` from real-axis multipliers, discriminant and trace."""
    delta = 0.5 * (taus + 1.0 / taus)
    q = np.log(np.abs(eps_map(delta)))
    np.clip(q, 0.0, None, out=q)
    # Wherever the modified discriminant is nonnegative all three multipliers
    # are unimodular, so every branch average lies in [-1, 1] and q vanishes
    # identically.  Enforcing that from the discriminant sign removes the
    # noise floor that near-double multiplier roots would otherwise leave
    # behind.  The sign test carries a tolerance scaled like the discriminant
    # expression itself, because degenerate potentials make it identically
    # zero and rounding then flips its sign at random.  On the real axis the
    # inverse trace is conj(trace), so both trace factors share one modulus.
    factor = (1.0 + np.abs(trace)) ** 2
    band = disc >= -5e-14 * (factor * factor) / 64.0
    q[band, :] = 0.0
    return q, q.mean(axis=-1)


def branch_magnitudes(p: Potential, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-branch magnitudes ``q_j`` and their average at real sample points.

    Returns ``(q, q_avg)`` with ``q`` of shape ``(n, 3)``.  All entries are
    clipped at zero; the map guarantees nonnegativity up to rounding.
    """
    d = _line_data(p, lam)
    return _magnitudes(d["taus"], d["disc"], d["trace"])


@dataclass
class QProfile:
    """Sampled magnitude profile over a scan window.

    ``gap_attribution[i]`` is the index into ``gaps`` of the open gap
    containing ``grid[i]``, or -1 for samples on bands or outside the window.
    """

    grid: np.ndarray
    q_branches: np.ndarray
    q_avg: np.ndarray
    gap_attribution: np.ndarray
    gaps: list[tuple[float, float]]
    potential: Potential


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
        gaps=list(sc.gaps),
        potential=p,
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


def q0_integral(profile: QProfile) -> GapMassResult:
    """Adaptive per-gap quadrature of the averaged magnitude.

    All still-active gaps share one batched evaluation per refinement round;
    a gap retires once doubling its node count moves its contribution by less
    than ``QUAD_REL_TOL`` relative to the running total, or once it reaches
    ``QUAD_MAX_NODES`` nodes.  Gaps reaching within ``EDGE_MARGIN`` of the
    window edge are treated as cut off: their mass feeds the tail estimate,
    and if they carry more than ``EDGE_FRACTION`` of the total the window is
    rejected outright.
    """
    p = profile.potential
    gaps = profile.gaps
    if not gaps:
        return GapMassResult(value=0.0, tail_estimate=0.0)

    contrib = [0.0] * len(gaps)
    active = {k: QUAD_START_NODES for k in range(len(gaps))}
    previous = {k: None for k in range(len(gaps))}
    while active:
        nodes = []
        weights = []
        spans = []
        order = sorted(active)
        for k in order:
            a, b = gaps[k]
            lam_k, w_k = _quad_nodes(a, b, active[k])
            nodes.append(lam_k)
            weights.append(w_k)
            spans.append(len(lam_k))
        _, q_avg = branch_magnitudes(p, np.concatenate(nodes))
        offset = 0
        scale = max(1.0, sum(contrib))
        for k, w_k, m in zip(order, weights, spans):
            val = float(np.dot(q_avg[offset : offset + m], w_k))
            offset += m
            prev = previous[k]
            contrib[k] = val
            previous[k] = val
            if prev is not None and abs(val - prev) <= QUAD_REL_TOL * scale:
                del active[k]
            elif active[k] >= QUAD_MAX_NODES:
                del active[k]
            else:
                active[k] = active[k] * 2

    total = sum(contrib)
    lo, hi = profile.grid[0], profile.grid[-1]
    edge = [
        k
        for k, (a, b) in enumerate(gaps)
        if a <= lo + EDGE_MARGIN or b >= hi - EDGE_MARGIN
    ]
    notes: list[str] = []
    tail = 0.0
    if edge:
        edge_mass = sum(contrib[k] for k in edge)
        if edge_mass > EDGE_FRACTION * total:
            raise WindowTooSmallError(
                "gaps at the scan edge carry %.3g of a total %.3g; widen the window"
                % (edge_mass, total)
            )
        # geometric extrapolation per side using the outermost two contributions
        for side_edge in sorted({edge[0], edge[-1]}):
            g_last = contrib[side_edge]
            neighbor = side_edge - 1 if side_edge == edge[-1] else side_edge + 1
            if 0 <= neighbor < len(contrib) and contrib[neighbor] > g_last > 0.0:
                r = g_last / contrib[neighbor]
                tail += g_last * r / (1.0 - r)
            else:
                tail += g_last
        notes.append("tail estimated from %d edge gap(s)" % len(edge))
    return GapMassResult(
        value=total / math.pi,
        tail_estimate=tail / math.pi,
        per_gap=[c / math.pi for c in contrib],
        notes=notes,
    )


@dataclass
class HerglotzFit:
    """Least-squares coefficient of the 1/nu decay of the averaged map."""

    q0: float
    residual_rms: float


def _match(tau: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Permute *tau* to minimize total distance to *reference*."""
    best, best_cost = None, np.inf
    for perm in permutations(range(3)):
        cost = float(np.sum(np.abs(tau[list(perm)] - reference)))
        if cost < best_cost:
            best, best_cost = list(perm), cost
    return tau[best]


def _match_rows(delta: np.ndarray) -> np.ndarray:
    """Reorder each row of a (n, 3) array to follow its predecessor."""
    out = delta.copy()
    for i in range(1, len(out)):
        out[i] = _match(out[i], out[i - 1])
    return out


def herglotz_asymptotic(p: Potential, nu_list) -> HerglotzFit:
    """Fit the decay coefficient of the averaged map along the imaginary axis.

    Evaluates the three branch values at ``i*nu``, keeps them on a continuous
    branch while ``nu`` increases, and fits ``c`` in
    ``avg(nu) = nu + c/nu`` by least squares, where ``avg`` is the mean of the
    three magnitudes.  A phase jump above pi/2 between consecutive samples
    aborts with a branch-tracking error.
    """
    nu = np.sort(np.asarray(nu_list, dtype=np.float64))
    if nu.size < 2:
        raise ConfigError("need at least two nu samples for the decay fit")
    if not (nu[0] >= 10.0 and nu[-1] <= MAX_NU):  # NaN sorts last and fails the bound
        raise ConfigError(f"nu samples must be finite and in [10, {MAX_NU:g}]; got {nu.tolist()}")
    lam = 1j * nu
    g = monodromy_grid(p, lam)
    # the averages' own cubic stays conditioned far up the imaginary axis,
    # where pairing each multiplier with its reciprocal loses every digit
    delta = _match_rows(lyapunov_triple(g["trace"], g["trace_conj"], g["lam"]))
    eps = eps_map(delta)
    args = np.angle(eps)
    jumps = np.abs(np.diff(args, axis=0))
    jumps = np.minimum(jumps, 2.0 * math.pi - jumps)
    if jumps.size and np.max(jumps) > 0.5 * math.pi:
        raise BranchTrackingError(
            "branch phase jumped by %.3g between consecutive nu samples"
            % float(np.max(jumps))
        )
    mags = np.log(np.abs(eps))
    r = np.mean(mags, axis=1) - nu
    c = float(np.sum(r / nu) / np.sum(1.0 / nu**2))
    rms = float(np.sqrt(np.mean((r - c / nu) ** 2)))
    return HerglotzFit(q0=c, residual_rms=rms)
