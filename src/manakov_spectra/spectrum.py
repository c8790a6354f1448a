"""Band/gap structure of the real spectral line and the sheet-count verdict.

The real line splits into closed *bands* (three unimodular multipliers,
multiplicity 3) and open *gaps* (exactly one unimodular multiplier,
multiplicity 1); multiplicity 2 never occurs.  The classifier keys on the
sign of the modified discriminant: negative inside gaps, nonnegative on
bands.  A scan refines every sign change by bisection and reports the gap
list; the sheet verdict combines the flatness of the trace asymmetry with
the rank test on the potential's moment matrix.

The bisection is speculative.  It halves every bracket of a scan, band-to-gap
and gap-to-band alike, in one loop, and each engine call evaluates the next
few levels of every bracket's bisection tree: the midpoint, the midpoints of
both halves, and so on, each formed as ``0.5 * (lo + hi)`` from the ends the
halving would give it.  The halvings are then replayed from these values
under the plain bisection's rule for each bracket on its own: halve while
its width exceeds ``ENDPOINT_ACCURACY``.  The replay takes the same path, and
so gives the same ends, bit for bit, as one engine call per halving would,
since a point's bits depend on lam alone (see ``monodromy``).  How many
levels a call takes is set by ``_REFINE_PAIRS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SheetConflictError
from .monodromy import _runs_of, monodromy_grid
from .multipliers import (
    UNIMODULAR_TOL,
    _disc,
    _phi,
    multipliers,
    unimodular_count,
)
from .potential import Potential, is_rank_one, moments

__all__ = [
    "SpectralScan",
    "SheetVerdict",
    "scan",
    "sheet_count",
]

DISC_REL_TOL = 1e-12
ENDPOINT_ACCURACY = 1e-9
ZERO_POTENTIAL_TOL = 1e-14
MAX_SCAN_STEP = 0.05
MAX_SCAN_POINTS = 1 << 20  # a scan grid's largest size, checked before it is built
# (lam, run) pairs that one engine call of the bisection may evaluate.  A
# call costs about as much as 1k pairs on its own, so a deeper tree pays for
# itself up to about this size.  On the benchmark's many small potentials,
# budgets of 256, 1,024, 2,048 and 4,096 pairs cut the wall time by 13.5%,
# 15.9%, 15.7% and 13.8% (medians of three runs, two cores).  At 512 runs
# it gives one level per call.
_REFINE_PAIRS = 1024


def _line_data(p: Potential, lam: np.ndarray) -> dict:
    """Discriminant, trace asymmetry, traces, multipliers and unimodular counts on real lam."""
    g = monodromy_grid(p, lam)
    t, s, lam = g["trace"], g["trace_conj"], g["lam"]
    taus = multipliers(g)
    return {
        "disc": np.real(_disc(t, s, np.exp(-1j * lam), np.exp(1j * lam))),
        "phi": np.real(_phi(t, s, lam)),
        "trace": t,
        "counts": unimodular_count(taus),
        "taus": taus,
    }


def _disc_only(p: Potential, lam: np.ndarray) -> np.ndarray:
    g = monodromy_grid(p, lam)
    lam = g["lam"]
    return np.real(_disc(g["trace"], g["trace_conj"], np.exp(-1j * lam), np.exp(1j * lam)))


def _local_tol(disc: np.ndarray) -> np.ndarray:
    """Boundary band around zero, relative to the discriminant's local scale.

    The discriminant vanishes quadratically at band edges, so an absolute
    cutoff would swallow entire neighborhoods; a windowed maximum keeps the
    band proportional to nearby magnitudes instead.
    """
    a = np.abs(disc)
    s = a.copy()
    for k in (1, 2):
        s[k:] = np.maximum(s[k:], a[:-k])
        s[:-k] = np.maximum(s[:-k], a[k:])
    return DISC_REL_TOL * s


@dataclass
class SpectralScan:
    """Samples of one scan grid, the gap list and the scan's diagnostics.

    ``trace`` and ``taus`` (the multiplier triples, shape ``(n, 3)``) are the
    propagated data behind ``disc``, ``phi`` and ``unimodular``; later stages
    such as the magnitude profile read them here instead of propagating the
    grid again.
    """

    interval: tuple[float, float]
    grid_step: float
    lam: np.ndarray
    disc: np.ndarray
    phi: np.ndarray
    multiplicity: np.ndarray
    unimodular: np.ndarray
    trace: np.ndarray
    taus: np.ndarray
    gaps: list[tuple[float, float]]
    kissing_points: list[float] = field(default_factory=list)
    conflicts: int = 0
    warnings: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


def _resolve_boundary(cls: np.ndarray) -> np.ndarray:
    """Assign boundary points (label 0) to the nearer strict class; ties to 3."""
    n = cls.size
    nz = np.flatnonzero(cls)
    if nz.size == 0:
        return np.full(n, 3, dtype=np.int64)
    pos = np.arange(n)
    right_idx = np.searchsorted(nz, pos, side="left")
    left_idx = np.clip(right_idx - 1, 0, nz.size - 1)
    right_idx = np.clip(right_idx, 0, nz.size - 1)
    dl = np.abs(pos - nz[left_idx])
    dr = np.abs(nz[right_idx] - pos)
    out = np.where(dl < dr, cls[nz[left_idx]], cls[nz[right_idx]])
    tie = dl == dr
    out[tie] = np.maximum(cls[nz[left_idx]][tie], cls[nz[right_idx]][tie])
    out[nz] = cls[nz]
    return out


def _refine_sign_changes(p: Potential, lo, hi, disc_lo) -> np.ndarray:
    """Bisect the sign changes in ``(lo, hi)``; ``disc_lo`` gives the sign at ``lo``.

    Each bracket is halved until its own width is within
    ``ENDPOINT_ACCURACY``, whatever the others do; the midpoints of the final
    brackets come back in order.  The loop is unbounded on purpose: from
    ``|lam|`` of about 1e7 no bracket gets that narrow and it never ends
    (ROADMAP D5.1), which the benchmark's hang guard uses as its fixture
    until the loop gets its bound (D8).
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    sign_lo = np.sign(disc_lo)
    runs = len(_runs_of(p)[1])
    while (live := np.flatnonzero(hi - lo > ENDPOINT_ACCURACY)).size:
        depth = _tree_depth(live.size, runs, float(np.min(hi[live] - lo[live])))
        lo[live], hi[live] = _halve_by_tree(p, lo[live], hi[live], sign_lo[live], depth)
    return 0.5 * (lo + hi)


def _halve_by_tree(p, lo, hi, sign_lo, depth):
    """Up to ``depth`` halvings of every bracket, from one engine call.

    Every bracket is still being halved.  Returns the new ends: after
    ``depth`` halvings, or fewer where a bracket is done sooner.
    """
    # every bracket's bisection tree in heap order: node i has the children
    # 2i + 1 (left half) and 2i + 2 (right half); the midpoints are formed
    # from their node's ends exactly as the halving forms them
    ends_lo, ends_hi, mids = [lo[:, None]], [hi[:, None]], []
    for _ in range(depth):
        a, b = ends_lo[-1], ends_hi[-1]
        mid = 0.5 * (a + b)
        mids.append(mid)
        ends_lo.append(np.stack([a, mid], axis=2).reshape(len(lo), -1))
        ends_hi.append(np.stack([mid, b], axis=2).reshape(len(lo), -1))
    node_lo = np.concatenate(ends_lo, axis=1)
    node_hi = np.concatenate(ends_hi, axis=1)
    halving = node_hi - node_lo > ENDPOINT_ACCURACY
    dm = _disc_only(p, np.concatenate(mids, axis=1).ravel())
    go_right = np.sign(dm).reshape(len(lo), -1) == sign_lo[:, None]
    rows = np.arange(len(lo))
    node = np.zeros(len(lo), dtype=np.intp)
    for _ in range(depth):
        node = np.where(halving[rows, node], 2 * node + 1 + go_right[rows, node], node)
    return node_lo[rows, node], node_hi[rows, node]


def _tree_depth(brackets: int, runs: int, width: float) -> int:
    """Halvings per engine call: as many tree levels as ``_REFINE_PAIRS`` allows.

    At least one, and no more than the narrowest bracket, ``width`` wide,
    still needs; those halvings are spread evenly over the calls they take.
    """
    left = 0
    while width > ENDPOINT_ACCURACY:
        width *= 0.5
        left += 1
    depth = 1
    while depth < left and brackets * runs * (2 ** (depth + 1) - 1) <= _REFINE_PAIRS:
        depth += 1
    calls = -(-left // depth)
    return -(-left // calls)


def scan(p: Potential, a: float, b: float, step: float = 0.01) -> SpectralScan:
    """Classify [a, b], refine gap endpoints, and collect diagnostics.

    The strict classes are 1 (gap) and 3 (band), so the sign changes between
    consecutive strict points alternate, band -> gap then gap -> band; their
    ends, bisected to within ``ENDPOINT_ACCURACY``, pair off in order into
    gaps, with ``a`` or ``b`` for a gap that reaches past an end of [a, b].
    Boundary-band points are merged into the neighboring classes; a touching
    zero of the discriminant flanked by bands on both sides is reported as a
    kissing point rather than a gap.
    """
    a, b, step = float(a), float(b), float(step)
    if not -np.inf < a < b < np.inf:
        raise ConfigError(f"scan interval [{a}, {b}] must be finite and not empty")
    if not 0.0 < step <= MAX_SCAN_STEP:
        raise ConfigError(f"scan step must lie in (0, {MAX_SCAN_STEP}], got {step}")
    steps = np.ceil((b - a) / step)
    if not steps < MAX_SCAN_POINTS:
        raise ConfigError(f"scan grid of {steps:.3g} steps exceeds {MAX_SCAN_POINTS} points")
    n = max(2, int(steps) + 1)
    eff_step = (b - a) / (n - 1)
    lam = np.linspace(a, b, n)
    if moments(p).b3 < ZERO_POTENTIAL_TOL:
        zeros = np.zeros(n)
        # the free multipliers: e^{-i lam} once and e^{i lam} twice
        em, ep = np.exp(-1j * lam), np.exp(1j * lam)
        return SpectralScan(
            interval=(a, b),
            grid_step=eff_step,
            lam=lam,
            disc=zeros,
            phi=zeros.copy(),
            multiplicity=np.full(n, 3, dtype=np.int64),
            unimodular=np.full(n, 3, dtype=np.int64),
            trace=em + 2.0 * ep,
            taus=np.stack([em, ep, ep], axis=-1),
            gaps=[],
            notes=["zero potential: the whole line is the multiplicity-3 band"],
        )

    data = _line_data(p, lam)
    disc = data["disc"]
    tol = _local_tol(disc)
    cls = np.where(disc > tol, 3, np.where(disc < -tol, 1, 0)).astype(np.int64)
    resolved = _resolve_boundary(cls)

    notes: list[str] = []
    warnings: list[str] = []
    if not np.any(cls):
        notes.append("discriminant at boundary scale on the whole grid; treated as band")

    counts = data["counts"]
    strict = cls != 0
    conflict_mask = strict & (counts != cls)
    conflicts = int(np.count_nonzero(conflict_mask))
    if conflicts:
        where = lam[conflict_mask][:5]
        warnings.append(
            f"classification-conflict at {conflicts} grid points "
            f"(first few: {np.array2string(where, precision=6)})"
        )

    # --- bracketed sign changes between consecutive strict points -----------
    snz = np.flatnonzero(strict)
    i, j = snz[:-1], snz[1:]
    change = cls[i] != cls[j]
    i, j = i[change], j[change]
    ends = _refine_sign_changes(p, lam[i], lam[j], disc[i]).tolist()
    if snz.size and cls[snz[0]] == 1:
        ends.insert(0, a)
        notes.append("gap continues past the left end of the scan interval")
    if len(ends) % 2:
        ends.append(b)
        notes.append("gap continues past the right end of the scan interval")
    gaps = list(zip(ends[0::2], ends[1::2]))

    # --- kissing points: boundary runs flanked by bands on both sides -------
    kissing: list[float] = []
    edges = np.flatnonzero(np.diff(cls == 0, prepend=False, append=False)).tolist()
    for start, stop in zip(edges[0::2], edges[1::2]):
        if stop < n:  # a trailing boundary run has no right flank and cannot qualify
            _maybe_kiss(lam, disc, cls, start, stop - 1, kissing)

    widths = [hi - lo for lo, hi in gaps]
    if widths and min(widths) < 4.0 * eff_step:
        suggested = max(min(widths) / 8.0, ENDPOINT_ACCURACY)
        warnings.append(
            f"resolution-warning: narrowest gap ({min(widths):.3e}) is under four "
            f"grid steps; rerun with step <= {suggested:.3e}"
        )

    return SpectralScan(
        interval=(a, b),
        grid_step=eff_step,
        lam=lam,
        disc=disc,
        phi=data["phi"],
        multiplicity=resolved,
        unimodular=counts,
        trace=data["trace"],
        taus=data["taus"],
        gaps=gaps,
        kissing_points=kissing,
        conflicts=conflicts,
        warnings=warnings,
        notes=notes,
    )


def _maybe_kiss(lam, disc, cls, i0, i1, out: list[float]) -> None:
    """Record a kissing point for the boundary run [i0, i1] if both flanks are bands."""
    left_ok = i0 > 0 and cls[i0 - 1] == 3
    right_ok = cls[i1 + 1] == 3
    if not (left_ok and right_ok):
        return
    seg = slice(max(i0 - 1, 0), i1 + 2)
    k = int(np.argmin(disc[seg])) + seg.start
    if 0 < k < lam.size - 1:
        dm, d0, dp = disc[k - 1], disc[k], disc[k + 1]
        denom = dp - 2.0 * d0 + dm
        if denom > 0:
            h = lam[1] - lam[0]
            out.append(float(lam[k] - 0.5 * h * (dp - dm) / denom))
            return
    out.append(float(lam[k]))


@dataclass
class SheetVerdict:
    sheets: int
    evidence: dict


def sheet_count(p: Potential, sc: SpectralScan) -> SheetVerdict:
    """Riemann-surface sheet count (2 or 3) with recorded evidence.

    Two-sheetedness requires both a flat trace asymmetry over the scanned
    grid and a rank-one moment matrix; either signal alone is contradictory
    and raises.  Per-gap reality of the middle-branch Lyapunov value is
    logged as evidence but does not enter the verdict.
    """
    sup_phi = float(np.max(np.abs(sc.phi))) if sc.phi.size else 0.0
    sup_t = float(np.max(np.abs(sc.trace))) if sc.trace.size else 0.0
    threshold = 1e-8 * (1.0 + sup_t)
    phi_flat = sup_phi <= threshold
    mom = moments(p)
    rank_one = is_rank_one(p)

    if phi_flat and mom.b1 > 1e-6 * max(1.0, mom.b3):
        raise SheetConflictError(
            f"flat trace asymmetry (sup={sup_phi:.3e}) but moment defect "
            f"b1={mom.b1:.3e} is far from rank one"
        )
    if rank_one and not phi_flat:
        raise SheetConflictError(
            f"rank-one moments (b1={mom.b1:.3e}) but trace asymmetry "
            f"sup={sup_phi:.3e} exceeds {threshold:.3e}"
        )

    gap_mid_real: list[bool] = []
    if sc.gaps:
        mids = np.array([0.5 * (lo + hi) for lo, hi in sc.gaps])
        g = monodromy_grid(p, mids + 1e-6j)
        taus = multipliers(g)
        mags = np.sort(np.abs(taus), axis=1)
        # middle branch unimodular <=> its Lyapunov average stays real on the gap
        gap_mid_real = (np.abs(mags[:, 1] - 1.0) <= 10.0 * UNIMODULAR_TOL).tolist()

    sheets = 2 if (phi_flat and rank_one) else 3
    return SheetVerdict(
        sheets=sheets,
        evidence={
            "sup_phi": sup_phi,
            "phi_threshold": threshold,
            "b1": mom.b1,
            "is_rank_one": rank_one,
            "gap_middle_branch_real": gap_mid_real,
        },
    )

