"""Two-periodic eigenvalues: zeros of the characteristic functions D(+1) and D(-1).

The eigenvalues of the doubled-period problem are the zeros of
``D_+ = (T - 1) - e^{i lam}(T~ - 1)`` (periodic side, clusters near even
multiples of pi) and ``D_- = (T + 1) + e^{i lam}(T~ + 1)`` (antiperiodic
side, odd multiples).  Each localization disk of radius 1/2 around ``pi n``
carries exactly three zeros once |n| is large enough; they are located by
winding-count subdivision followed by Newton polishing, and the resulting
table feeds the first-order asymptotic check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import Contour, winding_count
from .errors import (
    ConfigError,
    ContourThroughZeroError,
    UndersampledContourError,
)
from .monodromy import monodromy_grid
from .potential import Potential, fourier_hat

__all__ = [
    "EigenEntry",
    "EigenvalueTable",
    "d_pm",
    "d_pm_grid",
    "d_pm_from_traces",
    "count_in_disk",
    "eigenvalues_in_window",
    "asymptotic_residuals",
    "recover_traces",
]

CELL_TARGET = 1e-3
NEWTON_TOL = 1e-11
NEWTON_STEP = 1e-6
NEWTON_MAXIT = 64
NEWTON_ACCEPT = 1e-11
RESIDUAL_TOL = 1e-9
_SPLIT_RATIOS = (0.5, 0.53, 0.47, 0.61)
_RADIUS_NUDGES = (1.0, 1.05, 0.95, 1.10, 0.90)
_DISK_SAMPLES = 64
_MAX_CIRCLE_SAMPLES = 8192
# exponent of the deviation sums in the asymptotic check
SUMMABILITY_EXPONENT = 1.5


def d_pm_from_traces(t, s, lam, sign: int) -> np.ndarray:
    """Characteristic function D(sign, lam) from the trace pair at *lam*."""
    e = np.exp(1j * lam)
    if sign > 0:
        return (t - 1.0) - e * (s - 1.0)
    return (t + 1.0) + e * (s + 1.0)


def d_pm_grid(p: Potential, lam, sign: int) -> np.ndarray:
    """Characteristic function D(sign, lam) on an array of parameters."""
    g = monodromy_grid(p, lam)
    return d_pm_from_traces(g["trace"], g["trace_conj"], g["lam"], sign)


def d_pm(p: Potential, lam: complex, sign: int) -> complex:
    return complex(d_pm_grid(p, np.array([lam]), sign)[0])


def _envelope(lam: np.ndarray) -> np.ndarray:
    """Positive growth envelope of |D| used to normalize winding samples.

    D grows like e^{|Im lam|} in the upper half plane and e^{2|Im lam|} in
    the lower; dividing samples by a positive function changes no phase, so
    the winding number is untouched while the through-zero guard compares
    against the envelope instead of the raw magnitude range.
    """
    im = np.imag(lam)
    return np.exp(np.abs(im)) + np.exp(2.0 * np.clip(-im, 0.0, None))


def _winding_normalized(vals: np.ndarray, pts: np.ndarray) -> int:
    return winding_count(vals / _envelope(pts))


def count_in_disk(p: Potential, center: float, radius: float, parity: int) -> int:
    """Number of zeros of D(parity) inside |lam - center| < radius.

    The circle starts with 64 samples.  The radius is nudged by +-5% then
    +-10% when the contour runs through a zero; the sample count doubles (up
    to 8192) when the phase is undersampled.
    """
    last: Exception | None = None
    for factor in _RADIUS_NUDGES:
        c = Contour(center, radius * factor, _DISK_SAMPLES)
        while True:
            pts = c.points()
            vals = d_pm_grid(p, pts, parity)
            try:
                return _winding_normalized(vals, pts)
            except UndersampledContourError as exc:
                if c.samples >= _MAX_CIRCLE_SAMPLES:
                    last = exc
                    break
                c = c.with_samples(c.samples * 2)
            except ContourThroughZeroError as exc:
                last = exc
                break
    raise ContourThroughZeroError(
        f"contour-through-zero persists near center={center:.6g} radius={radius:.3g} "
        f"after radius nudges: {last}"
    )


# ----------------------------------------------------------------------------
# winding-guided subdivision
# ----------------------------------------------------------------------------


@dataclass
class _Cell:
    n: int
    x0: float
    y0: float
    wx: float
    wy: float
    wind: int

    @property
    def size(self) -> float:
        return max(self.wx, self.wy)

    @property
    def center(self) -> complex:
        return complex(self.x0 + 0.5 * self.wx, self.y0 + 0.5 * self.wy)


def _cell_contour(c: _Cell, per_edge: int) -> np.ndarray:
    t = np.arange(per_edge) / per_edge
    bottom = c.x0 + c.wx * t + 1j * c.y0
    right = c.x0 + c.wx + 1j * (c.y0 + c.wy * t)
    top = c.x0 + c.wx * (1.0 - t) + 1j * (c.y0 + c.wy)
    left = c.x0 + 1j * (c.y0 + c.wy * (1.0 - t))
    return np.concatenate([bottom, right, top, left])


def _per_edge_for(c: _Cell) -> int:
    return 16 if c.size > 0.25 else 8


def _windings_batch(p: Potential, cells: list[_Cell], parity: int) -> list[int | None]:
    """Winding number for every cell, or None where the contour hits a zero.

    Undersampled cells are retried together at 4x, then 16x the edge
    sampling, so a batch never degenerates into one-by-one escalation.
    """
    if not cells:
        return []
    out: list[int | None] = [None] * len(cells)
    todo = list(range(len(cells)))
    factor = 1
    while todo and factor <= 16:
        per = [min(_per_edge_for(cells[i]) * factor, 256) for i in todo]
        pts = np.concatenate([_cell_contour(cells[i], k) for i, k in zip(todo, per)])
        vals = d_pm_grid(p, pts, parity)
        again: list[int] = []
        pos = 0
        for i, k in zip(todo, per):
            v, q = vals[pos : pos + 4 * k], pts[pos : pos + 4 * k]
            pos += 4 * k
            try:
                out[i] = _winding_normalized(v, q)
            except UndersampledContourError:
                if k < 256:
                    again.append(i)
            except ContourThroughZeroError:
                pass
        todo = again
        factor *= 4
    return out


def _children(c: _Cell, r: float) -> list[_Cell]:
    sx, sy = c.wx * r, c.wy * r
    return [
        _Cell(c.n, c.x0, c.y0, sx, sy, 0),
        _Cell(c.n, c.x0 + sx, c.y0, c.wx - sx, sy, 0),
        _Cell(c.n, c.x0, c.y0 + sy, sx, c.wy - sy, 0),
        _Cell(c.n, c.x0 + sx, c.y0 + sy, c.wx - sx, c.wy - sy, 0),
    ]


_SHRINK = 0.25


def _shrunk(c: _Cell) -> _Cell:
    sx, sy = c.wx * _SHRINK, c.wy * _SHRINK
    return _Cell(
        c.n, c.x0 + 0.5 * (c.wx - sx), c.y0 + 0.5 * (c.wy - sy), sx, sy, 0
    )


def _zoom_rounds(p: Potential, cells: list[_Cell], parity: int) -> list[_Cell]:
    """Shrink each cell about its center while its full count stays inside.

    Clusters usually sit near the cell center, so this skips most
    quadrisection levels; a shrink that loses roots (or lands its contour on
    one) simply leaves the cell for the splitting phase.
    """
    frozen: set[int] = set()
    while True:
        idx = [
            i
            for i, c in enumerate(cells)
            if i not in frozen and c.size > CELL_TARGET
        ]
        if not idx:
            return cells
        cands = [_shrunk(cells[i]) for i in idx]
        winds = _windings_batch(p, cands, parity)
        changed = False
        for i, cand, w in zip(idx, cands, winds):
            if w is not None and w == cells[i].wind:
                cand.wind = w
                cells[i] = cand
                changed = True
            else:
                frozen.add(i)
        if not changed:
            return cells


def _subdivide(
    p: Potential, roots_cells: list[_Cell], parity: int, notes: list[str]
) -> list[_Cell]:
    """Refine nonzero-winding cells until every leaf is below CELL_TARGET."""
    leaves: list[_Cell] = []
    active = [c for c in roots_cells if c.wind > 0]
    while active:
        active = _zoom_rounds(p, active, parity)
        pending = []
        for c in active:
            (leaves if c.size <= CELL_TARGET else pending).append(c)
        if not pending:
            break
        settled: list[_Cell] = []
        for ratio in _SPLIT_RATIOS:
            if not pending:
                break
            kids = [_children(c, ratio) for c in pending]
            flat = [k for group in kids for k in group]
            winds = _windings_batch(p, flat, parity)
            retry: list[_Cell] = []
            for idx, parent in enumerate(pending):
                w4 = winds[4 * idx : 4 * idx + 4]
                if any(w is None for w in w4) or sum(w4) != parent.wind:
                    retry.append(parent)
                    continue
                for child, w in zip(kids[idx], w4):
                    if w > 0:
                        child.wind = w
                        settled.append(child)
            pending = retry
        for parent in pending:
            # no split ratio produced clean child contours; polish from here
            notes.append(
                f"cell near {parent.center:.6g} (count {parent.wind}) could not be "
                f"split cleanly; polishing from the unrefined cell"
            )
            leaves.append(parent)
        active = []
        for c in settled:
            (leaves if c.size <= CELL_TARGET else active).append(c)
    return leaves


# ----------------------------------------------------------------------------
# polishing
# ----------------------------------------------------------------------------


def _newton_batch(p: Potential, z0: np.ndarray, parity: int):
    """Vectorized Newton with central-difference derivative.

    Returns (z, ok, strict): ``strict`` marks step-converged iterates
    (|dz| <= NEWTON_TOL).  Tightly clustered roots make the step criterion
    unreachable -- the update random-walks at the evaluation noise floor --
    so the best-residual iterate is accepted instead whenever its residual
    is two orders under the reporting tolerance.
    """
    z = np.array(z0, dtype=np.complex128)
    strict = np.zeros(z.size, dtype=bool)
    active = np.ones(z.size, dtype=bool)
    fbest = np.full(z.size, np.inf)
    zbest = z.copy()
    h = NEWTON_STEP
    for it in range(NEWTON_MAXIT):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        za = z[idx]
        vals = d_pm_grid(p, np.concatenate([za, za + h, za - h]), parity)
        f, fp, fm = vals[: idx.size], vals[idx.size : 2 * idx.size], vals[2 * idx.size :]
        better = np.abs(f) < fbest[idx]
        fbest[idx[better]] = np.abs(f)[better]
        zbest[idx[better]] = za[better]
        d = (fp - fm) / (2.0 * h)
        bad = d == 0.0
        dz = np.where(bad, 0.0, f / np.where(bad, 1.0, d))
        z[idx] = za - dz
        done = (np.abs(dz) <= NEWTON_TOL) & ~bad
        strict[idx[done]] = True
        # nothing left to gain once the residual sits under the noise floor
        if it >= 6:
            floor = fbest[idx] <= 0.01 * NEWTON_ACCEPT * np.exp(np.abs(zbest[idx].imag))
            done = done | floor
        active[idx[done | bad]] = False
    accept = fbest <= NEWTON_ACCEPT * np.exp(np.abs(zbest.imag))
    ok = strict | accept
    z = np.where(strict, z, zbest)
    return z, ok, strict


def _muller(p: Potential, z0: complex, parity: int) -> tuple[complex, bool, bool]:
    """Scalar Muller iteration, used when Newton stalls; same acceptance rule."""
    h = 1e-4
    xs = [z0 - h, z0, z0 + h]
    fs = [d_pm(p, x, parity) for x in xs]
    best = min(zip((abs(f) for f in fs), range(3)))
    fbest, zbest = best[0], xs[best[1]]
    for _ in range(NEWTON_MAXIT):
        x0, x1, x2 = xs
        f0, f1, f2 = fs
        h1, h2 = x1 - x0, x2 - x1
        if h1 == 0 or h2 == 0:
            break
        d1, d2 = (f1 - f0) / h1, (f2 - f1) / h2
        a = (d2 - d1) / (h2 + h1)
        b = a * h2 + d2
        disc = np.sqrt(b * b - 4.0 * f2 * a)
        den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
        if den == 0:
            break
        step = -2.0 * f2 / den
        xn = x2 + step
        fn = d_pm(p, xn, parity)
        if abs(fn) < fbest:
            fbest, zbest = abs(fn), xn
        xs = [x1, x2, xn]
        fs = [f1, f2, fn]
        if abs(step) <= NEWTON_TOL:
            return xn, True, True
    if fbest <= NEWTON_ACCEPT * np.exp(abs(np.imag(zbest))):
        return zbest, True, False
    return xs[-1], False, False


def _cluster(points: np.ndarray, tol: float = 1e-8) -> list[np.ndarray]:
    """Group nearby converged iterates; returns member arrays."""
    remaining = list(points)
    groups: list[list[complex]] = []
    for z in remaining:
        for g in groups:
            if abs(z - g[0]) <= tol:
                g.append(z)
                break
        else:
            groups.append([z])
    return [np.array(g) for g in groups]


def _multiplicity_by_contour(
    p: Potential, center: complex, spread: float, parity: int
) -> int | None:
    radius = max(3e-7, 5.0 * spread)
    try:
        c = Contour(center, radius, 64)
        pts = c.points()
        return _winding_normalized(d_pm_grid(p, pts, parity), pts)
    except (ContourThroughZeroError, UndersampledContourError):
        return None


def _polish_leaves(
    p: Potential, leaves: list[_Cell], parity: int, failures: list[str]
) -> dict[int, list[tuple[complex, float]]]:
    """Newton/Muller polishing of every leaf; returns roots per disk index."""
    starts: list[complex] = []
    meta: list[int] = []  # leaf index per start
    for li, c in enumerate(leaves):
        if c.wind == 1:
            starts.append(c.center)
            meta.append(li)
        else:
            k = max(4, 2 * c.wind)
            ring = c.center + (c.size / 3.0) * np.exp(2j * np.pi * np.arange(k) / k)
            starts.append(c.center)
            meta.append(li)
            for z in ring:
                starts.append(complex(z))
                meta.append(li)

    if starts:
        zs, ok, strict = _newton_batch(p, np.array(starts), parity)
    else:
        zs, ok, strict = np.empty(0), np.empty(0, bool), np.empty(0, bool)
    for i in np.flatnonzero(~ok):
        zs[i], ok[i], strict[i] = _muller(p, starts[i], parity)

    out: dict[int, list[tuple[complex, float]]] = {}
    for li, c in enumerate(leaves):
        ks = [k for k in range(len(meta)) if meta[k] == li and ok[k]]
        mine = [complex(zs[k]) for k in ks]
        # keep iterates that stayed near the leaf (wild escapes belong elsewhere)
        keep = [abs(z - c.center) <= 4.0 * max(c.size, 1e-3) for z in mine]
        mine = [z for z, kp in zip(mine, keep) if kp]
        if not mine:
            failures.append(f"no converged root for cell near {c.center:.6g}")
            continue
        # noise-stalled accepts are only located to their walk radius
        all_strict = all(strict[k] for k, kp in zip(ks, keep) if kp)
        groups = _cluster(np.array(mine), tol=1e-8 if all_strict else 1e-5)
        groups.sort(key=lambda g: abs(np.mean(g) - c.center))
        found: list[tuple[complex, int]] = []
        total = 0
        for g in groups:
            if total >= c.wind:
                break
            z = complex(np.mean(g))
            spread = float(np.max(np.abs(g - z))) if g.size > 1 else 0.0
            m = _multiplicity_by_contour(p, z, spread, parity)
            if m is None or m < 1:
                m = 1
            m = min(m, c.wind - total)
            found.append((z, m))
            total += m
        if total < c.wind and found:
            # remaining multiplicity sits on the closest cluster (merged roots)
            z, m = found[0]
            found[0] = (z, m + c.wind - total)
            total = c.wind
        rl = out.setdefault(c.n, [])
        for z, m in found:
            res = abs(d_pm(p, z, parity))
            rl.extend([(z, res)] * m)
    return out


# ----------------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------------


@dataclass
class EigenEntry:
    n: int
    j: int
    z: complex
    parity: str
    residual: float


@dataclass
class EigenvalueTable:
    entries: list[EigenEntry]
    window: tuple[int, int]
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def by_n(self, n: int) -> list[EigenEntry]:
        return [e for e in self.entries if e.n == n]

    def ns(self) -> list[int]:
        return sorted({e.n for e in self.entries})


def eigenvalues_in_window(p: Potential, n_min: int, n_max: int) -> EigenvalueTable:
    """Locate all three eigenvalues in every disk |lam - pi n| <= 1/2.

    Disks whose zero count is not 3 are reported in ``failures`` and still
    searched; per-root failures never abort the window.
    """
    if n_max < n_min:
        raise ConfigError(f"empty index window [{n_min}, {n_max}]")
    failures: list[str] = []
    notes: list[str] = []
    entries: list[EigenEntry] = []
    for parity in (+1, -1):
        ns = [n for n in range(n_min, n_max + 1) if (n % 2 == 0) == (parity > 0)]
        if not ns:
            continue
        counted: list[tuple[int, str | None]] = []
        for n in ns:
            try:
                counted.append((count_in_disk(p, np.pi * n, 0.5, parity), None))
            except ContourThroughZeroError as exc:
                counted.append((-1, f"disk n={n}: {exc}"))
        # the enclosing squares of all disks of this parity share one batch
        squares = [_Cell(n, np.pi * n - 0.5, -0.5, 1.0, 1.0, 0) for n in ns]
        winds = _windings_batch(p, squares, parity)
        tops: list[_Cell] = []
        for n, (cnt, error), cell, w in zip(ns, counted, squares, winds):
            if error is not None:
                failures.append(error)
            if w is None:
                failures.append(f"disk n={n}: enclosing square contour through zero")
                continue
            if cnt >= 0 and w != cnt:
                failures.append(
                    f"disk n={n}: square count {w} differs from disk count {cnt}"
                )
            if cnt >= 0 and cnt != 3:
                failures.append(f"disk n={n}: expected 3 zeros in disk, counted {cnt}")
            cell.wind = w
            tops.append(cell)
        leaves = _subdivide(p, tops, parity, notes)
        per_disk = _polish_leaves(p, leaves, parity, failures)
        pname = "periodic" if parity > 0 else "antiperiodic"
        for n in ns:
            got = per_disk.get(n, [])
            got.sort(key=lambda zr: (zr[0].real, zr[0].imag))
            if len(got) != 3:
                failures.append(f"disk n={n}: located {len(got)} of 3 roots")
            for j, (z, res) in enumerate(got, start=1):
                if res > RESIDUAL_TOL * np.exp(abs(z.imag)):
                    failures.append(
                        f"root n={n} j={j}: residual {res:.3e} above tolerance"
                    )
                entries.append(EigenEntry(n, j, z, pname, res))
    entries.sort(key=lambda e: (e.n, e.j))
    return EigenvalueTable(entries, (n_min, n_max), failures, notes)


# ----------------------------------------------------------------------------
# asymptotics and reconstruction
# ----------------------------------------------------------------------------


def asymptotic_residuals(table: EigenvalueTable, p: Potential) -> dict:
    """Deviation of each cluster from the first-order pattern pi n + zeta |v^(pi n)|.

    zeta runs over (-1, 0, +1) matched to the sorted cluster.  Returns per-n
    deviations, the running partial sums of deviation**SUMMABILITY_EXPONENT
    ordered by |n|, and an empirical decay exponent fitted on log-log scale.
    """
    ns = table.ns()
    devs: dict[int, np.ndarray] = {}
    zeta = np.array([-1.0, 0.0, 1.0])
    for n in ns:
        es = table.by_n(n)
        if len(es) != 3:
            continue
        hat = fourier_hat(p, np.pi * n)
        mag = float(np.linalg.norm(hat))
        pred = np.pi * n + zeta * mag
        zs = np.array([e.z for e in es])
        devs[n] = np.abs(zs - pred)
    order = sorted(devs, key=abs)
    flat = np.concatenate([devs[n] for n in order]) if order else np.empty(0)
    partial = np.cumsum(flat**SUMMABILITY_EXPONENT)
    rate = None
    large = [n for n in order if abs(n) >= 3 and devs[n].max() > 0]
    if len(large) >= 4:
        x = np.log(np.abs([float(n) for n in large]))
        y = np.log([float(devs[n].max()) for n in large])
        rate = float(np.polyfit(x, y, 1)[0])
    return {
        "deviations": devs,
        "partial_sums": partial,
        "delta": SUMMABILITY_EXPONENT,
        "decay_exponent": rate,
    }


def recover_traces(dp: complex, dm: complex, lam: complex):
    """Invert the two characteristic values back to the trace pair."""
    e = np.exp(1j * lam)
    t = (dm + dp) / 2.0 - e
    s = (dm - dp) / (2.0 * e) - 1.0 / e
    return t, s

