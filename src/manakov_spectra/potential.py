"""Two-component periodic potentials and their canonical step form.

A potential is a 1-periodic function ``v(x) = (v1(x), v2(x))`` with complex
components.  Three input representations are supported:

* ``piecewise``  -- step values on arbitrary breakpoints partitioning [0, 1];
* ``fourier``    -- finitely many modes ``v(x) = sum_n c_n exp(2 pi i n x)``;
* ``samples``    -- step values on a uniform grid, taken as-is.

All downstream machinery consumes the *canonical* form: step values on a
uniform grid of ``M`` cells (M a power of two, >= 32).  Piecewise inputs pass
through exactly when their breakpoints sit on a dyadic grid; otherwise the
grid is refined automatically and the potential is midpoint-sampled.  Smooth
(fourier) inputs are always midpoint-sampled, which keeps the downstream
propagator second-order accurate in 1/M.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import ConfigError

__all__ = [
    "Potential",
    "PotentialMoments",
    "StepGrid",
    "fourier_hat",
    "is_rank_one",
    "moments",
]

_DEFAULT_RESOLUTION = 512
_MIN_RESOLUTION = 32
_MAX_RESOLUTION = 1 << 15


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_resolution(m: int) -> int:
    m = int(m)
    if m < _MIN_RESOLUTION or m > _MAX_RESOLUTION or not _is_pow2(m):
        raise ConfigError(
            f"resolution must be a power of two in [{_MIN_RESOLUTION}, {_MAX_RESOLUTION}], got {m}"
        )
    return m


@dataclass(frozen=True)
class StepGrid:
    """Canonical uniform step representation: values[k] on [k/M, (k+1)/M)."""

    values: np.ndarray  # (M, 2) complex128
    resolution: int
    exact: bool  # True when this is an exact rewrite of the input potential

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """Collapse equal consecutive steps: (run_values (R, 2), run_widths (R,)).

        Exact rewrite of the grid (the propagator of a constant stretch is a
        single exponential), a large saving for genuinely piecewise inputs.
        """
        v = self.values
        if len(v) == 1:
            return v.copy(), np.array([1.0])
        change = np.any(v[1:] != v[:-1], axis=1)
        starts = np.concatenate(([0], np.nonzero(change)[0] + 1))
        ends = np.concatenate((starts[1:], [len(v)]))
        widths = (ends - starts) * self.h
        return v[starts].copy(), widths


class Potential:
    """A 1-periodic two-component potential in one of the supported forms."""

    def __init__(self, kind: str, data: dict, resolution: int = _DEFAULT_RESOLUTION):
        if kind not in ("piecewise", "fourier", "samples"):
            raise ConfigError(f"unknown potential type {kind!r}")
        self.kind = kind
        self.data = data
        self.resolution = _check_resolution(resolution)
        self._canonical: StepGrid | None = None
        self._validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_piecewise(cls, breakpoints, values, resolution: int = _DEFAULT_RESOLUTION):
        b = np.asarray(breakpoints, dtype=float)
        v = np.asarray(values, dtype=np.complex128)
        return cls("piecewise", {"breakpoints": b, "values": v}, resolution)

    @classmethod
    def from_constant(cls, value, resolution: int = _DEFAULT_RESOLUTION):
        return cls.from_piecewise([0.0, 1.0], [value], resolution)

    @classmethod
    def zero(cls, resolution: int = _DEFAULT_RESOLUTION):
        return cls.from_constant((0.0, 0.0), resolution)

    @classmethod
    def from_fourier(cls, modes: Mapping[int, Iterable[complex]], resolution: int = _DEFAULT_RESOLUTION):
        """``modes[n]`` is the length-2 coefficient of ``exp(2 pi i n x)``."""
        clean = {int(n): np.asarray(c, dtype=np.complex128) for n, c in modes.items()}
        return cls("fourier", {"modes": clean}, resolution)

    @classmethod
    def from_samples(cls, values):
        v = np.asarray(values, dtype=np.complex128)
        return cls("samples", {"values": v}, resolution=len(v))

    # -- validation --------------------------------------------------------

    def _validate(self):
        if self.kind == "piecewise":
            b = self.data["breakpoints"]
            v = self.data["values"]
            if b.ndim != 1 or len(b) < 2:
                raise ConfigError("piecewise potential needs at least two breakpoints")
            if b[0] != 0.0 or b[-1] != 1.0 or np.any(np.diff(b) <= 0):
                raise ConfigError("breakpoints must increase strictly from 0.0 to 1.0")
            if v.shape != (len(b) - 1, 2):
                raise ConfigError(f"expected {len(b) - 1} segment values of size 2, got {v.shape}")
            if not np.all(np.isfinite(b)) or not np.all(np.isfinite(v)):
                raise ConfigError("non-finite potential data")
        elif self.kind == "fourier":
            for n, c in self.data["modes"].items():
                if np.shape(c) != (2,) or not np.all(np.isfinite(c)):
                    raise ConfigError(f"bad fourier coefficient for mode {n}")
        else:  # samples
            v = self.data["values"]
            if v.ndim != 2 or v.shape[1] != 2:
                raise ConfigError(f"samples must have shape (M, 2), got {v.shape}")
            if len(v) != self.resolution:
                raise ConfigError("sample count must equal the resolution")
            if not np.all(np.isfinite(v)):
                raise ConfigError("non-finite potential data")

    # -- evaluation helpers ------------------------------------------------

    def _eval_smooth(self, x: np.ndarray) -> np.ndarray:
        """Pointwise values for the fourier representation."""
        out = np.zeros((len(x), 2), dtype=np.complex128)
        for n, c in self.data["modes"].items():
            out += np.exp(2j * np.pi * n * x)[:, None] * c[None, :]
        return out

    def canonical(self) -> StepGrid:
        if self._canonical is None:
            self._canonical = self._build_canonical()
        return self._canonical

    def _build_canonical(self) -> StepGrid:
        m = self.resolution
        if self.kind == "samples":
            return StepGrid(self.data["values"].copy(), m, exact=True)
        if self.kind == "fourier":
            mid = (np.arange(m) + 0.5) / m
            return StepGrid(self._eval_smooth(mid), m, exact=False)
        # piecewise: look for a dyadic grid containing every breakpoint
        b = self.data["breakpoints"]
        v = self.data["values"]
        for m_try in [m << k for k in range(16) if (m << k) <= _MAX_RESOLUTION]:
            scaled = b * m_try
            if np.all(np.abs(scaled - np.round(scaled)) <= 1e-12 * m_try):
                idx = np.searchsorted(b, (np.arange(m_try) + 0.5) / m_try) - 1
                return StepGrid(v[idx].copy(), m_try, exact=True)
        # incompatible breakpoints: refine and midpoint-sample, never an error
        m_ref = min(max(8 * m, 4096), _MAX_RESOLUTION)
        mid = (np.arange(m_ref) + 0.5) / m_ref
        idx = np.minimum(np.searchsorted(b, mid) - 1, len(v) - 1)
        return StepGrid(v[idx].copy(), m_ref, exact=False)


# ----------------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class PotentialMoments:
    """Quadratic moments and the derived pencil invariants.

    ``c1 = int |v1|^2``, ``c2 = int |v2|^2``, ``c12 = int v1 conj(v2)``;
    ``beta_o = (c1 - c2)^2 + 4 |c12|^2``; the pencil eigenvalue pair is
    ``b1 <= b2`` with ``b1 + b2 = b3 = ||v||^2`` and ``b2 - b1 = sqrt(beta_o)``.
    ``b1 = 0`` exactly when the two components are proportional (rank one).
    """

    c1: float
    c2: float
    c12: complex
    beta_o: float
    b1: float
    b2: float
    b3: float


def moments(p: Potential) -> PotentialMoments:
    g = p.canonical()
    v = g.values
    h = g.h
    c1 = float(h * np.sum(np.abs(v[:, 0]) ** 2))
    c2 = float(h * np.sum(np.abs(v[:, 1]) ** 2))
    c12 = complex(h * np.sum(v[:, 0] * np.conj(v[:, 1])))
    beta_o = (c1 - c2) ** 2 + 4.0 * abs(c12) ** 2
    b3 = c1 + c2
    root = float(np.sqrt(beta_o))
    b1 = max((b3 - root) / 2.0, 0.0)
    b2 = (b3 + root) / 2.0
    return PotentialMoments(c1, c2, c12, beta_o, b1, b2, b3)


def _e1(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z, stable near z = 0."""
    z = np.asarray(z, dtype=np.complex128)
    small = np.abs(z) < 1e-6
    zs = np.where(small, 0.0, z)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = (np.exp(zs) - 1.0) / np.where(small, 1.0, zs)
    series = 1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0
    return np.where(small, series, direct)


def fourier_hat(p: Potential, lam) -> np.ndarray:
    """``int_0^1 exp(2 i lam x) v(x) dx`` from the canonical steps, exactly.

    Accepts a scalar or an array of spectral parameters; returns shape
    ``lam.shape + (2,)``.  Each step contributes its closed-form integral, so
    the only error is floating-point round-off.
    """
    g = p.canonical()
    scalar = np.isscalar(lam) or np.asarray(lam).ndim == 0
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=np.complex128)).ravel()
    m = g.resolution
    h = g.h
    x_left = np.arange(m) * h
    z = 2j * lam_arr * h  # (L,)
    phase = np.exp(2j * np.outer(lam_arr, x_left))  # (L, M)
    weight = h * _e1(z)[:, None] * phase  # (L, M)
    out = weight @ g.values  # (L, 2)
    if scalar:
        return out[0]
    return out.reshape(np.asarray(lam).shape + (2,))


def is_rank_one(p: Potential) -> bool:
    """Whether the two components are (numerically) proportional.

    The tolerance is 1e-10 of ``max(1, ||v||^2)`` for exact representations
    (piecewise, fourier) and 1e-6 for sampled data.
    """
    tol = 1e-6 if p.kind == "samples" else 1e-10
    mom = moments(p)
    return mom.b1 <= tol * max(1.0, mom.b3)
