"""Shared fixtures: a seeded generator and the standard potential zoo.

The derandomised hypothesis profile ``tier1`` is loaded for every test run.

Resolutions are kept small (64/128) except where tail decay actually matters
(the high-mode cosine used by the localization tests, which needs 256 cells
so the staircase harmonics do not pollute the far disks).
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import settings

from manakov_spectra import Potential
from manakov_spectra.cli import main

# every property test draws the same examples on every run, from its own
# name, and reads or saves no example database; each keeps its own budget
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

SEED = 20260825

# the pot_const fixture as a CLI potential description
CONST_JSON = '{"kind":"constant","value":[0.9,0.0],"resolution":64}'


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="session")
def pot_zero():
    return Potential.zero(resolution=64)


@pytest.fixture(scope="session")
def pot_const():
    # rank one, single symmetric gap per period cell of the 2x2 subproblem
    return Potential.from_constant((0.9, 0.0), resolution=64)


@pytest.fixture(scope="session")
def pot_two_mode():
    # generic: both pencil eigenvalues strictly positive, three sheets
    return Potential.from_fourier(
        {1: (0.25, 0.1), -1: (0.0, 0.15)}, resolution=128
    )


@pytest.fixture(scope="session")
def rank_one_family():
    """Three proportional-component potentials sharing one scalar profile."""
    u_modes = {0: 0.35, 1: 0.2}
    first = Potential.from_fourier(
        {n: (c, 0.0) for n, c in u_modes.items()}, resolution=128
    )
    second = Potential.from_fourier(
        {n: (0.0, c) for n, c in u_modes.items()}, resolution=128
    )
    w = 1.0 / np.sqrt(10.0)
    slanted = Potential.from_fourier(
        {n: (c * w, 3.0 * c * w) for n, c in u_modes.items()}, resolution=128
    )
    return [first, second, slanted]


@pytest.fixture(scope="session")
def pot_mode8():
    # v1 = 0.4 cos(16 pi x): far-window localization fixture, ||v|| = 0.283
    return Potential.from_fourier({8: (0.2, 0.0), -8: (0.2, 0.0)}, resolution=256)


def multiset_distance(a, b):
    """min over pairings of the max pointwise distance (small sets only)."""
    from itertools import permutations

    a = np.asarray(a)
    b = np.asarray(b)
    return min(
        np.abs(a[list(perm)] - b).max() for perm in permutations(range(len(b)))
    )


def cli_csv_rows(argv, capsys):
    """The rows the CLI writes to stdout for ``argv`` with ``--format csv``."""
    assert main([*argv, "--format", "csv"]) == 0
    return list(csv.reader(io.StringIO(capsys.readouterr().out)))


def random_potential(rng, max_norm=2.0, n_modes=3, resolution=128):
    """Random low-mode two-component potential with ||v|| <= max_norm."""
    modes = {}
    offsets = rng.choice(np.arange(-2, 3), size=n_modes, replace=False)
    for n in offsets:
        c = rng.normal(size=2) + 1j * rng.normal(size=2)
        modes[int(n)] = c
    total = np.sqrt(sum(np.sum(np.abs(c) ** 2) for c in modes.values()))
    target = max_norm * (0.3 + 0.6 * rng.random())
    scale = target / total
    modes = {n: tuple(scale * c) for n, c in modes.items()}
    return Potential.from_fourier(modes, resolution=resolution)


def scaled(p, s):
    """The Fourier potential *p* times the constant *s*."""
    return Potential.from_fourier({n: s * c for n, c in p.data["modes"].items()}, p.resolution)
