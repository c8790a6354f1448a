"""Workload generators: a name and a seed in, potentials and CLI calls out.

Each workload is a list of potential descriptions (the JSON text the CLI
accepts with ``--potential``) and a list of invocations over them.  The
program only ever sees the generated potentials.  Generation uses Python's
``random`` module alone, so it needs neither numpy nor the package.

* ``line-sweep``: the reference fourier potential at M=512 through ``scan``,
  ``sheets``, ``qmomentum`` and ``verify`` on [-10, 10] with step 0.01.  Seed 0
  is exactly ``{1: (0.25, 0.1), -1: (0, 0.2)}``; other seeds rotate each
  coefficient's phase and keep its modulus, which for this mode set is a
  gauge change plus a translation, so the norm and gap count stay put.
  Large real-axis batches: the propagation engine dominates.
* ``eigen-window``: the same potential through ``eigen --window 5 10``.  About
  26k evaluations of the characteristic function in a hundred-odd small
  complex batches: winding counts, subdivision and Newton polish.
* ``many-small``: a fixed batch of nine small potentials (non-dyadic and
  dyadic piecewise, rank-one constant and rank-one fourier) through all five
  commands.  Seed 0 is exactly the batch; other seeds multiply each input's
  components by their own phases and translate the fourier input by whole
  cells, which are exact symmetries of the sampled problem.  Per-call
  overhead, bisection, the cubic solve, the rank-one oracle and serialisation
  carry the time; engine work per point is tiny.

The ``many-small`` batch is fixed, and not drawn anew from each seed, for two
reasons.  Every seed then does the same work, so runs on different seeds are
comparable.  And the program fails on some freshly drawn batches (``verify``'s
``derived-identities`` check and the sheet verdict of near-rank-one steps),
while a benchmark's workload must be one on which no operation fails.  The
failing inputs are kept, as reproducers, in ``KNOWN_FAILURES`` below.
"""

from __future__ import annotations

import cmath
import json
import math
import random

NAMES = ("line-sweep", "eigen-window", "many-small")

REFERENCE_MODES = {1: (0.25, 0.1), -1: (0.0, 0.2)}
REFERENCE_RESOLUTION = 512

SWEEP = ["--interval", "-10", "10", "--step", "0.01"]
# Step potentials have gaps that shrink only like 1/n, so the gap-mass
# integral needs a window whose edge gaps carry under 1% of the total.
WIDE_SWEEP = ["--interval", "-80", "80", "--step", "0.05"]
SHORT_WINDOW = ["--window", "5", "6"]


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _fourier_doc(modes: dict[int, tuple[complex, complex]], resolution: int) -> dict:
    return {
        "kind": "fourier",
        "resolution": resolution,
        "modes": {str(n): [_pair(complex(a)), _pair(complex(b))] for n, (a, b) in modes.items()},
    }


def _text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


def reference_potential(seed: int) -> dict:
    """The reference fourier potential with seeded coefficient phases."""
    rng = random.Random(seed)
    modes = {}
    for n, pair in REFERENCE_MODES.items():
        rotated = []
        for c in pair:
            turn = rng.uniform(0.0, 2.0 * math.pi)
            rotated.append(complex(c) if seed == 0 else c * cmath.exp(1j * turn))
        modes[n] = tuple(rotated)
    return _fourier_doc(modes, REFERENCE_RESOLUTION)


def _amplitude(rng: random.Random, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(0.0, 2.0 * math.pi))


def _step_values(rng: random.Random, segments: int) -> list:
    return [
        [_pair(_amplitude(rng, 0.05, 0.6)), _pair(_amplitude(rng, 0.05, 0.6))]
        for _ in range(segments)
    ]


def _non_dyadic_breakpoints(rng: random.Random, segments: int) -> list[float]:
    while True:
        inner = sorted(round(rng.uniform(0.05, 0.95), 6) for _ in range(segments - 1))
        gaps = [b - a for a, b in zip([0.0, *inner], [*inner, 1.0])]
        # a breakpoint on the 2^15 grid would be represented exactly
        if min(gaps) >= 0.05 and all((b * 32768) % 1 for b in inner):
            return [0.0, *inner, 1.0]


def _dyadic_breakpoints(rng: random.Random, segments: int) -> list[float]:
    inner = sorted(rng.sample(range(1, 16), segments - 1))
    return [0.0, *(k / 16 for k in inner), 1.0]


def _direction(rng: random.Random) -> tuple[complex, complex]:
    theta = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    return math.cos(theta), cmath.rect(math.sin(theta), rng.uniform(0.0, 2.0 * math.pi))


def _many_small_batch(rng: random.Random) -> list[dict]:
    inputs = []
    for _ in range(3):
        segments = rng.randint(2, 4)
        inputs.append(
            {
                "label": "piecewise-non-dyadic",
                "rank_one": False,
                "doc": {
                    "kind": "piecewise",
                    "breakpoints": _non_dyadic_breakpoints(rng, segments),
                    "values": _step_values(rng, segments),
                },
            }
        )
    for _ in range(3):
        segments = rng.randint(2, 4)
        inputs.append(
            {
                "label": "piecewise-dyadic",
                "rank_one": False,
                "doc": {
                    "kind": "piecewise",
                    "breakpoints": _dyadic_breakpoints(rng, segments),
                    "values": _step_values(rng, segments),
                },
            }
        )
    for _ in range(2):
        u = _amplitude(rng, 0.2, 0.9)
        e1, e2 = _direction(rng)
        inputs.append(
            {
                "label": "rank-one-constant",
                "rank_one": True,
                "doc": {"kind": "constant", "value": [_pair(u * e1), _pair(u * e2)]},
            }
        )
    e1, e2 = _direction(rng)
    modes = {}
    for n in rng.sample([-2, -1, 0, 1, 2], 2):
        u = _amplitude(rng, 0.1, 0.35)
        modes[n] = (u * e1, u * e2)
    inputs.append(
        {"label": "rank-one-fourier", "rank_one": True, "doc": _fourier_doc(modes, 32)}
    )
    return inputs


# The batch drawn from this seed; its outputs are recorded in references.json.
BATCH_SEED = 0

# Inputs drawn like the batch from other seeds, on which the program fails a
# check.  Each is (batch seed, input index, command, what fails).  The
# benchmark's tests run them as strict expected failures, so a fix shows up as
# an unexpected pass.
KNOWN_FAILURES = (
    (4, 8, "verify", "derived-identities"),
    (5, 7, "verify", "derived-identities"),
    (797528027, 3, "sheets", "SheetConflictError"),
)


def _rotate(pair: list[float], angle: float) -> list[float]:
    return _pair(complex(*pair) * cmath.exp(1j * angle))


def _symmetric_copy(doc: dict, rng: random.Random) -> dict:
    """The same potential up to a phase per component and a whole-cell shift.

    Both leave the spectrum of the sampled problem unchanged: a constant phase
    per component is a gauge change, and shifting a fourier input by whole
    cells shifts its midpoint samples cyclically.  Piecewise inputs are not
    shifted, because a shift would move their breakpoints against the grid.
    """
    gauge = (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi))
    if doc["kind"] == "constant":
        return dict(doc, value=[_rotate(c, a) for c, a in zip(doc["value"], gauge)])
    if doc["kind"] == "piecewise":
        values = [[_rotate(c, a) for c, a in zip(pair, gauge)] for pair in doc["values"]]
        return dict(doc, values=values)
    shift = rng.randrange(doc["resolution"]) / doc["resolution"]
    modes = {
        n: [_rotate(c, a + 2.0 * math.pi * int(n) * shift) for c, a in zip(pair, gauge)]
        for n, pair in doc["modes"].items()
    }
    return dict(doc, modes=modes)


def many_small_inputs(seed: int, batch_seed: int = BATCH_SEED) -> list[dict]:
    """The batch drawn from ``batch_seed``, transformed by symmetries drawn from ``seed``."""
    inputs = _many_small_batch(random.Random(batch_seed))
    if seed != 0:
        rng = random.Random(seed)
        for item in inputs:
            item["doc"] = _symmetric_copy(item["doc"], rng)
    return inputs


def build(name: str, seed: int) -> dict:
    """The workload spec: ``inputs`` and ``invocations`` over them."""
    if name == "line-sweep":
        inputs = [{"label": "fourier-reference", "rank_one": False, "doc": reference_potential(seed)}]
        calls = [(cmd, 0, SWEEP) for cmd in ("scan", "sheets", "qmomentum")]
        calls.append(("verify", 0, []))
    elif name == "eigen-window":
        inputs = [{"label": "fourier-reference", "rank_one": False, "doc": reference_potential(seed)}]
        calls = [("eigen", 0, ["--window", "5", "10"])]
    elif name == "many-small":
        inputs = many_small_inputs(seed)
        calls = []
        for k, item in enumerate(inputs):
            wide = item["label"].startswith("piecewise")
            calls += [
                ("scan", k, SWEEP),
                ("sheets", k, SWEEP),
                ("qmomentum", k, WIDE_SWEEP if wide else SWEEP),
                ("verify", k, []),
                ("eigen", k, SHORT_WINDOW),
            ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    for item in inputs:
        item["text"] = _text(item.pop("doc"))
    return {
        "workload": name,
        "seed": seed,
        "inputs": inputs,
        "invocations": [
            {"command": cmd, "input": k, "args": list(args)} for cmd, k, args in calls
        ],
    }
