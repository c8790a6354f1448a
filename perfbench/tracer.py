"""In-memory span tracer that wraps the package's functions from outside.

The tracer replaces every public function of every ``manakov_spectra``
module with a timing wrapper, and rebinds each name that another module
imported with ``from .x import y`` as well, so calls made through either name
are recorded.  A span is ``[name, start, end, parent]`` with ``parent`` the
index of the enclosing span (or -1).  Spans stay in a list until the run ends.
Counts are taken at the same boundaries by per-function hooks that look at
arguments, return values and raised exceptions.

Self time is a span's duration minus the time covered by its child spans.
Every span's self time is added to one named bucket (see ``bucket_of``);
whatever no named bucket claims, including the benchmark's own root span per
invocation, lands in ``other.self_s``, so the buckets sum to the traced wall
time exactly.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

MODULES = (
    "algebra",
    "cli",
    "monodromy",
    "multipliers",
    "periodic_eigen",
    "potential",
    "quasimomentum",
    "spectrum",
    "zs_oracle",
)

# Dense 3x3 primitives called inside the propagation kernel.  They are not
# layers: left unwrapped, their time stays in the engine's self time.
UNWRAPPED = frozenset(
    {
        "algebra.adj3",
        "algebra.det3",
        "algebra.ensure_finite",
        "algebra.expm3",
        "algebra.expm_dense",
        "algebra.expm_stack3",
        "algebra.solve3",
    }
)

# Private functions and methods that carry a named layer.
EXTRA = (
    ("cli", "_csv_text"),
    ("cli", "_json_text"),
    ("potential", "Potential.canonical"),
)

ROOT = "invocation"

SPAN_BUCKETS = {
    "algebra.cubic_roots": "cubic.self_s",
    "algebra.cubic_roots_stack": "cubic.self_s",
    "algebra.winding_count": "winding.self_s",
    "cli._csv_text": "cli.serialise_s",
    "cli._json_text": "cli.serialise_s",
    "multipliers.derived_grid": "derived.self_s",
    "potential.Potential.canonical": "potential.canonical_s",
    "quasimomentum.herglotz_asymptotic": "herglotz.self_s",
    "quasimomentum.q0_integral": "quad.self_s",
    "quasimomentum.q_profile": "qprofile.self_s",
    "spectrum.sheet_count": "sheets.self_s",
}

MODULE_BUCKETS = {
    "cli": "cli.self_s",
    "monodromy": "monodromy.self_s",
    "multipliers": "multipliers.self_s",
    "periodic_eigen": "eigen.self_s",
    "potential": "potential.self_s",
    "quasimomentum": "quasimomentum.self_s",
    "spectrum": "scan.self_s",
    "zs_oracle": "zs.self_s",
}

OTHER = "other.self_s"

BUCKETS = tuple(sorted(set(SPAN_BUCKETS.values()) | set(MODULE_BUCKETS.values()) | {OTHER}))


def bucket_of(name: str) -> str:
    """The self-time bucket that a span name belongs to."""
    if name in SPAN_BUCKETS:
        return SPAN_BUCKETS[name]
    return MODULE_BUCKETS.get(name.split(".", 1)[0], OTHER)


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus its children's durations."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def bucket_totals(spans) -> dict[str, float]:
    """Self time summed per bucket; every bucket is present."""
    totals = dict.fromkeys(BUCKETS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        totals[bucket_of(span[0])] += own
    return totals


def root_wall(spans) -> float:
    """Sum of the durations of the root spans."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def _resolve(module, dotted: str):
    owner = module
    parts = dotted.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == module.__name__:
            yield attr, obj


def _targets(modules: dict) -> dict[int, tuple[str, object, object, str]]:
    """Map id(original) -> (span name, original, owner, attribute)."""
    out = {}
    for mod_name, module in modules.items():
        for attr, fn in _public_functions(module):
            name = f"{mod_name}.{attr}"
            if name not in UNWRAPPED:
                out[id(fn)] = (name, fn, module, attr)
    for mod_name, dotted in EXTRA:
        owner, attr = _resolve(modules[mod_name], dotted)
        out[id(vars(owner)[attr])] = (f"{mod_name}.{dotted}", vars(owner)[attr], owner, attr)
    return out


class Tracer:
    """Wraps the package, records spans and boundary counts, then restores it."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        # id(potential) -> (potential, ...): holding the potential keeps its id unique
        self._seen: dict[int, tuple[object, set]] = {}
        self._runs: dict[int, tuple[object, int]] = {}
        self._scan_first: set[int] = set()
        self._hooks = {
            "algebra.cubic_roots_stack": self._on_cubic,
            "algebra.winding_count": self._on_winding,
            "cli._csv_text": self._on_serialise,
            "cli._json_text": self._on_serialise,
            "monodromy.monodromy_grid": self._on_monodromy,
            "periodic_eigen.d_pm": self._on_d_scalar,
            "periodic_eigen.d_pm_grid": self._on_d_grid,
            "periodic_eigen.eigenvalues_in_window": self._on_eigen_window,
            "quasimomentum.branch_magnitudes": self._on_branch_magnitudes,
            "quasimomentum.q_profile": self._on_q_profile,
        }

    # -- installation -----------------------------------------------------

    def install(self, package) -> int:
        """Wrap every target under every name it is bound to; return the count."""
        modules = {m: getattr(package, m) for m in MODULES}
        targets = _targets(modules)
        wrappers = {key: self._wrap(name, fn) for key, (name, fn, _, _) in targets.items()}
        owners = [package, *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((owner, attr, obj))
                    setattr(owner, attr, wrappers[id(obj)])
        for key, (_, fn, owner, attr) in targets.items():
            if inspect.isclass(owner):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[key])
        return len(self._saved)

    def restore(self) -> None:
        """Put every original function back, in reverse order of wrapping."""
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        return wrapper

    # -- one CLI invocation ----------------------------------------------

    def invoke(self, fn, *args):
        """Call ``fn`` inside a root span; per-invocation state starts afresh."""
        self._seen = {}
        self._runs = {}
        self._scan_first = set()
        span = [ROOT, time.perf_counter(), 0.0, -1]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _ancestor(self, name: str) -> int:
        for idx in reversed(self.stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    # -- boundary hooks ---------------------------------------------------

    def _on_monodromy(self, args, result, exc):
        c = self.counts
        c["monodromy.calls"] += 1
        if exc is not None:
            return
        p = args[0]
        lam = result["lam"].tolist()
        _, seen = self._seen.setdefault(id(p), (p, set()))
        c["monodromy.points"] += len(lam)
        c["monodromy.repeat_points"] += sum(1 for x in lam if x in seen)
        seen.update(lam)
        if id(p) not in self._runs:
            # the unwrapped method: this count is not program work
            self._runs[id(p)] = (p, len(p.canonical.__wrapped__(p).runs()[1]))
        c["monodromy.point_runs"] += len(lam) * self._runs[id(p)][1]
        scan = self._ancestor("spectrum.scan")
        if scan >= 0:
            if scan in self._scan_first:
                c["scan.refine_calls"] += 1
                c["scan.refine_points"] += len(lam)
            else:
                self._scan_first.add(scan)
                c["scan.grid_points"] += len(lam)

    def _on_cubic(self, args, result, exc):
        self.counts["cubic.calls"] += 1
        if exc is not None:
            self.counts["cubic.errors"] += 1
        else:
            self.counts["cubic.roots"] += int(result.size)

    def _on_winding(self, args, result, exc):
        c = self.counts
        c["winding.calls"] += 1
        c["winding.samples"] += int(args[0].size)
        kind = type(exc).__name__ if exc is not None else None
        if kind is None:
            c["winding.ok"] += 1
        elif kind == "ContourThroughZeroError":
            c["winding.through_zero"] += 1
        elif kind == "UndersampledContourError":
            c["winding.undersampled"] += 1

    def _on_d_grid(self, args, result, exc):
        if exc is not None:
            return
        c = self.counts
        c["eigen.d_calls"] += 1
        c["eigen.d_points"] += int(result.size)
        if self._ancestor("periodic_eigen.count_in_disk") >= 0:
            c["eigen.disk_points"] += int(result.size)

    def _on_d_scalar(self, args, result, exc):
        self.counts["eigen.scalar_d_calls"] += 1

    def _on_eigen_window(self, args, result, exc):
        if exc is not None:
            return
        c = self.counts
        c["eigen.disks"] += int(args[2]) - int(args[1]) + 1
        c["eigen.roots"] += len(result.entries)
        c["eigen.failures"] += len(result.failures)

    def _on_q_profile(self, args, result, exc):
        if exc is None:
            self.counts["qprofile.points"] += int(result.grid.size)

    def _on_branch_magnitudes(self, args, result, exc):
        if exc is None and self._ancestor("quasimomentum.q0_integral") >= 0:
            self.counts["quad.rounds"] += 1
            self.counts["quad.points"] += len(args[1])

    def _on_serialise(self, args, result, exc):
        if exc is None:
            self.counts["cli.output_bytes"] += len(result.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def zs_calls(self) -> int:
        """zs_oracle calls entered from outside the module."""
        spans = self.spans
        return sum(
            1
            for name, _, _, parent in spans
            if name.startswith("zs_oracle.")
            and (parent < 0 or not spans[parent][0].startswith("zs_oracle."))
        )
