"""In-memory span tracing of trdlab from outside the package.

Each target is wrapped at the name its caller resolves it through: the
stepper calls ``trdlab.stepper.dissipation``, the diagnostics tracker calls
``trdlab.diagnostics.dissipation``, so both names are wrapped. A target a
later refactor renamed or removed is recorded as absent and skipped.

Spans are kept in flat arrays (name id, start, end, parent index) so a
traced presets pass of ~10^6 spans stays small; ``save`` writes them out
and ``totals`` subtracts each span's children from its duration.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute path, span name): timed spans.
SPAN_TARGETS = (
    ("trdlab.cli", "run_scenario", "runner.run_scenario"),
    ("trdlab.cli", "preset_config", "config.load"),
    ("trdlab.cli", "load_config", "config.load"),
    ("trdlab.runner", "build_initial", "config.load"),
    ("trdlab.runner", "run", "stepper.run"),
    ("trdlab.stepper", "step", "stepper.step"),
    ("trdlab.stepper", "diffusion_substep", "stepper.diffusion"),
    ("trdlab.stepper", "_reaction_substep", "stepper.reaction"),
    ("trdlab.stepper", "dissipation", "diagnostics.dissipation"),
    ("trdlab.stepper", "entropy", "diagnostics.entropy"),
    ("trdlab.diagnostics", "dissipation", "diagnostics.dissipation"),
    ("trdlab.diagnostics", "entropy", "diagnostics.entropy"),
    ("trdlab.diagnostics", "DiagnosticsTracker.accumulate", "diagnostics.accumulate"),
    ("trdlab.diagnostics", "DiagnosticsTracker.observe", "diagnostics.observe"),
    ("trdlab.diagnostics", "gradient_energy", "grid.gradient_energy"),
    ("trdlab.picard", "picard_iterate_mp", "picard.iterate_mp"),
    ("trdlab.picard", "convergence_envelope_check", "picard.envelope_check"),
    ("trdlab.kernel", "mass_conservation_check", "kernel.mass_check"),
    ("trdlab.kernel", "semigroup_check", "kernel.semigroup"),
    ("trdlab.kernel", "gaussian_bound_fit", "kernel.gaussian_fit"),
    ("trdlab.kernel", "smoothing_probe", "kernel.smoothing_probe"),
    ("trdlab.bootstrap", "replay_chain", "bootstrap.replay"),
)


def _clamped_cells(result) -> int:
    return int(np.count_nonzero(result[1]))


# (module, attribute path, counter name, amount taken from the result):
# counted only, not timed, so they add no span inside a timed layer.
COUNT_TARGETS = (
    ("trdlab.stepper", "_residual", "stepper.newton_evals", lambda result: 1),
    ("trdlab.stepper", "_solve_reaction_newton", "stepper.clamp_cells", _clamped_cells),
    ("trdlab.stepper", "_solve_reaction_frozen", "stepper.clamp_cells", _clamped_cells),
    ("trdlab.stepper", "_clamp_positivity", "stepper.clamp_cells", lambda result: int(result[0])),
    ("trdlab.bootstrap", "replay_chain", "bootstrap.chain_steps", lambda result: len(result.steps)),
)


_INHERITED = object()  # marks a method the patched class did not define itself


def _resolve(module: str, path: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    fn = getattr(owner, attr, None)
    return (owner, fn) if callable(fn) else (None, None)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span_wrapper(self, fn, name: str):
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, fn, name: str, amount):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += amount(result)
            return result

        return wrapper

    def _patch(self, module: str, path: str, label: str, make):
        owner, fn = _resolve(module, path)
        if owner is None:
            self.absent.append(f"{module}.{path} ({label})")
            return
        attr = path.rsplit(".", 1)[-1]
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, make(fn))

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        for module, path, name, amount in COUNT_TARGETS:
            self._patch(module, path, name, lambda fn: self._count_wrapper(fn, name, amount))
        for module, path, name in SPAN_TARGETS:
            self._patch(module, path, name, lambda fn: self._span_wrapper(fn, name))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                if original is _INHERITED:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one job."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per span name over spans [lo, hi): call count, inclusive seconds
        and self seconds (duration minus the time its child spans cover)."""
        hi = len(self) if hi is None else hi
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - np.frombuffer(
            self.start, dtype=np.float64
        )[lo:hi]
        inside = parent >= 0
        child = np.bincount(parent[inside], weights=dur[inside], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        incl = np.bincount(name_id, weights=dur, minlength=k)
        excl = np.bincount(name_id, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "incl": float(incl[i]), "self": float(excl[i])}
            for i, name in enumerate(self.names)
        }
