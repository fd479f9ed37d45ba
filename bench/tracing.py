"""Spans recorded around calls into halflap's public functions.

The benchmark's traced run swaps selected public names for wrappers at the
places their consumers look them up (for example `halflap.nonlinear.eigenpairs`
is what `solve` calls to build its basis), records one span per call, and puts
the originals back afterwards. Nothing inside the library is edited, so the
solver's private stages are not split here.

Spans are kept in memory. Recording is thread-safe because `sweep` runs its rows
on worker threads; a span opened on a thread with no open span of its own takes
the innermost open span of the thread that created the tracer as its parent, so
sweep rows nest under their sweep.
"""

from __future__ import annotations

import functools
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import halflap.cli as cli
import halflap.nonlinear as nonlinear
import halflap.verification as verification


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack: list = []
        self._next_id = 0
        self._spans: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._home:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            if stack:
                parent = stack[-1]
            else:
                parent = self._home_stack[-1] if self._home_stack else None
            stack.append(sid)
        rec = Span(sid, name, parent, threading.get_ident(), perf_counter(), attrs=attrs)
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            with self._lock:
                stack.pop()
                self._spans.append(rec)

    def wrap(self, fn, name: str, describe=None):
        """Wrapper recording a span per call; describe(args, result) adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if describe is not None:
                    rec.attrs.update(describe(args, result))
                return result

        return traced

    def drain(self) -> list:
        """Return the finished spans in start order and forget them."""
        with self._lock:
            spans, self._spans = self._spans, []
        return sorted(spans, key=lambda s: s.start)


def _basis_attrs(basis) -> dict:
    return {"K": basis.K, "nodes": basis.domain.num_nodes}


def _built_attrs(args, basis) -> dict:
    return _basis_attrs(basis)


def solve_attrs(args, report) -> dict:
    """Span attributes of a solve call, from its SolveReport."""
    return {
        "iterations": report.iterations,
        "converged": report.converged,
        "residual_inf": report.residual_inf,
    }


CHECKS = (
    "check_weak_mp", "check_positivity", "check_symmetry", "check_monotonicity", "check_hopf",
    "stability_margin",
)


def _patches(tracer: Tracer) -> list:
    """(module, name, wrapper) for every public name the traced run swaps."""
    table = [
        (nonlinear, "eigenpairs", "basis.build", _built_attrs),
        (cli, "eigenpairs", "basis.build", _built_attrs),
        (nonlinear, "solve", "nonlinear.solve", solve_attrs),
        (cli, "solve", "nonlinear.solve", solve_attrs),
        (cli, "sweep", "nonlinear.sweep", lambda args, rows: {"rows": len(rows)}),
        (cli, "evaluate_extension", "extension.eval", None),
        (verification, "analyze", "spectral.analyze", lambda args, f: _basis_attrs(args[1])),
        (verification, "synthesize", "spectral.synthesize",
         lambda args, u: _basis_attrs(args[0].basis)),
    ]
    table += [
        (cli, name, f"verification.{name}", lambda args, rep: {"passed": rep.passed})
        for name in CHECKS
    ]
    return [
        (mod, name, tracer.wrap(getattr(mod, name), span, describe))
        for mod, name, span, describe in table
    ]


@contextmanager
def installed(tracer: Tracer):
    """Swap the traced names in for the duration of the block."""
    patches = _patches(tracer)
    saved = [(mod, name, getattr(mod, name)) for mod, name, _ in patches]
    try:
        for mod, name, wrapper in patches:
            setattr(mod, name, wrapper)
        yield
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


def _covered(parent: Span, children: list) -> float:
    """Length of the part of the parent's interval covered by its children."""
    pieces = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    total, cur_start, cur_end = 0.0, None, None
    for a, b in pieces:
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> span duration minus the time its child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {s.id: s.duration - _covered(s, children.get(s.id, [])) for s in spans}


def layer_metrics(spans: list, report_bytes: int) -> dict:
    """Per-layer values for one traced pass (see BENCHMARK.json per_layer)."""
    own = self_times(spans)

    def named(prefix):
        return [s for s in spans if s.name == prefix or s.name.startswith(prefix + ".")]

    builds = named("basis.build")
    transforms = named("spectral.analyze") + named("spectral.synthesize")
    solves = named("nonlinear.solve")
    checks = [s for s in spans if s.name.startswith("verification.")]
    commands = named("cli.command")
    sweeps = named("nonlinear.sweep")
    extensions = named("extension.eval")
    iterations = sum(s.attrs["iterations"] for s in solves)
    solve_self = sum(own[s.id] for s in solves)
    residuals = [s.attrs["residual_inf"] for s in solves if s.attrs["residual_inf"] < float("inf")]
    transform_entries = sum(s.attrs["K"] * s.attrs["nodes"] for s in transforms)
    largest_build = max((s.attrs["K"] * s.attrs["nodes"] for s in builds), default=0)
    return {
        "basis.build_s": sum(s.duration for s in builds),
        "basis.builds": len(builds),
        "basis.matrix_mb": 8 * largest_build / 1e6,
        "spectral.transform_s": sum(s.duration for s in transforms),
        "spectral.transform_calls": len(transforms),
        "spectral.transform_bytes": 8 * transform_entries,
        "spectral.transform_flops": 2 * transform_entries,
        "nonlinear.solve_s": sum(s.duration for s in solves),
        "nonlinear.self_s": solve_self,
        "nonlinear.iterations": iterations,
        "nonlinear.s_per_iter": solve_self / iterations if iterations else 0.0,
        "nonlinear.converged_frac": (
            sum(bool(s.attrs["converged"]) for s in solves) / len(solves) if solves else 0.0
        ),
        "nonlinear.residual_max": max(residuals, default=0.0),
        "nonlinear.sweep_s": sum(s.duration for s in sweeps),
        "nonlinear.sweep_rows": sum(s.attrs["rows"] for s in sweeps),
        "extension.eval_s": sum(s.duration for s in extensions),
        "extension.calls": len(extensions),
        "verification.check_s": sum(s.duration for s in checks),
        "verification.checks": len(checks),
        "verification.checks_failed": sum(not s.attrs["passed"] for s in checks),
        "cli.command_s": sum(s.duration for s in commands),
        "cli.self_s": sum(own[s.id] for s in commands),
        "cli.report_bytes": report_bytes,
    }


def median_metrics(per_pass: list) -> dict:
    """Per-metric median over passes (the lower middle value, so counts stay whole)."""
    return {k: statistics.median_low(d[k] for d in per_pass) for k in per_pass[0]}
