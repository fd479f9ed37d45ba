"""One workload run in a fresh interpreter; prints one JSON object on stdout.

Started by run.py with the checkout's src/ on PYTHONPATH and the thread
settings pinned in its environment. Untraced, it runs whole passes of the
workload's task list for --seconds (and at least the workload's minimum pass
count) and reports the end-to-end metrics. Traced, it alternates untraced and
traced passes for --seconds, reports the per-layer metrics (medians over the
traced passes; the tracing overhead from the difference between the two kinds),
and writes the spans to a JSON file under --workdir.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import halflap  # noqa: E402
import halflap.cli  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class Context:
    """What tasks call into; the traced run swaps in wrapped entry points."""

    def __init__(self, tmpdir: Path, tracer: tracing.Tracer | None = None):
        self.tmpdir = tmpdir
        self.outputs: dict = {}
        self.solve = halflap.solve
        self.cli_main = halflap.cli.main
        if tracer is not None:
            self.solve = tracer.wrap(self.solve, "nonlinear.solve", tracing.solve_attrs)
            self.cli_main = tracer.wrap(self.cli_main, "cli.command")


@dataclass
class Pass:
    names: list
    times: list
    outcomes: list
    report_bytes: int
    spans: list

    @property
    def wall(self) -> float:
        return sum(self.times)


def run_pass(workload, ctx: Context, tracer: tracing.Tracer | None = None) -> Pass:
    times, outcomes, report_bytes = [], [], 0
    for task in workload.tasks:
        with tracer.span("task", task=task.name) if tracer else nullcontext():
            t0 = perf_counter()
            result = task.run(ctx)
            times.append(perf_counter() - t0)
        outcomes.append(task.gate(result, ctx))
        report_bytes += len(ctx.outputs.get(task.name, b""))
        del result
    names = [t.name for t in workload.tasks]
    return Pass(names, times, outcomes, report_bytes, tracer.drain() if tracer else [])


def run_passes(workload, ctx, seconds: float, min_passes: int) -> list:
    """Whole passes until the next one would overrun the budget, at least min_passes."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(workload, ctx))
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            return passes


def traced_pairs(workload, ctx: Context, seconds: float) -> tuple:
    """Alternate untraced and traced passes, so drift and warm-up fall on both."""
    tracer = tracing.Tracer()
    traced_ctx = Context(ctx.tmpdir, tracer)
    untraced, traced = [], []
    start = perf_counter()
    while True:
        untraced.append(run_pass(workload, ctx))
        with tracing.installed(tracer):
            traced.append(run_pass(workload, traced_ctx, tracer))
        elapsed = perf_counter() - start
        if elapsed + untraced[-1].wall + traced[-1].wall > seconds:
            return untraced, traced


def nearest_rank(values: list, percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile * len(ordered) / 100) - 1)]


def gate_summary(passes: list) -> dict:
    """Counts of attempted and failed tasks, and how often each reason occurred."""
    outcomes = [(name, o) for p in passes for name, o in zip(p.names, p.outcomes)]
    failures: dict = {}
    wrong: dict = {}
    for name, o in outcomes:
        for r in o.reasons:
            key = f"{name}: {r.partition(' (')[0]}"
            failures[key] = failures.get(key, 0) + 1
        for r in o.wrong:
            key = f"{name}: {r}"
            wrong[key] = wrong.get(key, 0) + 1
    attempted = len(outcomes)
    failed = sum(not o.passed for _, o in outcomes)
    return {"attempted": attempted, "failed": failed, "failures": failures, "wrong": wrong}


def end_to_end(workload, passes: list) -> dict:
    """Each task's time is its median over the passes, so a stall in one task of
    one pass moves neither wall_s (their sum) nor task_s_p50 (their median); the
    tail percentile pools every task execution."""
    samples = [t for p in passes for t in p.times]
    per_task = [statistics.median(times) for times in zip(*(p.times for p in passes))]
    gate = gate_summary(passes)
    defects = [o.defect_rel for p in passes for o in p.outcomes if o.defect_rel is not None]
    q = workload.tail_percentile
    return {
        "metrics": {
            "wall_s": sum(per_task),
            "task_s_p50": statistics.median(per_task),
            "task_s_tail": nearest_rank(samples, q),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (gate["attempted"] - gate["failed"]) / gate["attempted"],
            "defect_rel_max": max(defects, default=0.0),
        },
        "detail": {
            "passes": len(passes),
            "pass_walls": [round(p.wall, 4) for p in passes],
            "tasks_per_pass": len(workload.tasks),
            "tail_percentile": q,
            "task_samples": len(samples),
            "solves_with_defect": len(defects),
        },
        "gate": gate,
    }


def pair_seconds(spec: str, K: int, seed: int) -> float:
    """Median time of one analyze + synthesize pair on a fixed basis, over five pairs."""
    basis = halflap.eigenpairs(workloads.parse_domain(spec), K)
    rng = np.random.default_rng(seed)
    g = halflap.GridFn(basis.domain, rng.uniform(0.0, 1.0, basis.domain.num_nodes))
    times = []
    for _ in range(5):
        t0 = perf_counter()
        halflap.synthesize(halflap.analyze(g, basis))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_layer(workload, seed: int, untraced: list, traced: list) -> dict:
    metrics = tracing.median_metrics(
        [tracing.layer_metrics(p.spans, p.report_bytes) for p in traced]
    )
    spec, K = workload.largest_basis
    entries = K * workloads.domain_nodes(spec)
    pair = pair_seconds(spec, K, seed)
    metrics["spectral.pair_s"] = pair
    # computed from array sizes: each transform streams the K x nodes matrix once
    metrics["spectral.pair_gbps"] = 2 * 8 * entries / pair / 1e9
    metrics["spectral.flop_per_byte"] = (2 * 2 * entries) / (2 * 8 * entries)
    metrics["trace.overhead_s"] = statistics.median(p.wall for p in traced) - statistics.median(
        p.wall for p in untraced
    )
    return metrics


def machine_facts() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {
            k: os.environ.get(k)
            for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "HALFLAP_THREADS"
            )
        },
    }


def trace_path(workdir: Path, name: str, seed: int) -> Path:
    return workdir / f"trace-{name}-seed{seed}.json"


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Run one workload; traced runs also write their spans under workdir."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        ctx = Context(Path(tmp))
        if not trace:
            passes = run_passes(workload, ctx, seconds, workload.min_passes)
            out = end_to_end(workload, passes)
        else:
            untraced, traced = traced_pairs(workload, ctx, seconds)
            passes = untraced + traced
            out = {
                "metrics": per_layer(workload, seed, untraced, traced),
                "detail": {"untraced_passes": len(untraced), "traced_passes": len(traced)},
                "gate": gate_summary(passes),
            }
            trace_path(workdir, workload.name, seed).write_text(
                json.dumps(
                    {
                        "workload": workload.name,
                        "seed": seed,
                        "passes": [[asdict(s) for s in p.spans] for p in traced],
                    }
                )
            )
    out["machine"] = machine_facts()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = run(workload, args.seed, args.seconds, bool(args.trace), args.workdir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
