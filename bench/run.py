"""halflap benchmark: fixed workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload solve-1d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload run executes in a fresh child interpreter (bench/worker.py)
with the BLAS thread count and HALFLAP_THREADS pinned, so import cost, memory
and thread settings belong to that run. The set-up time is measured in
separate fresh interpreters. Every metric is printed by name with its unit,
and the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). Traced runs also write their spans to
.bench_out/trace-<workload>-seed<n>.json. Workloads, metrics and the predicted effect of each
layer are listed in BENCHMARK.json and bench/predictions.json.

`python3 bench/selftest.py` checks the harness itself on tiny inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
WORKLOADS = ("solve-1d", "solve-2d", "cli-batch")

SETUP_PROBES = 11
CHILD_TIMEOUT_S = 160
PROBE_TIMEOUT_S = 30
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import halflap; "
    "print(repr(time.perf_counter() - t))"
)


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every child: checkout sources first, threads pinned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["HALFLAP_THREADS"] = str(min(2, len(os.sched_getaffinity(0))))
    return env


def _probe(args: list) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True,
    )


def setup_seconds() -> float:
    """Median over fresh interpreters of the time `import halflap` takes."""
    probes = (float(_probe(["-c", IMPORT_PROBE]).stdout) for _ in range(SETUP_PROBES))
    return statistics.median(probes)


def import_breakdown() -> dict:
    """Median cumulative -X importtime of numpy and halflap, in seconds."""
    samples: dict = {"numpy": [], "halflap": []}
    for _ in range(SETUP_PROBES):
        err = _probe(["-X", "importtime", "-c", "import halflap"]).stderr
        for line in err.splitlines():
            parts = [p.strip() for p in line.partition(":")[2].split("|")]
            if len(parts) == 3 and parts[2] in samples:
                samples[parts[2]].append(int(parts[1]) / 1e6)
    return {
        "setup.import_numpy_s": statistics.median(samples["numpy"]),
        "setup.import_halflap_s": statistics.median(samples["halflap"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--workdir", str(WORK),
    ]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    if trace:
        out["metrics"].update(import_breakdown())
    else:
        out["metrics"]["setup_s"] = setup_seconds()
    return out


def result_line(out: dict, declared: list) -> dict:
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        raise SystemExit(f"benchmark produced no value for {missing}")
    gate = out["gate"]
    return {
        "correct": not gate["wrong"],
        "attempted": gate["attempted"],
        "failed": gate["failed"],
        "metrics": {
            name: {"value": out["metrics"][name], "unit": units[name]} for name in units
        },
    }


def report(name: str, out: dict, line: dict) -> None:
    print(f"# workload {name}: {json.dumps(out['detail'])}")
    print(f"# machine: {json.dumps(out['machine'])}")
    for reason, count in sorted(out["gate"]["failures"].items()):
        print(f"# failed x{count}: {reason}")
    for reason, count in sorted(out["gate"]["wrong"].items()):
        print(f"# WRONG x{count}: {reason}")
    for metric, entry in line["metrics"].items():
        note = ""
        if metric == "task_s_tail":
            detail = out["detail"]
            note = f" (p{detail['tail_percentile']} of {detail['task_samples']} task samples)"
        print(f"{name} {metric} = {entry['value']!r} {entry['unit']}{note}")
    print(f"# {name} failed_frac = {line['failed']}/{line['attempted']} = "
          f"{line['failed'] / line['attempted']!r}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "halflap" / "__init__.py").is_file():
        print(f"error: no halflap sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    declared = spec()["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        lines[name] = result_line(out, declared)
        report(name, out, lines[name])
    if len(names) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {
                f"{n}/{m}": v for n, l in lines.items() for m, v in l["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
