"""Self-test of the benchmark harness on tiny inputs.

    python3 bench/selftest.py

Runs tiny versions of the three workloads through the same worker, tracer and
result formatting the benchmark uses, untraced and traced, and checks that
every metric declared in BENCHMARK.json is emitted with its unit; that the
gate counts a failure for a wrong reference I0 and for an unexpected exit
code; that self time subtracts overlapping child spans once; that spans from
sweep's worker threads nest under their sweep; and that predictions.json
names only declared metrics and workloads. Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import halflap as hl  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

IV, SQ = "interval:1:64", "rectangle:1:1:16:16"


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def tiny_workloads() -> list:
    solve_1d = wl.Workload(
        "solve-1d",
        (wl.SolveTask(IV, 16, 2.0), wl.SolveTask(IV, 16, 3.0, wl.PERTURBATION, 5)),
        6, (IV, 16),
    )
    solve_2d = wl.Workload("solve-2d", (wl.SolveTask("rectangle:1:1:32:32", 8, 1.5),), 11, (SQ, 8))
    solve_argv = ("solve", "--domain", IV, "--p", "2", "--modes", "16")
    coeffs = [0.5, -0.25, 1.0]
    cli = wl.Workload(
        "cli-batch",
        (
            wl.CliTask("check", ("check", "--domain", IV, "--p", "2", "--modes", "16"),
                       "check.json", wl.solve_json_check((IV, 16, 2.0))),
            wl.CliTask("sweep", ("sweep", "--domain", IV, "--p-list", "2,3", "--modes", "16"),
                       "sweep.csv", wl.sweep_check((2.0, 3.0))),
            wl.CliTask("extend", ("extend", "--domain", SQ, "--modes", "8", "--mode", "3",
                                  "--y", "0.25"), "extend.csv", wl.extend_check(SQ, (2, 1), 0.25)),
            wl.CliTask("apply", ("apply", "--domain", IV, "--modes", "16", "--op", "b-half",
                                 "--coeffs=" + ",".join(map(repr, coeffs))),
                       "apply.csv", wl.apply_check(coeffs + [0.0] * 13, 1.0)),
            wl.CliTask("eig", ("eig", "--domain", SQ, "--modes", "8"), "eig.csv",
                       wl.eig_check(SQ, 8)),
            wl.CliTask("solve", solve_argv, "a.json", wl.solve_json_check((IV, 16, 2.0))),
            wl.CliTask("solve again", solve_argv, "b.json", wl.solve_json_check((IV, 16, 2.0)),
                       same_as="solve"),
        ),
        2, (SQ, 8),
    )
    return [solve_1d, solve_2d, cli]


def tiny_references() -> dict:
    refs = {}
    for spec, K, p in ((IV, 16, 2.0), (IV, 16, 3.0), ("rectangle:1:1:32:32", 8, 1.5)):
        rep = hl.solve(wl.parse_domain(spec), p, hl.SolveConfig(p=p, K=K))
        check(rep.converged, f"tiny reference solve {spec}/K{K} p={p} did not converge")
        refs[(spec, K, p)] = rep.I0
    return refs


def test_metrics_emitted(tmp: Path) -> None:
    declared = run.spec()
    setup = {"setup_s": run.setup_seconds()}
    breakdown = run.import_breakdown()
    for workload in tiny_workloads():
        for trace in (False, True):
            out = worker.run(workload, 1, 0.2, trace, tmp)
            out["metrics"].update(breakdown if trace else setup)
            kind = "per_layer" if trace else "end_to_end"
            line = run.result_line(out, declared[kind])
            where = f"{workload.name} trace={int(trace)}"
            check(line["correct"], f"{where}: wrong outputs {out['gate']['wrong']}")
            check(line["attempted"] >= 1, f"{where}: nothing attempted")
            for m in declared[kind]:
                entry = line["metrics"][m["name"]]
                check(entry["unit"] == m["unit"], f"{where}: {m['name']} has unit {entry['unit']}")
                check(
                    isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]),
                    f"{where}: {m['name']} = {entry['value']!r} is not a finite number",
                )
            if trace:
                check_trace_file(worker.trace_path(tmp, workload.name, 1), workload.name)


def check_trace_file(path: Path, name: str) -> None:
    doc = json.loads(path.read_text())
    spans = [s for p in doc["passes"] for s in p]
    check(bool(spans), f"{name}: trace file holds no spans")
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        check(s["parent"] is None or s["parent"] in by_id, f"{name}: span {s} has no parent")
    if name == "cli-batch":
        rows = [s for s in spans if s["name"] == "nonlinear.solve"
                and by_id[s["parent"]]["name"] == "nonlinear.sweep"]
        check(len(rows) == 2, f"sweep rows nest under their sweep span, got {len(rows)}")


def test_gate_counts_failures(tmp: Path) -> None:
    ctx = worker.Context(tmp)
    task = wl.SolveTask(IV, 16, 2.0)
    report = task.run(ctx)
    check(task.gate(report, ctx).passed, "gate fails a correct solve")
    right = wl.REFERENCE_I0[task.key]
    wl.REFERENCE_I0[task.key] = right * (1 + 1e-6)
    wrong = task.gate(report, ctx)
    wl.REFERENCE_I0[task.key] = right
    check(not wrong.passed and wrong.wrong, "gate passes a wrong reference I0")
    cli = tiny_workloads()[2].tasks[-2]
    result = cli.run(ctx)
    check(cli.gate(result, ctx).passed, "gate fails a correct command")
    check(
        not dataclasses.replace(cli, expect_exit=1).gate(result, ctx).passed,
        "gate passes an unexpected exit code",
    )
    passes = [worker.Pass(["a", "b"], [0.1, 0.2], [wrong, wl.Outcome()], 0, [])]
    summary = worker.gate_summary(passes)
    check(summary["failed"] == 1 and summary["attempted"] == 2, f"gate summary {summary}")


def test_self_time() -> None:
    S = tracing.Span
    parent = S(0, "cli.command", None, 0, 0.0, 10.0)
    kids = [S(1, "a", 0, 0, 1.0, 3.0), S(2, "b", 0, 1, 2.0, 5.0), S(3, "c", 0, 0, 7.0, 8.0)]
    own = tracing.self_times([parent, *kids])
    check(abs(own[0] - 5.0) < 1e-12, f"self time {own[0]} != 5 with overlapping children")


def test_predictions() -> None:
    declared = run.spec()
    e2e = {m["name"] for m in declared["end_to_end"]}
    layer = {m["name"] for m in declared["per_layer"]}
    names = {w["name"] for w in declared["workloads"]}
    with open(BENCH / "predictions.json", encoding="utf-8") as fh:
        pred = json.load(fh)
    cited = set()
    for entry in pred["layers"].values():
        cited.update(entry["metrics"])
        for move in entry["moves"] + entry.get("no_change", []):
            check(move["metric"] in e2e, f"prediction cites unknown metric {move['metric']}")
            check(set(move["workloads"]) <= names, f"prediction cites unknown workload {move}")
    check(cited == layer, f"predictions and per_layer differ: {sorted(cited ^ layer)}")
    check(set(pred["workloads"]) == names, "predictions.json must describe every workload")
    check(set(run.WORKLOADS) == names == set(wl.WORKLOADS), "workload lists disagree")


def main() -> int:
    saved = wl.REFERENCE_I0
    wl.REFERENCE_I0 = {**saved, **tiny_references()}
    try:
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            test_metrics_emitted(Path(tmp))
            test_gate_counts_failures(Path(tmp))
        test_self_time()
        test_predictions()
    finally:
        wl.REFERENCE_I0 = saved
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
