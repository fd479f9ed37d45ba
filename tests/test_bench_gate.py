"""One pass of every benchmark workload passes the benchmark's correctness gate.

bench/worker.py runs the tasks of bench/workloads.py and its gate sorts each
outcome into pass, failure (reasons) or wrong output (wrong). A change that
makes a task fail or answer wrongly would otherwise show only when the
benchmark runs, as a lower ok_frac or an incorrect run.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("workload", ["solve-1d", "solve-2d", "cli-batch"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_pass_of_each_workload_passes_the_gate(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    # a workload added to the benchmark is added to the parametrization here
    assert set(workloads.WORKLOADS) == {"solve-1d", "solve-2d", "cli-batch"}
    done = worker.run_pass(workloads.WORKLOADS[workload](seed), worker.Context(tmp_path))
    assert len(done.outcomes) == len(done.names) > 0
    failed = {name: (out.reasons, out.wrong)
              for name, out in zip(done.names, done.outcomes) if out.reasons or out.wrong}
    assert failed == {}
