"""The benchmark's traced run still finds every library name it patches.

bench/tracing.py swaps public names in halflap.cli, halflap.nonlinear and
halflap.verification for recording wrappers. A refactor that renames or drops
one of them would otherwise break only the traced benchmark runs.
"""

import importlib
from pathlib import Path

import pytest

import halflap.cli as cli
import halflap.nonlinear as nonlinear
import halflap.verification as verification

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_cli_records_every_patched_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    modules = (cli, nonlinear, verification)
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    common = ["--domain", "interval:1:64", "--modes", "8"]
    commands = [
        ["eig", *common],
        ["solve", *common, "--p", "2"],
        ["check", *common, "--p", "2", "--mp-samples", "2"],
    ]
    with tracing.installed(tracer):
        for i, argv in enumerate(commands):
            assert cli.main(argv + ["--output", str(tmp_path / f"{i}.out")]) == 0
    names = {span.name for span in tracer.drain()}
    assert {"basis.build", "nonlinear.solve", "spectral.analyze"} <= names
    checks = {f"verification.{name}" for name in tracing.CHECKS}
    assert checks <= names
    assert [dict(vars(mod)) for mod in modules] == before


@pytest.mark.parametrize("samples", [1, 5])
def test_traced_check_records_one_weak_mp_span_over_all_sources(samples, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    argv = ["check", "--domain", "interval:1:64", "--modes", "8", "--p", "2",
            "--mp-samples", str(samples), "--output", str(tmp_path / "check.json")]
    with tracing.installed(tracer):
        assert cli.main(argv) == 0
    names = [span.name for span in tracer.drain()]
    assert names.count("verification.check_weak_mp") == 1
    assert names.count("spectral.analyze") == samples
