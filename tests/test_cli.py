"""Command-line interface: subcommands, config merging, exit codes, output."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import halflap.cli
from halflap import (
    DiscreteDomain, GridFn, SpectralFn, eigenpairs, evaluate_extension, make_interval,
    make_rectangle,
)
from halflap.cli import _BLOCK_ROWS, _csv_cell, _json, _node_rows, _parse_domain, _write_csv, run


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_eig_lists_eigenvalues(capsys):
    code, out = run_capture(["eig", "--domain", "interval:1:256", "--modes", "4"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "k,lambda"
    assert len(lines) == 5
    k, lam = lines[1].split(",")
    assert k == "1"
    assert float(lam) == pytest.approx(math.pi**2, rel=1e-15)


def test_eig_without_modes_lists_the_solver_default_count(capsys):
    code, out = run_capture(["eig", "--domain", "interval:1:256"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 64


def test_eig_json_format(capsys):
    code, out = run_capture(
        ["eig", "--domain", "interval:1:64", "--modes", "2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert [row["k"] for row in data["eigenvalues"]] == [1, 2]


def test_apply_inverse_half_power(capsys):
    code, out = run_capture(
        ["apply", "--domain", "interval:1:64", "--modes", "4", "--op", "b-half", "--mode", "1"],
        capsys,
    )
    assert code == 0
    first = out.strip().splitlines()[1]
    assert float(first.split(",")[1]) == pytest.approx(1.0 / math.pi, rel=1e-15)


def test_apply_coeffs_list(capsys):
    code, out = run_capture(
        ["apply", "--domain", "interval:1:64", "--modes", "4", "--op", "a-half",
         "--coeffs", "1,1"],
        capsys,
    )
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(math.pi, rel=1e-15)
    assert float(rows[1][1]) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert float(rows[2][1]) == 0.0


def test_apply_requires_known_op(capsys):
    code = run(["apply", "--domain", "interval:1:64", "--op", "square-root", "--mode", "1"])
    capsys.readouterr()
    assert code == 2


def test_solve_emits_json_report(capsys):
    code, out = run_capture(
        ["solve", "--domain", "interval:1:256", "--p", "2", "--modes", "64"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["converged"] is True
    assert report["residual_inf"] <= report["tol_residual"]
    assert "multiplier" not in report
    assert len(report["solution_coeffs"]) == 64
    assert report["domain"] == {"kind": "interval", "lengths": [1.0], "grid_counts": [256]}
    # the check battery, not the report, measures symmetry and positivity
    assert "symmetry_defect" not in report and "positivity_min" not in report


def test_solve_csv_header(capsys):
    code, out = run_capture(
        ["solve", "--domain", "interval:1:256", "--p", "2", "--modes", "64", "--format", "csv"],
        capsys,
    )
    assert code == 0
    header, row = out.splitlines()
    assert header == "p,I0,residual_inf,equation_defect,sup_norm,iterations,converged"
    assert row.endswith(",true")


def test_solve_rejects_small_exponent(capsys):
    code = run(["solve", "--domain", "interval:1:256", "--p", "0.5", "--modes", "64"])
    capsys.readouterr()
    assert code == 2


def test_solve_requires_exponent(capsys):
    code = run(["solve", "--domain", "interval:1:256", "--modes", "64"])
    capsys.readouterr()
    assert code == 2


def test_bad_domain_spec(capsys):
    for spec in ("interval:1", "box:1:1:1:8:8", "cube:1:8"):
        code = run(["eig", "--domain", spec, "--modes", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert "box:L1:L2:L3:N1:N2:N3" in captured.err


def test_sweep_csv_table(capsys):
    code, out = run_capture(
        ["sweep", "--domain", "interval:1:256", "--p-list", "1.5,2.0,2.5", "--modes", "32"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,sup_norm,residual,converged"
    assert len(lines) == 4
    assert all(line.endswith("true") for line in lines[1:])


def test_extend_writes_plot_rows(capsys):
    code, out = run_capture(
        ["extend", "--domain", "interval:1:8", "--modes", "4", "--mode", "1", "--y", "0.0"],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 8
    x, u = lines[1].split(",")
    assert float(u) == pytest.approx(math.sqrt(2.0) * math.sin(math.pi * float(x)), rel=1e-12)


def test_extend_at_a_large_finite_height_writes_zeros_quietly(capsys):
    code = run(["extend", "--domain", "interval:1:64", "--modes", "16", "--mode", "2",
                "--y", "1e308"])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rows = captured.out.strip().splitlines()
    assert rows[0] == "x,u" and len(rows) == 64
    assert {row.split(",")[1] for row in rows[1:]} == {"0"}


@pytest.mark.parametrize(
    "argv, what",
    [
        (["solve", "--domain", "interval:1e300:64", "--p", "2", "--modes", "16"],
         "lowest eigenvalue 0.0"),
        (["solve", "--domain", "interval:1e200:64", "--p", "2", "--modes", "16"],
         "lowest eigenvalue 0.0"),
        (["eig", "--domain", "interval:1e300:64"], "lowest eigenvalue 0.0"),
        (["eig", "--domain", "interval:1e-300:64"], "lowest eigenvalue inf"),
    ],
)
def test_a_domain_outside_the_float_range_exits_2(argv, what, capsys):
    # these used to exit 0: a solve "converged" with I0 null or 0, and eig
    # printed eigenvalues of 0 or inf
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    L = float(argv[2].split(":")[1])
    assert f"side lengths ({L!r},) put the {what} outside the normal float range" in captured.err


@pytest.mark.parametrize("domain, modes", [
    ("interval:1e-150:64", "2"), ("box:1e-100:1e-100:1e-100:8:8:8", "1"),
])
def test_a_solve_leaving_the_float_range_exits_1_with_its_report(domain, modes, capsys):
    # the interval used to die with an OverflowError traceback, and the box
    # printed an overflow warning
    code = run(["solve", "--domain", domain, "--p", "1.5", "--modes", modes])
    captured = capsys.readouterr()
    assert (code, captured.err) == (1, "")
    data = json.loads(captured.out)
    assert data["solution_coeffs"] is None
    assert data["detail"] == "fixed-point iteration produced a nonfinite iterate"


def test_check_battery_passes_on_good_config(capsys):
    code, out = run_capture(
        ["check", "--domain", "interval:1:256", "--p", "2", "--modes", "64",
         "--mp-samples", "3"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"] is True
    names = {c["name"] for c in data["checks"]}
    assert {"weak_max_principle", "positivity", "symmetry_axis0",
            "monotonicity_axis0", "hopf", "stability_margin"} <= names


@pytest.mark.parametrize("domain, K", [("box:1:1:1:32:32:32", 299), ("box:2:1:1.5:64:32:48", 816)])
def test_check_battery_passes_on_resolved_boxes(domain, K, capsys):
    # each K is the most modes the grid dealiases; at K = 31 the cube's truncated
    # solution ripples and fails monotonicity on all three axes
    code, out = run_capture(["check", "--domain", domain, "--p", "1.5", "--modes", str(K)], capsys)
    data = json.loads(out)
    assert (code, data["all_passed"]) == (0, True)
    assert {f"monotonicity_axis{a}" for a in range(3)} <= {c["name"] for c in data["checks"]}


def test_solve_past_the_mode_pre_check_can_still_fail_dealiasing(capsys):
    # K = 512 = prod(N_a // 4), but the eigenvalue order reaches sine index 10 on
    # one axis before (8, 8, 8), and N = 32 resolves 8; the one dealiasing check
    # reads the enumerated indices and names the axis
    code = run(["solve", "--domain", "box:1:1:1:32:32:32", "--p", "1.5", "--modes", "512"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "too coarse to dealias the nonlinearity; need at least 40" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["eig", "--domain", "rectangle:1:1:256:256", "--modes", "255"],
        ["apply", "--domain", "interval:1:1024", "--modes", "256", "--op", "b-half", "--mode", "3"],
    ],
)
def test_eig_and_apply_evaluate_no_sine(argv, sine_sizes, capsys):
    # neither command transforms, so neither builds a sine factor
    code, out = run_capture(argv, capsys)
    assert code == 0 and out
    assert sine_sizes == []


def test_check_fails_on_large_negative_bound(capsys):
    code, out = run_capture(
        ["check", "--domain", "interval:1:256", "--p", "2", "--modes", "64",
         "--mp-samples", "1", "--c-minus", "10"],
        capsys,
    )
    assert code == 1
    data = json.loads(out)
    assert data["all_passed"] is False


def test_trace_constant_json(capsys):
    code, out = run_capture(["trace-constant", "--n", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2
    assert data["value"] == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_trace_constant_past_the_float_range_of_gamma(capsys):
    code, out = run_capture(["trace-constant", "--n", "400"], capsys)
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(41.25975009495, rel=1e-12)
    code = run(["trace-constant", "--n", "1" + "0" * 400])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "too large for a float" in captured.err


def test_trace_constant_refuses_dimension_one(capsys):
    code = run(["trace-constant", "--n", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "dimension n must be at least 2, got 1" in captured.err


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# solver configuration\ndomain = interval:1:256\np = 2\nmodes = 64\nseed = 3\n"
    )
    code, out = run_capture(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["rng_seed"] == 3


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain=interval:1:256\np=2\nmodes=64\nseed=3\n")
    code, out = run_capture(["solve", "--config", str(cfg), "--seed", "9"], capsys)
    assert code == 0
    assert json.loads(out)["rng_seed"] == 9


def test_json_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"domain": "interval:1:256", "p": 2.0, "modes": 64}))
    code, out = run_capture(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["converged"] is True


def test_malformed_config_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("domain interval:1:256\n")
    code = run(["solve", "--config", str(cfg), "--p", "2"])
    capsys.readouterr()
    assert code == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    base = "domain = interval:1:256\np = 2\nmodes = 64\n"
    for extra, key in (
        ("step_init = 0.1", "step_init"),
        ("polish-iters = 40", "polish_iters"),
        ("modse = 8", "modse"),
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(base + extra + "\n")
        code = run(["solve", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert key in err


def test_config_int_rejects_non_integral_value(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = interval:1:256\np = 2\nmodes = 16.9\n")
    code = run(["solve", "--config", str(cfg)])
    assert code == 2
    assert "modes" in capsys.readouterr().err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"domain": "interval:1:256", "p": 2.0, "modes": 64.0}))
    code, out = run_capture(["solve", "--config", str(cfg)], capsys)
    assert code == 0
    assert json.loads(out)["K"] == 64


def test_config_bool_accepts_only_known_tokens(tmp_path, capsys):
    # p = 2.9 on the square runs only when allow_near_critical reads as true
    base = {"domain": "rectangle:1:1:64:64", "p": 2.9, "modes": 16}
    text = "".join(f"{k} = {v}\n" for k, v in base.items())
    cfg = tmp_path / "run.cfg"
    jcfg = tmp_path / "run.json"
    for token in ("ture", "2", ""):
        cfg.write_text(text + f"allow_near_critical = {token}\n")
        assert run(["solve", "--config", str(cfg)]) == 2
        assert "bad value for allow_near_critical" in capsys.readouterr().err
    jcfg.write_text(json.dumps({**base, "allow_near_critical": 1}))
    assert run(["solve", "--config", str(jcfg)]) == 2
    assert "bad value for allow_near_critical" in capsys.readouterr().err
    for token in ("YES", "On", "1", "true"):
        cfg.write_text(text + f"allow_near_critical = {token}\n")
        assert run(["solve", "--config", str(cfg)]) != 2
        capsys.readouterr()
    jcfg.write_text(json.dumps({**base, "allow_near_critical": True}))
    assert run(["solve", "--config", str(jcfg)]) != 2
    capsys.readouterr()


_SOLVE_BASE = {"domain": "interval:1:64", "p": 2, "modes": 16}


@pytest.mark.parametrize(
    "key, command, base",
    [
        ("tol_residual", "solve", _SOLVE_BASE),
        ("p", "solve", _SOLVE_BASE),
        ("init_perturbation", "solve", _SOLVE_BASE),
        ("c_minus", "check", _SOLVE_BASE),
        ("y", "extend", {"domain": "interval:1:64", "modes": 16, "mode": 1}),
        ("output", "solve", _SOLVE_BASE),
    ],
)
def test_json_config_bool_is_refused_for_a_non_boolean_option(
    key, command, base, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**base, key: True}))
    code = run([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"bad value for {key}" in captured.err
    assert [f.name for f in tmp_path.iterdir()] == ["run.json"]


@pytest.mark.parametrize(
    "key, command, base",
    [
        ("output", "solve", _SOLVE_BASE),
        ("domain", "solve", {"p": 2, "modes": 16}),
        ("coeffs", "apply", {"domain": "interval:1:64", "modes": 16, "op": "a-half"}),
        ("p_list", "sweep", {"domain": "interval:1:64", "modes": 16}),
    ],
)
def test_json_config_number_is_refused_for_a_string_option(
    key, command, base, tmp_path, monkeypatch, capsys
):
    # a number used to pass through str(): {"output": 5} wrote the report to a file named 5
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({**base, key: 5}))
    code = run([command, "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"bad value for {key}: 5 (expected a string)" in captured.err
    assert [f.name for f in tmp_path.iterdir()] == ["run.json"]


def test_check_sources_are_the_rows_of_one_seeded_draw(monkeypatch, capsys):
    # source i is row i of one generator's draw, so it does not depend on how
    # many sources are drawn
    drawn = []
    check_weak_mp = halflap.cli.check_weak_mp

    def recorded(basis, *sources):
        drawn.append(np.array([g.values for g in sources]))
        return check_weak_mp(basis, *sources)

    monkeypatch.setattr(halflap.cli, "check_weak_mp", recorded)
    for samples in ("2", "5"):
        code = run(["check", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                    "--seed", "3", "--mp-samples", samples])
        capsys.readouterr()
        assert code == 0
    want = np.random.default_rng(3).uniform(0.0, 1.0, (5, 63))
    np.testing.assert_array_equal(drawn[1], want)
    np.testing.assert_array_equal(drawn[0], want[:2])


def test_check_draws_and_checks_its_sources_in_bounded_blocks(monkeypatch, tmp_path):
    # a huge --mp-samples must not allocate every source at once; blocks of 3
    # sources of 63 nodes give the same report bytes as one block of 10
    argv = ["check", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
            "--seed", "3", "--mp-samples", "10", "--output"]
    assert run(argv + [str(tmp_path / "whole.json")]) == 0
    blocks = []
    check_weak_mp = halflap.cli.check_weak_mp

    def recorded(basis, *sources):
        blocks.append(len(sources))
        return check_weak_mp(basis, *sources)

    monkeypatch.setattr(halflap.cli, "check_weak_mp", recorded)
    monkeypatch.setattr(halflap.cli, "WEAK_MP_BLOCK_VALUES", 3 * 63 + 62)
    assert run(argv + [str(tmp_path / "blocks.json")]) == 0
    assert blocks == [3, 3, 3, 1]
    assert (tmp_path / "blocks.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_check_rejects_nonpositive_mp_samples(capsys):
    for samples in ("0", "-3"):
        code = run(["check", "--domain", "interval:1:256", "--p", "2", "--modes", "64",
                    "--mp-samples", samples])
        assert code == 2
        assert "mp_samples" in capsys.readouterr().err


def test_module_entry_points_run_without_warnings():
    # the box case takes every mode its grid carries, K = 7^3
    runs = [("halflap.cli", "interval:1:8", "1"), ("halflap", "interval:1:8", "1"),
            ("halflap", "box:1:1:1:8:8:8", "343")]
    for module, domain, modes in runs:
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "eig", "--domain", domain, "--modes", modes],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "k,lambda"
        assert len(proc.stdout.splitlines()) == int(modes) + 1


def test_solve_does_not_import_scipy():
    # numpy is the only dependency: the solver's least squares must not pull in scipy
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "halflap",
         "solve", "--domain", "rectangle:1:1:64:64", "--modes", "60", "--p", "2.5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = [
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "numpy.linalg" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []


def test_the_library_does_not_import_its_cli():
    # import halflap is what a library user pays for, the CLI and argparse are not
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, halflap; print(sorted({'halflap.cli', 'argparse'} & set(sys.modules)))"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_missing_config_file(capsys):
    code = run(["solve", "--config", "/nonexistent/run.cfg", "--p", "2"])
    capsys.readouterr()
    assert code == 2


def test_unwritable_output_path(capsys):
    code = run(
        ["solve", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
         "--output", "/nonexistent/dir/report.json"]
    )
    capsys.readouterr()
    assert code == 1


def test_solve_output_is_deterministic(tmp_path, capsys):
    argv = ["solve", "--domain", "interval:1:256", "--p", "2", "--modes", "64",
            "--seed", "4"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert run(argv + ["--output", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _extend_to_file(domain, path):
    # extend writes the node coordinates and the extension slice as plot columns
    return run(["extend", "--domain", domain, "--modes", "2", "--mode", "1", "--y", "0",
                "--format", "csv", "--output", str(path)])


def test_plot_data_1d_row_count(tmp_path):
    path = tmp_path / "plot.csv"
    assert _extend_to_file("interval:1:8", path) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 8


def test_plot_data_2d_row_count(tmp_path):
    path = tmp_path / "plot2d.csv"
    assert _extend_to_file("rectangle:1:1:8:8", path) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,u"
    assert len(lines) == 50


def test_plot_data_3d_row_count(tmp_path):
    path = tmp_path / "plot3d.csv"
    assert _extend_to_file("box:1:2:1:8:8:8", path) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,x3,u"
    assert len(lines) == 1 + 7**3


def test_plot_data_unwritable_path(capsys):
    assert _extend_to_file("interval:1:8", "/nonexistent/dir/plot.csv") == 1
    assert "error:" in capsys.readouterr().err


def test_line_endings_are_lf(tmp_path):
    path = tmp_path / "table.csv"
    assert run(["eig", "--domain", "interval:1:64", "--modes", "3",
                "--output", str(path)]) == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_config_values_obey_flag_choices(tmp_path, capsys):
    base = "domain = interval:1:64\np = 2\nmodes = 16\n"
    cfg = tmp_path / "run.cfg"
    for value in ("xml", "JSON"):
        cfg.write_text(base + f"format = {value}\n")
        code, out = run_capture(["solve", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
    jcfg = tmp_path / "run.json"
    jcfg.write_text(json.dumps({"domain": "interval:1:64", "p": 2, "modes": 16, "format": "xml"}))
    assert run(["solve", "--config", str(jcfg)]) == 2
    assert "bad value for format" in capsys.readouterr().err
    cfg.write_text("domain = interval:1:64\nmodes = 4\nop = square-root\nmode = 1\n")
    assert run(["apply", "--config", str(cfg)]) == 2
    assert "bad value for op" in capsys.readouterr().err


# an empty entry used to be skipped, shifting the entries after it: --coeffs 1,,0.5
# put 0.5 on mode 2, and --p-list 2,,3 ran two rows
EMPTY_ENTRIES = [
    ("apply", "coeffs", "--coeffs", "1,,0.5", 2),
    ("apply", "coeffs", "--coeffs", "1,0.5,", 3),
    ("apply", "coeffs", "--coeffs", "1, ,0.5", 2),
    ("sweep", "p_list", "--p-list", "2,,3", 2),
    ("sweep", "p_list", "--p-list", "2,3,", 3),
    ("sweep", "p_list", "--p-list", ",2", 1),
]
_LIST_BASE = {
    "apply": {"domain": "interval:1:64", "modes": "4", "op": "a-half"},
    "sweep": {"domain": "interval:1:64", "modes": "16"},
}


@pytest.mark.parametrize("command, key, flag, value, pos", EMPTY_ENTRIES)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_empty_list_entry_exits_2_naming_its_position(
    command, key, flag, value, pos, source, tmp_path, capsys
):
    err = _run_list_option(command, key, flag, value, source, tmp_path, capsys)
    assert f"{flag} entry {pos} is empty" in err


def _run_list_option(command, key, flag, value, source, tmp_path, capsys) -> str:
    """Run command with the list option from a flag or a config file; assert that
    it exits 2 with no output and return its stderr."""
    base = _LIST_BASE[command]
    if source == "flag":
        argv = [command] + [f"--{k}={v}" for k, v in base.items()] + [f"{flag}={value}"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()))
        argv = [command, "--config", str(cfg)]
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    return captured.err


# a nonfinite exponent used to run as a sweep row (p = nan, exit 1), and a
# nonfinite coefficient was refused without its position
NONFINITE_ENTRIES = [
    ("apply", "coeffs", "--coeffs", "1,nan", 2, "nan"),
    ("apply", "coeffs", "--coeffs", "-inf,1", 1, "-inf"),
    ("sweep", "p_list", "--p-list", "2,nan", 2, "nan"),
    ("sweep", "p_list", "--p-list", "2,3,inf", 3, "inf"),
]


@pytest.mark.parametrize("command, key, flag, value, pos, shown", NONFINITE_ENTRIES)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_nonfinite_list_entry_exits_2_naming_its_position(
    command, key, flag, value, pos, shown, source, tmp_path, capsys
):
    err = _run_list_option(command, key, flag, value, source, tmp_path, capsys)
    assert f"{flag} entry {pos} must be finite, got {shown}" in err


def test_an_unparsable_list_entry_exits_2_naming_its_position(capsys):
    code = run(["sweep", "--domain", "interval:1:64", "--modes", "16", "--p-list", "2,x"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "bad --p-list entry 2: 'x'" in captured.err


_APPLY = ["apply", "--domain", "interval:1:64", "--modes", "4"]
# (argv, config file text or None, words of the message); "{config}" in argv
# stands for the config file's path
REFUSALS = [
    (_APPLY + ["--mode", "1"], None, "--op must be one of a-half, b-half, inv-laplacian"),
    (["sweep", "--domain", "interval:1:64", "--modes", "16"], None, "sweep requires --p-list"),
    (["extend", "--domain", "interval:1:64", "--modes", "4", "--mode", "1"], None,
     "extend requires --y"),
    (["trace-constant"], None, "trace-constant requires --n"),
    (_APPLY + ["--op", "a-half", "--coeffs", "1", "--mode", "1"], None,
     "give either --coeffs or --mode, not both"),
    (_APPLY + ["--op", "a-half", "--coeffs", "1,2,3,4,5"], None, "got 5 coefficients for 4 modes"),
    (_APPLY + ["--op", "a-half", "--mode", "5"], None, "mode 5 out of range 1..4"),
    (_APPLY + ["--op", "a-half", "--mode", "0"], None, "mode 0 out of range 1..4"),
    (["eig", "--modes", "4"], None, "a domain is required"),
    (["solve", "--config", "{config}"], '{"domain": "interval:1:64",', "is not valid JSON"),
    (["solve", "--config", "{config}"], '["domain", "interval:1:64"]\n',
     "must hold a JSON object"),
    (["eig", "--domain", "interval:abc:256"], None, "bad domain spec 'interval:abc:256'"),
    (["eig", "--domain", "interval:1:2.5"], None, "bad domain spec 'interval:1:2.5'"),
]


@pytest.mark.parametrize("argv, config, message", REFUSALS)
def test_a_refused_configuration_exits_2_naming_the_cause(argv, config, message, tmp_path,
                                                          capsys):
    path = tmp_path / "run.cfg"
    if config is not None:
        path.write_text(config)
    code = run([str(path) if token == "{config}" else token for token in argv])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err


_EXTEND = ["extend", "--domain", "interval:1:64", "--modes", "4"]


@pytest.mark.parametrize("argv, message", [
    (_APPLY + ["--mode", "1"], "--op must be one of"),
    (_EXTEND + ["--mode", "1"], "extend requires --y"),
    (_APPLY + ["--op", "a-half", "--coeffs", "1", "--mode", "1"], "not both"),
    (_EXTEND + ["--y", "0.1", "--coeffs", "1", "--mode", "1"], "not both"),
    # the missing option is named before a bad mode count
    (["apply", "--domain", "interval:1:64", "--modes", "0", "--mode", "1"], "--op must be one of"),
    # the input is checked against --modes before the basis is built
    (_APPLY + ["--op", "a-half", "--coeffs", "1,x"], "bad --coeffs entry 2: 'x'"),
    (_APPLY + ["--op", "a-half", "--coeffs", "1,2,3,4,5"], "got 5 coefficients for 4 modes"),
    (_APPLY + ["--op", "a-half", "--mode", "9"], "mode 9 out of range 1..4"),
    (_EXTEND + ["--y", "0.1", "--mode", "0"], "mode 0 out of range 1..4"),
])
def test_a_refusal_that_needs_no_basis_builds_none(argv, message, capsys):
    halflap.basis._build.cache_clear()
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert message in captured.err
    assert halflap.basis._build.cache_info().currsize == 0


def test_sweep_requires_an_exponent(tmp_path, capsys):
    code, out = run_capture(["sweep", "--domain", "interval:1:64", "--p-list", ","], capsys)
    assert (code, out) == (2, "")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain = interval:1:64\nmodes = 16\np_list = ,\n")
    code, out = run_capture(["sweep", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--tol-residual", "inf", "tol_residual"),
        ("--init-perturbation", "nan", "init_perturbation"),
        ("--init-perturbation", "inf", "init_perturbation"),
        ("--seed", "-1", "rng_seed"),
        ("--p", "inf", "p"),
        ("--p", "nan", "p"),
        ("--tol-residual", "nan", "tol_residual"),
    ],
)
def test_nonfinite_or_negative_solver_settings_exit_2(flag, value, field, capsys):
    for command in ("solve", "check"):
        code = run([command, "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                    flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert field in captured.err
        if value in ("nan", "inf"):
            # the cause, not only the setting: a nan fails every bound comparison
            assert f"{field} must be finite, got {value}" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_c_minus_exits_2(value, capsys):
    code = run(["check", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                "--mp-samples", "1", "--c-minus", value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "c_minus_inf must be finite" in captured.err


def test_nonfinite_c_minus_fails_before_the_solve(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("check solved before rejecting --c-minus")

    monkeypatch.setattr("halflap.cli.solve", no_solve)
    code = run(["check", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                "--mp-samples", "1", "--c-minus", "nan"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "c_minus_inf must be finite" in captured.err


# Reports of commands whose numbers are elementwise arithmetic and sqrt only
# (no matrix product, no sin), so their bytes do not depend on BLAS or libm.
FROZEN_REPORTS = {
    ("eig --domain interval:1:64 --modes 4", "csv"):
        b"k,lambda\n1,9.869604401089358\n2,39.478417604357432\n3,88.826439609804225\n"
        b"4,157.91367041742973\n",
    ("eig --domain interval:1:64 --modes 4", "json"):
        b'{"domain":{"grid_counts":[64],"kind":"interval","lengths":[1]},"eigenvalues":'
        b'[{"k":1,"lambda":9.869604401089358},{"k":2,"lambda":39.478417604357432},'
        b'{"k":3,"lambda":88.826439609804225},{"k":4,"lambda":157.91367041742973}]}\n',
    ("eig --domain rectangle:1:1:32:32 --modes 6", "csv"):
        b"k,lambda\n1,19.739208802178716\n2,49.348022005446794\n3,49.348022005446794\n"
        b"4,78.956835208714864\n5,98.696044010893587\n6,98.696044010893587\n",
    ("eig --domain rectangle:1:1:32:32 --modes 6", "json"):
        b'{"domain":{"grid_counts":[32,32],"kind":"rectangle","lengths":[1,1]},"eigenvalues":'
        b'[{"k":1,"lambda":19.739208802178716},{"k":2,"lambda":49.348022005446794},'
        b'{"k":3,"lambda":49.348022005446794},{"k":4,"lambda":78.956835208714864},'
        b'{"k":5,"lambda":98.696044010893587},{"k":6,"lambda":98.696044010893587}]}\n',
    ("eig --domain rectangle:2:1:16:8 --modes 60", "csv"):
        b"k,lambda\n1,12.337005501361698\n2,19.739208802178716\n3,32.076214303540411\n"
        b"4,41.945818704629772\n5,49.348022005446794\n6,49.348022005446794\n"
        b"7,61.685027506808488\n8,71.554631907897843\n9,78.956835208714864\n"
        b"10,91.293840710076566\n11,98.696044010893587\n12,98.696044010893587\n"
        b"13,101.16344511116591\n14,111.03304951225527\n15,128.30485721416164\n"
        b"16,128.30485721416164\n17,130.772258314434\n18,150.51146711661272\n"
        b"19,160.38107151770205\n20,160.38107151770208\n21,167.78327481851909\n"
        b"22,167.78327481851909\n23,177.65287921960845\n24,180.12028031988078\n"
        b"25,197.39208802178717\n26,197.39208802178717\n27,209.72909352314886\n"
        b"28,209.72909352314886\n29,219.59869792423822\n30,239.33790672641692\n"
        b"31,246.74011002723395\n32,246.74011002723395\n33,249.20751112750628\n"
        b"34,256.60971442832329\n35,256.60971442832329\n36,268.946719929685\n"
        b"37,278.81632433077436\n38,286.21852763159137\n39,286.21852763159137\n"
        b"40,288.68592873186373\n41,308.42513753404239\n42,308.42513753404245\n"
        b"43,315.82734083485946\n44,335.56654963703818\n45,335.56654963703818\n"
        b"46,338.03395073731048\n47,357.77315953948926\n48,357.77315953948926\n"
        b"49,365.17536284030626\n50,365.17536284030626\n51,367.64276394057856\n"
        b"52,377.51236834166798\n53,387.38197274275728\n54,394.78417604357435\n"
        b"55,394.78417604357435\n56,404.65378044466365\n57,404.65378044466365\n"
        b"58,416.99078594602537\n59,426.86039034711479\n60,444.1321980490211\n",
    ("eig --domain rectangle:2:1:16:8 --modes 60", "json"):
        b'{"domain":{"grid_counts":[16,8],"kind":"rectangle","lengths":[2,1]},'
        b'"eigenvalues":[{"k":1,"lambda":12.337005501361698},'
        b'{"k":2,"lambda":19.739208802178716},{"k":3,"lambda":32.076214303540411},'
        b'{"k":4,"lambda":41.945818704629772},{"k":5,"lambda":49.348022005446794},'
        b'{"k":6,"lambda":49.348022005446794},{"k":7,"lambda":61.685027506808488},'
        b'{"k":8,"lambda":71.554631907897843},{"k":9,"lambda":78.956835208714864},'
        b'{"k":10,"lambda":91.293840710076566},{"k":11,"lambda":98.696044010893587},'
        b'{"k":12,"lambda":98.696044010893587},{"k":13,"lambda":101.16344511116591},'
        b'{"k":14,"lambda":111.03304951225527},{"k":15,"lambda":128.30485721416164},'
        b'{"k":16,"lambda":128.30485721416164},{"k":17,"lambda":130.772258314434},'
        b'{"k":18,"lambda":150.51146711661272},{"k":19,"lambda":160.38107151770205},'
        b'{"k":20,"lambda":160.38107151770208},{"k":21,"lambda":167.78327481851909},'
        b'{"k":22,"lambda":167.78327481851909},{"k":23,"lambda":177.65287921960845},'
        b'{"k":24,"lambda":180.12028031988078},{"k":25,"lambda":197.39208802178717},'
        b'{"k":26,"lambda":197.39208802178717},{"k":27,"lambda":209.72909352314886},'
        b'{"k":28,"lambda":209.72909352314886},{"k":29,"lambda":219.59869792423822},'
        b'{"k":30,"lambda":239.33790672641692},{"k":31,"lambda":246.74011002723395},'
        b'{"k":32,"lambda":246.74011002723395},{"k":33,"lambda":249.20751112750628},'
        b'{"k":34,"lambda":256.60971442832329},{"k":35,"lambda":256.60971442832329},'
        b'{"k":36,"lambda":268.946719929685},{"k":37,"lambda":278.81632433077436},'
        b'{"k":38,"lambda":286.21852763159137},{"k":39,"lambda":286.21852763159137},'
        b'{"k":40,"lambda":288.68592873186373},{"k":41,"lambda":308.42513753404239},'
        b'{"k":42,"lambda":308.42513753404245},{"k":43,"lambda":315.82734083485946},'
        b'{"k":44,"lambda":335.56654963703818},{"k":45,"lambda":335.56654963703818},'
        b'{"k":46,"lambda":338.03395073731048},{"k":47,"lambda":357.77315953948926},'
        b'{"k":48,"lambda":357.77315953948926},{"k":49,"lambda":365.17536284030626},'
        b'{"k":50,"lambda":365.17536284030626},{"k":51,"lambda":367.64276394057856},'
        b'{"k":52,"lambda":377.51236834166798},{"k":53,"lambda":387.38197274275728},'
        b'{"k":54,"lambda":394.78417604357435},{"k":55,"lambda":394.78417604357435},'
        b'{"k":56,"lambda":404.65378044466365},{"k":57,"lambda":404.65378044466365},'
        b'{"k":58,"lambda":416.99078594602537},{"k":59,"lambda":426.86039034711479},'
        b'{"k":60,"lambda":444.1321980490211}]}\n',
    ("eig --domain box:1:2:3:16:16:16 --modes 5", "csv"):
        b"k,lambda\n1,13.433628212593849\n2,16.7234963462903\n3,20.835831513410866\n"
        b"4,22.206609902451056\n5,24.125699647107318\n",
    ("eig --domain box:1:2:3:16:16:16 --modes 5", "json"):
        b'{"domain":{"grid_counts":[16,16,16],"kind":"box","lengths":[1,2,3]},"eigenvalues":'
        b'[{"k":1,"lambda":13.433628212593849},{"k":2,"lambda":16.7234963462903},'
        b'{"k":3,"lambda":20.835831513410866},{"k":4,"lambda":22.206609902451056},'
        b'{"k":5,"lambda":24.125699647107318}]}\n',
    ("apply --domain interval:1:64 --modes 4 --op b-half --coeffs 1,-0.5,0.25", "csv"):
        b"k,coeff\n1,0.31830988618379069\n2,-0.079577471545947673\n3,0.026525823848649224\n"
        b"4,0\n",
    ("apply --domain interval:1:64 --modes 4 --op b-half --coeffs 1,-0.5,0.25", "json"):
        b'{"coeffs":[0.31830988618379069,-0.079577471545947673,0.026525823848649224,0],'
        b'"op":"b-half"}\n',
}


@pytest.mark.parametrize("command, fmt", sorted(FROZEN_REPORTS))
def test_report_bytes_are_frozen(command, fmt, tmp_path):
    path = tmp_path / f"report.{fmt}"
    assert run(command.split() + ["--format", fmt, "--output", str(path)]) == 0
    assert path.read_bytes() == FROZEN_REPORTS[command, fmt]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_extend_rejects_nonfinite_height(value, capsys):
    code = run(["extend", "--domain", "interval:1:8", "--modes", "2", "--mode", "1",
                "--y", value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"extension height y must be finite, got {value}" in captured.err


def _cell(x) -> str:
    return format(float(x), ".17g")


# (domain spec, domain, header); the rectangle's 1833 rows and the box's 1485 span
# two formatting blocks
EXTEND_DOMAINS = [
    ("interval:1:64", make_interval(1.0, 64), ["x", "u"]),
    ("rectangle:2:1:48:40", make_rectangle(2.0, 1.0, 48, 40), ["x1", "x2", "u"]),
    ("box:1:2:3:16:12:10", DiscreteDomain((1.0, 2.0, 3.0), (16, 12, 10)),
     ["x1", "x2", "x3", "u"]),
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("spec, domain, header", EXTEND_DOMAINS)
def test_extend_bytes_match_the_cell_by_cell_layout(spec, domain, header, fmt, tmp_path):
    # extend's values depend on libm, so the expected bytes are built here from
    # the library's own numbers, one row per node: coordinates, then the value
    y = 0.3
    b = np.zeros(8)
    b[2] = 1.0
    values = evaluate_extension(SpectralFn(eigenpairs(domain, 8), b), y).values
    rows = [[_cell(c) for c in coords] + [_cell(v)]
            for coords, v in zip(domain.node_coords(), values)]
    if fmt == "csv":
        want = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    else:
        want = (
            '{"columns":' + json.dumps(header, separators=(",", ":"))
            + ',"rows":[' + ",".join("[" + ",".join(r) + "]" for r in rows) + "]"
            + ',"y":' + _cell(y) + "}\n"
        )
    path = tmp_path / f"extend.{fmt}"
    assert run(["extend", "--domain", spec, "--modes", "8", "--mode", "3", "--y", str(y),
                "--format", fmt, "--output", str(path)]) == 0
    assert path.read_bytes() == want.encode("utf-8")


# a line longer than a block, lines of 2099 and of 16 nodes, and a box
@pytest.mark.parametrize(
    "spec",
    ["interval:1:3000", "rectangle:1:2:8:2100", "rectangle:1:2:130:17", "box:1:2:3:9:10:11"],
)
def test_node_rows_match_the_row_by_row_layout(spec):
    domain = _parse_domain(spec)
    u = GridFn(domain, np.random.default_rng(23).standard_normal(domain.num_nodes))
    rows = [",".join(_cell(c) for c in coords) + "," + _cell(v)
            for coords, v in zip(domain.node_coords(), u.values)]
    # CSV lines are written one block after another, JSON rows join by commas
    for left, right, sep in (("", "\n", ""), ("[", "]", ",")):
        blocks = list(_node_rows(u, left, right, sep))
        assert sep.join(blocks) == sep.join(left + row + right for row in rows)
        assert all(0 < block.count(right) <= _BLOCK_ROWS for block in blocks)


@given(arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 3)),
              elements=st.floats(width=64)))
@settings(max_examples=50, deadline=None)
def test_float_tables_print_every_double_as_format_17g(table):
    header = ["c"] * table.shape[1]
    cells = [[_cell(x) for x in row] for row in table]
    buf = io.StringIO()
    _write_csv(buf, header, table)
    assert buf.getvalue() == "".join(",".join(r) + "\n" for r in [header] + cells)
    finite = [[c if math.isfinite(x) else "null" for c, x in zip(r, row)]
              for r, row in zip(cells, table)]
    assert _json(table) == "[" + ",".join("[" + ",".join(r) + "]" for r in finite) + "]"
    for x in table.ravel():
        assert _csv_cell(x) == _cell(x)
        assert _json(x) == (_cell(x) if math.isfinite(x) else "null")


def test_parser_reused_after_failed_runs_gives_fresh_process_bytes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("domain = interval:1:64\np = 2\ncolour = red\n")
    assert run(["solve", "--domain", "interval:1:64", "--p", "two"]) == 2
    assert run(["solve", "--config", str(bad_cfg)]) == 2
    capsys.readouterr()
    argv = ["solve", "--domain", "interval:1:64", "--p", "2", "--modes", "16", "--seed", "3"]
    here, fresh = tmp_path / "here.json", tmp_path / "fresh.json"
    assert run(argv + ["--output", str(here)]) == 0
    proc = subprocess.run([sys.executable, "-m", "halflap", *argv, "--output", str(fresh)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert here.read_bytes() == fresh.read_bytes()
