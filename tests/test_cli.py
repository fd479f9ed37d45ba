"""Command-line interface: subcommands, config merging, exit codes, output."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from halflap import GridFn, SolveConfig, make_interval, solve
from halflap.cli import emit_plot_data, run


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


def test_solve_rejects_small_exponent(capsys):
    code = run(["solve", "--domain", "interval:1:256", "--p", "0.5", "--modes", "64"])
    capsys.readouterr()
    assert code == 2


def test_solve_requires_exponent(capsys):
    code = run(["solve", "--domain", "interval:1:256", "--modes", "64"])
    capsys.readouterr()
    assert code == 2


def test_bad_domain_spec(capsys):
    code = run(["eig", "--domain", "interval:1", "--modes", "4"])
    capsys.readouterr()
    assert code == 2


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


def test_check_rejects_nonpositive_mp_samples(capsys):
    for samples in ("0", "-3"):
        code = run(["check", "--domain", "interval:1:256", "--p", "2", "--modes", "64",
                    "--mp-samples", samples])
        assert code == 2
        assert "mp_samples" in capsys.readouterr().err


def test_module_entry_points_run_without_warnings():
    for module in ("halflap.cli", "halflap"):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "eig", "--domain", "interval:1:8", "--modes", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0] == "k,lambda"


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


def test_plot_data_1d_row_count(tmp_path):
    dom = make_interval(1.0, 8)
    x = dom.axis_nodes(0)
    u = GridFn(dom, np.sqrt(2.0) * np.sin(np.pi * x))
    path = tmp_path / "plot.csv"
    emit_plot_data(u, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,u"
    assert len(lines) == 8


def test_plot_data_2d_row_count(tmp_path):
    from halflap import make_rectangle

    rep = solve(make_rectangle(1.0, 1.0, 8, 8), 2.0, SolveConfig(p=2.0, K=2))
    path = tmp_path / "plot2d.csv"
    emit_plot_data(rep.solution_grid, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x1,x2,u"
    assert len(lines) == 50


def test_plot_data_unwritable_path():
    dom = make_interval(1.0, 8)
    u = GridFn(dom, np.ones(7))
    with pytest.raises(OSError):
        emit_plot_data(u, "/nonexistent/dir/plot.csv")


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
    ],
)
def test_nonfinite_or_negative_solver_settings_exit_2(flag, value, field, capsys):
    for command in ("solve", "check"):
        code = run([command, "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                    flag, value])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert field in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_c_minus_exits_2(value, capsys):
    code = run(["check", "--domain", "interval:1:64", "--p", "2", "--modes", "16",
                "--mp-samples", "1", "--c-minus", value])
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
