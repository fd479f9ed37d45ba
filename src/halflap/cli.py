"""Command-line entry point: parse config, dispatch to operations, emit reports.

Subcommands: eig, apply, solve, sweep, extend, check, trace-constant. Options
come from flags or from a config file (flat key=value lines or a JSON object;
flags override the file). Reports are CSV (comma separator, dot decimal point,
LF line endings) or single-document UTF-8 JSON with every float serialized at
17 significant digits, so identical config and seed produce byte-identical
output. Exit codes: 0 success with all checks passed, 1 failed check or
diverged solve or I/O failure, 2 configuration error.

The CLI performs no computation of its own; every reported number comes from
one library operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .basis import (
    AliasingError,
    DiscreteDomain,
    DomainError,
    DomainMismatchError,
    GridFn,
    eigenpairs,
    make_interval,
    make_rectangle,
)
from .extension import best_trace_constant, evaluate_extension
from .nonlinear import ConfigError, SolveConfig, SolveReport, solve, sweep
from .spectral import SpectralFn, apply_A_half, apply_B_half, apply_inv_laplacian
from .verification import (
    check_hopf,
    check_monotonicity,
    check_positivity,
    check_symmetry,
    check_weak_mp,
    stability_margin,
)

_DEFAULT_FORMAT = {
    "eig": "csv",
    "apply": "csv",
    "solve": "json",
    "sweep": "csv",
    "extend": "csv",
    "check": "json",
    "trace-constant": "json",
}

_OPS = {
    "a-half": apply_A_half,
    "b-half": apply_B_half,
    "inv-laplacian": apply_inv_laplacian,
}


def _fmt_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return format(x, ".17g")


def _json_write(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(format(x, ".17g") if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _json_write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _json_write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_dumps(obj) -> str:
    out: list = []
    _json_write(obj, out)
    out.append("\n")
    return "".join(out)


@contextmanager
def _open_output(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt_float(v)
    return str(v)


def _write_csv(fh, header: list[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def emit_plot_data(u: GridFn, path) -> None:
    """Write node coordinates and values as CSV columns with a header row."""
    coords = u.domain.node_coords()
    header = "x,u" if u.domain.n == 1 else "x1,x2,u"
    with _open_output(path) as fh:
        fh.write(header + "\n")
        for row, val in zip(coords, u.values):
            fh.write(",".join(_fmt_float(c) for c in row) + "," + _fmt_float(val) + "\n")


def _load_config(path: str, known) -> dict:
    """Read a config file; keys outside `known` are rejected, not ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        items = data.items()
    else:
        items = []
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"config file {path} line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            items.append((key.strip(), value.strip()))
    for key, value in items:
        out[str(key).replace("-", "_")] = value
    unknown = [key for key in out if key not in known]
    if unknown:
        raise ConfigError(f"config file {path}: unknown key(s) {', '.join(unknown)}")
    return out


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _cast(value, kind: str):
    if kind == "float":
        return float(value)
    if kind == "int":
        # strings parse as flags do (int("16.9") fails); JSON numbers must be integral
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError("expected an integer")
        return int(value)
    if kind == "bool":
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.strip().lower() in _BOOL_WORDS:
            return _BOOL_WORDS[value.strip().lower()]
        raise ValueError("expected one of " + "/".join(_BOOL_WORDS))
    return str(value)


def _get(args, filecfg: dict, key: str, kind: str, default=None):
    value = getattr(args, key, None)
    if value is None and key in filecfg:
        value = filecfg[key]
    if value is None:
        return default
    try:
        return _cast(value, kind)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def _parse_domain(spec: str) -> DiscreteDomain:
    parts = spec.split(":")
    try:
        if parts[0] == "interval" and len(parts) == 3:
            return make_interval(float(parts[1]), int(parts[2]))
        if parts[0] == "rectangle" and len(parts) == 5:
            return make_rectangle(float(parts[1]), float(parts[2]), int(parts[3]), int(parts[4]))
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise ConfigError(f"bad domain spec {spec!r}: {exc}") from exc
    raise ConfigError(
        f"bad domain spec {spec!r}: use interval:L:N or rectangle:L1:L2:N1:N2"
    )


def _require_domain(args, filecfg) -> DiscreteDomain:
    spec = _get(args, filecfg, "domain", "str")
    if spec is None:
        raise ConfigError("a domain is required (--domain or config key 'domain')")
    return _parse_domain(spec)


def _build_config(args, filecfg) -> SolveConfig:
    kwargs = {}
    for key, kind, field in (
        ("p", "float", "p"),
        ("modes", "int", "K"),
        ("max_iter", "int", "max_iter"),
        ("tol_residual", "float", "tol_residual"),
        ("seed", "int", "rng_seed"),
        ("init_perturbation", "float", "init_perturbation"),
        ("allow_near_critical", "bool", "allow_near_critical"),
    ):
        value = _get(args, filecfg, key, kind)
        if value is not None:
            kwargs[field] = value
    return SolveConfig(**kwargs)


def _resolved_format(args, filecfg) -> str:
    return _get(args, filecfg, "format", "str", _DEFAULT_FORMAT[args.command])


def _resolved_output(args, filecfg):
    return _get(args, filecfg, "output", "str", "-")


def _input_fn(basis, args, filecfg) -> SpectralFn:
    coeffs = _get(args, filecfg, "coeffs", "str")
    mode = _get(args, filecfg, "mode", "int")
    if coeffs is not None and mode is not None:
        raise ConfigError("give either --coeffs or --mode, not both")
    b = np.zeros(basis.K)
    if coeffs is not None:
        try:
            vals = [float(t) for t in coeffs.split(",") if t.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --coeffs list: {exc}") from exc
        if len(vals) > basis.K:
            raise ConfigError(f"got {len(vals)} coefficients for {basis.K} modes")
        b[: len(vals)] = vals
    else:
        m = 1 if mode is None else mode
        if not 1 <= m <= basis.K:
            raise ConfigError(f"mode {m} out of range 1..{basis.K}")
        b[m - 1] = 1.0
    return SpectralFn(basis, b)


def _domain_dict(domain: DiscreteDomain) -> dict:
    return {
        "kind": domain.kind,
        "lengths": list(domain.lengths),
        "grid_counts": list(domain.grid_counts),
    }


def _report_dict(report: SolveReport, with_coeffs: bool = True) -> dict:
    out = {
        "p": report.p,
        "K": report.K,
        "I0": report.I0,
        "residual_inf": report.residual_inf,
        "equation_defect": report.equation_defect,
        "sup_norm": report.sup_norm,
        "iterations": report.iterations,
        "converged": report.converged,
        "symmetry_defect": report.symmetry_defect,
        "positivity_min": report.positivity_min,
        "tol_residual": report.tol_residual,
        "rng_seed": report.rng_seed,
        "domain": _domain_dict(report.domain),
        "detail": report.detail,
    }
    if with_coeffs:
        out["solution_coeffs"] = (
            list(report.solution.coeffs) if report.solution is not None else None
        )
    return out


def _check_dict(check) -> dict:
    return {
        "name": check.name,
        "passed": check.passed,
        "metric": check.metric,
        "tolerance": check.tolerance,
        "detail": check.detail,
    }


def _cmd_eig(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    basis = eigenpairs(domain, _get(args, filecfg, "modes", "int", 64))
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            rows = [
                {"k": k + 1, "lambda": lam} for k, lam in enumerate(basis.lambdas)
            ]
            fh.write(_json_dumps({"domain": _domain_dict(domain), "eigenvalues": rows}))
        else:
            _write_csv(fh, ["k", "lambda"], ((k + 1, lam) for k, lam in enumerate(basis.lambdas)))
    return 0


def _cmd_apply(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    basis = eigenpairs(domain, _get(args, filecfg, "modes", "int", 64))
    op = _get(args, filecfg, "op", "str")
    if op not in _OPS:
        raise ConfigError(f"--op must be one of {', '.join(sorted(_OPS))}")
    result = _OPS[op](_input_fn(basis, args, filecfg))
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            fh.write(_json_dumps({"op": op, "coeffs": list(result.coeffs)}))
        else:
            _write_csv(fh, ["k", "coeff"], ((k + 1, c) for k, c in enumerate(result.coeffs)))
    return 0


def _cmd_solve(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    cfg = _build_config(args, filecfg)
    report = solve(domain, cfg.p, cfg)
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            fh.write(_json_dumps(_report_dict(report)))
        else:
            header = [
                "p", "I0", "residual_inf", "equation_defect",
                "sup_norm", "symmetry_defect", "positivity_min", "iterations", "converged",
            ]
            row = [
                report.p, report.I0, report.residual_inf,
                report.equation_defect, report.sup_norm, report.symmetry_defect,
                report.positivity_min, report.iterations, report.converged,
            ]
            _write_csv(fh, header, [row])
    return 0 if report.converged else 1


def _cmd_sweep(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    raw = _get(args, filecfg, "p_list", "str")
    if raw is None:
        raise ConfigError("sweep requires --p-list, a comma-separated list of exponents")
    try:
        exponents = [float(t) for t in raw.split(",") if t.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --p-list: {exc}") from exc
    cfg = _build_config(args, filecfg)
    reports = sweep(domain, exponents, cfg)
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            fh.write(_json_dumps({"rows": [_report_dict(r, with_coeffs=False) for r in reports]}))
        else:
            _write_csv(
                fh,
                ["p", "sup_norm", "residual", "converged"],
                ((r.p, r.sup_norm, r.residual_inf, r.converged) for r in reports),
            )
    return 0 if all(r.converged for r in reports) else 1


def _cmd_extend(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    basis = eigenpairs(domain, _get(args, filecfg, "modes", "int", 64))
    y = _get(args, filecfg, "y", "float")
    if y is None:
        raise ConfigError("extend requires --y, the evaluation height")
    slice_fn = evaluate_extension(_input_fn(basis, args, filecfg), y)
    out = _resolved_output(args, filecfg)
    if _resolved_format(args, filecfg) == "json":
        coords = domain.node_coords()
        with _open_output(out) as fh:
            fh.write(
                _json_dumps(
                    {
                        "y": y,
                        "columns": (["x"] if domain.n == 1 else ["x1", "x2"]) + ["u"],
                        "rows": [list(c) + [v] for c, v in zip(coords, slice_fn.values)],
                    }
                )
            )
    else:
        emit_plot_data(slice_fn, out)
    return 0


def _cmd_check(args, filecfg) -> int:
    domain = _require_domain(args, filecfg)
    cfg = _build_config(args, filecfg)
    mp_samples = _get(args, filecfg, "mp_samples", "int", 10)
    if mp_samples < 1:
        raise ConfigError(f"mp_samples must be at least 1, got {mp_samples}")
    c_minus = _get(args, filecfg, "c_minus", "float", 0.0)
    report = solve(domain, cfg.p, cfg)
    checks = []
    if report.solution is not None:
        basis = report.solution.basis
        worst = None
        for i in range(mp_samples):
            rng = np.random.default_rng([cfg.rng_seed, i])
            g = GridFn(domain, rng.uniform(0.0, 1.0, domain.num_nodes))
            sample = check_weak_mp(domain, basis, g)
            if worst is None or sample.metric + sample.tolerance < worst.metric + worst.tolerance:
                worst = sample
        checks.append(
            dataclasses.replace(worst, detail=f"worst of {mp_samples} seeded nonnegative sources")
        )
        u = report.solution_grid
        checks.append(check_positivity(u))
        for axis in range(domain.n):
            checks.append(check_symmetry(u, axis))
        for axis in range(domain.n):
            checks.append(check_monotonicity(u, axis))
        checks.append(check_hopf(u))
    checks.append(stability_margin(domain, c_minus))
    all_passed = report.converged and all(c.passed for c in checks)
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            fh.write(
                _json_dumps(
                    {
                        "all_passed": all_passed,
                        "converged": report.converged,
                        "checks": [_check_dict(c) for c in checks],
                        "solve": _report_dict(report, with_coeffs=False),
                    }
                )
            )
        else:
            _write_csv(
                fh,
                ["name", "passed", "metric", "tolerance"],
                ((c.name, c.passed, c.metric, c.tolerance) for c in checks),
            )
    return 0 if all_passed else 1


def _cmd_trace_constant(args, filecfg) -> int:
    n = _get(args, filecfg, "n", "int")
    if n is None:
        raise ConfigError("trace-constant requires --n")
    value = best_trace_constant(n)
    with _open_output(_resolved_output(args, filecfg)) as fh:
        if _resolved_format(args, filecfg) == "json":
            fh.write(_json_dumps({"n": n, "value": value}))
        else:
            _write_csv(fh, ["n", "value"], [(n, value)])
    return 0


_DISPATCH = {
    "eig": _cmd_eig,
    "apply": _cmd_apply,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "extend": _cmd_extend,
    "check": _cmd_check,
    "trace-constant": _cmd_trace_constant,
}


def _add_common(sp) -> None:
    sp.add_argument("--config", help="config file: key=value lines or a JSON object")
    sp.add_argument("--output", help="output path, '-' for stdout (default)")
    sp.add_argument("--format", choices=("csv", "json"), help="report format")
    sp.add_argument("--domain", help="interval:L:N or rectangle:L1:L2:N1:N2")


def _add_solver(sp, with_p: bool = True) -> None:
    if with_p:
        sp.add_argument("--p", type=float, help="nonlinearity exponent")
    sp.add_argument("--modes", type=int, help="number of eigenmodes K")
    sp.add_argument("--max-iter", type=int, help="fixed-point iteration cap")
    sp.add_argument("--tol-residual", type=float, help="convergence tolerance on the residual")
    sp.add_argument("--seed", type=int, help="seed for randomized initialization")
    sp.add_argument("--init-perturbation", type=float, help="random perturbation amplitude")
    sp.add_argument(
        "--allow-near-critical",
        action="store_const",
        const=True,
        help="permit exponents within 5%% of the critical one (diagnostic runs)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halflap",
        description="Spectral square-root Dirichlet Laplacian toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eig", help="list eigenvalues of the domain")
    _add_common(sp)
    sp.add_argument("--modes", type=int, help="number of eigenmodes K")

    sp = sub.add_parser("apply", help="apply a diagonal spectral operator")
    _add_common(sp)
    sp.add_argument("--modes", type=int, help="number of eigenmodes K")
    sp.add_argument("--op", choices=sorted(_OPS), help="operator to apply")
    sp.add_argument("--coeffs", help="comma-separated input coefficients")
    sp.add_argument("--mode", type=int, help="input is the unit coefficient on this mode")

    sp = sub.add_parser("solve", help="solve the power problem")
    _add_common(sp)
    _add_solver(sp)

    sp = sub.add_parser("sweep", help="solve across a list of exponents")
    _add_common(sp)
    sp.add_argument("--p-list", help="comma-separated exponents")
    _add_solver(sp, with_p=False)

    sp = sub.add_parser("extend", help="evaluate the harmonic extension at a height")
    _add_common(sp)
    sp.add_argument("--modes", type=int, help="number of eigenmodes K")
    sp.add_argument("--coeffs", help="comma-separated input coefficients")
    sp.add_argument("--mode", type=int, help="input is the unit coefficient on this mode")
    sp.add_argument("--y", type=float, help="evaluation height, y >= 0")

    sp = sub.add_parser("check", help="solve and run the full check battery")
    _add_common(sp)
    _add_solver(sp)
    sp.add_argument("--mp-samples", type=int, help="random sources for the weak maximum principle")
    sp.add_argument("--c-minus", type=float, help="negative-part bound for the stability margin")

    sp = sub.add_parser("trace-constant", help="sharp trace inequality constant")
    _add_common(sp)
    sp.add_argument("--n", type=int, help="space dimension, n >= 2")

    return parser


def run(argv) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        known = set(vars(args)) - {"command"}
        filecfg = _load_config(args.config, known) if args.config else {}
        return _DISPATCH[args.command](args, filecfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, DomainError, AliasingError, DomainMismatchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
