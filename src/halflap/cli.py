"""Command-line entry point: parse config, dispatch to operations, emit reports.

Subcommands: eig, apply, solve, sweep, extend, check, trace-constant. Options
come from flags or from a config file (flat key=value lines or a JSON object;
flags override the file). Reports are CSV (comma separator, dot decimal point,
LF line endings) or single-document UTF-8 JSON with every float serialized at
17 significant digits, so identical config and seed produce byte-identical
output. Exit codes: 0 success with all checks passed, 1 failed check or
diverged solve or I/O failure, 2 configuration error.

Every reported number comes from a library operation. check alone computes
inputs of its own: it draws the weak-maximum-principle sources from the seed
and synthesizes the solution's grid for the checks that read it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .basis import KINDS, DiscreteDomain, DomainError, GridFn, as_integer, as_real, eigenpairs
from .extension import best_trace_constant, evaluate_extension
from .nonlinear import ConfigError, SolveConfig, SolveReport, solve, sweep
from .spectral import SpectralFn, apply_A_half, apply_B_half, apply_inv_laplacian, synthesize
from .verification import (
    check_hopf,
    check_monotonicity,
    check_positivity,
    check_symmetry,
    check_weak_mp,
    stability_margin,
)


def _axis_suffixes(n: int) -> list[str]:
    """Per-axis name suffixes: none for one axis, 1..n otherwise (x or x1, x2, ...)."""
    return [""] if n == 1 else [str(a) for a in range(1, n + 1)]


# the domain mini-syntax: kind, the n lengths, the n grid counts
_DOMAIN_FORMS = tuple(
    ":".join([kind] + [c + a for c in "LN" for a in _axis_suffixes(n)])
    for n, kind in enumerate(KINDS, 1)
)

_OPS = {
    "a-half": apply_A_half,
    "b-half": apply_B_half,
    "inv-laplacian": apply_inv_laplacian,
}

# dest -> (type, or a tuple of choices, and help); bool marks store_const flags.
# The same entry parses the flag and casts the config-file value.
_OPTIONS = {
    "config": (str, "config file: key=value lines or a JSON object"),
    "output": (str, "output path, '-' for stdout (default)"),
    "format": (("csv", "json"), "report format"),
    "domain": (str, ", ".join(_DOMAIN_FORMS)),
    "p": (float, "nonlinearity exponent"),
    "p_list": (str, "comma-separated exponents"),
    "modes": (int, "number of eigenmodes K"),
    "max_iter": (int, "fixed-point iteration cap"),
    "tol_residual": (float, "convergence tolerance on the residual"),
    "seed": (int, "seed for randomized initialization"),
    "init_perturbation": (float, "random perturbation amplitude"),
    "allow_near_critical": (
        bool, "permit exponents within 5%% of the critical one (diagnostic runs)"
    ),
    "op": (tuple(sorted(_OPS)), "operator to apply"),
    "coeffs": (str, "comma-separated input coefficients"),
    "mode": (int, "input is the unit coefficient on this mode"),
    "y": (float, "evaluation height, y >= 0"),
    "mp_samples": (int, "random sources for the weak maximum principle"),
    "c_minus": (float, "negative-part bound for the stability margin"),
    "n": (int, "space dimension, n >= 2"),
}

_COMMON = ("config", "output", "format", "domain")
_SOLVER = (
    "modes", "max_iter", "tol_residual", "seed", "init_perturbation", "allow_near_critical"
)
# used when neither the flag nor the config file sets the option
_DEFAULTS = {"modes": SolveConfig.K, "mp_samples": 10, "c_minus": 0.0}

# The one float format of reports: "%.17g" % x is format(x, ".17g") for every double, nan
# and inf included. Tables are formatted _BLOCK_ROWS rows per string to bound the text held.
_FLOAT = "%.17g"
_BLOCK_ROWS = 1024
# check draws and checks its weak-maximum-principle sources at most this many
# grid values at a time, so the sources it holds do not grow with --mp-samples
_MP_BLOCK_VALUES = 2**20


def _node_rows(u: GridFn, left: str, right: str, sep: str = ""):
    """Rows `left + coordinates,value + right` of u, one per node in C order.

    Rows join by sep into blocks of _BLOCK_ROWS rows, yielded one at a time; each
    axis's node coordinates are formatted once.
    """
    axes = [[_FLOAT % x + "," for x in u.domain.axis_nodes(a).tolist()] for a in range(u.domain.n)]
    heads = map("".join, itertools.product(*axes))
    for start in range(0, u.values.size, _BLOCK_ROWS):
        block = u.values[start : start + _BLOCK_ROWS].tolist()
        # the heads become format template text: a formatted number holds no "%"
        rows = [left + head + _FLOAT + right for head in itertools.islice(heads, len(block))]
        yield sep.join(rows) % tuple(block)


def _json(obj) -> str:
    """Compact JSON text of a report: sorted keys, floats at 17 digits, nonfinite as null."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _FLOAT % obj if math.isfinite(obj) else "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(str(k)) + ":" + _json(obj[k]) for k in sorted(obj)) + "}"
    if isinstance(obj, GridFn):  # its values are finite
        return "[" + ",".join(_node_rows(obj, "[", "]", ",")) + "]"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json(item) for item in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
        return _FLOAT % float(v)  # nonfinite values print as nan, inf, -inf
    return str(v)


def _write_csv(fh, header: list[str], rows) -> None:
    fh.write(",".join(header) + "\n")
    if isinstance(rows, GridFn):
        fh.writelines(_node_rows(rows, "", "\n"))
    else:
        fh.writelines(",".join(_csv_cell(v) for v in row) + "\n" for row in rows)


def _load_config(path: str, known) -> dict:
    """Read a config file; keys outside `known` are rejected, not ignored."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: dict = {}
    # a file that opens like a JSON object or array is read as JSON, so an
    # array is refused as such rather than as a malformed key=value line
    if text.lstrip().startswith(("{", "[")):
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


def _cast(key: str, value):
    """A config-file value as its flag would parse it; ConfigError names the key."""
    kind = _OPTIONS[key][0]
    try:
        if isinstance(value, bool) and kind is not bool:
            # a JSON true or false would otherwise read as 1/0 or as the path "True"
            raise ValueError("only boolean options take true or false")
        if kind is int:
            # strings parse as flags do (int("16.9") fails); JSON numbers must be integral
            if isinstance(value, float) and not value.is_integer():
                raise ValueError("expected an integer")
            return int(value)
        if kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.strip().lower() in _BOOL_WORDS:
                return _BOOL_WORDS[value.strip().lower()]
            raise ValueError("expected one of " + "/".join(_BOOL_WORDS))
        if isinstance(kind, tuple):
            if value not in kind:
                raise ValueError("expected one of " + "/".join(kind))
            return value
        if kind is str and not isinstance(value, str):
            # a JSON number would otherwise read as its text: a path "5" or a list "3"
            raise ValueError("expected a string")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc


def _parse_domain(spec: str | None) -> DiscreteDomain:
    if spec is None:
        raise ConfigError("a domain is required (--domain or config key 'domain')")
    kind, *fields = spec.split(":")
    n = len(fields) // 2
    if kind not in KINDS or len(fields) != 2 * KINDS.index(kind) + 2:
        raise ConfigError(f"bad domain spec {spec!r}: use one of {', '.join(_DOMAIN_FORMS)}")
    try:
        return DiscreteDomain([float(t) for t in fields[:n]], [int(t) for t in fields[n:]])
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise ConfigError(f"bad domain spec {spec!r}: {exc}") from exc


def _number_list(option: str, text: str) -> list[float]:
    """The numbers of a comma-separated option; an empty, unparsable or nonfinite
    entry is refused by its 1-based position, so no entry shifts the ones after it."""
    values = []
    for pos, token in enumerate(text.split(","), 1):
        if not token.strip():
            raise ConfigError(f"{option} entry {pos} is empty in {text!r}")
        try:
            value = float(token)
        except ValueError as exc:
            raise ConfigError(f"bad {option} entry {pos}: {token!r}") from exc
        values.append(as_real(f"{option} entry {pos}", value, ConfigError))
    return values


def _build_config(args) -> SolveConfig:
    fields = {"modes": "K", "seed": "rng_seed"}  # where option and field names differ
    values = {fields.get(key, key): getattr(args, key, None) for key in ("p",) + _SOLVER}
    return SolveConfig(**{field: v for field, v in values.items() if v is not None})


def _input_fn(domain, args) -> SpectralFn:
    """The input function of apply and extend, on the first args.modes modes.

    The input is checked against the mode count, by eigenpairs' rule, before
    eigenpairs builds the basis, so a refused input leaves no basis cached.
    """
    if args.coeffs is not None and args.mode is not None:
        raise ConfigError("give either --coeffs or --mode, not both")
    K = as_integer("mode count K", args.modes, DomainError, at_least=1)
    if args.coeffs is not None:
        start, vals = 0, _number_list("--coeffs", args.coeffs)
        if len(vals) > K:
            raise ConfigError(f"got {len(vals)} coefficients for {K} modes")
    else:
        m = 1 if args.mode is None else args.mode
        if not 1 <= m <= K:
            raise ConfigError(f"mode {m} out of range 1..{K}")
        start, vals = m - 1, [1.0]
    # the basis first: it refuses a K the grid cannot carry before b is allocated
    basis = eigenpairs(domain, K)
    b = np.zeros(K)
    b[start : start + len(vals)] = vals
    return SpectralFn(basis, b)


def _report_dict(report: SolveReport, with_coeffs: bool = True) -> dict:
    out = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name != "solution"
    }
    out["domain"] = dataclasses.asdict(report.domain)
    if with_coeffs:
        out["solution_coeffs"] = (
            list(report.solution.coeffs) if report.solution is not None else None
        )
    return out


# Each _cmd_* returns (exit code, JSON document, CSV header, CSV rows); run
# writes whichever form the format selects.


def _cmd_eig(args, domain):
    rows = list(enumerate(eigenpairs(domain, args.modes).lambdas, 1))
    doc = {
        "domain": dataclasses.asdict(domain),
        "eigenvalues": [{"k": k, "lambda": lam} for k, lam in rows],
    }
    return 0, doc, ["k", "lambda"], rows


def _cmd_apply(args, domain):
    if args.op is None:
        raise ConfigError(f"--op must be one of {', '.join(sorted(_OPS))}")
    coeffs = list(_OPS[args.op](_input_fn(domain, args)).coeffs)
    return 0, {"op": args.op, "coeffs": coeffs}, ["k", "coeff"], enumerate(coeffs, 1)


def _cmd_solve(args, domain):
    cfg = _build_config(args)
    report = solve(domain, cfg.p, cfg)
    header = [
        "p", "I0", "residual_inf", "equation_defect", "sup_norm", "iterations", "converged",
    ]
    row = [getattr(report, key) for key in header]
    return 0 if report.converged else 1, _report_dict(report), header, [row]


def _cmd_sweep(args, domain):
    if args.p_list is None:
        raise ConfigError("sweep requires --p-list, a comma-separated list of exponents")
    reports = sweep(domain, _number_list("--p-list", args.p_list), _build_config(args))
    code = 0 if all(r.converged for r in reports) else 1
    doc = {"rows": [_report_dict(r, with_coeffs=False) for r in reports]}
    rows = ((r.p, r.sup_norm, r.residual_inf, r.converged) for r in reports)
    return code, doc, ["p", "sup_norm", "residual", "converged"], rows


def _cmd_extend(args, domain):
    if args.y is None:
        raise ConfigError("extend requires --y, the evaluation height")
    u = evaluate_extension(_input_fn(domain, args), args.y)
    header = [f"x{a}" for a in _axis_suffixes(domain.n)] + ["u"]
    return 0, {"y": args.y, "columns": header, "rows": u}, header, u


def _cmd_check(args, domain):
    cfg = _build_config(args)
    as_integer("mp_samples", args.mp_samples, ConfigError, at_least=1)
    # a bad c_minus is rejected before the solve; its report still comes last
    margin = stability_margin(domain, args.c_minus)
    report = solve(domain, cfg.p, cfg)
    checks = []
    if report.solution is not None:
        # one generator draws the sources row by row, so source i does not
        # depend on how many are drawn nor on how they are split in blocks;
        # the worst is the first with the smallest metric + tolerance
        rng = np.random.default_rng(cfg.rng_seed)
        rows = max(1, _MP_BLOCK_VALUES // domain.num_nodes)
        worst = None
        for start in range(0, args.mp_samples, rows):
            sources = rng.uniform(0.0, 1.0, (min(rows, args.mp_samples - start), domain.num_nodes))
            block = check_weak_mp(report.solution.basis, *(GridFn(domain, g) for g in sources))
            if worst is None or block.metric + block.tolerance < worst.metric + worst.tolerance:
                worst = block
        checks.append(
            dataclasses.replace(
                worst, detail=f"worst of {args.mp_samples} seeded nonnegative sources"
            )
        )
        u = synthesize(report.solution)
        checks.append(check_positivity(u))
        for axis in range(domain.n):
            checks.append(check_symmetry(u, axis))
        for axis in range(domain.n):
            checks.append(check_monotonicity(u, axis))
        checks.append(check_hopf(u))
    checks.append(margin)
    all_passed = report.converged and all(c.passed for c in checks)
    doc = {
        "all_passed": all_passed,
        "converged": report.converged,
        "checks": [dataclasses.asdict(c) for c in checks],
        "solve": _report_dict(report, with_coeffs=False),
    }
    rows = ((c.name, c.passed, c.metric, c.tolerance) for c in checks)
    return 0 if all_passed else 1, doc, ["name", "passed", "metric", "tolerance"], rows


def _cmd_trace_constant(args, domain):
    if args.n is None:
        raise ConfigError("trace-constant requires --n")
    value = best_trace_constant(args.n)
    return 0, {"n": args.n, "value": value}, ["n", "value"], [(args.n, value)]


# subcommand -> (handler, default format, help, option keys after _COMMON)
_COMMANDS = {
    "eig": (_cmd_eig, "csv", "list eigenvalues of the domain", ("modes",)),
    "apply": (
        _cmd_apply, "csv", "apply a diagonal spectral operator", ("modes", "op", "coeffs", "mode")
    ),
    "solve": (_cmd_solve, "json", "solve the power problem", ("p",) + _SOLVER),
    "sweep": (_cmd_sweep, "csv", "solve across a list of exponents", ("p_list",) + _SOLVER),
    "extend": (
        _cmd_extend, "csv", "evaluate the harmonic extension at a height",
        ("modes", "coeffs", "mode", "y"),
    ),
    "check": (
        _cmd_check, "json", "solve and run the full check battery",
        ("p",) + _SOLVER + ("mp_samples", "c_minus"),
    ),
    "trace-constant": (_cmd_trace_constant, "json", "sharp trace inequality constant", ("n",)),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halflap",
        description="Spectral square-root Dirichlet Laplacian toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, text, keys) in _COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        for key in _COMMON + keys:
            kind, help_text = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if kind is bool:
                sp.add_argument(flag, action="store_const", const=True, help=help_text)
            elif isinstance(kind, tuple):
                sp.add_argument(flag, choices=kind, help=help_text)
            else:
                sp.add_argument(flag, type=kind, help=help_text)
    return parser


def run(argv) -> int:
    """Parse arguments, dispatch, and return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handler, default_format = _COMMANDS[args.command][:2]
    try:
        known = set(vars(args)) - {"command"}
        filecfg = _load_config(args.config, known) if args.config else {}
        for key, value in filecfg.items():
            if value is not None and getattr(args, key) is None:
                setattr(args, key, _cast(key, value))
        for key, value in _DEFAULTS.items():
            if key in known and getattr(args, key) is None:
                setattr(args, key, value)
        domain = None if args.command == "trace-constant" else _parse_domain(args.domain)
        code, doc, header, rows = handler(args, domain)
        with _open_output(args.output) as fh:
            if (args.format or default_format) == "json":
                fh.write(_json(doc) + "\n")
            else:
                _write_csv(fh, header, rows)
        return code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
