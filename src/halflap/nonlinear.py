"""Solve of the power problem for the square-root operator.

The solver finds u > 0 vanishing on the boundary with A_half u = u^p. The
positive solution is the minimizer of the extension energy sum b_k^2
sqrt(lambda_k) over trace functions with unit L^(p+1) norm, scaled by
I0^(1/(p-1)) where I0 is the minimum energy. It is the fixed point of
Petviashvili's iteration u <- M^(p/(p-1)) B_half(projection of u^p), with the
Nehari ratio M = <A_half u, u> / <projection of u^p, u> (Petviashvili, Sov. J.
Plasma Phys. 2, 1976; Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42, 2004).
The plain map is radially repelling with amplitude factor p > 1; on c u* the
factor is c^(-p), which removes that direction, and at a solution it is 1. The
iteration starts from the ground mode and is accelerated by Anderson mixing of
depth ANDERSON_DEPTH (Anderson, J. ACM 12, 1965; Walker & Ni, SIAM J. Numer.
Anal. 49, 2011): each step combines the last plain steps so that their
residuals cancel in the least-squares sense. A singular or nonfinite
combination, or a step whose residual exceeds ANDERSON_RESTART times the best
so far, clears the history and takes the plain step instead. The solve
reports the iterate with the smallest projected residual, and stops at
1e-2 * tol_residual, at max_iter steps, or after STALL_STEPS steps without a
new best residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import (
    AliasingError,
    DiscreteDomain,
    DomainError,
    EigenBasis,
    GridFn,
    as_integer,
    as_real,
    eigenpairs,
)
from .spectral import SpectralFn
from .verification import check_symmetry

# p close to 1 degenerates the rescaling exponent 1/(p-1)
MIN_EXPONENT = 1.1
# runs within this fraction of the critical exponent need the override flag
NEAR_CRITICAL_BAND = 0.05
# steps without a new best residual before the iteration gives up: a safety
# stop, so a residual that wanders on a plateau above the target ends the solve
# instead of spinning to max_iter
STALL_STEPS = 20
# plain-step differences the Anderson mixing combines
ANDERSON_DEPTH = 5
# a measured residual this many times the best restarts the mixing; a stale
# history can keep the residual wandering at order one until the stall stop
ANDERSON_RESTART = 2.0


class ConfigError(ValueError):
    """Rejected solver configuration."""


def critical_exponent(n: int) -> float:
    """Trace-Sobolev threshold (n+1)/(n-1); unbounded (inf) for n = 1."""
    n = as_integer("dimension n", n, at_least=1)
    return math.inf if n == 1 else (n + 1) / (n - 1)


@dataclass(frozen=True)
class SolveConfig:
    """Solver parameters.

    p may be left None and supplied as the explicit argument of solve; when
    both are given they must agree. max_iter caps the fixed-point steps.
    """

    p: float | None = None
    K: int = 64
    max_iter: int = 500
    tol_residual: float = 1e-9
    rng_seed: int = 0
    init_perturbation: float = 0.0
    allow_near_critical: bool = False

    def __post_init__(self):
        # a float K truncates, a float max_iter never meets the cap, a bool passes as
        # 0 or 1, a string fails a comparison, and a nonfinite p, tolerance or amplitude
        # overflows the first power, passes every iterate or poisons the start
        if self.p is not None:
            as_real("p", self.p, ConfigError, at_least=MIN_EXPONENT)
        as_integer("K", self.K, ConfigError, at_least=1)
        as_integer("max_iter", self.max_iter, ConfigError, at_least=1)
        as_real("tol_residual", self.tol_residual, ConfigError, above=0)
        as_integer("rng_seed", self.rng_seed, ConfigError, at_least=0)
        as_real("init_perturbation", self.init_perturbation, ConfigError, at_least=0)
        if not isinstance(self.allow_near_critical, bool):
            # only its truth value is read, so "no" would count as true
            raise ConfigError(
                f"allow_near_critical must be a bool, got {self.allow_near_critical!r}"
            )


@dataclass(frozen=True, kw_only=True)
class SolveReport:
    """Outcome of one nonlinear solve.

    residual_inf is the sup-norm defect of the discrete (mode-projected)
    equation and is what tol_residual governs; equation_defect is the
    unprojected defect against the pointwise power, which is limited by
    spectral truncation and decreases as K and N grow. iterations counts
    fixed-point steps; when the solve did not converge, detail names the stop
    that fired. The defaults are the values of a solve that produced no
    solution.
    """

    solution: SpectralFn | None = None
    I0: float = math.nan
    residual_inf: float = math.inf
    equation_defect: float = math.inf
    sup_norm: float = math.nan
    iterations: int = 0
    converged: bool = False
    symmetry_defect: float = math.nan
    positivity_min: float = math.nan
    p: float
    K: int
    tol_residual: float
    rng_seed: int
    domain: DiscreteDomain
    detail: str = ""


def _resolve_p(p: float | None, cfg: SolveConfig) -> float:
    if p is None and cfg.p is None:
        raise ConfigError("exponent p was not provided")
    eff = as_real("p", cfg.p if p is None else p, ConfigError)
    if cfg.p is not None and eff != float(cfg.p):
        raise ConfigError(f"explicit p = {p} disagrees with config p = {cfg.p}")
    return eff


def _validate_exponent(domain: DiscreteDomain, p: float, cfg: SolveConfig) -> None:
    pc = critical_exponent(domain.n)
    if math.isfinite(pc):
        if p >= pc:
            raise ConfigError(f"p = {p} is not strictly subcritical (critical exponent {pc})")
        if p >= (1.0 - NEAR_CRITICAL_BAND) * pc and not cfg.allow_near_critical:
            raise ConfigError(
                f"p = {p} is within {int(NEAR_CRITICAL_BAND * 100)}% of the critical "
                f"exponent {pc}; set allow_near_critical to run it as a diagnostic"
            )


def _check_dealiasing(basis: EigenBasis) -> None:
    # the grid must resolve the power nonlinearity: N >= 4 * max sine index per axis
    for axis, (N, j) in enumerate(zip(basis.domain.grid_counts, basis.max_indices)):
        if N < 4 * j:
            raise ConfigError(
                f"grid count {N} on axis {axis} is too coarse to dealias the "
                f"nonlinearity; need at least {4 * j}"
            )


def _constraint_scale(values: np.ndarray, weight: float, p: float) -> float:
    return float((np.sum(np.abs(values) ** (p + 1)) * weight) ** (1.0 / (p + 1)))


def _evaluate(basis: EigenBasis, u: np.ndarray, p: float):
    """Grid values of the coefficients u, the clipped power u^p on the grid,
    its mode projection, and the projected residual sup |A_half u - projection|.

    The fixed-point loop measures through this one expression, so a solve
    reports exactly the residual its iteration measured.
    """
    grid = basis.to_grid(u)
    power = np.maximum(grid, 0.0) ** p
    projection = basis.to_coeffs(power)
    res = float(np.max(np.abs(basis.to_grid(u * basis.sqrt_lambdas - projection))))
    return grid, power, projection, res


def _equation_defect(basis: EigenBasis, u: np.ndarray, power: np.ndarray) -> float:
    """Unprojected sup-norm defect of A_half u = u^p at the nodes."""
    return float(np.max(np.abs(basis.to_grid(u * basis.sqrt_lambdas) - power)))


def _diverged_report(domain: DiscreteDomain, p: float, cfg: SolveConfig, detail: str):
    return SolveReport(
        p=p, K=cfg.K, tol_residual=cfg.tol_residual, rng_seed=cfg.rng_seed,
        domain=domain, detail=detail,
    )


def _fixed_point(basis: EigenBasis, p: float, cfg: SolveConfig):
    """Anderson-mixed Petviashvili iteration from the (perturbed) ground mode.

    Each step maps the coefficients u to the plain step
    g = M^(p/(p-1)) B_half P(u^p), where M = sum sqrt(lambda) u^2 / (u . P(u^p))
    is the Nehari ratio, and mixes g with the last ANDERSON_DEPTH differences
    of g and of the residual f = g - u. The mixing weights gamma minimize
    |f - gamma F| over the rows F of residual differences, and are solved from
    the normal equations (F F^T) gamma = F f. If that system is singular, the
    mix is nonfinite, or the measured residual is above ANDERSON_RESTART times
    the best, the step is g and the history is cleared.

    Returns (best, steps, stop). best is (u coefficients, grid values, clipped
    power, projected residual) of the iterate with the smallest projected
    residual, or None after a nonfinite iterate; stop is "" when the target
    was met, else the reason the iteration ended.
    """
    s = basis.sqrt_lambdas
    w = basis.to_grid(np.eye(1, basis.K)[0])  # the ground mode
    if cfg.init_perturbation > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        w = w + cfg.init_perturbation * basis.to_grid(rng.standard_normal(basis.K))
    u = basis.to_coeffs(np.abs(w))
    target = max(cfg.tol_residual * 1e-2, 1e-14)
    best, best_res, best_step = None, math.inf, 0
    dg, df = [], []  # differences of the last plain steps and of their residuals
    step = 0
    while True:
        grid, power, Pu, res = _evaluate(basis, u, p)
        if res < best_res:
            best, best_res, best_step = (u, grid, power, res), res, step
        if best_res <= target:
            return best, step, ""
        if step == cfg.max_iter:
            return best, step, f"iteration cap max_iter = {cfg.max_iter} reached"
        if step - best_step >= STALL_STEPS:
            return best, step, f"no new best residual in {STALL_STEPS} steps"
        nehari = float(u @ Pu)
        if not 0.0 < nehari < math.inf:
            return None, step, "fixed-point iteration produced a nonfinite iterate"
        g = (float(np.sum(s * u * u)) / nehari) ** (p / (p - 1.0)) * (Pu / s)  # the plain step
        f = g - u
        if step > 0:
            dg.append(g - g_prev)
            df.append(f - f_prev)
            del dg[:-ANDERSON_DEPTH], df[:-ANDERSON_DEPTH]
        g_prev, f_prev = g, f
        u = g
        if df and res <= ANDERSON_RESTART * best_res:
            # the combination of the recent plain steps whose residuals best
            # cancel, by least squares over the residual differences F; F has
            # at most ANDERSON_DEPTH rows, so its Gram matrix is at most 5 x 5
            # and the normal equations cost far less than an SVD
            F = np.array(df)
            try:
                gamma = np.linalg.solve(F @ F.T, F @ f)
            except np.linalg.LinAlgError:
                pass  # a singular Gram matrix: the plain step
            else:
                mixed = g - gamma @ np.array(dg)
                if np.all(np.isfinite(mixed)):
                    u = mixed
        if u is g:
            # a stagnated, singular or nonfinite mixing takes the plain step
            # and restarts the history from it
            dg.clear()
            df.clear()
        step += 1


def solve(domain: DiscreteDomain, p: float | None, cfg: SolveConfig) -> SolveReport:
    """Full pipeline: validate, build the basis, iterate to the fixed point, report.

    A K whose modes reach a sine index j_a with 4 j_a > N_a on some axis raises
    ConfigError ("too coarse to dealias") before any sine is evaluated, and a K
    above the product of the N_a - 1 raises AliasingError, as in eigenpairs.
    """
    # replace reruns SolveConfig's checks on the effective exponent
    cfg = replace(cfg, p=_resolve_p(p, cfg))
    p = cfg.p
    _validate_exponent(domain, p, cfg)
    basis = eigenpairs(domain, cfg.K)
    _check_dealiasing(basis)
    best, steps, stop = _fixed_point(basis, p, cfg)
    if best is None:
        return _diverged_report(domain, p, cfg, stop)
    u_coeffs, grid, power, projected = best
    u_grid = GridFn(domain, grid)
    converged = bool(projected <= cfg.tol_residual)
    # the extension energy over the squared L^(p+1) norm, which is scale free
    energy = float(np.sum(basis.sqrt_lambdas * u_coeffs * u_coeffs))
    I0 = energy / _constraint_scale(grid, domain.weight, p) ** 2
    return SolveReport(
        solution=SpectralFn(basis, u_coeffs),
        I0=I0,
        residual_inf=projected,
        equation_defect=_equation_defect(basis, u_coeffs, power),
        sup_norm=float(np.max(np.abs(grid))),
        iterations=steps,
        converged=converged,
        symmetry_defect=max(check_symmetry(u_grid, axis).metric for axis in range(domain.n)),
        positivity_min=float(np.min(grid)),
        p=p,
        K=cfg.K,
        tol_residual=cfg.tol_residual,
        rng_seed=cfg.rng_seed,
        domain=domain,
        detail="" if converged else f"residual above tol_residual: {stop}",
    )


def _sweep_row(domain: DiscreteDomain, p: float, cfg: SolveConfig) -> SolveReport:
    try:
        return solve(domain, p, replace(cfg, p=p))
    except (ConfigError, DomainError, AliasingError) as exc:
        return _diverged_report(domain, p, cfg, f"rejected: {exc}")


def sweep(domain: DiscreteDomain, p_list, cfg: SolveConfig) -> list[SolveReport]:
    """One solve per exponent, in input order; a rejected row becomes a flagged report."""
    return [_sweep_row(domain, q, cfg) for q in p_list]
