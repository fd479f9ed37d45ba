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
so far, clears the history and takes the plain step instead.

The loop forms the projected residual r = A_half u - P(u^p) once per
iterate, in coefficients, so a step takes one synthesis and one analysis. The
sampled modes are discretely orthonormal, so |r|_2 is the residual's L^2 norm
on the grid; the loop ranks its iterates by it, and the best one, the stall
stop and the Anderson restart all read that ranking. Every mode is bounded by
prod_a sqrt(2/L_a), so that constant times |r|_1 bounds the residual's sup
over the grid, and the loop stops when a new best has this bound at most
1e-2 * tol_residual. It also stops at max_iter steps, or after STALL_STEPS
steps without a new best. The report synthesizes the returned iterate's r,
the vector the loop ranked it by, and its sup is what tol_residual governs.

The unperturbed ground mode is even across every axis midline, and so are u^p
and its projection, so from that start the iteration never leaves the modes
whose sine indices are all odd. It runs there, on nodes 1..N_a // 2 of each
axis (EigenBasis.sector), and the other modes of the solution are exact
zeros; parity reductions of this kind are standard for spectral methods
(Boyd, Chebyshev and Fourier Spectral Methods, 2nd ed., 2001, ch. 8). A
perturbed start leaves that span and iterates in the whole basis. The report
is measured in the space the loop ran in: the sector's half grid holds every
value of the even whole grid, so its sups are the whole grid's, and its
analysis counts each node as the nodes it stands for.
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
    SineTransform,
    as_integer,
    as_real,
    eigenpairs,
)
from .spectral import SpectralFn

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
    spectral truncation and decreases as K and N grow. The fields are measured
    in the space the loop ran in (see solve); solution is a K-vector on the
    whole basis. iterations counts fixed-point steps; when the solve did not
    converge, detail names the stop that fired. The defaults are the values of
    a solve that produced no solution.
    """

    solution: SpectralFn | None = None
    I0: float = math.nan
    residual_inf: float = math.inf
    equation_defect: float = math.inf
    sup_norm: float = math.nan
    iterations: int = 0
    converged: bool = False
    p: float
    K: int
    tol_residual: float
    rng_seed: int
    domain: DiscreteDomain
    detail: str = ""


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


def _project(basis: SineTransform, u: np.ndarray, p: float, buf: np.ndarray):
    """The mode projection of the clipped power max(u, 0)^p of the coefficients
    u on the grid, and the coefficients of the projected residual
    A_half u - projection.

    The grid passes through buf, a node array of the basis or sector that the
    solve allocates once, so a step allocates no node-sized array.
    """
    basis.to_grid(u, out=buf)
    np.maximum(buf, 0.0, out=buf)
    buf **= p
    projection = basis.to_coeffs(buf)
    return projection, u * basis.sqrt_lambdas - projection


def _diverged_report(domain: DiscreteDomain, p: float, cfg: SolveConfig, detail: str):
    return SolveReport(
        p=p, K=cfg.K, tol_residual=cfg.tol_residual, rng_seed=cfg.rng_seed,
        domain=domain, detail=detail,
    )


def _fixed_point(basis: SineTransform, p: float, cfg: SolveConfig, buf: np.ndarray,
                 sup_mode: float):
    """Anderson-mixed Petviashvili iteration from the (perturbed) ground mode.

    Each step maps the coefficients u to the plain step
    g = M^(p/(p-1)) B_half P(u^p), where M = sum sqrt(lambda) u^2 / (u . P(u^p))
    is the Nehari ratio, and mixes g with the last ANDERSON_DEPTH differences
    of g and of the residual f = g - u. The mixing weights gamma minimize
    |f - gamma F| over the rows F of residual differences, and are solved from
    the normal equations (F F^T) gamma = F f. If that system is singular, the
    mix is nonfinite, or the residual is above ANDERSON_RESTART times the best,
    the step is g and the history is cleared. The start and every step work in
    the node array buf, which the caller reads as scratch after. basis is the
    solve's EigenBasis or, for a ground start, its sector, and sup_mode bounds
    |phi_k| on the grid.

    Returns (best, r, steps, stop). best is the u coefficients of the iterate
    with the smallest l2 residual and r the coefficients of that residual, both
    None after a nonfinite iterate; stop is "" when the sup bound
    sup_mode * |r|_1 met the target, else the reason the iteration ended.
    """
    s = basis.sqrt_lambdas
    basis.to_grid(np.eye(1, basis.K)[0], out=buf)  # the ground mode
    if cfg.init_perturbation > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        buf += cfg.init_perturbation * basis.to_grid(rng.standard_normal(basis.K))
    u = basis.to_coeffs(np.abs(buf, out=buf))
    target = max(cfg.tol_residual * 1e-2, 1e-14)
    best, best_r, best_res, best_step = None, None, math.inf, 0
    # differences of the last plain steps and of their residuals, kept as a
    # ring: difference i since the last restart is row i % ANDERSON_DEPTH. The
    # Gram matrix of the residual differences gains one row per step
    dg, df = np.empty((2, ANDERSON_DEPTH, basis.K))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    history = 0  # differences since the last restart
    step = 0
    while True:
        Pu, r = _project(basis, u, p, buf)
        res = math.sqrt(r @ r)
        if res < best_res:
            best, best_r, best_res, best_step = u, r, res, step
            # |r|_1 >= |r|_2, so the sup bound can only meet the target when
            # sup_mode * |r|_2 does
            if sup_mode * res <= target and sup_mode * float(np.abs(r).sum()) <= target:
                return best, best_r, step, ""
        if step == cfg.max_iter:
            return best, best_r, step, f"iteration cap max_iter = {cfg.max_iter} reached"
        if step - best_step >= STALL_STEPS:
            return best, best_r, step, f"no new best residual in {STALL_STEPS} steps"
        nehari = float(u @ Pu)
        if not 0.0 < nehari < math.inf:
            return None, None, step, "fixed-point iteration produced a nonfinite iterate"
        g = (float((s * u) @ u) / nehari) ** (p / (p - 1.0)) * (Pu / s)  # the plain step
        f = g - u
        if step > 0:
            row = history % ANDERSON_DEPTH
            np.subtract(g, g_prev, out=dg[row])
            np.subtract(f, f_prev, out=df[row])
            history += 1
            n = min(history, ANDERSON_DEPTH)
            gram[row, :n] = gram[:n, row] = df[:n] @ df[row]
        g_prev, f_prev = g, f
        u = g
        if history and res <= ANDERSON_RESTART * best_res:
            # the combination of the recent plain steps whose residuals best
            # cancel, by least squares over the residual differences; there
            # are at most ANDERSON_DEPTH of them, so the normal equations are
            # at most 5 x 5 and cost far less than an SVD
            try:
                gamma = np.linalg.solve(gram[:n, :n], df[:n] @ f)
            except np.linalg.LinAlgError:
                pass  # a singular Gram matrix: the plain step
            else:
                mixed = g - gamma @ dg[:n]
                if np.isfinite(mixed).all():
                    u = mixed
        if u is g:
            # a stagnated, singular or nonfinite mixing takes the plain step
            # and restarts the history from it
            history = 0
        step += 1


def solve(domain: DiscreteDomain, p: float | None, cfg: SolveConfig) -> SolveReport:
    """Full pipeline: validate, build the basis, iterate to the fixed point, report.

    A K whose modes reach a sine index j_a with 4 j_a > N_a on some axis raises
    ConfigError ("too coarse to dealias") before any sine is evaluated, and a K
    above the product of the N_a - 1 raises AliasingError, as in eigenpairs.

    The exponent is p or cfg.p; when both are given they must be equal.

    A ground start (init_perturbation 0) iterates in the basis's symmetric
    sector and a perturbed one in the whole basis, and the report is measured
    in the same space; a ground solution is zero off the sector. residual_inf
    is the sup of the residual the loop formed for the returned iterate.
    """
    if cfg.p is None:
        if p is None:
            raise ConfigError("exponent p was not provided")
        # replace runs SolveConfig's checks on the explicit exponent
        cfg = replace(cfg, p=p)
    elif p is not None and as_real("p", p, ConfigError) != float(cfg.p):
        raise ConfigError(f"explicit p = {p} disagrees with config p = {cfg.p}")
    p = float(cfg.p)
    _validate_exponent(domain, p, cfg)
    basis = eigenpairs(domain, cfg.K)
    _check_dealiasing(basis)
    space = basis if cfg.init_perturbation > 0 else basis.sector
    # the solve's one node buffer: the loop works in its first row, and the
    # report holds the solution's grid in the second
    buf, grid = np.empty((2, space.num_nodes))
    # a bound on every mode's sup |phi_k| over the grid
    sup_mode = math.prod(math.sqrt(2.0 / L) for L in domain.lengths)
    u, r, steps, stop = _fixed_point(space, p, cfg, buf, sup_mode)
    if u is None:
        return _diverged_report(domain, p, cfg, stop)
    a_half = u * space.sqrt_lambdas
    space.to_grid(u, out=grid)
    sup_norm = float(np.abs(grid, out=buf).max())
    # the extension energy over the squared L^(p+1) norm, which is scale free:
    # u . P(sign(u) |u|^p) is the weighted node sum of |u|^(p+1), by discrete
    # orthonormality, and a truncated u dips below zero
    buf **= p
    np.copysign(buf, grid, out=buf)
    I0 = float(a_half @ u / (u @ space.to_coeffs(buf)) ** (2.0 / (p + 1.0)))
    # the unprojected sup-norm defect of A_half u = max(u, 0)^p at the nodes
    np.maximum(buf, 0.0, out=buf)
    np.subtract(space.to_grid(a_half, out=grid), buf, out=grid)
    equation_defect = float(np.abs(grid, out=grid).max())
    # the sup-norm defect of the Galerkin system: the loop's residual on the grid
    residual_inf = float(np.abs(space.to_grid(r, out=buf), out=buf).max())
    u_coeffs = u
    if space is not basis:
        u_coeffs = np.zeros(basis.K)
        u_coeffs[space.positions] = u
    converged = bool(residual_inf <= cfg.tol_residual)
    return SolveReport(
        solution=SpectralFn(basis, u_coeffs),
        I0=I0,
        residual_inf=residual_inf,
        equation_defect=equation_defect,
        sup_norm=sup_norm,
        iterations=steps,
        converged=converged,
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
