"""Solve of the power problem for the square-root operator.

The solver finds u > 0 vanishing on the boundary with A_half u = u^p. The
positive solution is the minimizer of the extension energy sum b_k^2
sqrt(lambda_k) over trace functions with unit L^(p+1) norm, scaled by
I0^(1/(p-1)) where I0 is the minimum energy. It is reached by the normalized
fixed-point (Petviashvili) iteration w <- B_half(projection of u^p) started
from the normalized ground mode, with u = I0(w)^(1/(p-1)) w and w renormalized
to the constraint sphere each step: the unnormalized map is radially
repelling with amplitude factor p > 1, so the renormalization is what makes
the iteration contract. The solve reports the iterate with the smallest
projected residual, and stops at 1e-2 * tol_residual, at max_iter steps, or
after STALL_STEPS steps without a new best residual.
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
    eigenpairs,
)
from .spectral import SpectralFn, synthesize

# p close to 1 degenerates the rescaling exponent 1/(p-1)
MIN_EXPONENT = 1.1
# runs within this fraction of the critical exponent need the override flag
NEAR_CRITICAL_BAND = 0.05
# steps without a new best residual before the iteration gives up: near the
# round-off floor the residual can wander on a plateau above the target (4e-11
# to 1e-10 on 2:1 rectangles at p = 2.5, against 1e-11) and would spin to max_iter
STALL_STEPS = 20


class ConfigError(ValueError):
    """Rejected solver configuration."""


class SignViolationError(ValueError):
    """Grid values are negative beyond the tolerated floor."""


def critical_exponent(n: int) -> float:
    """Trace-Sobolev threshold (n+1)/(n-1); unbounded (inf) for n = 1."""
    n = int(n)
    if n < 1:
        raise ValueError("critical_exponent requires n >= 1")
    if n == 1:
        return math.inf
    return (n + 1) / (n - 1)


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
        if self.p is not None and not self.p >= MIN_EXPONENT:
            raise ConfigError(f"p = {self.p} is below the floor {MIN_EXPONENT}")
        if self.K < 1:
            raise ConfigError("K must be at least 1")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not self.tol_residual > 0:
            raise ConfigError("tol_residual must be positive")
        if self.init_perturbation < 0:
            raise ConfigError("init_perturbation must be nonnegative")
        for name in ("tol_residual", "init_perturbation"):
            # an infinite tolerance passes every iterate; a nonfinite amplitude
            # is silently dropped (nan) or poisons the start (inf)
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be nonnegative, got {self.rng_seed}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one nonlinear solve.

    residual_inf is the sup-norm defect of the discrete (mode-projected)
    equation and is what tol_residual governs; equation_defect is the
    unprojected defect against the pointwise power, which is limited by
    spectral truncation and decreases as K and N grow. iterations counts
    fixed-point steps; when the solve did not converge, detail names the stop
    that fired.
    """

    solution: SpectralFn | None
    solution_grid: GridFn | None
    I0: float
    residual_inf: float
    equation_defect: float
    sup_norm: float
    iterations: int
    converged: bool
    symmetry_defect: float
    positivity_min: float
    p: float
    K: int
    tol_residual: float
    rng_seed: int
    domain: DiscreteDomain
    detail: str = ""


def _resolve_p(p: float | None, cfg: SolveConfig) -> float:
    if p is not None and cfg.p is not None and float(p) != float(cfg.p):
        raise ConfigError(f"explicit p = {p} disagrees with config p = {cfg.p}")
    eff = p if p is not None else cfg.p
    if eff is None:
        raise ConfigError("exponent p was not provided")
    return float(eff)


def _validate_exponent(domain: DiscreteDomain, p: float, cfg: SolveConfig) -> None:
    if not p >= MIN_EXPONENT:
        raise ConfigError(f"p = {p} is below the floor {MIN_EXPONENT}")
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
    # the grid must resolve the power nonlinearity: N >= 4 * max mode index per axis
    for axis in range(basis.domain.n):
        top = max(idx[axis] for idx in basis.mode_indices)
        need = 4 * top
        if basis.domain.grid_counts[axis] < need:
            raise ConfigError(
                f"grid count {basis.domain.grid_counts[axis]} on axis {axis} is too "
                f"coarse to dealias the nonlinearity; need at least {need}"
            )


def _constraint_scale(values: np.ndarray, weight: float, p: float) -> float:
    return float((np.sum(np.abs(values) ** (p + 1)) * weight) ** (1.0 / (p + 1)))


def rescale_to_solution(w: SpectralFn, I0: float, p: float) -> SpectralFn:
    """Scale the constrained minimizer by the Lagrange factor I0^(1/(p-1))."""
    if not I0 > 0:
        raise ValueError(f"I0 = {I0} must be positive")
    t = I0 ** (1.0 / (p - 1.0))
    return SpectralFn(w.basis, t * w.coeffs)


def _sign_gate(values: np.ndarray) -> float:
    """Return sup|values|, raising if negative values exceed the tolerated floor."""
    sup = float(np.max(np.abs(values))) if values.size else 0.0
    if sup > 0.0 and float(values.min()) < -1e-10 * sup:
        raise SignViolationError(
            f"grid minimum {values.min():.3e} is negative beyond -1e-10 * sup = {-1e-10 * sup:.3e}"
        )
    return sup


def _defects(basis: EigenBasis, u_coeffs: np.ndarray, p: float) -> tuple[float, float]:
    """Unprojected and mode-projected sup-norm defects of A_half u = u^p."""
    Phi = basis.matrix
    wq = basis.domain.weight
    s = basis.sqrt_lambdas
    power = np.maximum(u_coeffs @ Phi, 0.0) ** p
    raw = float(np.max(np.abs((u_coeffs * s) @ Phi - power)))
    # the same expression as the residual in _fixed_point, so a solve reports
    # exactly the residual its iteration measured
    projected = float(np.max(np.abs((u_coeffs * s - Phi @ power * wq) @ Phi)))
    return raw, projected


def residual(u: SpectralFn, p: float) -> float:
    """Sup-norm grid defect of the equation: |A_half u - u^p| at the nodes.

    The power is taken on values clipped to nonnegative; values negative
    beyond -1e-10 times the sup norm raise SignViolationError.
    """
    _sign_gate(synthesize(u).values)
    raw, _ = _defects(u.basis, u.coeffs, p)
    return raw


def galerkin_residual(u: SpectralFn, p: float) -> float:
    """Sup-norm defect of the discrete system: A_half u minus the mode projection of u^p."""
    _sign_gate(synthesize(u).values)
    _, projected = _defects(u.basis, u.coeffs, p)
    return projected


def _symmetry_defect(domain: DiscreteDomain, values: np.ndarray) -> float:
    arr = values.reshape(domain.shape)
    worst = 0.0
    for axis in range(domain.n):
        worst = max(worst, float(np.max(np.abs(arr - np.flip(arr, axis=axis)))))
    return worst


def _diverged_report(
    domain: DiscreteDomain, p: float, cfg: SolveConfig, detail: str
) -> SolveReport:
    nan = float("nan")
    return SolveReport(
        solution=None,
        solution_grid=None,
        I0=nan,
        residual_inf=math.inf,
        equation_defect=math.inf,
        sup_norm=nan,
        iterations=0,
        converged=False,
        symmetry_defect=nan,
        positivity_min=nan,
        p=p,
        K=cfg.K,
        tol_residual=cfg.tol_residual,
        rng_seed=cfg.rng_seed,
        domain=domain,
        detail=detail,
    )


def _fixed_point(basis: EigenBasis, p: float, cfg: SolveConfig):
    """Normalized fixed-point iteration from the (perturbed) ground mode.

    Returns (I0, u coefficients, steps, stop) for the iterate with the smallest
    projected residual; stop is "" when the target was met, else the reason the
    iteration ended. A nonfinite iterate returns None coefficients.
    """
    Phi = basis.matrix
    s = basis.sqrt_lambdas
    wq = basis.domain.weight
    w = Phi[0].copy()
    if cfg.init_perturbation > 0:
        rng = np.random.default_rng(cfg.rng_seed)
        w = w + cfg.init_perturbation * (rng.standard_normal(basis.K) @ Phi)
    w = np.abs(w)
    w /= _constraint_scale(w, wq, p)
    b = Phi @ w * wq
    target = max(cfg.tol_residual * 1e-2, 1e-14)
    best_res, best_I0, best_u, best_step = math.inf, math.nan, None, 0
    step = 0
    while True:
        I0 = float(np.sum(b * b * s))
        ub = I0 ** (1.0 / (p - 1.0)) * b
        Pb = Phi @ (np.maximum(ub @ Phi, 0.0) ** p) * wq
        res = float(np.max(np.abs((ub * s - Pb) @ Phi)))
        if res < best_res:
            best_res, best_I0, best_u, best_step = res, I0, ub, step
        if best_res <= target:
            return best_I0, best_u, step, ""
        if step == cfg.max_iter:
            return best_I0, best_u, step, f"iteration cap max_iter = {cfg.max_iter} reached"
        if step - best_step >= STALL_STEPS:
            return best_I0, best_u, step, f"no new best residual in {STALL_STEPS} steps"
        z = Pb / s
        scale = _constraint_scale(z @ Phi, wq, p)
        if not 0.0 < scale < math.inf:
            return math.nan, None, step, "fixed-point iteration produced a nonfinite iterate"
        b = z / scale
        step += 1


def solve(domain: DiscreteDomain, p: float | None, cfg: SolveConfig) -> SolveReport:
    """Full pipeline: validate, build the basis, iterate to the fixed point, report."""
    p = _resolve_p(p, cfg)
    _validate_exponent(domain, p, cfg)
    basis = eigenpairs(domain, cfg.K)
    _check_dealiasing(basis)
    I0, u_coeffs, steps, stop = _fixed_point(basis, p, cfg)
    if u_coeffs is None:
        return _diverged_report(domain, p, cfg, stop)
    raw, projected = _defects(basis, u_coeffs, p)
    u_grid = u_coeffs @ basis.matrix
    converged = bool(projected <= cfg.tol_residual)
    return SolveReport(
        solution=SpectralFn(basis, u_coeffs),
        solution_grid=GridFn(domain, u_grid),
        I0=I0,
        residual_inf=projected,
        equation_defect=raw,
        sup_norm=float(np.max(np.abs(u_grid))),
        iterations=steps,
        converged=converged,
        symmetry_defect=_symmetry_defect(domain, u_grid),
        positivity_min=float(np.min(u_grid)),
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
    return [_sweep_row(domain, float(q), cfg) for q in p_list]
