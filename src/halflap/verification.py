"""Machine checks of the structural theory on computed solutions.

Each check measures one qualitative property of a grid function (positivity of
the inverse square-root operator, strict interior positivity, reflection
symmetry, monotonicity away from the midline, inward boundary growth, and the
spectral-gap margin that certifies coercivity of A_half + c) and reports the
measured metric against its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import DiscreteDomain, EigenBasis, GridFn, as_integer, as_real
from .spectral import analyze, apply_B_half, synthesize

WEAK_MP_REL_TOL = 1e-8
SYMMETRY_REL_TOL = 1e-8
MONOTONE_REL_TOL = 1e-10
HOPF_REL_FLOOR = 1e-6
# check_weak_mp transforms its sources in blocks of at most this many node
# values, 128 KiB in one buffer per call, and the CLI's check draws its
# sources in blocks of this size. A larger buffer is mapped and faulted in
# afresh on every call, and a block that outgrows the cache gains little over
# lone transforms, which on a large grid are one large product per axis
# already; README "Verification battery" has the measurements
WEAK_MP_BLOCK_VALUES = 2**14
# a call checks its sources in blocks only when it has at least this many and
# a block holds as many: a smaller block costs as much as measuring its
# sources alone, before the screen's one lone re-measurement
WEAK_MP_MIN_ROWS = 8


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one structural check."""

    name: str
    passed: bool
    metric: float
    tolerance: float
    detail: str = ""


def _axis(u: GridFn, axis: int) -> int:
    axis = as_integer("axis", axis)
    if not 0 <= axis < u.domain.n:
        raise ValueError(f"axis {axis} out of range for dimension {u.domain.n}")
    return axis


def check_weak_mp(basis: EigenBasis, g: GridFn, *more: GridFn) -> CheckReport:
    """Discrete weak maximum principle: B_half g stays nonnegative for g >= 0.

    The tolerance is relative, -1e-8 times sup g, calibrated against a dense
    reference battery; the discrete operator is not entrywise nonnegative as a
    matrix fact, but its action on nonnegative data stays above this floor.
    Given more sources, checks each one and reports the worst: the smallest
    metric + tolerance, the first on ties. A signed source raises ValueError
    and a source on a domain other than the basis's DomainMismatchError, the
    first bad source in order deciding which.

    Many sources are transformed in blocks (see WEAK_MP_BLOCK_VALUES), and
    only those that _screen keeps are measured again alone, so the report and
    any error are the ones that measuring every source alone would give, bit
    for bit.
    """
    sources = (g, *more)
    rows = WEAK_MP_BLOCK_VALUES // basis.domain.num_nodes
    screened = (_screen(basis, sources, rows) if min(len(sources), rows) >= WEAK_MP_MIN_ROWS
                else range(len(sources)))
    worst = None
    for i in screened:
        source = sources[i]
        if float(source.values.min()) < 0.0:
            raise ValueError("check_weak_mp requires g >= 0 pointwise")
        metric = float(synthesize(apply_B_half(analyze(source, basis))).values.min())
        tol = WEAK_MP_REL_TOL * float(source.values.max())
        if worst is None or metric + tol < worst[0] + worst[1]:
            worst = metric, tol
    metric, tol = worst
    return CheckReport(
        name="weak_max_principle",
        passed=bool(metric >= -tol),
        metric=metric,
        tolerance=tol,
        detail=f"min of B_half g = {metric:.3e} against floor {-tol:.3e}",
    )


def _screen(basis: EigenBasis, sources: tuple[GridFn, ...], rows: int) -> np.ndarray:
    """Indices, in order, of the sources that can be the worst.

    Each block of at most rows stacked sources takes one to_coeffs and one
    to_grid, and the block keys of every source are compared. For g >= 0, any
    summation order computes each value of B_half g to within
    B = d (eps / 2) M^2 w sum(g) sum_k 1/sqrt(lambda_k), to first order:
    M = prod_a sqrt(2/L_a) bounds every mode, w is the node weight, and
    d = 2 + sum_a (N_a + J_a + 1) counts the roundings on each axis of N_a - 1
    nodes and J_a sine indices, its fold, and the two scalings; sum(g) is
    taken at its bound, num_nodes times the largest sup g. A row's block
    key, metric + tolerance, is then within 2B of its lone key, so a row whose
    lone key is the smallest has a block key within 4B of the smallest. The
    slack is 8B: the margin covers the rounding of the keys and of the bound
    itself. A source that is signed or on another domain, or a key that
    overflowed, leaves nothing to bound: then every source is kept, and
    measured alone in order the first bad one raises.
    """
    every = np.arange(len(sources))
    keys, sups = [], []
    # one buffer serves every block, so its memory is faulted in once a call
    buf = np.empty((min(rows, len(sources)), basis.domain.num_nodes))
    for start in range(0, len(sources), rows):
        block = sources[start : start + rows]
        if any(source.domain != basis.domain for source in block):
            return every
        g = np.stack([source.values for source in block], out=buf[: len(block)])
        if g.min() < 0.0:
            return every
        sups.append(g.max(axis=1))
        basis.to_grid(basis.to_coeffs(g) / basis.sqrt_lambdas, out=g)
        keys.append(g.min(axis=1) + WEAK_MP_REL_TOL * sups[-1])
    keys = np.concatenate(keys)
    if not np.isfinite(keys).all():
        return every
    mass = basis.domain.num_nodes * float(max(sup.max() for sup in sups))
    d = 2 + sum(N + J + 1 for N, J in zip(basis.domain.grid_counts, basis.max_indices))
    sup_mode_sq = math.prod(2.0 / L for L in basis.domain.lengths)
    slack = (4 * d * np.finfo(float).eps * sup_mode_sq * basis.domain.weight * mass
             * float(np.sum(1.0 / basis.sqrt_lambdas)))
    return np.flatnonzero(keys <= keys.min() + slack)


def check_positivity(u: GridFn) -> CheckReport:
    """Strong maximum principle face: u > 0 everywhere or u identically zero."""
    metric = float(u.values.min())
    all_zero = not u.values.any()
    return CheckReport(
        name="positivity",
        passed=bool(all_zero or metric > 0.0),
        metric=metric,
        tolerance=0.0,
        detail="identically zero" if all_zero else f"grid minimum {metric:.3e}",
    )


def check_symmetry(u: GridFn, axis: int) -> CheckReport:
    """Reflection symmetry across the midline of one axis, to SYMMETRY_REL_TOL times sup |u|.

    The metric is sup |u - u flipped along the axis|, measured in one temporary
    array that then holds |u| for the sup.
    """
    arr = u.reshaped()
    scratch = arr - np.flip(arr, axis=_axis(u, axis))
    metric = float(np.abs(scratch, out=scratch).max())
    sup = float(np.abs(arr, out=scratch).max())
    tol = SYMMETRY_REL_TOL * sup
    return CheckReport(
        name=f"symmetry_axis{axis}",
        passed=bool(metric <= tol),
        metric=metric,
        tolerance=tol,
        detail=f"sup |u - reflected u| = {metric:.3e}",
    )


def check_monotonicity(u: GridFn, axis: int) -> CheckReport:
    """Strict decrease along the axis on the half strictly past the midline.

    Forward differences whose left node lies strictly past the midline must
    all be at most MONOTONE_REL_TOL times sup |u|; the metric is the worst
    difference.
    """
    axis = _axis(u, axis)
    arr = u.reshaped()
    diffs = np.diff(arr, axis=axis)
    # 0-based left-node j corresponds to 1-based node index j+1 at x = (j+1) h;
    # strictly past the midline means j + 1 > N/2, i.e. j >= N // 2
    start = u.domain.grid_counts[axis] // 2
    tail = np.take(diffs, np.arange(start, diffs.shape[axis]), axis=axis)
    metric = float(tail.max())
    sup = float(np.abs(u.values).max())
    tol = MONOTONE_REL_TOL * sup
    return CheckReport(
        name=f"monotonicity_axis{axis}",
        passed=bool(metric <= tol),
        metric=metric,
        tolerance=tol,
        detail=f"worst forward difference past the midline = {metric:.3e}",
    )


def check_hopf(u: GridFn) -> CheckReport:
    """Inward boundary growth: first-interior-node quotients u/h strictly positive.

    The smallest quotient over every boundary face must be positive and at
    least HOPF_REL_FLOOR times sup |u| (a positive inward derivative is the discrete
    face of a strictly negative outward normal derivative).
    """
    arr = u.reshaped()
    spacings = u.domain.spacings
    metric = math.inf
    for axis in range(u.domain.n):
        h = spacings[axis]
        low = np.take(arr, 0, axis=axis)
        high = np.take(arr, -1, axis=axis)
        metric = min(metric, float(low.min()) / h, float(high.min()) / h)
    sup = float(np.abs(u.values).max())
    tol = HOPF_REL_FLOOR * sup
    return CheckReport(
        name="hopf",
        passed=bool(metric > 0.0 and metric >= tol),
        metric=metric,
        tolerance=tol,
        detail=f"smallest boundary quotient = {metric:.3e}",
    )


def stability_margin(domain: DiscreteDomain, c_minus_inf: float) -> CheckReport:
    """Spectral-gap margin sqrt(lambda_1) - ||c^-||_inf certifying coercivity.

    A positive margin makes the form of A_half + c coercive; the first
    eigenvalue grows as the domain shrinks, which is the discrete mechanism of
    the small-domain maximum principle.
    """
    c_minus_inf = as_real("c_minus_inf", c_minus_inf, at_least=0)
    lam1 = sum((math.pi / L) ** 2 for L in domain.lengths)
    metric = math.sqrt(lam1) - c_minus_inf
    return CheckReport(
        name="stability_margin",
        passed=bool(metric > 0.0),
        metric=metric,
        tolerance=0.0,
        detail=f"sqrt(lambda_1) = {math.sqrt(lam1):.6g} against c^- = {c_minus_inf:.6g}",
    )
