"""Harmonic extension to the half-cylinder and the trace-inequality machinery.

The extension of a trace function with coefficients b_k is
v(x, y) = sum b_k phi_k(x) exp(-sqrt(lambda_k) y); it is harmonic on
domain x (0, inf), vanishes on the lateral boundary, and its Dirichlet energy
is spectral.dirichlet_energy, sum b_k^2 sqrt(lambda_k). The outward normal
derivative of v at the base recovers the square-root operator, which the
finite-difference map dtn_fd approximates at first order in the height step.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import GridFn, as_integer, as_real
from .spectral import SpectralFn, synthesize


class TruncationError(ValueError):
    """Truncation radius too small for the requested profile."""


def evaluate_extension(f: SpectralFn, y: float) -> GridFn:
    """Horizontal slice of the harmonic extension at a finite height y >= 0."""
    y = as_real("extension height y", y, at_least=0)
    decay = np.exp(-f.basis.sqrt_lambdas * y)
    return GridFn(f.basis.domain, f.basis.to_grid(f.coeffs * decay))


def dtn_fd(f: SpectralFn, h: float) -> GridFn:
    """One-sided finite-difference normal derivative of the extension at the base.

    Returns -(v(., h) - v(., 0)) / h, which converges at first order in h to
    the synthesized image of the square-root operator.
    """
    h = as_real("height step h", h, above=0)
    base = synthesize(f)
    lifted = evaluate_extension(f, h)
    return GridFn(f.basis.domain, -(lifted.values - base.values) / h)


def best_trace_constant(n: int) -> float:
    """Sharp constant of the half-space trace inequality: (n-1) sigma_n^(1/n) / 2.

    sigma_n is the surface measure of the unit n-sphere in R^(n+1), 2 pi^x /
    Gamma(x) with x = (n + 1) / 2. For n = 2 the value is sqrt(pi). Gamma(x)
    overflows a float from n = 343 on while the constant grows like sqrt(n), so
    sigma_n is taken in logarithms; an n too large for a float raises ValueError.
    """
    n = as_integer("dimension n", n, at_least=2)
    try:
        x = (n + 1) / 2
        log_sigma = math.log(2.0) + x * math.log(math.pi) - math.lgamma(x)
        return (n - 1) * math.exp(log_sigma / n) / 2.0
    except OverflowError:
        raise ValueError(f"dimension n = {n} is too large for a float") from None


def _stretched_nodes(epsilon: float, R: float, M: int) -> np.ndarray:
    """Trapezoid nodes on [0, R]: uniform to 10*epsilon, geometric beyond."""
    cut = 10.0 * epsilon
    if cut >= R:
        return np.linspace(0.0, R, M + 1)
    m_uni = M // 2
    m_geo = M - m_uni
    uni = np.linspace(0.0, cut, m_uni + 1)
    geo = cut * (R / cut) ** (np.arange(1, m_geo + 1) / m_geo)
    return np.concatenate([uni, geo])


def extremal_quotient(epsilon: float, R: float, M: int) -> float:
    """Rayleigh quotient of the n = 2 bubble profile epsilon^(1/2) / |(x, y + epsilon)|.

    Radial symmetry in the base plane reduces the integrals to 2D quadrature
    over planar radius and height on the half-space truncated at R. The
    quotient tends to best_trace_constant(2) as R and M grow; truncation at
    finite R removes positive energy, so convergence is from below.
    """
    eps = as_real("epsilon", epsilon, above=0)
    M = as_integer("quadrature resolution M", M, at_least=64)
    R = as_real("truncation radius R", R)
    if R <= eps:
        raise TruncationError(f"truncation radius R = {R} must exceed epsilon = {eps}")
    rho = _stretched_nodes(eps, R, M)
    ys = rho
    # |grad U|^2 = eps / (rho^2 + (y + eps)^2)^2 with area element 2 pi rho
    num_rows = np.empty(ys.size)
    chunk = 256
    for a in range(0, ys.size, chunk):
        yy = ys[a : a + chunk, None]
        f = 2.0 * np.pi * rho[None, :] * eps / (rho[None, :] ** 2 + (yy + eps) ** 2) ** 2
        num_rows[a : a + chunk] = np.trapezoid(f, rho, axis=1)
    num = float(np.trapezoid(num_rows, ys))
    # trace power 2# = 4 at n = 2: U(., 0)^4 = eps^2 / (rho^2 + eps^2)^2
    den = float(np.trapezoid(2.0 * np.pi * rho * eps**2 / (rho**2 + eps**2) ** 2, rho))
    return num / math.sqrt(den)
