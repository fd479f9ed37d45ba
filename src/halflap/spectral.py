"""Coefficient-space trace functions and the diagonal spectral operators.

A trace function u = sum b_k phi_k is a coefficient vector against a Dirichlet
eigenbasis. The three operators act diagonally: the square-root operator
multiplies b_k by sqrt(lambda_k), its inverse divides by sqrt(lambda_k), and
the inverse Laplacian divides by lambda_k. Compositions are kept bit-exact by
recording only the applied half-power of the eigenvalue and materializing the
product once on access: round-tripping through multiply-then-divide would lose
an ulp, while a net half-power of zero returns the original coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .basis import DomainMismatchError, EigenBasis, GridFn, boundary_distance


class UndefinedQuotientError(ValueError):
    """Quotient of a zero function is undefined."""


@dataclass(frozen=True, eq=False)
class SpectralFn:
    """Trace function as coefficients b_k against an eigenbasis.

    The discrete energy seminorm sum b_k^2 sqrt(lambda_k) is automatically
    finite, which is the finite-K form of membership in the trace space.
    """

    basis: EigenBasis
    _base: np.ndarray
    _half_power: int = 0

    def __post_init__(self):
        base = np.array(self._base, dtype=float)
        if base.shape != (self.basis.K,):
            raise DomainMismatchError(
                f"coefficient count {base.size} must equal the basis mode count {self.basis.K}"
            )
        if not np.isfinite(base).all():
            raise ValueError("coefficients must be finite")
        base.flags.writeable = False
        object.__setattr__(self, "_base", base)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """Materialized coefficients b_k * lambda_k^(half_power / 2), read-only."""
        p = self._half_power
        if p == 0:
            return self._base
        q, r = divmod(abs(p), 2)
        factor = None
        if q:
            factor = self.basis.lambdas if q == 1 else self.basis.lambdas**q
        if r:
            s = self.basis.sqrt_lambdas
            factor = s if factor is None else factor * s
        out = self._base * factor if p > 0 else self._base / factor
        out.flags.writeable = False
        return out

    def __repr__(self) -> str:
        return f"SpectralFn(K={self.basis.K}, half_power={self._half_power})"


def analyze(u: GridFn, basis: EigenBasis) -> SpectralFn:
    """Project a grid function onto the eigenbasis: b_k = <u, phi_k>."""
    if u.domain != basis.domain:
        raise DomainMismatchError("grid function and basis must share a domain")
    return SpectralFn(basis, basis.to_coeffs(u.values))


def synthesize(f: SpectralFn) -> GridFn:
    """Evaluate sum b_k phi_k pointwise on the interior grid."""
    return GridFn(f.basis.domain, f.basis.to_grid(f.coeffs))


def apply_A_half(f: SpectralFn) -> SpectralFn:
    """Square root of the Dirichlet Laplacian: multiply b_k by sqrt(lambda_k)."""
    return replace(f, _half_power=f._half_power + 1)


def apply_B_half(f: SpectralFn) -> SpectralFn:
    """Inverse of the square-root operator: divide b_k by sqrt(lambda_k)."""
    return replace(f, _half_power=f._half_power - 1)


def apply_inv_laplacian(f: SpectralFn) -> SpectralFn:
    """Inverse Dirichlet Laplacian: divide b_k by lambda_k."""
    return replace(f, _half_power=f._half_power - 2)


def dirichlet_energy(f: SpectralFn) -> float:
    """Dirichlet energy of the harmonic extension, the trace seminorm sum b_k^2 sqrt(lambda_k)."""
    c = f.coeffs
    return float(np.sum(c * c * f.basis.sqrt_lambdas))


def hardy_quotient(f: SpectralFn) -> float:
    """Quadrature of u^2 / dist(x, boundary) divided by the energy seminorm.

    The integrand is evaluated at interior nodes only, where the distance is
    strictly positive.
    """
    if not np.any(f.coeffs):
        raise UndefinedQuotientError("hardy_quotient of the zero function is undefined")
    u = synthesize(f)
    d = boundary_distance(f.basis.domain)
    num = float(np.sum(u.values * u.values / d.values) * f.basis.domain.weight)
    return num / dirichlet_energy(f)
