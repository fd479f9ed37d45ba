"""Discrete domains, interior grids, quadrature, and the Dirichlet sine eigenbasis.

Domains are intervals (0, L) or axis-aligned rectangles (0, L1) x (0, L2) with a
uniform grid of interior nodes i*h, i = 1..N-1, h = L/N per axis. Endpoints are
excluded and every node carries the flat quadrature weight h (or h1*h2). On such
grids the sampled sine eigenfunctions are exactly discretely orthonormal, which
keeps every downstream operator identity exactly testable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

MIN_GRID_COUNT = 8


class DomainError(ValueError):
    """Invalid domain construction parameters."""


class DomainMismatchError(ValueError):
    """Operands live on different domains or bases."""


class AliasingError(ValueError):
    """Requested mode count exceeds what the grid can represent."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteDomain:
    """Interval or rectangle with a uniform interior grid.

    kind is "interval" or "rectangle"; lengths and grid_counts hold one entry
    per axis. Axis a has grid_counts[a] subdivisions, so its interior nodes sit
    at i * lengths[a] / grid_counts[a] for i = 1..grid_counts[a]-1.
    """

    kind: str
    lengths: tuple[float, ...]
    grid_counts: tuple[int, ...]

    def __post_init__(self):
        expected = {"interval": 1, "rectangle": 2}.get(self.kind)
        if expected is None:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if len(self.lengths) != expected or len(self.grid_counts) != expected:
            raise DomainError(f"{self.kind} needs {expected} length(s) and grid count(s)")
        if not all(math.isfinite(L) and L > 0 for L in self.lengths):
            raise DomainError("all side lengths must be positive and finite")
        if not all(isinstance(N, int) and N >= MIN_GRID_COUNT for N in self.grid_counts):
            raise DomainError(f"all grid counts must be integers >= {MIN_GRID_COUNT}")

    @property
    def n(self) -> int:
        """Space dimension (1 or 2)."""
        return len(self.lengths)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.grid_counts))

    @cached_property
    def weight(self) -> float:
        """Quadrature weight per interior node: the product of grid spacings."""
        return math.prod(self.spacings)

    @property
    def shape(self) -> tuple[int, ...]:
        """Interior node count per axis."""
        return tuple(N - 1 for N in self.grid_counts)

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Interior node coordinates along one axis."""
        L, N = self.lengths[axis], self.grid_counts[axis]
        return np.arange(1, N) * (L / N)

    def node_coords(self) -> np.ndarray:
        """Coordinates of all interior nodes, shape (num_nodes, n), C order."""
        axes = [self.axis_nodes(a) for a in range(self.n)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def make_interval(L: float, N: int) -> DiscreteDomain:
    """Interval (0, L) with N subdivisions, hence N-1 interior nodes."""
    return DiscreteDomain("interval", (float(L),), (int(N),))


def make_rectangle(L1: float, L2: float, N1: int, N2: int) -> DiscreteDomain:
    """Rectangle (0, L1) x (0, L2) with (N1-1)(N2-1) interior nodes."""
    return DiscreteDomain("rectangle", (float(L1), float(L2)), (int(N1), int(N2)))


@dataclass(frozen=True)
class GridFn:
    """Function values sampled at the interior nodes of a domain.

    values is stored flat in C order over the node grid; a 2D array shaped like
    domain.shape is accepted and flattened.
    """

    domain: DiscreteDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape == self.domain.shape or vals.shape == (self.domain.num_nodes,):
            vals = vals.reshape(-1)
        else:
            raise DomainMismatchError(
                f"value count {vals.size} does not match the {self.domain.num_nodes} interior nodes"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    def reshaped(self) -> np.ndarray:
        """Values as an array shaped like the node grid."""
        return self.values.reshape(self.domain.shape)


@dataclass(frozen=True)
class EigenBasis:
    """Ordered Dirichlet eigenpairs sampled on the grid, discretely orthonormal.

    lambdas are nondecreasing. Every eigenfunction is a product of one sampled
    sine per axis, so the basis stores per-axis factors rather than the modes:
    factors[a] holds rows 1..max index of sqrt(2/L_a) sin(j pi x / L_a) on axis
    a's nodes, and factor_rows[a] holds each mode's zero-based row in factors[a].
    An interval's single factor is its K modes themselves. The factors are read
    only here, by to_grid and to_coeffs, the coefficient/grid transform.
    """

    domain: DiscreteDomain
    lambdas: np.ndarray
    factors: tuple[np.ndarray, ...]
    factor_rows: tuple[np.ndarray, ...]

    @property
    def K(self) -> int:
        """Mode count."""
        return self.lambdas.size

    @cached_property
    def sqrt_lambdas(self) -> np.ndarray:
        """Square roots of the eigenvalues, the symbol of the square-root operator."""
        return _freeze(np.sqrt(self.lambdas))

    @property
    def max_indices(self) -> tuple[int, ...]:
        """Largest sine index used on each axis."""
        return tuple(f.shape[0] for f in self.factors)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        """Grid values sum b_k phi_k of the coefficients b at the interior nodes.

        On a rectangle the coefficients are scattered into a (max j, max k)
        array C and the values are phi_1^T C phi_2, flattened in C order.
        """
        if len(self.factors) == 1:
            return coeffs @ self.factors[0]
        phi1, phi2 = self.factors
        c = np.zeros((phi1.shape[0], phi2.shape[0]))
        c[self.factor_rows] = coeffs
        return (phi1.T @ c @ phi2).ravel()

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Coefficients <u, phi_k> of the grid values u, by the node quadrature.

        On a rectangle this is (phi_1 U phi_2^T)[j-1, k-1] times the node weight,
        with U the values shaped like the node grid.
        """
        if len(self.factors) == 1:
            return self.factors[0] @ values * self.domain.weight
        phi1, phi2 = self.factors
        c = phi1 @ values.reshape(self.domain.shape) @ phi2.T
        return c[self.factor_rows] * self.domain.weight


def _axis_modes(domain: DiscreteDomain, axis: int, count: int) -> np.ndarray:
    """Rows j = 1..count of sqrt(2/L) * sin(j pi x / L) on the interior nodes."""
    L = domain.lengths[axis]
    x = domain.axis_nodes(axis)
    j = np.arange(1, count + 1)
    return np.sqrt(2.0 / L) * np.sin(np.outer(j, x) * (np.pi / L))


def eigenpairs(domain: DiscreteDomain, K: int) -> EigenBasis:
    """First K Dirichlet eigenpairs of the domain.

    Interval (0, L): lambda_k = (k pi / L)^2 with mode sqrt(2/L) sin(k pi x / L),
    stored as one K x (N-1) factor. Rectangle: tensor products, eigenvalues
    summed per axis, sorted ascending with lexicographic (j, k) tie-break; the
    basis stores one sine factor per axis up to the largest index used. Requires
    K <= min(grid_counts) - 1; higher sine indices alias on the grid (mode N
    vanishes identically).
    """
    K = int(K)
    if K < 1:
        raise DomainError("mode count K must be at least 1")
    if K >= min(domain.grid_counts):
        raise AliasingError(
            f"K = {K} aliases on a grid with min(grid_counts) = {min(domain.grid_counts)}; "
            f"need K <= {min(domain.grid_counts) - 1}"
        )
    if domain.n == 1:
        L = domain.lengths[0]
        ks = np.arange(1, K + 1)
        lambdas = (ks * np.pi / L) ** 2
        rows = (ks - 1,)
    else:
        (L1, L2), (N1, N2) = domain.lengths, domain.grid_counts

        def candidates(top_j: int, top_k: int):
            j, k = np.meshgrid(np.arange(1, top_j + 1), np.arange(1, top_k + 1), indexing="ij")
            j, k = j.ravel(), k.ravel()
            return j, k, (j * np.pi / L1) ** 2 + (k * np.pi / L2) ** 2

        # the K-th eigenvalue of a box of at least K pairs bounds the K-th of the
        # rectangle from above, so every mode kept has j <= L1 sqrt(bound) / pi
        # and k <= L2 sqrt(bound) / pi; the + 1 absorbs rounding at the bound
        side = math.isqrt(K - 1) + 1
        box = candidates(side, -(-K // side))[2]
        radius = math.sqrt(np.partition(box, K - 1)[K - 1]) / math.pi
        j, k, lam = candidates(min(N1 - 1, int(L1 * radius) + 1), min(N2 - 1, int(L2 * radius) + 1))
        order = np.lexsort((k, j, lam))[:K]
        lambdas = lam[order]
        rows = (j[order] - 1, k[order] - 1)
    factors = tuple(_axis_modes(domain, a, int(r.max()) + 1) for a, r in enumerate(rows))
    # the factors and rows are built here, so they are frozen in place rather than copied
    for arr in factors + rows:
        arr.flags.writeable = False
    return EigenBasis(domain=domain, lambdas=_freeze(lambdas), factors=factors, factor_rows=rows)


def boundary_distance(domain: DiscreteDomain) -> GridFn:
    """Distance from each interior node to the domain boundary."""
    coords = domain.node_coords()
    per_axis = np.minimum(coords, np.asarray(domain.lengths) - coords)
    return GridFn(domain, per_axis.min(axis=1))


def inner_product(u: GridFn, w: GridFn) -> float:
    """Discrete L2 pairing: sum of products times the quadrature weight."""
    if u.domain != w.domain:
        raise DomainMismatchError("inner_product operands must share a domain")
    return float(u.values @ w.values * u.domain.weight)
