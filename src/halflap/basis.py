"""Discrete domains, interior grids, quadrature, and the Dirichlet sine eigenbasis.

Domains are boxes (0, L1) x ... x (0, Ln), n = 1, 2 or 3 (interval, rectangle,
box), with a uniform grid of interior nodes i*h, i = 1..N-1, h = L/N per axis.
Endpoints are excluded and every node carries the flat quadrature weight
h1*...*hn. On such grids the sampled sine eigenfunctions are exactly discretely
orthonormal, which keeps every downstream operator identity exactly testable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

MIN_GRID_COUNT = 8
KINDS = ("interval", "rectangle", "box")
# a sine factor with at least this many entries is applied through its two
# half-node blocks. Below it the two products and the mirroring cost more than
# streaming half the matrix saves: one BLAS thread, a 1D transform takes 3.2 us
# direct and 5.5 us folded at 256/K64, 8.2 us either way at 512/K128 (65,408
# entries), and 37 us direct and 19 us folded at 1024/K256
FOLD_MIN_ENTRIES = 2**16


class DomainError(ValueError):
    """Invalid domain construction parameters."""


class DomainMismatchError(ValueError):
    """Operands live on different domains or bases."""


class AliasingError(ValueError):
    """Requested mode count exceeds what the grid can represent."""


# Every numeric argument and setting is read by one rule: its type, then, for a
# real, its finiteness, then its bound. The first failure raises the caller's
# error class with a message that names the argument and the value.
def as_integer(name: str, value, error=ValueError, at_least=None) -> int:
    """value as an int; a bool, a non-integral number or a value below at_least raises error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return _bounded(name, int(value), error, at_least)


def as_real(name: str, value, error=ValueError, at_least=None, above=None) -> float:
    """value as a float; a bool, a non-real, a nonfinite or an out-of-bound value raises error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value}")
    return _bounded(name, value, error, at_least, above)


def _bounded(name: str, value, error, at_least, above=None):
    if at_least is not None and value < at_least:
        raise error(f"{name} must be at least {at_least}, got {value}")
    if above is not None and value <= above:
        raise error(f"{name} must be greater than {above}, got {value}")
    return value


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteDomain:
    """Interval, rectangle or box with a uniform interior grid.

    lengths and grid_counts are tuples of one float and one int per axis, 1 to 3
    axes, and kind is KINDS[n - 1]. Axis a has grid_counts[a] subdivisions, so its
    interior nodes sit at i * lengths[a] / grid_counts[a] for i = 1..grid_counts[a]-1.
    """

    lengths: tuple[float, ...]
    grid_counts: tuple[int, ...]
    kind: str = field(init=False)

    def __post_init__(self):
        lengths = tuple(as_real("side length", L, DomainError, above=0) for L in self.lengths)
        counts = tuple(
            as_integer("grid count", N, DomainError, at_least=MIN_GRID_COUNT)
            for N in self.grid_counts
        )
        if not 1 <= len(lengths) == len(counts) <= len(KINDS):
            raise DomainError(f"a domain needs 1 to {len(KINDS)} lengths and as many grid counts")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "grid_counts", counts)
        object.__setattr__(self, "kind", KINDS[len(lengths) - 1])

    @property
    def n(self) -> int:
        """Space dimension, 1 to len(KINDS)."""
        return len(self.lengths)

    @property
    def spacings(self) -> tuple[float, ...]:
        return tuple(L / N for L, N in zip(self.lengths, self.grid_counts))

    @cached_property
    def weight(self) -> float:
        """Quadrature weight per interior node: the product of grid spacings."""
        return math.prod(self.spacings)

    @cached_property
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
        grids = np.meshgrid(*(self.axis_nodes(a) for a in range(self.n)), indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def make_interval(L: float, N: int) -> DiscreteDomain:
    """Interval (0, L) with N subdivisions, hence N-1 interior nodes."""
    return DiscreteDomain((L,), (N,))


def make_rectangle(L1: float, L2: float, N1: int, N2: int) -> DiscreteDomain:
    """Rectangle (0, L1) x (0, L2) with (N1-1)(N2-1) interior nodes."""
    return DiscreteDomain((L1, L2), (N1, N2))


@dataclass(frozen=True, eq=False)
class GridFn:
    """Function values sampled at the interior nodes of a domain.

    values is stored flat in C order over the node grid; an array shaped like
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
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")
        object.__setattr__(self, "values", _freeze(vals))

    def reshaped(self) -> np.ndarray:
        """Values as an array shaped like the node grid."""
        return self.values.reshape(self.domain.shape)


class SineTransform:
    """The coefficient/grid transform of a set of sine product modes.

    A subclass supplies factor_rows, factors, coeff_factors, shape and weight.
    Mode k is the product over the axes a of row factor_rows[a][k] of
    factors[a], a sine factor or its odd-j and even-j half-node blocks, on a
    node grid of the given shape. to_coeffs contracts with coeff_factors, the
    factors or the factors times the number of nodes each node stands for, and
    scales by the node weight.
    """

    @property
    def K(self) -> int:
        """Mode count."""
        return self.factor_rows[0].size

    @cached_property
    def max_indices(self) -> tuple[int, ...]:
        """Rows of each factor in use, the largest row plus one: on an
        EigenBasis, the largest sine index on each axis."""
        return tuple(int(r.max()) + 1 for r in self.factor_rows)

    @property
    def num_nodes(self) -> int:
        return math.prod(self.shape)

    def to_grid(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Grid values sum b_k phi_k of the coefficients b at the nodes.

        As with numpy's out=, the values go into out, a float array of num_nodes
        entries that must reshape to (-1, shape[-1]) without a copy, and out is
        returned; without out they go into a new flat array. C, shaped like
        max_indices, holds the coefficients at factor_rows; each axis of C in
        turn is contracted with its factor, or its two blocks, and moved last,
        leaving the nodes in C order. A block of m coefficient rows, shape
        (m, K), gives m rows of values, shape (m, num_nodes), the same way.
        """
        if coeffs.ndim > 1:
            return self._block_to_grid(coeffs, out)
        counts = self.max_indices
        # on one axis the modes are rows 0..K-1 in order, as (j pi / L)^2 grows
        # with j and the sector keeps every other row: C is the coefficients
        if len(self.factor_rows) == 1:
            c = coeffs
        else:
            c = np.zeros(counts)
            c[self.factor_rows] = coeffs
        if out is None:
            out = np.empty(self.num_nodes)
        for axis, (count, nodes, m) in enumerate(zip(counts, self.shape, self.factors)):
            c = c.reshape(count, -1).T
            dest = out.reshape(-1, nodes) if axis == len(counts) - 1 else None
            if dest is not None and not np.may_share_memory(dest, out):
                raise ValueError(f"out must reshape to (-1, {nodes}) without a copy")
            c = (_unfold(c[:, ::2] @ m[0], c[:, 1::2] @ m[1], nodes, dest)
                 if isinstance(m, tuple) else np.matmul(c, m, out=dest))
        return out

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Coefficients <u, phi_k> of the grid values u, by the node quadrature.

        to_grid transposed: each node axis in turn is contracted with its
        coeff_factors entry, or its two blocks, and moved last; each mode then
        reads its entry, times the node weight. A block of m rows of values,
        shape (m, num_nodes), gives m coefficient rows, shape (m, K).
        """
        if values.ndim > 1:
            return self._block_to_coeffs(values)
        c = values
        for nodes, m in zip(self.shape, self.coeff_factors):
            c = c.reshape(nodes, -1)
            c = (_fold(c, *m) if isinstance(m, tuple) else m @ c).T
        if len(self.factor_rows) > 1:
            c = c.reshape(self.max_indices)[self.factor_rows]
        return c.reshape(-1) * self.weight

    # A block's rows ride along as one more, last axis of C, so each axis is
    # one product for the whole block, and come out first. These bodies are
    # kept apart from the single-vector ones, which the solver runs on every
    # step, so that one vector does none of the block's extra work.
    def _block_to_grid(self, coeffs: np.ndarray, out: np.ndarray | None) -> np.ndarray:
        counts = self.max_indices
        c = np.zeros(counts + coeffs.shape[:1])
        c[self.factor_rows] = coeffs.T
        if out is None:
            out = np.empty((len(coeffs), self.num_nodes))
        for axis, (count, nodes, m) in enumerate(zip(counts, self.shape, self.factors)):
            c = c.reshape(count, -1).T
            dest = out.reshape(-1, nodes) if axis == len(counts) - 1 else None
            if dest is not None and not np.may_share_memory(dest, out):
                raise ValueError(f"out must reshape to (-1, {nodes}) without a copy")
            c = (_unfold(c[:, ::2] @ m[0], c[:, 1::2] @ m[1], nodes, dest)
                 if isinstance(m, tuple) else np.matmul(c, m, out=dest))
        return out

    def _block_to_coeffs(self, values: np.ndarray) -> np.ndarray:
        c = values.T
        for nodes, m in zip(self.shape, self.coeff_factors):
            c = c.reshape(nodes, -1)
            c = (_fold(c, *m) if isinstance(m, tuple) else m @ c).T
        c = c.reshape(len(values), *self.max_indices)[(slice(None), *self.factor_rows)]
        return c * self.weight


@dataclass(frozen=True, eq=False)
class EigenBasis(SineTransform):
    """Ordered Dirichlet eigenpairs on the grid, discretely orthonormal.

    lambdas are nondecreasing, and each mode is a product of one sine per axis,
    whose zero-based index on axis a is in factor_rows[a]. The first transform
    builds factors[a]: rows 1..max index of sqrt(2/L_a) sin(j pi x / L_a) on the
    nodes of axis a or, from FOLD_MIN_ENTRIES entries on, only its odd-j rows
    and its even-j rows on nodes 1..N_a // 2, which carry the whole factor as
    sine j at node N_a - i is (-1)^(j+1) times sine j at node i. Only the
    transforms and the sector read the factors.
    """

    domain: DiscreteDomain
    lambdas: np.ndarray
    factor_rows: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.domain.shape

    @property
    def weight(self) -> float:
        return self.domain.weight

    @cached_property
    def sqrt_lambdas(self) -> np.ndarray:
        """Square roots of the eigenvalues, the symbol of the square-root operator."""
        return _freeze(np.sqrt(self.lambdas))

    @cached_property
    def factors(self) -> tuple[np.ndarray | tuple[np.ndarray, np.ndarray], ...]:
        """Per axis, the read-only sine factor, or its odd-j and even-j half-node blocks."""
        return tuple(
            _axis_modes(self.domain, a, count, fold=count * (N - 1) >= FOLD_MIN_ENTRIES)
            for a, (count, N) in enumerate(zip(self.max_indices, self.domain.grid_counts))
        )

    @property
    def coeff_factors(self):
        """Every node stands for itself, so to_coeffs contracts with the factors."""
        return self.factors

    @cached_property
    def sector(self) -> SymmetricSector:
        """The modes whose sine indices are all odd, on the first half of each axis.

        Its blocks are the odd-j rows of each factor on nodes 1..N_a // 2: a
        folded axis's odd block itself, a direct axis's rows copied out.
        """
        positions = np.flatnonzero(np.all([r % 2 == 0 for r in self.factor_rows], axis=0))
        rows = tuple(r[positions] // 2 for r in self.factor_rows)
        sqrt_lambdas = self.sqrt_lambdas[positions]
        blocks, weighted = [], []
        for form, r, N in zip(self.factors, rows, self.domain.grid_counts):
            odd = form[0] if isinstance(form, tuple) else form[::2, : N // 2]
            block = np.ascontiguousarray(odd[: int(r.max()) + 1])
            # node i < N / 2 stands for itself and its mirror N - i; the midpoint
            # of an even N is its own mirror
            w = np.full(N // 2, 2.0)
            if N % 2 == 0:
                w[-1] = 1.0
            blocks.append(block)
            weighted.append(block * w)
        for m in (positions, sqrt_lambdas, *rows, *blocks, *weighted):
            m.flags.writeable = False
        return SymmetricSector(
            positions=positions, sqrt_lambdas=sqrt_lambdas, factor_rows=rows,
            factors=tuple(blocks), coeff_factors=tuple(weighted),
            shape=tuple(N // 2 for N in self.domain.grid_counts), weight=self.domain.weight,
        )


@dataclass(frozen=True, eq=False)
class SymmetricSector(SineTransform):
    """The modes of an EigenBasis whose sine indices are all odd, on half the grid.

    Reflection across the midline of axis a maps sine j to (-1)^(j+1) times
    itself, so these modes span the grid functions that are even in every
    axis, and such a function is known from its values on nodes 1..N_a // 2 of
    each axis, the shape. positions are the modes' places in the basis's
    K-vector, in order, and factor_rows[a] the row of each in factors[a], the
    odd-j rows of the sine factor on those nodes. Its transforms are the
    basis's restricted to the sector: coeff_factors are the blocks times the
    nodes each node stands for, 2 per axis, or 1 on the midpoint of an even
    N_a, and weight is the basis's node weight.
    """

    positions: np.ndarray
    sqrt_lambdas: np.ndarray
    factor_rows: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...]
    coeff_factors: tuple[np.ndarray, ...]
    shape: tuple[int, ...]
    weight: float


def _unfold(a: np.ndarray, e: np.ndarray, nodes: int, out: np.ndarray | None) -> np.ndarray:
    """Node values from the odd-j and even-j sums a, e on the first half of the nodes,
    written into out (a new array if None), shaped (rows, nodes).

    Node i of the first half is a + e; its mirror N - i, counted from the last
    node, is a - e. The midpoint of an even N is its own mirror and is not repeated.
    """
    half = a.shape[1]
    if out is None:
        out = np.empty((a.shape[0], nodes))
    np.add(a, e, out=out[:, :half])
    np.subtract(a[:, : nodes - half], e[:, : nodes - half], out=out[:, :half - 1 : -1])
    return out


def _fold(v: np.ndarray, odd: np.ndarray, even: np.ndarray) -> np.ndarray:
    """The full factor times the node rows v, from its odd-j and even-j blocks.

    Odd rows see v_i + v_(N-i) and even rows v_i - v_(N-i) on the first half of
    the nodes; the midpoint of an even N is its own mirror and is taken once.
    """
    half = odd.shape[1]
    mirror = v[: half - 1 : -1]
    total = v[:half].copy()
    diff = total.copy()
    total[: len(mirror)] += mirror
    diff[: len(mirror)] -= mirror
    out = np.empty((len(odd) + len(even), v.shape[1]))
    out[::2] = odd @ total
    out[1::2] = even @ diff
    return out


def _axis_modes(domain: DiscreteDomain, axis: int, count: int, fold: bool = False):
    """Rows j = 1..count of sqrt(2/L) * sin(j pi x / L) on the interior nodes or,
    with fold, only its odd-j rows and its even-j rows on nodes 1..N // 2; read-only.

    At node x_i = i L / N the argument is pi (j i) / N, and sine has period 2 pi,
    so entry (j, i) is sin(pi k / N) with k = j i mod 2N: a gather from a table of
    2N sines. The reduction is integer arithmetic, so unlike the floating product
    j pi x / L it is exact; count <= N - 1 keeps j i below (N - 1)^2, far inside
    the default 64-bit integers.
    """
    L, N = domain.lengths[axis], domain.grid_counts[axis]
    table = np.sqrt(2.0 / L) * np.sin(np.arange(2 * N) * (np.pi / N))
    j = np.arange(1, count + 1)
    rows, nodes = ((j[::2], j[1::2]), np.arange(1, N // 2 + 1)) if fold else ((j,), np.arange(1, N))
    blocks = tuple(table[np.outer(r, nodes) % (2 * N)] for r in rows)
    for m in blocks:
        m.flags.writeable = False
    return blocks if fold else blocks[0]


def eigenpairs(domain: DiscreteDomain, K: int) -> EigenBasis:
    """First K Dirichlet eigenpairs of the domain.

    Each mode is a product over the axes of sqrt(2/L_a) sin(j_a pi x / L_a), with
    eigenvalue sum of (j_a pi / L_a)^2, sorted ascending by that sum as computed
    in float64, with ties of the computed value broken by (j_1, ..., j_n). Exact
    ties can round apart and then keep their rounded order: on the 2 x 1
    rectangle (1, 4) and (7, 2) both have 65 pi^2 / 4, computed as
    160.38107151770205 and ...208. Axis a carries j_a <= N_a - 1, since sine N_a
    vanishes on its nodes, so K may be at most the product of N_a - 1 over the
    axes. No sine is evaluated before the basis's first transform.

    Repeated calls with an equal domain and K return the same read-only basis;
    the 8 most recently used bases are kept.
    """
    return _build(domain, as_integer("mode count K", K, DomainError, at_least=1))


# keyed on the validated int K: 16.0 and True hash like 16 and 1, so eigenpairs
# rejects them before the lookup. One CLI pass of check, sweep, extend, apply and
# eig uses 5 bases; the bound of 8 caps what a long process keeps alive.
@lru_cache(maxsize=8)
def _build(domain: DiscreteDomain, K: int) -> EigenBasis:
    caps = domain.shape
    if K > math.prod(caps):
        raise AliasingError(
            f"K = {K} exceeds the {math.prod(caps)} modes with j_a <= N_a - 1 = {caps} per axis"
        )
    # every tuple of a capped box j_a <= min(N_a - 1, s) holding at least K
    # tuples has eigenvalue at most the box corner's, so the corner bounds the
    # K-th eigenvalue and every mode kept has j_a <= L_a sqrt(corner) / pi; the
    # + 1 absorbs rounding at the bound
    s = math.ceil(K ** (1 / domain.n))
    while math.prod(min(cap, s) for cap in caps) < K:
        s += 1
    radius = math.hypot(*(min(cap, s) / L for cap, L in zip(caps, domain.lengths)))
    axes = (np.arange(1, min(cap, int(L * radius) + 1) + 1) for cap, L in zip(caps, domain.lengths))
    idx = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    lam = sum((i * np.pi / L) ** 2 for i, L in zip(idx, domain.lengths))
    order = np.lexsort((*idx[::-1], lam))[:K]
    rows = tuple(i[order] - 1 for i in idx)
    for r in rows:
        r.flags.writeable = False
    return EigenBasis(domain=domain, lambdas=_freeze(lam[order]), factor_rows=rows)


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
